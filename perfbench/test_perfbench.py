"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
import json
import os
import random

import pytest

import oracle
import run
import spans
import workloads

tb = run.import_program()


def test_oracle_valuations_match_the_library():
    rng = random.Random(0)
    pairs = [(0, 5), (3, -3), (1, 2), (7, 14)]
    pairs += [(rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)) for _ in range(40)]
    for n in (3, 5, 7, 13):
        for a, b in pairs:
            u = tb.truncated2_direct(tb.BinomialPair(a, b, n))
            assert oracle.u_valuation(n, a, b) == tb.padic_valuation(u, n).exponent
            assert oracle.value_residues(n, a, b) == oracle.residues(u)


@pytest.mark.parametrize("n, silent", [(7, False), (7, True), (13, True), (101, False), (1009, False)])
def test_oracle_agrees_on_case_a_verdicts(n, silent):
    rng = random.Random(n)
    for _ in range(5):
        a, b, c = workloads.sample_case_a(rng, n, rule_silent=silent)
        verdict = tb.case_A_verdict(tb.TrinomialTriple(a, b, c, n))
        assert workloads.check_case_a_verdict(verdict, oracle.case_a(a, b, c, n)) is None
        if silent:
            assert verdict.evidence["rule_tier"].value == "Undetermined"


@pytest.mark.parametrize("n, rho_c", [(3, 1), (5, 2), (7, 3), (101, 1)])
def test_oracle_agrees_on_case_b_reports(n, rho_c):
    rng = random.Random(rho_c)
    for _ in range(5):
        a, b, c = workloads.sample_case_b(rng, n, rho_c)
        report = tb.case_B_consistency_check(tb.TrinomialTriple(a, b, c, n))
        assert report.u_qc_matches and report.rho_beta_matches
        assert workloads.check_case_b_report(report, oracle.case_b(a, b, c, n)) is None


def test_oracle_agrees_on_eq2_and_truncated3():
    rng = random.Random(2)
    for n in (7, 101):
        for a, b, c in [(5, -5, 1)] + [tuple(rng.randint(-999, 999) for _ in range(3)) for _ in range(5)]:
            verdict = tb.binomial_equation_verdict(tb.BinomialPair(a, b, n))
            assert workloads.check_eq2(verdict, oracle.eq2(a, b, n)) is None
            u = tb.truncated3(tb.TrinomialTriple(a, b, c, n))
            assert workloads.check_truncated3(u, (n, a, b, c)) is None


def test_checks_reject_a_wrong_answer():
    a, b, c = workloads.sample_case_a(random.Random(1), 7)
    expected = dict(oracle.case_a(a, b, c, 7), v_u_ab=99)
    verdict = tb.case_A_verdict(tb.TrinomialTriple(a, b, c, 7))
    assert "v_u_ab" in workloads.check_case_a_verdict(verdict, expected)
    assert workloads.check_truncated3(1, (7, a, b, c)) is not None


def test_cli_outputs_pass_their_checks():
    a, b, c = workloads.sample_case_a(random.Random(3), 13)
    args = ["--a", str(a), "--b", str(b), "--c", str(c), "--n", "13", "--format", "json"]
    eq3 = workloads.run_cli(tb, ["verdict", "eq3", *args])
    assert workloads.check_case_a_json(eq3, oracle.case_a(a, b, c, 13), (a, b, c)) is None
    compute = workloads.run_cli(tb, ["compute", *args])
    assert workloads.check_compute_json(compute, (a, b, c), 13) is None


def test_every_scan_has_a_golden_and_the_small_ones_match():
    goldens = workloads.load_goldens()
    configs = workloads.scan_configs("scan-decide") + workloads.scan_configs("scan-emit")
    assert sorted(" ".join(argv) for argv, _ in configs) == sorted(goldens)
    for op in workloads.scan_ops(tb, "scan-decide", seed=0):
        if " --n 5 " in op.label or " --n 7 " in op.label:
            assert op.check(op.call()) is None


def test_result_text_drops_only_the_timing():
    envelope = '{\n  "command": "x",\n  "result": {\n    "n": 5\n  },\n  "timing_ms": 1.5\n}\n'
    assert workloads.result_text(envelope) == '{\n    "n": 5\n  }'


def test_build_is_deterministic_in_the_seed():
    for workload in workloads.WORKLOADS:
        first = [op.label for op in workloads.build(tb, workload, 7)]
        assert first == [op.label for op in workloads.build(tb, workload, 7)]
    assert workloads.sample_case_b(random.Random(4), 7, 2) == workloads.sample_case_b(random.Random(4), 7, 2)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # outer 0..100 holds a 10..40 and b 50..90; b holds c 60..70.
    recorder = spans.Recorder(clock=FakeClock([0, 10, 40, 50, 60, 70, 90, 100]))
    recorder.open("x.outer")
    recorder.open("y.a")
    recorder.close()
    recorder.open("y.b")
    recorder.open("x.c")
    recorder.close()
    recorder.close()
    recorder.close()
    assert recorder.spans == {
        "y.a": [1, 30, 30],
        "x.c": [1, 10, 10],
        "y.b": [1, 40, 30],
        "x.outer": [1, 100, 30],
    }
    assert recorder.layer_totals("x") == (2, 40)
    assert recorder.layer_totals("y") == (2, 60)
    assert recorder.total_ns("y.a", "y.b", "missing") == 70


def _bindings():
    owners = [tb] + [getattr(tb, layer) for layer in spans.LAYERS]
    owners += [getattr(tb.residue_scan, cls) for cls, _ in spans.REPORT_METHODS]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_wrappers_restore_every_binding():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(tb, spans.Recorder()):
            assert tb.cli.scan_divisibility.__wrapped__ is before[(id(tb.residue_scan), "scan_divisibility")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_calls_land_in_their_layers():
    recorder = spans.Recorder()
    with spans.installed(tb, recorder):
        code, _ = workloads.run_cli(tb, ["scan", "u2", "--n", "5", "--k", "2", "--format", "json"])
        report = tb.scan_divisibility(5, 2)
        workloads.run_cli(tb, ["verify", "--quick", "--claim", "II.12", "--format", "json"])
    assert code == 0
    metrics = spans.layer_metrics(recorder, tb.claims.CLAIM_CODES)
    assert metrics["residue_scan.cells"] == 2 * report.cells_scanned
    assert metrics["residue_scan.witnesses"] == 2 * len(report.witnesses)
    assert metrics["claims.II.12_ms"] > 0 and metrics["claims.I.2_ms"] == 0
    assert metrics["cli.calls"] == 6  # main, build_parser and one command, twice
    assert metrics["valuation.calls"] == 0
    names = {name for name, _ in spans.per_layer(tb.claims.CLAIM_CODES)}
    assert set(metrics) | {"trace.overhead_s"} == names


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer(tb.claims.CLAIM_CODES)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_unreadable_output_counts_as_wrong_not_as_a_crash():
    tally = run.Tally()
    op = workloads.Op("bad", lambda: (0, "not json"), lambda out: workloads.check_compute_json(out, (1, 2, 3), 7))
    run.run_pass([op], tally, [])
    assert (tally.attempted, tally.failed, tally.incorrect) == (1, 1, 1)


def _raises(exc):
    def call():
        raise exc
    return call


def test_only_the_digit_limit_crash_is_tolerated():
    limit = ValueError("Exceeds the limit (4300 digits) for integer string conversion")
    ops = [
        workloads.Op("known", _raises(limit), None, cli=True, digit_limit=True),
        workloads.Op("unflagged", _raises(limit), None, cli=True),
        workloads.Op("other ValueError", _raises(ValueError("bad n")), None, digit_limit=True),
        workloads.Op("RuntimeError", _raises(RuntimeError("boom")), None, digit_limit=True),
    ]
    tally = run.Tally()
    run.run_pass(ops, tally, [])
    assert (tally.attempted, tally.failed, tally.incorrect) == (4, 4, 3)
    tally = run.Tally()
    run.run_pass(ops[:1], tally, [])
    assert (tally.failed, tally.incorrect) == (1, 0)


def test_the_digit_limit_crash_is_real():
    op = next(op for op in workloads.build(tb, "verdict-batch", 1)
              if op.digit_limit and "compute" in op.label)
    with pytest.raises(ValueError) as caught:
        op.call()
    assert run.known_failure(op, caught.value)


class FakeCalibration(run.Calibration):
    def __init__(self, factors):
        super().__init__(python_share=1.0)
        self.pending = iter(factors)

    def measure(self):
        self.factors.append(next(self.pending))
        return self.factors[-1]


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    monkeypatch.setattr(run, "CAL_EVERY_NS", 0)
    ticks = iter([0, 10, 100, 130])
    monkeypatch.setattr(run.time, "perf_counter_ns", lambda: next(ticks))
    ops = [workloads.Op(str(i), lambda: None, lambda out: None) for i in range(2)]
    latencies, calibration = [], FakeCalibration([0.5, 0.25])
    wall = run.run_pass(ops, run.Tally(), latencies, calibration=calibration)
    # The first op has only the calibration after it; the second is divided
    # by the mean slowdown (2 + 4) / 2, a factor of 1/3.
    assert latencies == pytest.approx([5.0, 10.0])
    assert wall == pytest.approx(15 / 1e9)


def test_calibration_reads_one_at_the_reference_speed(monkeypatch):
    times = {run.python_work: run.REF_PYTHON_NS, run.bigint_work: 2 * run.REF_BIGINT_NS}
    monkeypatch.setattr(run, "best_of_3_ns", times.get)
    assert run.Calibration(1.0).measure() == 1.0
    assert run.Calibration(0.5).measure() == pytest.approx(1 / 1.5)
