"""CLI surface tests: subcommands, formats, and the exit-code contract.

Exit codes: 0 ok, 1 verify failure, 2 parse/validation, 3 precondition,
4 expectation violated, 5 budget exceeded, 141 stdout closed early.
"""
import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import truncbin
from truncbin import ScanConstraints, cli, scan_divisibility, scan_quadratic
from truncbin.cli import EXIT_BROKEN_PIPE, build_parser, main
from truncbin.residue_scan import _PairRows

PERFBENCH_GOLDENS = Path(__file__).parents[1] / "perfbench" / "goldens.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute

def test_compute_pair(capsys):
    code, out, _ = run_cli(capsys, "compute", "--a", "1", "--b", "1", "--n", "3")
    assert code == 0
    assert "u: 6" in out


def test_compute_trivial_pair(capsys):
    code, out, _ = run_cli(capsys, "compute", "--a", "1", "--b", "-1", "--n", "5")
    assert code == 0
    assert "u: 0" in out


def test_compute_all_forms_json(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--a", "1", "--b", "1", "--n", "3",
        "--all-forms", "--format", "json",
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "compute"
    assert envelope["inputs"] == {"a": "1", "b": "1", "n": 3}
    forms = envelope["result"]["forms"]
    assert set(forms.values()) == {"6"}
    assert "timing_ms" in envelope


def test_compute_triple(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--a", "1", "--b", "1", "--c", "4", "--n", "3"
    )
    assert code == 0
    assert "u: 150" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_triple_refuses_all_forms(capsys, fmt):
    code, out, err = run_cli(
        capsys, "compute", "--a", "1", "--b", "1", "--c", "4", "--n", "3",
        "--all-forms", "--format", fmt,
    )
    assert code == 2
    assert out == ""
    assert "--all-forms" in err


def test_compute_huge_values_survive_json(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--a", str(10**40), "--b", "1", "--n", "13",
        "--format", "json",
    )
    assert code == 0
    envelope = json.loads(out)
    # decimal-string transport: parsing back gives the exact integer
    u = int(envelope["result"]["u"])
    assert u == (10**40 + 1) ** 13 - (10**40) ** 13 - 1


def test_compute_rejects_composite_exponent(capsys):
    code, _, err = run_cli(capsys, "compute", "--a", "1", "--b", "1", "--n", "9")
    assert code == 2
    assert "prime" in err


def test_compute_rejects_strong_pseudoprime_exponent(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes the
    # Miller-Rabin test to every prime base up to 37.
    code, _, err = run_cli(
        capsys, "compute", "--a", "1", "--b", "1", "--n", "318665857834031151167461"
    )
    assert code == 2
    assert "prime" in err


def test_parse_failure_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--a", "one", "--b", "1", "--n", "3"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# verdict

def test_verdict_eq2(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "eq2", "--a", "1", "--b", "1", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "Incompatible"
    assert result["evidence"]["residual"] == "2"
    assert result["conditions"]["parity_class"] == "both-odd"


def test_verdict_eq2_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "eq2", "--a", "3", "--b", "-3", "--n", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "TrivialOnly"


def test_verdict_eq3_case_a(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "eq3", "--a", "1", "--b", "1", "--c", "4", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "Incompatible"
    assert result["evidence"]["v_u_ab"]["exponent"] == 1
    assert result["evidence"]["rule_tier"] == "Incompatible"


def test_verdict_eq3_normalizes_first(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "eq3", "--a", "2", "--b", "2", "--c", "8", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["normalized"] == ["1", "1", "4"]
    assert result["gcd_removed"] == "2"


def test_verdict_eq3_case_b_input_is_precondition_failure(capsys):
    code, _, err = run_cli(
        capsys, "verdict", "eq3", "--a", "1", "--b", "4", "--c", "9", "--n", "3"
    )
    assert code == 3
    assert "divides" in err


def test_verdict_eq3_bad_sum_is_precondition_failure(capsys):
    code, _, err = run_cli(
        capsys, "verdict", "eq3", "--a", "1", "--b", "1", "--c", "2", "--n", "3"
    )
    assert code == 3
    assert "2n" in err


def test_verdict_exponents(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "exponents", "--rho-c", "1", "--n", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["result"] == {"rho_c": 1, "rho_beta": 0, "rho_q": 4}


def test_verdict_exponents_rho_zero(capsys):
    code, _, err = run_cli(capsys, "verdict", "exponents", "--rho-c", "0", "--n", "5")
    assert code == 3
    assert "rho_c" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", ["3", "1000003"])
def test_verdict_exponents_refuses_a_rho_q_too_long_to_print(capsys, n, fmt):
    # rho_q = n*rho_c - 1 has 4301 digits or more: past CPython's default
    # int-to-str limit of 4300, which would end the run in a traceback.
    code, out, err = run_cli(
        capsys, "verdict", "exponents", "--rho-c", "9" * 4300, "--n", n, "--format", fmt
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: rho_q") and err.count("\n") == 1


def test_verdict_exponents_prints_a_4300_digit_rho_q(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "exponents", "--rho-c", "9" * 4299, "--n", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["rho_q"] == 7 * (10**4299 - 1) - 1


def test_verdict_case_b_check(capsys):
    code, out, _ = run_cli(
        capsys, "verdict", "case-b-check",
        "--a", "1", "--b", "80", "--c", "81", "--n", "3", "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["observed"]["rho_c"] == 4
    assert result["expected"]["rho_q"] == 11
    assert result["rho_q_matches"] is False
    assert result["rho_beta_matches"] is True
    assert result["u_ab_matches"] is True


# ---------------------------------------------------------------------------
# scan

def test_scan_u2_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "u2", "--n", "7", "--k", "2", "--case-a",
        "--format", "json",
    )
    assert code == 0
    envelope = json.loads(out)
    report = scan_divisibility(7, 2, ScanConstraints.case_a())
    assert envelope["result"] == report.to_jsonable()
    assert envelope["result"]["witnesses"][0] == [1, 2]


def test_scan_u2_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "u2", "--n", "7", "--k", "2", "--case-a",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "a_res", "b_res"]
    assert rows[1] == ["7", "2", "1", "2"]
    report = scan_divisibility(7, 2, ScanConstraints.case_a())
    assert len(rows) == 1 + len(report.witnesses)


def test_scan_expect_empty_violated(capsys):
    code, _, err = run_cli(
        capsys, "scan", "u2", "--n", "7", "--k", "2", "--case-a", "--expect-empty"
    )
    assert code == 4
    assert "expectation violated" in err


def test_scan_expect_empty_satisfied(capsys):
    code, _, _ = run_cli(
        capsys, "scan", "u2", "--n", "11", "--k", "2", "--case-a", "--expect-empty"
    )
    assert code == 0


def test_scan_budget_flag(capsys):
    code, _, err = run_cli(
        capsys, "scan", "u2", "--n", "13", "--k", "2", "--budget", "100"
    )
    assert code == 5
    assert "budget" in err


def test_scan_far_over_budget_exits_5(capsys):
    code, _, err = run_cli(capsys, "scan", "u2", "--n", "3", "--k", "20000")
    assert code == 5
    assert "3^40000" in err


def test_scan_rejects_composite_exponent(capsys):
    for which in (["u2", "--k", "2"], ["quadratic"]):
        code, _, err = run_cli(capsys, "scan", *which, "--n", "9")
        assert code == 2
        assert "prime" in err


def test_scan_echoes_the_requested_workers(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "u2", "--n", "5", "--k", "2", "--workers", "64", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["inputs"]["workers"] == 64


def test_scan_budget_comes_from_argv_alone(capsys, monkeypatch):
    from test_cli_golden import mask

    scans = [["scan", "u2", "--n", "13", "--k", "2", "--format", "json"],
             ["scan", "quadratic", "--n", "5"]]
    monkeypatch.delenv("SCAN_BUDGET_CELLS", raising=False)
    unset = [run_cli(capsys, *argv) for argv in scans]
    monkeypatch.setenv("SCAN_BUDGET_CELLS", "100")
    for argv, (code, out, err) in zip(scans, unset):
        assert code == 0
        again = run_cli(capsys, *argv)
        assert (again[0], mask(again[1]), again[2]) == (0, mask(out), err), argv
    code, _, err = run_cli(capsys, "scan", "u2", "--n", "13", "--k", "2", "--budget", "100")
    assert code == 5
    assert "needs 28561 cells" in err


def test_scan_quadratic_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "quadratic", "--n", "5", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "k", "a_res", "b_res"]]


def test_scan_quadratic_text(capsys):
    code, out, _ = run_cli(capsys, "scan", "quadratic", "--n", "7")
    assert code == 0
    assert "zero_count: 12" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_scan_quadratic_counts_its_zeros_from_the_rows(capsys, monkeypatch, fmt):
    # --expect-empty's count is the report's zero_count: the flat pair tuple is not built.
    def refuse(report):
        raise AssertionError("zero_pairs built")

    monkeypatch.setattr(truncbin.QuadraticScanReport, "zero_pairs", property(refuse))
    code, _, err = run_cli(
        capsys, "scan", "quadratic", "--n", "13", "--expect-empty", "--format", fmt
    )
    assert code == 4
    assert err == "expectation violated: 24 zero pairs found\n"


_SCANS = [
    (["scan", "u2", "--n", "7", "--k", "2", "--case-a"],
     lambda: scan_divisibility(7, 2, ScanConstraints.case_a())),
    (["scan", "quadratic", "--n", "7"], lambda: scan_quadratic(7)),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, scan", _SCANS, ids=[" ".join(argv) for argv, _ in _SCANS])
def test_every_format_prints_the_one_payload_a_scan_returns(capsys, argv, scan, fmt):
    # CSV too is written from the report's dict with its pair lists as _PairRows.
    with mock.patch.object(cli, "_emit", wraps=cli._emit) as emit:
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    payload = emit.call_args.args[2]
    assert not callable(payload)
    assert type(payload) is dict and payload == scan()._payload(_PairRows)


# ---------------------------------------------------------------------------
# verify

def test_verify_single_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--claim", "II.12")
    assert code == 0
    assert "[PASS] II.12" in out


def test_verify_claim_ii9_reports_verdict(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--claim", "II.9")
    assert code == 0
    assert "EQUAL" in out


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "XX.1")
    assert code == 2
    assert "unknown claim" in err


def test_verify_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--quick", "--claim", "I.res", "--format", "json"
    )
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["all_passed"] is True
    assert envelope["result"]["results"][0]["code"] == "I.res"
    assert envelope["inputs"]["scale"] == "quick"


def test_verify_failing_claim_exits_1(capsys, monkeypatch):
    import truncbin.claims as claims

    monkeypatch.setitem(
        claims._CLAIM_FUNCS, "I.res", lambda rng, scale, seed: (False, {"forced": True})
    )
    code, out, _ = run_cli(capsys, "verify", "--claim", "I.res")
    assert code == 1
    assert "[FAIL] I.res" in out


def test_verify_seed_is_reproducible(capsys):
    _, out1, _ = run_cli(
        capsys, "verify", "--quick", "--claim", "II.A", "--seed", "7",
        "--format", "json",
    )
    _, out2, _ = run_cli(
        capsys, "verify", "--quick", "--claim", "II.A", "--seed", "7",
        "--format", "json",
    )
    r1 = json.loads(out1)["result"]["results"][0]["details"]
    r2 = json.loads(out2)["result"]["results"][0]["details"]
    assert r1 == r2


# ---------------------------------------------------------------------------
# several main calls in one process

def test_second_main_call_runs_only_the_claims_it_asks_for(capsys):
    for code in ("I.1", "II.12"):
        status, out, _ = run_cli(capsys, "verify", "--claim", code, "--format", "json")
        envelope = json.loads(out)
        assert status == 0
        assert envelope["inputs"]["claims"] == [code]
        assert [row["code"] for row in envelope["result"]["results"]] == [code]


def test_main_after_a_parse_failure_gives_the_golden_bytes():
    from test_cli_golden import GOLDEN, run

    argv = ["verdict", "eq3", "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--format", "json"]
    failed = run(argv[:-3] + ["x"])
    assert failed["exit"] == 2 and "invalid int value: 'x'" in failed["stderr"]
    golden = {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    assert run(argv) == golden[" ".join(argv)]


# ---------------------------------------------------------------------------
# the parser main builds: a command's own parser alone, or the whole tree

@pytest.mark.parametrize("argv", [
    ["verdict", "eq3", "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--format", "json"],
    ["scan", "-h"],
    ["scan", "u2", "--n", "5", "--k", "2", "--bogus"],
])
def test_main_without_argv_reads_sys_argv(argv, monkeypatch):
    import test_cli_golden

    monkeypatch.setattr(sys, "argv", ["truncbin", *argv])
    monkeypatch.setattr(test_cli_golden, "main", lambda given: main())
    golden = {" ".join(case["argv"]): case for case in json.loads(test_cli_golden.GOLDEN.read_text())}
    assert test_cli_golden.run(argv) == golden[" ".join(argv)]


def test_a_parser_built_for_one_command_refuses_another(capsys):
    # A command's own parser reads the words after the command's name.
    scan = ["scan", "u2", "--n", "5", "--k", "2"]
    parser = build_parser(scan)
    assert parser.prog == "truncbin scan u2"
    args = parser.parse_args(scan[2:])
    assert (args.name, args.n, args.k) == ("scan u2", 5, 2)
    parser = build_parser(["compute", "--a", "1", "--b", "1", "--n", "3"])
    assert parser.prog == "truncbin compute"
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["--a", "1", "--b", "1", *scan[2:]])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("truncbin compute: error: unrecognized arguments: --k 2\n")


# The root, its 4 commands, and the 4 subcommands of verdict and 2 of scan.
_TREE = 11

_EVERY_COMMAND = [
    ["compute", "--a", "1", "--b", "1", "--n", "3"],
    ["verdict", "eq2", "--a", "1", "--b", "1", "--n", "3"],
    ["verdict", "eq3", "--a", "1", "--b", "2", "--c", "11", "--n", "7"],
    ["verdict", "exponents", "--rho-c", "1", "--n", "5"],
    ["verdict", "case-b-check", "--a", "1", "--b", "80", "--c", "81", "--n", "3"],
    ["scan", "u2", "--n", "5", "--k", "2"],
    ["scan", "quadratic", "--n", "7"],
    ["verify", "--claim", "II.12"],
]


def _parsers_built(argv):
    """How many ArgumentParsers one main(argv) call constructs, and its exit code."""
    from test_cli_golden import run

    init = argparse.ArgumentParser.__init__
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True, side_effect=init) as built:
        code = run(argv)["exit"]
    return built.call_count, code


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=" ".join)
def test_a_command_is_parsed_by_its_own_parser_alone(argv):
    assert _parsers_built(argv) == (1, 0)
    # An error inside the command's options: its own parser refuses it.
    assert _parsers_built([*argv, "--format", "xml"]) == (1, 2)


@pytest.mark.parametrize("argv, built, code", [
    (["-h"], _TREE, 0),
    (["scan", "-h"], _TREE, 0),
    (["scan", "eq3"], _TREE, 2),
    (["--bogus", "compute", "--a", "1", "--b", "1", "--n", "3"], _TREE, 2),
    # A stray word: the command's own parser leaves it over, the tree's root refuses it.
    (["compute", "--a", "1", "--b", "1", "--n", "3", "verify"], 1 + _TREE, 2),
], ids=lambda value: " ".join(value) if type(value) is list else None)
def test_help_at_the_root_or_a_group_and_stray_words_build_the_whole_tree(argv, built, code):
    assert _parsers_built(argv) == (built, code)


# ---------------------------------------------------------------------------
# a reader that closes stdout early

def _spawn(argv, stdout):
    """The CLI in a fresh interpreter that imports this checkout's truncbin."""
    path = os.pathsep.join(filter(None, [str(Path(truncbin.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "truncbin.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_reader_that_stops_after_one_line_gets_exit_141_and_no_traceback():
    # About 150 kB of JSON, more than a pipe holds: the writer is still
    # writing when the reader closes its end, as under `| head -1`.
    proc = _spawn(["scan", "u2", "--n", "11", "--k", "2", "--format", "json"], subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == b"", err  # no traceback, and no message either


def test_csv_reader_that_stops_after_one_line_gets_exit_141():
    # About 480 kB of CSV, written row by row: the write that the closed pipe
    # cuts short must still end in exit 141, not exit 0 with lost rows.
    proc = _spawn(["scan", "u2", "--n", "23", "--k", "2", "--format", "csv"], subprocess.PIPE)
    assert proc.stdout.readline() == b"n,k,a_res,b_res\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b"", err


def _through_short_writes(capsys, monkeypatch, fmt):
    """The scan's output, and what a buffer that takes at most 1000 bytes a
    call, as a pipe may, receives of it; timing_ms is masked in both."""
    class ShortBuffer(io.BytesIO):
        def write(self, data):
            return super().write(bytes(data[:1000]))

    argv = ["scan", "u2", "--n", "7", "--k", "2", "--format", fmt]
    code, expected, _ = run_cli(capsys, *argv)
    stdout = io.TextIOWrapper(ShortBuffer(), encoding="ascii", newline="")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == code == 0
    assert len(expected) > 10_000
    return _mask_timing(expected), _mask_timing(stdout.buffer.getvalue().decode("ascii"))


def _mask_timing(out):
    return re.sub(r'"timing_ms": .*', '"timing_ms": X', out)


def test_csv_is_written_in_full_through_short_writes(capsys, monkeypatch):
    # Every byte still arrives, in order, and none twice.
    expected, received = _through_short_writes(capsys, monkeypatch, "csv")
    assert received == expected


def test_json_is_written_in_full_through_short_writes(capsys, monkeypatch):
    expected, received = _through_short_writes(capsys, monkeypatch, "json")
    assert received == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_reports_go_out_in_bounded_writes(monkeypatch, fmt):
    # n = 37 unconstrained: 10.5 MB of JSON or 3.6 MB of CSV, about 8 kB a
    # row.  Written as it is rendered, no write carries more than a few rows.
    argv = ["scan", "u2", "--n", "37", "--k", "2", "--workers", "1", "--format", fmt]
    golden = json.loads(PERFBENCH_GOLDENS.read_text())[" ".join(argv)]
    writes = []

    class RecordingBuffer(io.BytesIO):
        def write(self, data):
            writes.append(len(data))
            return super().write(data)

    stdout = io.TextIOWrapper(RecordingBuffer(), encoding="ascii", newline="")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == golden["exit"] == 0
    out = stdout.buffer.getvalue().decode("ascii")
    if fmt == "json":  # the digest covers the "result" member, as printed
        key = '\n  "result": '
        out = out[out.index(key) + len(key):out.rindex(',\n  "timing_ms": ')]
    assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]
    assert sum(writes) > 3_000_000
    assert max(writes) <= 64 * 1024


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_a_value_past_the_digit_limit_fails_before_the_first_byte(capsys):
    # U(2, 3) at n = 7001 has 4894 digits, past CPython's int-to-str limit of
    # 4300.  Its str() runs in cli._plain, before anything is written.
    with pytest.raises(ValueError):
        main(["compute", "--a", "2", "--b", "3", "--n", "7001", "--format", "json"])
    assert capsys.readouterr().out == ""


def test_verify_into_a_closed_pipe_gets_exit_141_and_no_traceback():
    # The read end is closed before the process starts, as under `| head -0`,
    # so the first write of the claim lines fails.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _spawn(["verify", "--claim", "II.2"], write)
    finally:
        os.close(write)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b"", err
