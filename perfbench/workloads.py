"""Seeded inputs and fixed operation lists for the four workloads.

Every workload is a list of Op objects built once per run from the seed.
An op's call goes into truncbin through its public functions or through
truncbin.cli.main(argv) with stdout and stderr sent to in-memory sinks;
its check runs afterwards, outside the timed region, and returns None
when the outcome is right or a short description of what is wrong.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import oracle

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# Decide: Case-A sets of U mod n^k for n = 2 (mod 3) are empty (exit 0);
# n = 7 and 13 have cube roots of unity, so --expect-empty is refuted (exit 4).
DECIDE_GRIDS = (
    (5, 2), (11, 2), (17, 2), (23, 2), (29, 2), (41, 2), (47, 2), (53, 2),
    (5, 3), (5, 4), (11, 3), (7, 2), (13, 2),
)
# Emit: unconstrained grids, whose witness sets grow like 3n^3, and the
# large Case-A sets of n = 1 (mod 3); each is written as JSON and as CSV.
EMIT_UNCONSTRAINED = ((23, 2), (29, 2), (31, 2), (37, 2), (7, 3))
EMIT_CASE_A = ((31, 2), (37, 2), (43, 2))

PAIR_BOUND = 10**6
# Case-A requests per pass: (n, count, of which rule-silent).
CASE_A_PLAN = ((7, 60, 20), (13, 40, 10), (101, 40, 0), (1009, 20, 0), (10007, 4, 0))
# A cube root w of unity mod n makes a^2 + ab + b^2 = 0 (mod n) when
# b = w*a, so n^2 | U(a, b) and the rule tier is silent.
CUBE_ROOT = {7: 2, 13: 3}
# Every CLI_SHARE-th Case-A request of each n also goes through cli.main.
CLI_SHARE = 5
# From this n on, U of a pair near PAIR_BOUND has more than 4300 digits, so
# printing it through the CLI raises ValueError.  Known; not resized away.
DIGIT_LIMIT_N = 1009
# Case-B requests per pass: (n, rho_c, count).
CASE_B_PLAN = ((3, 1, 5), (5, 2, 5), (7, 3, 5), (13, 2, 5), (101, 1, 4), (101, 2, 6))
EQ2_EXPONENTS = (7, 13, 101, 1009, 10007)
EQ2_PER_EXPONENT = 4
TRUNCATED3_PER_EXPONENT = 4


class Op:
    """One closed-loop operation: a call into the program and its check.

    workers is the number of processes the call starts; cli marks calls
    made through cli.main, whose output size the traced run counts;
    digit_limit marks the CLI requests whose output may pass CPython's
    4300-digit int->str limit, the one crash a run tolerates.
    """

    __slots__ = ("label", "call", "check", "workers", "cli", "digit_limit")

    def __init__(self, label, call, check, workers=0, cli=False, digit_limit=False):
        self.label = label
        self.call = call
        self.check = check
        self.workers = workers
        self.cli = cli
        self.digit_limit = digit_limit


def run_cli(tb, argv):
    """cli.main(argv) with output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_op(tb, label, argv, check, workers=0, digit_limit=False):
    return Op(label, lambda: run_cli(tb, argv), check, workers=workers, cli=True,
              digit_limit=digit_limit)


def result_text(envelope: str) -> str:
    """The "result" member of a JSON envelope, as printed.

    The envelope's timing_ms member changes from run to run and is left
    out; everything in the result object is byte-compared.
    """
    start = envelope.index('\n  "result": ') + len('\n  "result": ')
    end = envelope.rindex(',\n  "timing_ms": ')
    return envelope[start:end]


def output_digest(stdout: str, fmt: str) -> str:
    """sha256 of the result object (JSON) or of the whole output (CSV)."""
    text = result_text(stdout) if fmt == "json" else stdout
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def scan_argv(n, k, case_a, expect_empty, fmt):
    argv = ["scan", "u2", "--n", str(n), "--k", str(k)]
    if case_a:
        argv.append("--case-a")
    if expect_empty:
        argv.append("--expect-empty")
    return argv + ["--workers", "1", "--format", fmt]


def scan_configs(workload):
    """(argv, fmt) for every scan a workload runs, in the order listed above."""
    if workload == "scan-decide":
        return [(scan_argv(n, k, True, True, "json"), "json") for n, k in DECIDE_GRIDS]
    grids = [(n, k, False) for n, k in EMIT_UNCONSTRAINED]
    grids += [(n, k, True) for n, k in EMIT_CASE_A]
    return [
        (scan_argv(n, k, case_a, False, fmt), fmt)
        for n, k, case_a in grids
        for fmt in ("json", "csv")
    ]


def scan_ops(tb, workload, seed):
    goldens = load_goldens()
    configs = scan_configs(workload)
    random.Random(f"{seed}:{workload}").shuffle(configs)
    ops = []
    for argv, fmt in configs:
        key = " ".join(argv)
        golden = goldens[key]

        def check(outcome, golden=golden, fmt=fmt):
            code, stdout = outcome
            if code != golden["exit"]:
                return f"exit {code}, expected {golden['exit']}"
            try:
                digest = output_digest(stdout, fmt)
            except ValueError:
                return "no result object in the JSON envelope"
            if digest != golden["sha256"]:
                return "result differs from the golden"
            return None

        ops.append(cli_op(tb, key, argv, check))
    return ops


# ---------------------------------------------------------------------------
# verdict-batch samplers

def sample_case_a(rng, n, rule_silent=False):
    """A coprime triple, none divisible by n, exactly one even, 2n | a+b+c."""
    while True:
        a = rng.randint(-PAIR_BOUND, PAIR_BOUND)
        if rule_silent:
            b = CUBE_ROOT[n] * a % n + n * rng.randint(-PAIR_BOUND // n, PAIR_BOUND // n)
        else:
            b = rng.randint(-PAIR_BOUND, PAIR_BOUND)
        c = 2 * n * rng.randint(-PAIR_BOUND // (2 * n), PAIR_BOUND // (2 * n)) - a - b
        if a % n == 0 or b % n == 0 or c % n == 0:
            continue
        if math.gcd(a, b, c) != 1:
            continue
        if sum(1 for x in (a, b, c) if x % 2 == 0) != 1:
            continue
        return a, b, c


def sample_case_b(rng, n, rho_c):
    """A Case-B triple built to satisfy the exponent algebra.

    c = n^rho_c * c0 and q = a + b = n^(n*rho_c - 1) * q0 with c0, q0 and
    a prime to n, so v_n(U(q, c)) runs to 2*n*rho_c - rho_c.  The
    variable divisible by n is moved to a seeded position.
    """
    while True:
        c0 = rng.choice((-1, 1)) * rng.randint(1, PAIR_BOUND)
        q0 = rng.choice((-1, 1)) * rng.randint(1, PAIR_BOUND)
        a = rng.randint(-PAIR_BOUND, PAIR_BOUND)
        if c0 % n == 0 or q0 % n == 0 or a % n == 0:
            continue
        c = n**rho_c * c0
        b = n ** (n * rho_c - 1) * q0 - a
        if (a + b + c) % (2 * n) != 0 or math.gcd(a, b, c) != 1:
            continue
        position = rng.choice("abc")
        if position == "a":
            return c, a, b
        if position == "b":
            return a, c, b
        return a, b, c


def check_case_a_verdict(verdict, expected):
    ev = verdict.evidence
    seen = {
        "kind": verdict.kind.value,
        "reason": verdict.reason,
        "rule_tier": ev["rule_tier"].value,
        "exact_tier": ev["exact_tier"].value,
        "v_u_ab": ev["v_u_ab"].exponent,
        "v_u_qc": ev["v_u_qc"].exponent,
        "v_sum": ev["v_sum"].exponent,
        "lhs_valuation": ev["lhs_valuation"],
    }
    return _diff(seen, expected)


def _json_number(value):
    """Exponents cross the CLI as ints, big values as decimal strings."""
    return oracle.INFINITE if value == "infinite" else int(value)


def check_case_a_json(outcome, expected, triple):
    code, stdout = outcome
    if code != 0:
        return f"exit {code}, expected 0"
    result = json.loads(stdout)["result"]
    ev = result["evidence"]
    seen = {
        "kind": result["kind"],
        "reason": result["reason"],
        "rule_tier": ev["rule_tier"],
        "exact_tier": ev["exact_tier"],
        "v_u_ab": _json_number(ev["v_u_ab"]["exponent"]),
        "v_u_qc": _json_number(ev["v_u_qc"]["exponent"]),
        "v_sum": _json_number(ev["v_sum"]["exponent"]),
        "lhs_valuation": _json_number(ev["lhs_valuation"]),
    }
    problem = _diff(seen, expected)
    if problem is None and result["normalized"] != [str(x) for x in triple]:
        problem = "normalized triple differs"
    return problem


def check_compute_json(outcome, triple, n):
    code, stdout = outcome
    if code != 0:
        return f"exit {code}, expected 0"
    result = json.loads(stdout)["result"]
    a, b, c = triple
    expected = {
        "u": oracle.value_residues(n, a, b, c),
        "u_ab": oracle.value_residues(n, a, b),
        "u_qc": oracle.value_residues(n, a + b, c),
    }
    seen = {key: oracle.residues(int(result[key])) for key in expected}
    return _diff(seen, expected)


def check_case_b_report(report, expected):
    seen = {
        "relabeled": (report.a, report.b, report.c),
        "rho_c": report.rho_c,
        "rho_q": report.rho_q,
        "rho_beta": report.rho_beta,
        "expected": {
            "rho_c": report.expected.rho_c,
            "rho_beta": report.expected.rho_beta,
            "rho_q": report.expected.rho_q,
        },
    }
    for field in ("rho_q", "rho_beta", "u_ab", "u_qc"):
        seen[f"{field}_matches"] = getattr(report, f"{field}_matches")
    for field in ("u_ab", "u_qc"):
        seen[f"{field}_valuation"] = getattr(report, f"{field}_valuation")
        seen[f"{field}_expected"] = getattr(report, f"{field}_expected")
    return _diff(seen, expected)


def check_eq2(verdict, expected):
    seen = {
        "kind": verdict.kind.value,
        "reason": verdict.reason,
        "residual_residues": oracle.residues(verdict.evidence["residual"]),
    }
    return _diff(seen, expected)


def check_truncated3(value, args):
    return _diff({"u": oracle.residues(value)}, {"u": oracle.value_residues(*args)})


def _diff(seen, expected):
    wrong = sorted(key for key in expected if seen.get(key) != expected[key])
    return f"differs from the oracle in {', '.join(wrong)}" if wrong else None


def verdict_ops(tb, seed):
    rng = random.Random(f"{seed}:verdict-batch")
    ops = []
    for n, count, silent in CASE_A_PLAN:
        for i in range(count):
            a, b, c = sample_case_a(rng, n, rule_silent=i < silent)
            label = f"case_A_verdict n={n}" + (" rule-silent" if i < silent else "")
            ops.append(Op(
                label,
                lambda a=a, b=b, c=c, n=n: tb.case_A_verdict(tb.TrinomialTriple(a, b, c, n)),
                lambda v, t=(a, b, c, n): check_case_a_verdict(v, oracle.case_a(*t)),
            ))
            if i % CLI_SHARE:
                continue
            args = ["--a", str(a), "--b", str(b), "--c", str(c), "--n", str(n)]
            ops.append(cli_op(
                tb,
                f"cli verdict eq3 n={n}",
                ["verdict", "eq3", *args, "--format", "json"],
                lambda out, t=(a, b, c, n): check_case_a_json(out, oracle.case_a(*t), t[:3]),
                digit_limit=n >= DIGIT_LIMIT_N,
            ))
            ops.append(cli_op(
                tb,
                f"cli compute n={n}",
                ["compute", *args, "--format", "json"],
                lambda out, t=(a, b, c), n=n: check_compute_json(out, t, n),
                digit_limit=n >= DIGIT_LIMIT_N,
            ))
    for n, rho_c, count in CASE_B_PLAN:
        for _ in range(count):
            a, b, c = sample_case_b(rng, n, rho_c)
            ops.append(Op(
                f"case_B_consistency_check n={n} rho_c={rho_c}",
                lambda a=a, b=b, c=c, n=n: tb.case_B_consistency_check(
                    tb.TrinomialTriple(a, b, c, n)
                ),
                lambda r, t=(a, b, c, n): check_case_b_report(r, oracle.case_b(*t)),
            ))
    for n in EQ2_EXPONENTS:
        for i in range(EQ2_PER_EXPONENT):
            a = rng.randint(-PAIR_BOUND, PAIR_BOUND)
            b = -a if i == 0 else rng.randint(-PAIR_BOUND, PAIR_BOUND)
            ops.append(Op(
                f"binomial_equation_verdict n={n}",
                lambda a=a, b=b, n=n: tb.binomial_equation_verdict(tb.BinomialPair(a, b, n)),
                lambda v, t=(a, b, n): check_eq2(v, oracle.eq2(*t)),
            ))
        for _ in range(TRUNCATED3_PER_EXPONENT):
            a, b, c = (rng.randint(-PAIR_BOUND, PAIR_BOUND) for _ in range(3))
            ops.append(Op(
                f"truncated3 n={n}",
                lambda a=a, b=b, c=c, n=n: tb.truncated3(tb.TrinomialTriple(a, b, c, n)),
                lambda u, t=(n, a, b, c): check_truncated3(u, t),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# catalog

def catalog_ops(tb, seed):
    """One `verify --claim CODE` call per catalog code, in catalog order.

    Together they are `verify --full --seed <seed>`, except that scan.det
    runs at --quick: at full scale it compares 1 against 8 workers.
    """
    ops = []
    for code in tb.claims.CLAIM_CODES:
        quick = code == "scan.det"
        argv = ["verify", "--quick" if quick else "--full", "--claim", code,
                "--seed", str(seed), "--format", "json"]
        workers = max(tb.claims.QUICK.det_workers) if quick else 0

        def check(outcome, code=code):
            exit_code, stdout = outcome
            if exit_code != 0:
                return f"exit {exit_code}, expected 0"
            result = json.loads(stdout)["result"]
            claims = result["results"]
            if not result["all_passed"] or [r["code"] for r in claims] != [code]:
                return "claim did not pass"
            if code == "II.9" and claims[0]["details"].get("verdict") != "EQUAL":
                return "II.9 verdict is not EQUAL"
            return None

        ops.append(cli_op(tb, " ".join(argv[:4]), argv, check, workers=workers))
    return ops


WORKLOADS = ("scan-decide", "scan-emit", "verdict-batch", "catalog")
# Share of interpreted Python, against big-integer division, in each
# workload's time; run.Calibration weighs the two slowdowns by it.  The
# scan kernel is pure Python, verdicts mostly divide big U by n, and the
# catalog and the emitters mix small-int loops with some big values.  In
# trial runs with shares from 0 to 1 on a shared 2-vCPU VM, these left the
# least spread between runs.
PYTHON_SHARE = {"scan-decide": 1.0, "scan-emit": 0.75, "verdict-batch": 0.25, "catalog": 0.75}


def build(tb, workload, seed):
    """The op list of one workload; the same seed gives the same list."""
    # scan-decide: the residue_scan kernel decides, the output is tiny.
    # scan-emit: the same kernel enumerates and serialisation dominates.
    if workload in ("scan-decide", "scan-emit"):
        return scan_ops(tb, workload, seed)
    # verdict-batch: big-integer U, valuations and tier logic; no scans.
    if workload == "verdict-batch":
        return verdict_ops(tb, seed)
    # catalog: the acceptance command, the only path into the claims layer.
    if workload == "catalog":
        return catalog_ops(tb, seed)
    raise ValueError(f"unknown workload {workload!r}")
