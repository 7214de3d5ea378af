"""Batch command-line frontend.

Subcommands: compute, verdict (eq2|eq3|exponents|case-b-check),
scan (u2|quadratic), verify.  Every run emits one report envelope
(command, echoed inputs, result, timing) as text or JSON; scans can
also emit their witnesses as CSV.  Every report goes to stdout through
one writer as it is rendered: JSON from residue_scan._dump, and the pairs
of JSON, CSV and text from one row renderer, residue_scan._write_rows, a
write per row, so no report is held whole.  It renders each column tile
that several scan rows share once and writes each of those rows as one
join of its pieces.  tests/test_cli_golden.py and perfbench/goldens.json
pin their bytes.

Exit codes are part of the contract:
    0  success (an Incompatible verdict is a result, not an error)
    1  verify found a failing claim
    2  argument parsing or domain validation failed
    3  a documented precondition does not hold for the input
    4  --expect-empty was given and witnesses exist
    5  the scan exceeds the cell budget
  141  stdout was closed before the report was written (128 + SIGPIPE)

Arbitrary-size integers cross the boundary as decimal strings so that
downstream JSON tooling cannot round them.  n-adic exponents and units
mod n are JSON numbers, an infinite exponent the string "infinite".
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

from .binomial_core import (
    SERIES_FORMS,
    BinomialPair,
    TrinomialTriple,
    gcd_normalize,
    truncated2_direct,
    truncated2_series,
    truncated3_terms,
)
from .claims import DEFAULT_SEED, FULL, QUICK, ClaimResult, format_claim_line, run_claims
from .compatibility import (
    VerdictKind,
    binomial_equation_verdict,
    case_A_verdict,
    case_B_consistency_check,
    case_B_exponents,
    necessary_conditions_2,
)
from .errors import DomainError, PreconditionError, ScanBudgetError
from .residue_scan import (
    DEFAULT_CELL_BUDGET,
    ScanConstraints,
    _dump,
    _PairRows,
    _write_rows,
    scan_divisibility,
    scan_quadratic,
)
from .valuation import INFINITE, UnitValuation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_EXPECTATION = 4
EXIT_BUDGET = 5
EXIT_BROKEN_PIPE = 141

# Library errors and their exit codes; a subclass maps like its base.
_ERROR_EXITS = {
    ScanBudgetError: EXIT_BUDGET,
    PreconditionError: EXIT_PRECONDITION,
    DomainError: EXIT_VALIDATION,
}

BUDGET_ENV_VAR = "SCAN_BUDGET_CELLS"

FORMATS = ["text", "json"]
# What --expect-empty counts, by scan.
_FOUND = {"scan u2": "witnesses", "scan quadratic": "zero pairs"}


def _exponent(exponent):
    """An n-adic exponent: an int, or "infinite" for the valuation of zero."""
    return "infinite" if exponent == INFINITE else exponent


def _jsonable(key, value):
    """An evidence member: tiers by name, a valuation as base, exponent and unit,
    members named *_valuation as exponents, and other ints as decimal strings."""
    if isinstance(value, VerdictKind):
        return value.value
    if isinstance(value, UnitValuation):
        return {"base": value.base, "exponent": _exponent(value.exponent), "unit": value.unit}
    return _exponent(value) if key.endswith("_valuation") else str(value)


def _verdict_payload(verdict):
    return {
        "kind": verdict.kind.value,
        "reason": verdict.reason,
        "evidence": {k: _jsonable(k, v) for k, v in verdict.evidence.items()},
    }


def _write_text_block(write, payload, indent=""):
    for key, value in payload.items():
        if isinstance(value, dict):
            write(f"{indent}{key}:\n")
            _write_text_block(write, value, indent + "  ")
        elif type(value) is _PairRows:  # a scan's pairs, as the repr of a list of [a, b]
            write(f"{indent}{key}: [")
            _write_rows(value.rows, "[%d, ", ", ", "]", value.size, write)
            write("]\n")
        else:
            write(f"{indent}{key}: {value}\n")


def _write_claims(write, payload, timing_ms):
    """The text form of verify: one line per claim, then a summary."""
    results = payload["results"]
    for row in results:
        write(format_claim_line(ClaimResult(**row)) + "\n")
    failed = [row["code"] for row in results if not row["passed"]]
    if failed:
        summary = f"{len(failed)} claim(s) failed: {', '.join(failed)}"
    else:
        summary = f"all {len(results)} claims passed"
    write(f"# {summary} ({timing_ms:.0f} ms total)\n")


def _stdout_writer():
    """A write(text) that puts every byte of text on stdout or raises."""
    stdout = sys.stdout
    if not hasattr(stdout, "buffer"):  # an io.StringIO, which has no buffer
        return stdout.write
    # TextIOWrapper drops the short count of a large write that a closed
    # pipe cuts off, so write bytes until all are out or a write raises.
    stdout.flush()

    def write(text):
        data = memoryview(text.encode(stdout.encoding, stdout.errors))
        while data:
            data = data[stdout.buffer.write(data):]

    return write


def _emit(args, inputs, payload, seconds):
    timing_ms = round(seconds * 1000.0, 3)
    write = _stdout_writer()
    if args.format == "json":
        envelope = {
            "command": args.name,
            "inputs": inputs,
            "result": payload,
            "timing_ms": timing_ms,
        }
        _dump(envelope, write)
        write("\n")
    elif args.format == "csv":
        payload(write)
    elif args.name == "verify":
        _write_claims(write, payload, timing_ms)
    else:
        write(f"# {args.name}\n")
        _write_text_block(write, payload)
        write(f"# elapsed: {timing_ms} ms\n")


def _echo(args):
    """The operands as given; a, b and c, of unbounded size, as decimal strings."""
    return {
        name: str(value) if name in ("a", "b", "c") else value
        for name in args.operands
        if (value := getattr(args, name)) is not None
    }


def _normalized_triple(args):
    """(a, b, c) divided by their gcd, as a triple; and the gcd."""
    (a, b, c), g = gcd_normalize([args.a, args.b, args.c])
    return TrinomialTriple(a, b, c, args.n), g


# ---------------------------------------------------------------------------
# commands: each returns the echoed inputs, the result payload and, for
# scans, the number of pairs found (else None); main prints them.

def cmd_compute(args):
    if args.c is not None and args.all_forms:
        raise DomainError("--all-forms applies to a pair only; drop --c or --all-forms")
    if args.c is not None:
        u_ab, u_qc = truncated3_terms(TrinomialTriple(args.a, args.b, args.c, args.n))
        payload = {"u": str(u_ab + u_qc), "u_ab": str(u_ab), "u_qc": str(u_qc)}
    else:
        p = BinomialPair(args.a, args.b, args.n)
        u = truncated2_direct(p)
        payload = {"u": str(u)}
        if args.all_forms:
            payload["forms"] = {"direct": str(u)}
            for form in SERIES_FORMS:
                payload["forms"][form] = str(truncated2_series(p, form))
    return _echo(args), payload, None


def cmd_verdict_eq2(args):
    pair = BinomialPair(args.a, args.b, args.n)
    payload = _verdict_payload(binomial_equation_verdict(pair))
    if (args.a, args.b) != (0, 0):
        report = necessary_conditions_2(pair)
        beta = None if report.beta is None else str(report.beta)
        payload["conditions"] = dict(asdict(report), beta=beta)
    return _echo(args), payload, None


def cmd_verdict_eq3(args):
    t, g = _normalized_triple(args)
    payload = _verdict_payload(case_A_verdict(t))
    payload["normalized"] = [str(t.a), str(t.b), str(t.c)]
    payload["gcd_removed"] = str(g)
    return _echo(args), payload, None


def cmd_verdict_exponents(args):
    profile = case_B_exponents(args.rho_c, args.n)
    # CPython 3.10.7 and later print no int longer than this many digits; 0: no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and profile.rho_q >= 10**limit:  # rho_q is the largest exponent
        raise DomainError(f"rho_q = n*rho_c - 1 has more than {limit} digits, too many to print")
    return _echo(args), asdict(profile), None


def cmd_verdict_case_b_check(args):
    t, g = _normalized_triple(args)
    report = case_B_consistency_check(t)
    payload = {
        "relabeled": {"a": str(report.a), "b": str(report.b), "c": str(report.c)},
        "gcd_removed": str(g),
        "observed": {
            "rho_c": _exponent(report.rho_c),
            "c0": str(report.c0),
            "rho_q": _exponent(report.rho_q),
            "q0": str(report.q0),
            "rho_beta": _exponent(report.rho_beta),
            "beta0": str(report.beta0),
        },
        "expected": asdict(report.expected),
        "rho_q_matches": report.rho_q_matches,
        "rho_beta_matches": report.rho_beta_matches,
        "u_ab_valuation": _exponent(report.u_ab_valuation),
        "u_ab_expected": _exponent(report.u_ab_expected),
        "u_ab_matches": report.u_ab_matches,
        "u_qc_valuation": _exponent(report.u_qc_valuation),
        "u_qc_expected": _exponent(report.u_qc_expected),
        "u_qc_matches": report.u_qc_matches,
    }
    return _echo(args), payload, None


def _resolve_budget(flag):
    """The --budget value if given, else SCAN_BUDGET_CELLS, else the default."""
    if flag is not None:
        return flag
    env = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_CELL_BUDGET))
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}")


def _scan_payload(args, report, k, rows, size):
    """What a scan prints: for CSV, a function that writes the header and
    the pairs, held as rows (a, cols) with every column in range(size);
    else the report's dict with its pair lists held as _PairRows, which
    _dump writes as JSON and the text form as list reprs."""
    if args.format != "csv":
        return report._payload(_PairRows)

    def write_csv(write):
        write("n,k,a_res,b_res\r\n")
        _write_rows(rows, f"{report.n},{k},%d,", "", "\r\n", size, write)

    return write_csv


def cmd_scan_u2(args):
    if args.case_a:
        constraints = ScanConstraints.case_a()
    else:
        constraints = ScanConstraints(
            forbid_a_zero=args.forbid_a,
            forbid_b_zero=args.forbid_b,
            forbid_sum_zero_mod_n=args.forbid_sum,
        )
    inputs = dict(
        _echo(args),
        constraints=constraints.to_jsonable(),
        workers=args.workers,
        expect_empty=args.expect_empty,
    )
    budget = _resolve_budget(args.budget)
    report = scan_divisibility(args.n, args.k, constraints, cell_budget=budget)
    payload = _scan_payload(args, report, report.power_k, report.rows, report.modulus)
    return inputs, payload, report.witness_count


def cmd_scan_quadratic(args):
    report = scan_quadratic(args.n, cell_budget=_resolve_budget(None))
    # The quadratic scan works mod n itself, hence k = 1 in the CSV rows.
    pairs = report.zero_pairs
    rows = [(a, (b,)) for a, b in pairs]
    return _echo(args), _scan_payload(args, report, 1, rows, report.n), len(pairs)


def cmd_verify(args):
    scale = FULL if args.full else QUICK
    inputs = {"scale": scale.name, "seed": args.seed, "claims": args.claim or "all"}
    results = run_claims(codes=args.claim, scale=scale, seed=args.seed)
    payload = {
        "all_passed": all(r.passed for r in results),
        "results": [
            dict(asdict(r), duration_ms=round(r.duration_ms, 3)) for r in results
        ],
    }
    return inputs, payload, None


# ---------------------------------------------------------------------------
# parser

def _flag(help):
    return {"action": "store_true", "help": help}


def _command(parser, func, operands="", formats=FORMATS, **options):
    """Declare a subcommand: --x for each word x of operands, options, --format.

    Operands are ints, required unless the word ends in "?".  The inputs
    echo lists the required operands in declaration order, then the
    optional ones that were given.
    """
    operands = {word.rstrip("?"): not word.endswith("?") for word in operands.split()}
    for dest, required in operands.items():
        hint = "prime exponent >= 3" if dest == "n" else None
        parser.add_argument(f"--{dest}".replace("_", "-"), type=int, required=required, help=hint)
    for dest, kwargs in options.items():
        parser.add_argument(f"--{dest}".replace("_", "-"), **kwargs)
    parser.add_argument("--format", choices=formats, default="text")
    name = parser.prog.split(" ", 1)[1]  # "verdict eq2" from "truncbin verdict eq2"
    echo = sorted(operands, key=lambda dest: not operands[dest])
    parser.set_defaults(func=func, name=name, operands=echo)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="truncbin",
        description="Exact divisibility analysis of truncated Newton binomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(
        sub.add_parser("compute", help="evaluate U for a pair or triple"),
        cmd_compute,
        "a b c? n",
        all_forms=_flag("also print the three series forms (pairs only)"),
    )

    verdict = sub.add_parser("verdict", help="compatibility decisions")
    verdict = verdict.add_subparsers(dest="which", required=True)
    for name, func, summary, operands in (
        ("eq2", cmd_verdict_eq2, "two-integer equation verdict", "a b n"),
        ("eq3", cmd_verdict_eq3, "three-integer Case-A verdict", "a b c n"),
        ("exponents", cmd_verdict_exponents, "Case-B exponent algebra", "rho_c n"),
        ("case-b-check", cmd_verdict_case_b_check,
         "check a Case-B triple against the exponent algebra", "a b c n"),
    ):
        _command(verdict.add_parser(name, help=summary), func, operands)

    scan = sub.add_parser("scan", help="exhaustive residue scans")
    scan = scan.add_subparsers(dest="which", required=True)
    _command(
        scan.add_parser("u2", help="scan U(a, b) mod n^k over the full grid"),
        cmd_scan_u2,
        "n k",
        FORMATS + ["csv"],
        case_a=_flag("restrict to a, b, a+b all prime to n"),
        forbid_a=_flag("exclude a = 0 (mod n)"),
        forbid_b=_flag("exclude b = 0 (mod n)"),
        forbid_sum=_flag("exclude a+b = 0 (mod n)"),
        workers={"type": int, "default": 1, "help": "echoed only; scans run in one process"},
        budget={
            "type": int,
            "help": f"cell cap (default {DEFAULT_CELL_BUDGET}, or {BUDGET_ENV_VAR})",
        },
        expect_empty=_flag("exit 4 if any witness is found"),
    )
    _command(
        scan.add_parser("quadratic", help="zero set of (da^2 + da*db + db^2) mod n"),
        cmd_scan_quadratic,
        "n",
        FORMATS + ["csv"],
        expect_empty=_flag("exit 4 if any zero pair is found"),
    )

    p = sub.add_parser("verify", help="rerun the whole claim catalog")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", **_flag("reduced samples (default)"))
    mode.add_argument("--full", **_flag("full-scale samples"))
    _command(
        p,
        cmd_verify,
        claim={"action": "append", "metavar": "CODE", "help": "run only this claim (repeatable)"},
        seed={"type": int, "default": DEFAULT_SEED},
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, payload, found = args.func(args)
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_EXITS.items() if isinstance(exc, cls))
    try:
        _emit(args, inputs, payload, time.perf_counter() - started)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away, as `| head -1` does
        # With stdout on os.devnull the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    if args.name == "verify" and not payload["all_passed"]:
        return EXIT_VERIFY_FAILED
    if getattr(args, "expect_empty", False) and found:
        print(f"expectation violated: {found} {_FOUND[args.name]} found", file=sys.stderr)
        return EXIT_EXPECTATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
