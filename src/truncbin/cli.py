"""Batch command-line frontend.

Subcommands: compute, verdict (eq2|eq3|exponents|case-b-check), scan
(u2|quadratic), verify, declared in one table, _COMMANDS.  main builds
only the parsers its argv names: the four commands with their help, and
a parser's -h, a group's subcommands or a command's options only where
argv holds that name.  argparse prints only from the parsers on argv's
path, all built whole, so usage, help and errors keep their bytes.
Every run emits one report envelope (command, echoed inputs, result,
timing) as text or JSON; scans can also emit their witnesses as CSV.
Every report goes to stdout through one writer as it is rendered: JSON
from residue_scan._dump, and the pairs of JSON, CSV and text from one
row renderer, residue_scan._write_rows, a write per row, so no report is
held whole.  It renders each column tile that several scan rows share
once and writes each of those rows as one join of its pieces.
tests/test_cli_golden.py and perfbench/goldens.json pin their bytes.

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
mod n are JSON numbers, an infinite exponent the string "infinite".  That
rule lives in one place: commands return library values, and _emit passes
them through _plain, which prints the ints under the keys of _DECIMAL in
decimal.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .binomial_core import (
    SERIES_FORMS,
    BinomialPair,
    TrinomialTriple,
    _series_forms,
    gcd_normalize,
    truncated2_direct,
    truncated3_terms,
)
from .claims import DEFAULT_SEED, FULL, QUICK, run_claims
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
from .valuation import INFINITE

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

FORMATS = ["text", "json"]
# What --expect-empty counts, by scan.
_FOUND = {"scan u2": "witnesses", "scan quadratic": "zero pairs"}


# Report keys whose ints, and the ints nested under them, are of unbounded
# size and print as decimal strings.
_DECIMAL = frozenset(
    "a b c c0 q0 beta beta0 residual gcd_removed normalized u u_ab u_qc forms".split())


def _plain(value, decimal=False):
    """value with library types made printable: records (the package's tuple
    types) as dicts of their fields, tiers by name, an infinite exponent as
    "infinite" and, under a key of _DECIMAL, ints as decimal strings.  A
    scan's _PairRows reaches the row writer as it is.  Other values pass
    through as they are: an int past the interpreter's int-to-str limit
    raises here, before anything is written."""
    kind = type(value)
    if kind is int:
        return str(value) if decimal else value
    if kind is dict:
        return {key: _plain(item, decimal or key in _DECIMAL) for key, item in value.items()}
    if kind is list:
        return [_plain(item, decimal) for item in value]
    if kind is float and value == INFINITE:
        return "infinite"
    if kind is VerdictKind:
        return value.value
    if kind is _PairRows:
        return value
    if hasattr(kind, "_asdict"):  # a record; nested records recur here
        return _plain(value._asdict(), decimal)
    return value


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
        status = "PASS" if row["passed"] else "FAIL"
        line = f"[{status}] {row['code']:<9} {row['title']} ({row['duration_ms']:.1f} ms)"
        if "verdict" in row["details"]:
            line += f" -> {row['details']['verdict']}"
        write(line + "\n")
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
    inputs, payload = _plain(inputs), _plain(payload)
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
    """The operands as given."""
    return {name: value for name in args.operands if (value := getattr(args, name)) is not None}


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
        payload = {"u": u_ab + u_qc, "u_ab": u_ab, "u_qc": u_qc}
    else:
        p = BinomialPair(args.a, args.b, args.n)
        u = truncated2_direct(p)
        payload = {"u": u}
        if args.all_forms:
            payload["forms"] = {"direct": u, **dict(zip(SERIES_FORMS, _series_forms(p)))}
    return _echo(args), payload, None


def cmd_verdict_eq2(args):
    pair = BinomialPair(args.a, args.b, args.n)
    payload = binomial_equation_verdict(pair)._asdict()
    if (args.a, args.b) != (0, 0):
        payload["conditions"] = necessary_conditions_2(pair)
    return _echo(args), payload, None


def cmd_verdict_eq3(args):
    t, g = _normalized_triple(args)
    payload = {**case_A_verdict(t)._asdict(), "normalized": [t.a, t.b, t.c], "gcd_removed": g}
    return _echo(args), payload, None


def cmd_verdict_exponents(args):
    profile = case_B_exponents(args.rho_c, args.n)
    # CPython 3.10.7 and later print no int longer than this many digits; 0: no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and profile.rho_q >= 10**limit:  # rho_q is the largest exponent
        raise DomainError(f"rho_q = n*rho_c - 1 has more than {limit} digits, too many to print")
    return _echo(args), profile, None


def cmd_verdict_case_b_check(args):
    t, g = _normalized_triple(args)
    report = case_B_consistency_check(t)._asdict()
    del report["n"]
    relabeled = {key: report.pop(key) for key in ("a", "b", "c")}
    observed = {key: report.pop(key) for key in ("rho_c", "c0", "rho_q", "q0", "rho_beta", "beta0")}
    payload = {"relabeled": relabeled, "gcd_removed": g, "observed": observed, **report}
    return _echo(args), payload, None


def _scan_payload(args, report, k):
    """What a scan prints: for CSV, a function that writes the header and
    the report's rows (a, cols), every column in range(n**k); else the
    report's dict with its pair lists held as _PairRows, which _dump
    writes as JSON and the text form as list reprs."""
    if args.format != "csv":
        return report._payload(_PairRows)

    def write_csv(write):
        write("n,k,a_res,b_res\r\n")
        _write_rows(report.rows, f"{report.n},{k},%d,", "", "\r\n", report.n**k, write)

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
        constraints=constraints,
        workers=args.workers,
        expect_empty=args.expect_empty,
    )
    report = scan_divisibility(args.n, args.k, constraints, cell_budget=args.budget)
    return inputs, _scan_payload(args, report, report.power_k), report.witness_count


def cmd_scan_quadratic(args):
    report = scan_quadratic(args.n, cell_budget=args.budget)
    # The quadratic scan works mod n itself, hence k = 1 in the CSV rows.
    return _echo(args), _scan_payload(args, report, 1), report.zero_count


def cmd_verify(args):
    scale = FULL if args.full else QUICK
    inputs = {"scale": scale.name, "seed": args.seed, "claims": args.claim or "all"}
    results = run_claims(codes=args.claim, scale=scale, seed=args.seed)
    payload = {
        "all_passed": all(r.passed for r in results),
        "results": [
            dict(r._asdict(), duration_ms=round(r.duration_ms, 3)) for r in results
        ],
    }
    return inputs, payload, None


# ---------------------------------------------------------------------------
# parser

def _flag(help):
    return {"action": "store_true", "help": help}


# The --budget option of both scans, and the formats a scan prints.
_BUDGET = {"type": int, "default": DEFAULT_CELL_BUDGET, "help": f"cell cap (default {DEFAULT_CELL_BUDGET})"}
_SCAN_FORMATS = FORMATS + ["csv"]


def _command(parser, operands, formats=FORMATS, options=None):
    """Declare a subcommand: --x for each word x of operands, options, --format.

    Operands are ints, required unless the word ends in "?".  The inputs
    echo lists the required operands in declaration order, then the
    optional ones that were given.  An option keyed by a tuple of names is
    a group of options that exclude each other.  The command runs the
    cmd_ function named after it, as found when the parser is built.
    """
    operands = {word.rstrip("?"): not word.endswith("?") for word in operands.split()}
    for dest, required in operands.items():
        hint = "prime exponent >= 3" if dest == "n" else None
        parser.add_argument(f"--{dest}".replace("_", "-"), type=int, required=required, help=hint)
    for dest, kwargs in (options or {}).items():
        if type(dest) is tuple:
            group = parser.add_mutually_exclusive_group()
            for dest, kwargs in zip(dest, kwargs):
                group.add_argument(f"--{dest}", **kwargs)
        else:
            parser.add_argument(f"--{dest}".replace("_", "-"), **kwargs)
    parser.add_argument("--format", choices=formats, default="text")
    name = parser.prog.split(" ", 1)[1]  # "verdict eq2" from "truncbin verdict eq2"
    func = globals()["cmd_" + name.replace(" ", "_").replace("-", "_")]  # cmd_verdict_eq2
    echo = sorted(operands, key=lambda dest: not operands[dest])
    parser.set_defaults(func=func, name=name, operands=echo)


# The commands in the order help lists them: (name, help, then either the
# table of a group's subcommands or the arguments of _command after parser).
_COMMANDS = (
    ("compute", "evaluate U for a pair or triple", "a b c? n", FORMATS,
     {"all_forms": _flag("also print the three series forms (pairs only)")}),
    ("verdict", "compatibility decisions", (
        ("eq2", "two-integer equation verdict", "a b n"),
        ("eq3", "three-integer Case-A verdict", "a b c n"),
        ("exponents", "Case-B exponent algebra", "rho_c n"),
        ("case-b-check", "check a Case-B triple against the exponent algebra", "a b c n"),
    )),
    ("scan", "exhaustive residue scans", (
        ("u2", "scan U(a, b) mod n^k over the full grid", "n k", _SCAN_FORMATS, {
            "case_a": _flag("restrict to a, b, a+b all prime to n"),
            "forbid_a": _flag("exclude a = 0 (mod n)"),
            "forbid_b": _flag("exclude b = 0 (mod n)"),
            "forbid_sum": _flag("exclude a+b = 0 (mod n)"),
            "workers": {"type": int, "default": 1, "help": "echoed only; scans run in one process"},
            "budget": _BUDGET,
            "expect_empty": _flag("exit 4 if any witness is found"),
        }),
        ("quadratic", "zero set of (da^2 + da*db + db^2) mod n", "n", _SCAN_FORMATS,
         {"budget": _BUDGET, "expect_empty": _flag("exit 4 if any zero pair is found")}),
    )),
    ("verify", "rerun the whole claim catalog", "", FORMATS, {
        ("quick", "full"): (_flag("reduced samples (default)"), _flag("full-scale samples")),
        "claim": {"action": "append", "metavar": "CODE", "help": "run only this claim (repeatable)"},
        "seed": {"type": int, "default": DEFAULT_SEED},
    }),
)


def _add_commands(subparsers, table, named):
    """Add the commands of table to subparsers, each with its help; give a
    command its -h, options or subcommands only if its name is in named."""
    for name, help, *spec in table:
        parser = subparsers.add_parser(name, help=help, add_help=name in named)
        if name not in named:
            continue
        if type(spec[0]) is tuple:  # a group
            _add_commands(parser.add_subparsers(dest="which", required=True), spec[0], named)
        else:
            _command(parser, *spec)


def build_parser(argv=None):
    """The parser for argv (None: sys.argv[1:]), built only as far as argv
    reaches, as the module docstring says."""
    parser = argparse.ArgumentParser(
        prog="truncbin",
        description="Exact divisibility analysis of truncated Newton binomials.",
    )
    named = set(sys.argv[1:] if argv is None else argv)
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS, named)
    return parser


def main(argv=None) -> int:
    args = build_parser(argv).parse_args(argv)
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
