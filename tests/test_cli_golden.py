"""CLI golden test: stdout bytes, stderr and exit code for a fixed argv list.

tests/data/cli_golden.json records what `truncbin` printed and returned
for every argv in CASES, with the timing values masked.  Any change to a
report format, a message or an exit code fails here.  When such a change
is intended, regenerate the file from the repository root and review its
diff before committing it:

    PYTHONPATH=src python3 tests/test_cli_golden.py

test_scan_output_matches_stdlib_encoders checks the CLI's JSON, CSV and
text writers against json.dumps(envelope, indent=2), csv.writer and the
text layout on reports built by the library or by hand, among them rows
that share one cols tuple, as a scan's rows do.

argparse wraps its usage lines to the terminal width, so every run sets
COLUMNS.  The file is recorded with CPython 3.11, and argparse's wording
can differ in other versions.
"""
import contextlib
import csv
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from truncbin import ScanConstraints, ScanReport, scan_divisibility, scan_quadratic
from truncbin.cli import main
from truncbin.residue_scan import DEFAULT_CELL_BUDGET

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# Values that change from run to run, and what they are replaced with.
_TIMINGS = [
    (re.compile(r'"(timing_ms|duration_ms|constrained_seconds|best_enumeration_seconds)": '
                r"[-+.0-9eE]+"), r'"\1": "<t>"'),
    (re.compile(r"# elapsed: [-+.0-9eE]+ ms"), "# elapsed: <t> ms"),
    (re.compile(r"\([.0-9]+ ms"), "(<t> ms"),
]

_PAIR = ["--a", "1", "--b", "1"]
_EQ3 = ["verdict", "eq3"]
_CASE_B = ["verdict", "case-b-check"]
_U2 = ["scan", "u2"]
_QUAD = ["scan", "quadratic"]


def _wieferich_a(n, k=4):
    """The even a = -x (mod n^k) with x^n = 2 (mod n^k), for a Wieferich prime n.

    x = 2 mod n, and x^n mod n^2 is then 2^n mod n^2, which is 2 exactly at a
    Wieferich prime.  Each further digit of x, d * n^(e-2), moves x^n mod n^e
    by d * n^(e-1) * x^(n-1), so one d in range(n) lifts the root to n^e.
    With b = c = 1, 2n divides a + b + c = a + 2 and n^k divides a^n + b^n + c^n.
    """
    x, m = 2, n**k
    assert pow(x, n, n * n) == 2
    for e in range(3, k + 1):
        step, mod = n ** (e - 2), n**e
        x = next(x + d * step for d in range(n) if pow(x + d * step, n, mod) == 2)
    a = -x % m
    return a + m if a % 2 else a


CASES = [
    # compute
    ["compute", *_PAIR, "--n", "3"],
    ["compute", *_PAIR, "--n", "3", "--all-forms"],
    ["compute", *_PAIR, "--n", "3", "--all-forms", "--format", "json"],
    ["compute", *_PAIR, "--c", "4", "--n", "3"],
    ["compute", *_PAIR, "--c", "4", "--n", "3", "--format", "json"],
    ["compute", *_PAIR, "--c", "4", "--n", "3", "--all-forms"],
    ["compute", "--a", "-7", "--b", "12", "--n", "13", "--format", "json"],
    ["compute", "--a", str(10**20), "--b", "3", "--n", "11", "--all-forms", "--format", "json"],
    ["compute", *_PAIR, "--n", "9"],
    ["compute", *_PAIR, "--n", "2", "--format", "json"],
    ["compute", *_PAIR, "--c", "4", "--n", "15"],
    ["compute", "--a", "one", "--b", "1", "--n", "3"],
    ["compute", "--a", "1", "--n", "3"],
    ["compute", *_PAIR, "--n", "3", "--format", "csv"],
    [],
    ["verdict"],
    # verdict eq2
    ["verdict", "eq2", *_PAIR, "--n", "3"],
    ["verdict", "eq2", *_PAIR, "--n", "3", "--format", "json"],
    ["verdict", "eq2", "--a", "3", "--b", "-3", "--n", "5"],
    ["verdict", "eq2", "--a", "3", "--b", "-3", "--n", "5", "--format", "json"],
    ["verdict", "eq2", "--a", "0", "--b", "0", "--n", "3", "--format", "json"],
    ["verdict", "eq2", "--a", "5", "--b", "9", "--n", "7", "--format", "json"],
    ["verdict", "eq2", "--a", "6", "--b", "10", "--n", "7"],
    ["verdict", "eq2", *_PAIR, "--n", "21"],
    # verdict eq3
    [*_EQ3, *_PAIR, "--c", "4", "--n", "3"],
    [*_EQ3, *_PAIR, "--c", "4", "--n", "3", "--format", "json"],
    [*_EQ3, "--a", "2", "--b", "2", "--c", "8", "--n", "3", "--format", "json"],
    [*_EQ3, "--a", "1", "--b", "2", "--c", "11", "--n", "7"],
    [*_EQ3, "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--format", "json"],
    [*_EQ3, *_PAIR, "--c", "-2", "--n", "3", "--format", "json"],
    [*_EQ3, "--a", "1", "--b", "4", "--c", "9", "--n", "3"],
    [*_EQ3, *_PAIR, "--c", "2", "--n", "3"],
    [*_EQ3, "--a", "3", "--b", "6", "--c", "3", "--n", "3", "--format", "json"],
    [*_EQ3, "--a", "3", "--b", "3", "--c", "1", "--n", "3"],
    [*_EQ3, "--a", "0", "--b", "0", "--c", "0", "--n", "3"],
    [*_EQ3, *_PAIR, "--n", "3"],
    # All odd with 7 | a+b+c: the 2n condition refuses it, so no parity test is needed.
    [*_EQ3, *_PAIR, "--c", "5", "--n", "7"],
    # U(1, 2) at n = 10007 has 4775 digits; the verdict is decided from residues.
    [*_EQ3, "--a", "1", "--b", "2", "--c", "20011", "--n", "10007"],
    [*_EQ3, "--a", "1", "--b", "2", "--c", "20011", "--n", "10007", "--format", "json"],
    # c lifted so that the equation holds mod 7^14: v_sum = lhs = 14, both tiers silent.
    [*_EQ3, "--a", "1", "--b", "2", "--c", "1415372820201", "--n", "7"],
    [*_EQ3, "--a", "1", "--b", "2", "--c", "1415372820201", "--n", "7", "--format", "json"],
    # v_59(U(1, 3)) = 2 exactly: the rule tier's v < 2 is silent, the exact tier decides.
    [*_EQ3, "--a", "1", "--b", "3", "--c", "114", "--n", "59"],
    [*_EQ3, "--a", "1", "--b", "3", "--c", "114", "--n", "59", "--format", "json"],
    # b = c at the Wieferich prime 1093, a = 1426309230766: v_1093(U(a, 1)) = 2, so the
    # rule tier is silent, and the exact tier decides on v_sum = 4.
    [*_EQ3, "--a", str(_wieferich_a(1093)), "--b", "1", "--c", "1", "--n", "1093"],
    [*_EQ3, "--a", str(_wieferich_a(1093)), "--b", "1", "--c", "1", "--n", "1093",
     "--format", "json"],
    # verdict exponents
    ["verdict", "exponents", "--rho-c", "1", "--n", "5"],
    ["verdict", "exponents", "--rho-c", "3", "--n", "7", "--format", "json"],
    ["verdict", "exponents", "--rho-c", "0", "--n", "5"],
    ["verdict", "exponents", "--rho-c", "2", "--n", "9", "--format", "json"],
    # rho_q = n*rho_c - 1 past the interpreter's 4300-digit int-to-str limit.
    ["verdict", "exponents", "--rho-c", "9" * 4300, "--n", "3"],
    ["verdict", "exponents", "--rho-c", "9" * 4300, "--n", "1000003", "--format", "json"],
    # verdict case-b-check
    [*_CASE_B, "--a", "1", "--b", "80", "--c", "81", "--n", "3"],
    [*_CASE_B, "--a", "1", "--b", "80", "--c", "81", "--n", "3", "--format", "json"],
    [*_CASE_B, "--a", "81", "--b", "1", "--c", "80", "--n", "3", "--format", "json"],
    [*_CASE_B, "--a", "1", "--b", "-1", "--c", "6", "--n", "3"],
    [*_CASE_B, "--a", "1", "--b", "-1", "--c", "6", "--n", "3", "--format", "json"],
    [*_CASE_B, "--a", "2", "--b", "2", "--c", "8", "--n", "3"],
    [*_CASE_B, "--a", "1", "--b", str(101**201 - 1), "--c", "10201", "--n", "101"],
    [*_CASE_B, "--a", "1", "--b", str(101**201 - 1), "--c", "10201", "--n", "101",
     "--format", "json"],
    [*_CASE_B, *_PAIR, "--c", "4", "--n", "9"],
    [*_CASE_B, "--a", "1", "--b", "4", "--c", "9", "--n", "3"],
    [*_CASE_B, "--a", "1", "--b", "5", "--c", "0", "--n", "3"],
    # scan u2
    [*_U2, "--n", "7", "--k", "2", "--case-a"],
    [*_U2, "--n", "7", "--k", "2", "--case-a", "--format", "json"],
    [*_U2, "--n", "7", "--k", "2", "--case-a", "--format", "csv"],
    [*_U2, "--n", "5", "--k", "2"],
    [*_U2, "--n", "5", "--k", "2", "--format", "json"],
    [*_U2, "--n", "5", "--k", "2", "--format", "csv"],
    [*_U2, "--n", "5", "--k", "1", "--forbid-a", "--format", "json"],
    [*_U2, "--n", "5", "--k", "1", "--forbid-b", "--format", "csv"],
    [*_U2, "--n", "5", "--k", "1", "--forbid-sum"],
    [*_U2, "--n", "5", "--k", "2", "--case-a", "--forbid-a", "--workers", "2", "--format", "json"],
    [*_U2, "--n", "11", "--k", "2", "--case-a", "--expect-empty"],
    [*_U2, "--n", "11", "--k", "2", "--case-a", "--expect-empty", "--format", "json"],
    [*_U2, "--n", "7", "--k", "2", "--case-a", "--expect-empty"],
    [*_U2, "--n", "7", "--k", "2", "--case-a", "--expect-empty", "--format", "json"],
    [*_U2, "--n", "7", "--k", "1", "--case-a", "--expect-empty", "--format", "csv"],
    [*_U2, "--n", "13", "--k", "2", "--budget", "100"],
    [*_U2, "--n", "13", "--k", "2", "--budget", "100", "--format", "json"],
    [*_U2, "--n", "3", "--k", "1", "--budget", "0", "--expect-empty"],
    [*_U2, "--n", "13", "--k", "2", "--budget", "28561", "--case-a", "--expect-empty"],
    # 1013^4 cells and no Case-A witness: the decided period has no row to tile.
    [*_U2, "--n", "1013", "--k", "2", "--case-a", "--expect-empty", "--budget", "1100000000000",
     "--format", "json"],
    # CSV from the payload's pair lists: none (a header only), and k = 3 in every row.
    [*_U2, "--n", "11", "--k", "2", "--case-a", "--format", "csv"],
    [*_U2, "--n", "3", "--k", "3", "--forbid-sum", "--format", "csv"],
    [*_U2, "--n", "7", "--k", "0"],
    [*_U2, "--n", "7"],
    # scan quadratic
    [*_QUAD, "--n", "7"],
    [*_QUAD, "--n", "7", "--format", "json"],
    [*_QUAD, "--n", "7", "--format", "csv"],
    [*_QUAD, "--n", "5", "--format", "json"],
    [*_QUAD, "--n", "5", "--format", "csv"],
    [*_QUAD, "--n", "3", "--expect-empty"],
    [*_QUAD, "--n", "5", "--expect-empty"],
    [*_QUAD, "--n", "7", "--expect-empty", "--format", "csv"],
    [*_QUAD, "--n", "10007"],
    [*_QUAD, "--n", "9973"],
    # (7 - 1)^2 = 36 cells: one below the grid, then the grid itself.
    [*_QUAD, "--n", "7", "--budget", "35"],
    [*_QUAD, "--n", "7", "--budget", "36"],
    # CSV rows from zeros_other alone, k = 1; a refused budget prints no header.
    [*_QUAD, "--n", "13", "--format", "csv"],
    [*_QUAD, "--n", "7", "--budget", "35", "--format", "csv"],
    # verify
    ["verify"],
    ["verify", "--quick", "--format", "json"],
    ["verify", "--quick", "--claim", "II.12"],
    ["verify", "--claim", "II.9", "--claim", "II.7"],
    ["verify", "--claim", "II.A4", "--claim", "II.7", "--format", "json"],
    ["verify", "--claim", "II.A", "--seed", "7", "--format", "json"],
    # Full scale: the Case-A and 2n | a+b+c samplers' streams, 1000 draws each.
    ["verify", "--full", "--claim", "II.A", "--claim", "II.5", "--claim", "II.6",
     "--claim", "II.8", "--format", "json"],
    # The printed n = 11 bracket against the direct form on 1000 pairs.
    ["verify", "--full", "--claim", "II.9"],
    ["verify", "--full", "--claim", "II.9", "--format", "json"],
    # The whole catalog at full scale off the default seed: I.1's trivial_cases and
    # II.A's counts move with any change to a sample stream.
    ["verify", "--full", "--seed", "7", "--format", "json"],
    ["verify", "--claim", "XX.1"],
    ["verify", "--quick", "--full"],
    ["verify", "--format", "csv"],
    # Help at every level, and errors that print the names of sibling commands.
    ["-h"],
    ["verdict", "-h"],
    ["scan", "-h"],
    ["compute", "-h"],
    ["verdict", "eq2", "-h"],
    [*_EQ3, "-h"],
    ["verdict", "exponents", "-h"],
    [*_CASE_B, "-h"],
    [*_U2, "-h"],
    [*_QUAD, "-h"],
    ["verify", "-h"],
    ["scan", "eq3"],
    ["verdict", "u2"],
    ["--bogus", "compute", *_PAIR, "--n", "3"],
    [*_EQ3, "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--bogus"],
    ["compute", *_PAIR, "--n", "3", "verify"],
    # Words a command's own options leave over, refuse or accept: an unknown
    # option, a stray word, an ambiguous and two accepted abbreviations, words
    # after "--", and a command's name given as an option's value.
    [*_U2, "--n", "5", "--k", "2", "--bogus"],
    [*_U2, "--n", "5", "--k", "2", "extra"],
    [*_QUAD, "--n", "7", "--bogus"],
    [*_U2, "--n", "5", "--k", "2", "--forbid"],
    [*_U2, "--n", "5", "--k", "2", "--case", "--expect", "--format", "json"],
    [*_U2, "--n", "5", "--", "--k", "2"],
    ["verify", "--claim", "scan", "--quick"],
]


def mask(text: str) -> str:
    for pattern, replacement in _TIMINGS:
        text = pattern.sub(replacement, text)
    return text


def run(argv: list[str]) -> dict:
    """One CLI call in-process: its argv, exit code and masked output."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return {"argv": argv, "exit": code, "stdout": mask(out.getvalue()),
            "stderr": mask(err.getvalue())}


@pytest.fixture(scope="module")
def recorded():
    with open(GOLDEN) as fh:
        return {" ".join(case["argv"]): case for case in json.load(fh)}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_cli_output_matches_golden(argv, recorded):
    assert run(argv) == recorded[" ".join(argv)]


def test_golden_covers_every_exit_code_but_verify_failure(recorded):
    assert {case["exit"] for case in recorded.values()} == {0, 2, 3, 4, 5}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_reports_are_strict_json(recorded):
    # An infinite exponent prints as "infinite", never as Infinity or NaN.
    reports = [case["stdout"] for case in recorded.values()
               if case["exit"] == 0 and case["argv"][-2:] == ["--format", "json"]]
    assert len(reports) > 30
    for stdout in reports:
        json.loads(stdout, parse_constant=_reject_constant)
    assert any('"infinite"' in stdout for stdout in reports)


# The stdlib encoders as oracles for the CLI's own JSON and CSV writers.

def _u2_case(n, k, constraints, *flags, budget=None, rows=None):
    """argv, echoed inputs, the library's report, its CSV rows and, when the
    witness rows are given, the report the CLI is made to print."""
    if rows is None:
        report = scan_divisibility(n, k, constraints, cell_budget=budget or DEFAULT_CELL_BUDGET)
        patched = None
    else:
        m = n**k
        cells = sum(constraints.allows(a, b, n) for a in range(m) for b in range(m))
        report = patched = ScanReport(n, k, m, constraints, rows, cells)
    inputs = {"n": n, "k": k, "constraints": constraints._asdict(), "workers": 1,
              "expect_empty": False}
    csv_rows = [[n, k, a, b] for a, b in report.witnesses]
    argv = [*_U2, "--n", str(n), "--k", str(k), *flags]
    if budget:
        argv += ["--budget", str(budget)]
    ids = " ".join(argv) + (f" rows={rows}" if rows else "")
    return pytest.param(argv, inputs, report, csv_rows, patched, id=ids)


def _quadratic_case(n):
    report = scan_quadratic(n)
    rows = [[n, 1, a, b] for a, b in report.zero_pairs]
    argv = [*_QUAD, "--n", str(n)]
    return pytest.param(argv, {"n": n}, report, rows, None, id=" ".join(argv))


def _text(name, payload):
    """The text format: the payload's members one a line, one dict nested."""
    lines = [f"# {name}"]
    for key, value in payload.items():
        if type(value) is dict:
            lines += [f"{key}:"] + [f"  {inner}: {item}" for inner, item in value.items()]
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines + ["# elapsed: <t> ms", ""])


def assert_same_text(got, expected):
    """Fail unless got == expected, naming only the first line where they differ.

    A plain assert on two long reports makes pytest build a diff of every
    line, which can take minutes; this check is exactly as strict.
    """
    if got == expected:
        return
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    pairs = zip(got_lines + [None], expected_lines + [None])
    line, (g, e) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    pytest.fail(f"line {line + 1} differs: got {g!r}, expected {e!r} "
                f"({len(got_lines)} lines printed, {len(expected_lines)} expected)", pytrace=False)


_TILE = (2, 9, 40)
_ONE = (6,)


@pytest.mark.parametrize("argv, inputs, report, rows, patched", [
    _u2_case(11, 2, ScanConstraints()),
    _u2_case(3, 4, ScanConstraints(forbid_sum_zero_mod_n=True), "--forbid-sum"),
    # Empty: "witnesses": [] and a header-only CSV.
    _u2_case(11, 2, ScanConstraints.case_a(), "--case-a"),
    # Modulus 3^9 = 19683: column strings of five digits.
    _u2_case(3, 9, ScanConstraints(forbid_b_zero=True, forbid_sum_zero_mod_n=True),
             "--forbid-b", "--forbid-sum", budget=400_000_000),
    # One witness row, row 0 or another, with one column or several.
    _u2_case(7, 2, ScanConstraints(), rows=((0, (0, 5, 48)),)),
    _u2_case(7, 2, ScanConstraints(), rows=((0, (0,)),)),
    _u2_case(7, 2, ScanConstraints(), rows=((48, (7, 48)),)),
    # Rows that share a cols object are written from one rendered tile: a
    # tuple in non-adjacent rows with different a, equal tuples that are
    # distinct objects, and a shared one-column tuple.
    _u2_case(7, 2, ScanConstraints(), rows=((1, _TILE), (5, (3,)), (30, _TILE), (48, _TILE))),
    _u2_case(7, 2, ScanConstraints(), rows=tuple((a, tuple([0, 7, 14])) for a in (2, 9, 10))),
    _u2_case(7, 2, ScanConstraints(), rows=((0, _ONE), (3, _ONE), (4, (1, 2)), (20, _ONE))),
    # The scan's own rows: rows a = a0 (mod 13) share one tuple, 13 rows a tile.
    _u2_case(13, 2, ScanConstraints.case_a(), "--case-a"),
    _quadratic_case(13),
    # One root of 1 + t + t^2, and none: both zero lists empty.
    _quadratic_case(3),
    _quadratic_case(5),
])
def test_scan_output_matches_stdlib_encoders(argv, inputs, report, rows, patched):
    # A hand-built report reaches the CLI in place of the scan's own.
    scan = mock.patch("truncbin.cli.scan_divisibility", return_value=patched)
    with scan if patched else contextlib.nullcontext():
        printed = {fmt: run([*argv, "--format", fmt])["stdout"] for fmt in ("json", "csv", "text")}
    payload = report.to_jsonable()
    envelope = {"command": " ".join(argv[:2]), "inputs": inputs, "result": payload,
                "timing_ms": 0.0}
    assert_same_text(printed["json"], mask(json.dumps(envelope, indent=2) + "\n"))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "k", "a_res", "b_res"])
    writer.writerows(rows)
    assert_same_text(printed["csv"], out.getvalue())
    assert_same_text(printed["text"], _text(" ".join(argv[:2]), payload))
    for key in ("witnesses", "zeros_sum_n", "zeros_other"):
        if payload.get(key) == []:
            assert f'"{key}": []' in printed["json"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = [run(argv) for argv in CASES]
    with open(GOLDEN, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
