"""Exhaustive residue-class scans for divisibility of U(a, b) by n**k.

U(a, b) is a polynomial with integer coefficients, so whether n**k
divides it depends only on (a mod n**k, b mod n**k).  Deciding the full
residue grid is therefore a complete decision procedure for claims of
the form "n**k never divides U(a, b) under these constraints", and that
is exactly how the n = 11 incompatibility was settled.

U is homogeneous of degree n, U(u*x, u*y) = u**n * U(x, y), and u**n is
a unit mod n**k when u is prime to n.  Every residue a != 0 is u*p with
p = gcd(a, n**k) a power of n and u prime to n, so row a of the grid is
row p with column y moved to u*y.  Only the k + 1 rows 0, 1, n, ...,
n**(k-1) are checked cell by cell, against a table of x**n mod n**k, in
one process.  The cell budget and cells_scanned still count grid cells.

A report stores the rows the scan computes, (a, cols) for each row with
a witness, not one pair per witness; the flat witnesses are derived from
them.  JSON and CSV write each row with one join of precomputed column
strings (_write_rows), so writing a report builds no per-pair object.
"""
from __future__ import annotations

import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass

from .binomial_core import _validate_exponent, _validate_int
from .errors import DomainError, ScanBudgetError

# Default cap on grid cells (n**2k, or (n-1)**2 for the quadratic scan);
# keeps k = 2 scans feasible up to n ~ 97.  The CLI can override it per run.
DEFAULT_CELL_BUDGET = 10**8


@dataclass(frozen=True)
class ScanConstraints:
    """Residue-pair exclusions, each stated modulo n (not the full modulus)."""

    forbid_a_zero: bool = False
    forbid_b_zero: bool = False
    forbid_sum_zero_mod_n: bool = False

    @classmethod
    def case_a(cls) -> "ScanConstraints":
        """a, b and a + b all prime to n, the regime of the Case-A rule."""
        return cls(True, True, True)

    @classmethod
    def none(cls) -> "ScanConstraints":
        return cls()

    def allows(self, a: int, b: int, n: int) -> bool:
        if self.forbid_a_zero and a % n == 0:
            return False
        if self.forbid_b_zero and b % n == 0:
            return False
        if self.forbid_sum_zero_mod_n and (a + b) % n == 0:
            return False
        return True

    def to_jsonable(self) -> dict:
        return {
            "forbid_a_zero": self.forbid_a_zero,
            "forbid_b_zero": self.forbid_b_zero,
            "forbid_sum_zero_mod_n": self.forbid_sum_zero_mod_n,
        }


@dataclass(frozen=True)
class ScanReport:
    """Canonical result of a divisibility scan.

    rows holds, for each residue a in [0, n**k) with a witness, the pair
    (a, cols): cols is the sorted tuple of the b in [0, n**k) with the
    pair allowed by the constraints and n**k | U(a, b).  witnesses derives
    the flat lexicographic tuple of pairs (a, b) from them; cells_scanned
    counts the constraint-satisfying pairs.
    """

    n: int
    power_k: int
    modulus: int
    constraints: ScanConstraints
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    cells_scanned: int

    @property
    def witnesses(self) -> tuple[tuple[int, int], ...]:
        return tuple([(a, b) for a, cols in self.rows for b in cols])

    def _payload(self, witnesses) -> dict:
        """to_jsonable() with its witnesses list given."""
        return {
            "n": self.n,
            "power_k": self.power_k,
            "modulus": self.modulus,
            "constraints": self.constraints.to_jsonable(),
            "witness_count": sum([len(cols) for _, cols in self.rows]),
            "witnesses": witnesses,
            "cells_scanned": self.cells_scanned,
        }

    def to_jsonable(self) -> dict:
        return self._payload([[a, b] for a, cols in self.rows for b in cols])

    def to_json(self) -> str:
        """Deterministic serialization; identical runs give identical bytes."""
        return _dumps(self)


@dataclass(frozen=True)
class QuadraticScanReport:
    """Zero set of (da^2 + da*db + db^2) mod n over da, db in [1, n-1].

    The zero pairs are partitioned by whether da + db = n, the boundary
    the Case-A discussion singles out.
    """

    n: int
    zeros_sum_n: tuple[tuple[int, int], ...]
    zeros_other: tuple[tuple[int, int], ...]
    cells_scanned: int

    @property
    def zero_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.zeros_sum_n + self.zeros_other))

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "zeros_sum_n": [[a, b] for a, b in self.zeros_sum_n],
            "zeros_other": [[a, b] for a, b in self.zeros_other],
            "zero_count": len(self.zeros_sum_n) + len(self.zeros_other),
            "cells_scanned": self.cells_scanned,
        }

    def to_json(self) -> str:
        return _dumps(self.to_jsonable())


# Pairs held as rows (a, cols) for _dumps to write as a JSON list of
# [a, b]; with size set, every column is in range(size).
_PairRows = namedtuple("_PairRows", "rows size")


def _write_rows(rows, head, between, tail, size=None):
    """The pairs (a, b) of rows (a, cols) in one text, joined by between.

    A pair is head % a, then b, then tail.  Within a row only b changes, so
    a row is one join of its column strings; with size set these are made
    once for range(size), else str(b) for each pair.
    """
    text = list(map(str, range(size))).__getitem__ if size and rows else str
    out = []
    for a, cols in rows:
        first = head % a
        out.append(first + (tail + between + first).join(map(text, cols)) + tail)
    return between.join(out)


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), nested at indent, in the same bytes.

    A scan report is written as its to_jsonable() dict, a ScanReport's
    witnesses straight from its rows.  These and any nonempty list of
    [int, int] pairs are written by _write_rows: with indent set, json runs
    its pure-Python encoder, some ten chunks per pair.  Dicts with str keys
    are walked; every other value is json.dumps's own text.
    """
    inner = indent + "  "
    if type(value) is ScanReport:
        value = value._payload(_PairRows(value.rows, value.modulus))
    elif type(value) is QuadraticScanReport:
        value = value.to_jsonable()
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [f"{inner}{json.dumps(key)}: {_dumps(item, inner)}" for key, item in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(value) is list and value and all(
        type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int for p in value
    ):
        value = _PairRows([(a, (b,)) for a, b in value], None)
    if type(value) is _PairRows:
        if not value.rows:
            return "[]"
        head = f"{inner}[\n{inner}  %d,\n{inner}  "
        pairs = _write_rows(value.rows, head, ",\n", f"\n{inner}]", value.size)
        return "[\n" + pairs + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def u2_mod(a_res: int, b_res: int, n: int, m: int) -> int:
    """U(a, b) mod m via modular exponentiation only.

    Safe for huge residues and exponents; agrees with the exact value of
    truncated2_direct reduced mod m.
    """
    _validate_int("a_res", a_res)
    _validate_int("b_res", b_res)
    _validate_exponent(n)
    _validate_int("m", m)
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    a = a_res % m
    b = b_res % m
    return (pow((a + b) % m, n, m) - pow(a, n, m) - pow(b, n, m)) % m


def scan_divisibility(
    n: int,
    k: int,
    constraints: ScanConstraints | None = None,
    *,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ScanReport:
    """Enumerate all residue pairs mod n**k and record where n**k | U(a, b).

    The full grid holds n**(2k) cells; scans above cell_budget are refused
    up front.
    """
    _validate_exponent(n)
    _validate_int("k", k)
    _validate_int("cell_budget", cell_budget)
    if k < 1:
        raise DomainError(f"power k must be >= 1, got {k}")
    if constraints is None:
        constraints = ScanConstraints.none()
    elif not isinstance(constraints, ScanConstraints):
        raise DomainError(f"constraints must be a ScanConstraints, got {type(constraints).__name__}")

    # n**(2k) >= 2**(2k * (bits(n) - 1)), so a grid that this bound already
    # puts over the budget is refused before any power of n is built.
    if 2 * k * (n.bit_length() - 1) >= cell_budget.bit_length() or n ** (2 * k) > cell_budget:
        raise ScanBudgetError(n, 2 * k, cell_budget)
    m = n**k
    table = [pow(x, n, m) for x in range(m)]
    # Doubled table lets the cell check index (a + b) without a reduction.
    table2 = table + table

    def checked_row(p):
        """The allowed-cell count of row p and its witness columns, cell by cell."""
        # The constraints are stated mod n, so the allowed columns repeat with period n.
        allowed = [r for r in range(n) if constraints.allows(p, r, n)]
        cols = [q + r for q in range(0, m, n) for r in allowed]
        return len(cols), [b for b in cols if table2[p + b] == (table[p] + table[b]) % m]

    # Row a = u*p is row p with column y moved to u*y.  The constraints are
    # stated mod n and u is a unit there, so they hold at (a, u*y) exactly
    # when they hold at (p, y): both rows allow as many cells.
    base = {}
    rows = []
    cells = 0
    for a in range(m):
        p = math.gcd(a, m)
        if p not in base:
            base[p] = checked_row(p % m)
        count, ratios = base[p]
        cells += count
        if ratios:
            u = a // p or 1
            rows.append((a, tuple(sorted([u * y % m for y in ratios]))))

    return ScanReport(
        n=n,
        power_k=k,
        modulus=m,
        constraints=constraints,
        rows=tuple(rows),
        cells_scanned=cells,
    )


def scan_quadratic(n: int, *, cell_budget: int = DEFAULT_CELL_BUDGET) -> QuadraticScanReport:
    """Exhaust (da^2 + da*db + db^2) mod n over the (n-1)^2 nonzero residues.

    With db = da*t the form is da^2 * (1 + t + t^2), so row da holds the
    roots t of 1 + t + t^2 scaled by da.  Grids of more than cell_budget
    cells are refused, as in scan_divisibility.
    """
    _validate_exponent(n)
    _validate_int("cell_budget", cell_budget)
    if (n - 1) ** 2 > cell_budget:
        raise ScanBudgetError(n - 1, 2, cell_budget)
    roots = [t for t in range(1, n) if (1 + t + t * t) % n == 0]
    zeros_sum_n = []
    zeros_other = []
    for da in range(1, n):
        for db in sorted([da * t % n for t in roots]):
            (zeros_sum_n if da + db == n else zeros_other).append((da, db))
    return QuadraticScanReport(
        n=n,
        zeros_sum_n=tuple(zeros_sum_n),
        zeros_other=tuple(zeros_other),
        cells_scanned=(n - 1) * (n - 1),
    )


def timed_scan_quadratic(n: int) -> tuple[QuadraticScanReport, float]:
    """scan_quadratic plus its best-of-3 wall time in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        report = scan_quadratic(n)
        best = min(best, time.perf_counter() - start)
    return report, best
