"""Exhaustive residue-class scans for divisibility of U(a, b) by n**k.

U(a, b) is a polynomial with integer coefficients, so whether n**k
divides it depends only on (a mod n**k, b mod n**k).  Deciding the full
residue grid is therefore a complete decision procedure for claims of
the form "n**k never divides U(a, b) under these constraints", and that
is exactly how the n = 11 incompatibility was settled.

U is homogeneous of degree n, U(a, a*t) = a**n * U(1, t), and a**n is a
unit mod n**k when a is prime to n.  So row a of the grid is row 1 with
column t moved to a*t, and only row 1 and the rows with n | a are
checked cell by cell, against a table of x**n mod n**k, in one process.
The cell budget and cells_scanned still count grid cells.
"""
from __future__ import annotations

import json
import time
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

    witnesses holds every constraint-satisfying residue pair (a, b) in
    [0, n**k)^2 with n**k | U(a, b), in lexicographic order;
    cells_scanned counts the constraint-satisfying pairs.
    """

    n: int
    power_k: int
    modulus: int
    constraints: ScanConstraints
    witnesses: tuple[tuple[int, int], ...]
    cells_scanned: int

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "power_k": self.power_k,
            "modulus": self.modulus,
            "constraints": self.constraints.to_jsonable(),
            "witness_count": len(self.witnesses),
            "witnesses": [[a, b] for a, b in self.witnesses],
            "cells_scanned": self.cells_scanned,
        }

    def to_json(self) -> str:
        """Deterministic serialization; identical runs give identical bytes."""
        return _dumps(self.to_jsonable())


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


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), nested at indent, in the same bytes.

    A nonempty list of [int, int] pairs, such as a report's witnesses, is
    written with one template and one join: with indent set, json runs its
    pure-Python encoder, some ten chunks per pair.  Dicts with str keys are
    walked; every other value is json.dumps's own text.
    """
    inner = indent + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = [f"{inner}{json.dumps(key)}: {_dumps(item, inner)}" for key, item in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(value) is list and value and all(
        type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int for p in value
    ):
        pair = f"{inner}[\n{inner}  %d,\n{inner}  %d\n{inner}]"
        return "[\n" + ",\n".join([pair % (a, b) for a, b in value]) + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def u2_mod(a_res: int, b_res: int, n: int, m: int) -> int:
    """U(a, b) mod m via modular exponentiation only.

    Safe for huge residues and exponents; agrees with the exact value of
    truncated2_direct reduced mod m.
    """
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
    constraints = constraints if constraints is not None else ScanConstraints.none()

    # n**(2k) >= 2**(2k * (bits(n) - 1)), so a grid that this bound already
    # puts over the budget is refused before any power of n is built.
    if 2 * k * (n.bit_length() - 1) >= cell_budget.bit_length() or n ** (2 * k) > cell_budget:
        raise ScanBudgetError(n, 2 * k, cell_budget)
    m = n**k
    table = [pow(x, n, m) for x in range(m)]
    # Doubled table lets the cell check index (a + b) without a reduction.
    table2 = table + table
    # One int object per residue, shared by every witness that holds it.
    residues = list(range(m))
    all_b = [b for b in residues if not (constraints.forbid_b_zero and b % n == 0)]

    def columns(a):
        if constraints.forbid_sum_zero_mod_n:
            return [b for b in all_b if (a + b) % n]
        return all_b

    def witness_columns(a, cols):
        pa = table[a]
        return [b for b in cols if table2[a + b] == (pa + table[b]) % m]

    # Row a prime to n is row 1 with column t moved to a*t.  As a*t = 0 and
    # a + a*t = 0 (mod n) exactly when t = 0 and 1 + t = 0, the constraints
    # allow as many columns as in row 1 and keep the images of row 1's witnesses.
    row1 = columns(1)
    ratios = witness_columns(1, row1)
    witnesses = []
    cells = 0
    for a in range(m):
        if a % n:
            cells += len(row1)
            witnesses.extend([(a, residues[b]) for b in sorted([a * t % m for t in ratios])])
        elif not constraints.forbid_a_zero:
            cols = columns(a)
            cells += len(cols)
            witnesses.extend([(a, b) for b in witness_columns(a, cols)])

    return ScanReport(
        n=n,
        power_k=k,
        modulus=m,
        constraints=constraints,
        witnesses=tuple(witnesses),
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
