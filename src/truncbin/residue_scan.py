"""Exhaustive residue-class scans for divisibility of U(a, b) by n**k.

U(a, b) is a polynomial with integer coefficients, so whether n**k
divides it depends only on (a mod n**k, b mod n**k).  Enumerating the
full residue grid is therefore a complete decision procedure for claims
of the form "n**k never divides U(a, b) under these constraints", and
that is exactly how the n = 11 incompatibility was settled.

The kernel never touches big integers: each worker builds a table of
x**n mod m by modular exponentiation and the per-cell check is two adds
and a compare.  The grid can be split into row bands and scanned by
worker processes; witnesses merge as a sorted union, so any worker
count yields a bit-identical report.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .binomial_core import _validate_exponent
from .errors import DomainError, ScanBudgetError

# Default cap on full-grid cells (n**2k); keeps k = 2 scans feasible
# up to n ~ 97 on one machine.  The CLI can override it per run.
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
        return json.dumps(self.to_jsonable(), indent=2)


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
        return json.dumps(self.to_jsonable(), indent=2)


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


def _scan_band(args) -> tuple[list[tuple[int, int]], int]:
    """Scan rows [a_start, a_stop) of the residue grid; used by workers."""
    n, m, a_start, a_stop, forbid_a, forbid_b, forbid_sum = args
    table = [pow(x, n, m) for x in range(m)]
    # Doubled table lets the hot loop index (a + b) without a reduction.
    table2 = table + table
    all_b = [b for b in range(m) if not (forbid_b and b % n == 0)]

    witnesses = []
    cells = 0
    for a in range(a_start, a_stop):
        if forbid_a and a % n == 0:
            continue
        if forbid_sum:
            cols = [b for b in all_b if (a + b) % n != 0]
        else:
            cols = all_b
        cells += len(cols)
        pa = table[a]
        for b in cols:
            t = pa + table[b]
            if t >= m:
                t -= m
            if table2[a + b] == t:
                witnesses.append((a, b))
    return witnesses, cells


def scan_divisibility(
    n: int,
    k: int,
    constraints: ScanConstraints | None = None,
    *,
    workers: int = 1,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ScanReport:
    """Enumerate all residue pairs mod n**k and record where n**k | U(a, b).

    The full grid holds n**(2k) cells; scans above cell_budget are refused
    up front.  workers > 1 splits the grid into that many contiguous row
    bands, handled by at most one process per CPU; the report is identical
    for any count.
    """
    _validate_exponent(n)
    if k < 1:
        raise DomainError(f"power k must be >= 1, got {k}")
    constraints = constraints if constraints is not None else ScanConstraints.none()

    # n**(2k) >= 2**(2k * (bits(n) - 1)), so a grid that this bound already
    # puts over the budget is refused before any power of n is built.
    if 2 * k * (n.bit_length() - 1) >= cell_budget.bit_length() or n ** (2 * k) > cell_budget:
        raise ScanBudgetError(n, k, cell_budget)
    m = n**k

    flags = (
        constraints.forbid_a_zero,
        constraints.forbid_b_zero,
        constraints.forbid_sum_zero_mod_n,
    )
    if workers <= 1:
        band_results = [_scan_band((n, m, 0, m, *flags))]
    else:
        band_size = -(-m // workers)  # ceil division
        bands = [
            (n, m, start, min(start + band_size, m), *flags)
            for start in range(0, m, band_size)
        ]
        processes = min(workers, len(bands), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            band_results = list(pool.map(_scan_band, bands))

    witnesses: list[tuple[int, int]] = []
    cells = 0
    for band_witnesses, band_cells in band_results:
        witnesses.extend(band_witnesses)
        cells += band_cells
    witnesses.sort()

    return ScanReport(
        n=n,
        power_k=k,
        modulus=m,
        constraints=constraints,
        witnesses=tuple(witnesses),
        cells_scanned=cells,
    )


def scan_quadratic(n: int) -> QuadraticScanReport:
    """Exhaust (da^2 + da*db + db^2) mod n over the (n-1)^2 nonzero residues."""
    _validate_exponent(n)
    zeros_sum_n = []
    zeros_other = []
    for da in range(1, n):
        for db in range(1, n):
            if (da * da + da * db + db * db) % n == 0:
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
