"""Exhaustive residue-class scans for divisibility of U(a, b) by n**k.

U(a, b) is a polynomial with integer coefficients, so whether n**k
divides it depends only on (a mod n**k, b mod n**k).  Deciding the full
residue grid is therefore a complete decision procedure for claims of
the form "n**k never divides U(a, b) under these constraints", and that
is exactly how the n = 11 incompatibility was settled.

For k >= 2, x**n mod n**k depends only on x mod P = n**(k-1) (expand
(x + P*d)**n), so the grid has period P in a and in b; P = n at k = 1.
U is homogeneous of degree n and u**n is a unit for u prime to n, so row
u*p of the P x P period, p a power of n, is row p with column y moved to
u*y mod P: only rows 0, 1, n, ..., n**(k-2) are checked cell by cell, on a
table of x**n for x < P, in one process.  Row a0 of the period is tiled
to n**k columns once, q + r for q in range(0, n**k, P), and shared by the
rows a = a0 (mod P).  cells_scanned counts grid cells.

A report stores the rows the scan computes, (a, cols) for each row with
a witness, not one pair per witness; the flat witnesses are derived from
them.  JSON (_dump), CSV and the text form write each row with one join
(_write_rows) and hand it to a write function at once, so writing a report
never holds the whole text.  A row joins column strings made once for the
report or, from the second row that shares its cols tuple on, the pieces
of that tile, rendered once for the report: at n = 97 a tile serves 97
rows.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import NamedTuple

from .binomial_core import _Checked, _u2_residue, _validate_exponent, _validate_int
from .errors import DomainError, ScanBudgetError

# Default cap on grid cells (n**2k, or (n-1)**2 for the quadratic scan);
# keeps k = 2 scans feasible up to n ~ 97.  The CLI can override it per run.
DEFAULT_CELL_BUDGET = 10**8


class ScanConstraints(_Checked, namedtuple(
        "ScanConstraints", "forbid_a_zero forbid_b_zero forbid_sum_zero_mod_n")):
    """Residue-pair exclusions, each stated modulo n (not the full modulus).

    A flag that is not a bool is refused.
    """

    __slots__ = ()

    def __new__(cls, forbid_a_zero: bool = False, forbid_b_zero: bool = False,
                forbid_sum_zero_mod_n: bool = False):
        flags = (forbid_a_zero, forbid_b_zero, forbid_sum_zero_mod_n)
        for name, flag in zip(cls._fields, flags):
            if type(flag) is not bool:
                raise DomainError(f"{name} must be a bool, got {type(flag).__name__}")
        return tuple.__new__(cls, flags)

    @classmethod
    def case_a(cls) -> "ScanConstraints":
        """a, b and a + b all prime to n, the regime of the Case-A rule."""
        return cls(True, True, True)

    def allows(self, a: int, b: int, n: int) -> bool:
        if self.forbid_a_zero and a % n == 0:
            return False
        if self.forbid_b_zero and b % n == 0:
            return False
        if self.forbid_sum_zero_mod_n and (a + b) % n == 0:
            return False
        return True


class ScanReport(NamedTuple):
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

    @property
    def witness_count(self) -> int:
        """len(witnesses), without building them."""
        return sum([len(cols) for _, cols in self.rows])

    def _payload(self, pairs) -> dict:
        """to_jsonable() with its list of pairs given as pairs(rows, size)."""
        return {
            "n": self.n,
            "power_k": self.power_k,
            "modulus": self.modulus,
            "constraints": self.constraints._asdict(),
            "witness_count": self.witness_count,
            "witnesses": pairs(self.rows, self.modulus),
            "cells_scanned": self.cells_scanned,
        }

    def to_jsonable(self) -> dict:
        return self._payload(_pair_list)

    def to_json(self) -> str:
        """Deterministic serialization; identical runs give identical bytes."""
        return _dumps(self._payload(_PairRows))


class QuadraticScanReport(NamedTuple):
    """Zero set of (da^2 + da*db + db^2) mod n over da, db in [1, n-1].

    rows holds, as ScanReport's does, the pair (da, cols) for each da with
    a zero: cols is the sorted tuple of the db with the form zero mod n.
    zero_pairs derives the flat lexicographic pairs, zero_count their number.
    """

    n: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    cells_scanned: int

    @property
    def zero_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple([(a, b) for a, cols in self.rows for b in cols])

    @property
    def zero_count(self) -> int:
        """len(zero_pairs), without building them."""
        return sum([len(cols) for _, cols in self.rows])

    def _payload(self, pairs) -> dict:
        """to_jsonable() with each list of pairs given as pairs(rows, size)."""
        return {
            "n": self.n,
            # The da + db = n boundary the Case-A discussion singles out: there
            # db = -da and the form is da^2, prime to n, so it holds no zero.
            "zeros_sum_n": pairs((), self.n),
            "zeros_other": pairs(self.rows, self.n),
            "zero_count": self.zero_count,
            "cells_scanned": self.cells_scanned,
        }

    def to_jsonable(self) -> dict:
        return self._payload(_pair_list)

    def to_json(self) -> str:
        return _dumps(self._payload(_PairRows))


def _pair_list(rows, size):
    """The pairs of rows (a, cols) as a list of [a, b]."""
    return [[a, b] for a, cols in rows for b in cols]


# Pairs held as rows (a, cols), every column in range(size), for _dump
# to write as a JSON list of [a, b].
_PairRows = namedtuple("_PairRows", "rows size")


def _write_rows(rows, head, between, tail, size, write):
    """Write the pairs (a, b) of rows (a, cols), joined by between.

    A pair is head % a, then b, then tail.  Within a row only b changes, so
    a row is one join and one write, with between before every row but the
    first.  A row joins its column strings, made once for range(size).  A
    scan's rows a = a0 (mod P) share one cols tuple, so a cols object of two
    or more columns that comes up again has its tile rendered once, as the
    pieces between, str(b) + tail + between for every b but the last, and
    str(b_last) + tail; that row and every later one of the tile is
    (head % a).join(pieces).  Tiles are keyed on id(cols), which rows keeps
    alive for the call.  A cols seen once, or of one column, is written from
    the column strings alone: rendering its pieces would cost more than it
    saves.
    """
    text = list(map(str, range(size))).__getitem__ if rows else None
    tiles = {}
    lead = ""
    for a, cols in rows:
        first = head % a
        if len(cols) > 1:
            tile = tiles.get(id(cols))
            if tile is None:
                tiles[id(cols)] = False  # seen once, written from the column strings
            else:
                if not tile:
                    tile = tiles[id(cols)] = [
                        between, *[text(b) + tail + between for b in cols[:-1]], text(cols[-1]) + tail]
                write(first.join(tile))  # never the first row, so between leads
                continue
        write(lead + first + (tail + between + first).join(map(text, cols)) + tail)
        lead = between


def _dump(value, write, indent: str = "") -> None:
    """Write json.dumps(value, indent=2), nested at indent, in the same bytes.

    A scan report is written as its _payload(_PairRows) dict, whose pair
    lists _write_rows writes straight from the rows, one write per row:
    with indent set, json runs its pure-Python encoder, some ten chunks per
    pair.  Dicts with str keys are walked, one write per member; every other
    value is json.dumps's own text.  Only values computed before the first
    write reach write, so a value that cannot be rendered (an int past the
    interpreter's int-to-str limit) fails before any byte goes out.
    """
    inner = indent + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        lead = "{\n"
        for key, item in value.items():
            write(f"{lead}{inner}{json.dumps(key)}: ")
            _dump(item, write, inner)
            lead = ",\n"
        write("\n" + indent + "}")
    elif type(value) is _PairRows and value.rows:
        write("[\n")
        head = f"{inner}[\n{inner}  %d,\n{inner}  "
        _write_rows(value.rows, head, ",\n", f"\n{inner}]", value.size, write)
        write("\n" + indent + "]")
    elif type(value) is _PairRows:
        write("[]")
    else:
        write(json.dumps(value, indent=2).replace("\n", "\n" + indent))


def _dumps(value) -> str:
    """json.dumps(value, indent=2) in the same bytes: _dump's pieces joined."""
    pieces = []
    _dump(value, pieces.append)
    return "".join(pieces)


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
    return _u2_residue(a_res, b_res, n, m)


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
        constraints = ScanConstraints()
    elif not isinstance(constraints, ScanConstraints):
        raise DomainError(f"constraints must be a ScanConstraints, got {type(constraints).__name__}")

    # n**(2k) >= 2**(2k * (bits(n) - 1)), so a grid that this bound already
    # puts over the budget is refused before any power of n is built.
    if 2 * k * (n.bit_length() - 1) >= cell_budget.bit_length() or n ** (2 * k) > cell_budget:
        raise ScanBudgetError(n, 2 * k, cell_budget)
    m, period = n**k, n ** max(k - 1, 1)
    table = [pow(x, n, m) for x in range(period)]

    def checked_row(p):
        """The allowed-cell count of row p and its witness columns mod P, cell by cell."""
        # The constraints are stated mod n, so the allowed columns repeat with period n.
        allowed = [r for r in range(n) if constraints.allows(p, r, n)]
        cols = [q + r for q in range(0, period, n) for r in allowed]
        return len(cols), [b for b in cols if table[(p + b) % period] == (table[p] + table[b]) % m]

    # Row a = u*p is row p with column y moved to u*y.  The constraints are
    # stated mod n and u is a unit there, so both rows allow as many cells.
    # p = n**j for j < max(k, 2); p = P = gcd(0, P) stands for row 0.
    base = {n**j: checked_row(n**j % period) for j in range(max(k, 2))}
    tiles = []
    cells = 0
    for a in range(period):
        p = math.gcd(a, period)
        count, ratios = base[p]
        cells += count
        ratios = sorted([(a // p or 1) * y % period for y in ratios])
        tiles.append(tuple([q + r for q in range(0, m, period) for r in ratios]))
    rows = [(a, cols) for a in range(m) if (cols := tiles[a % period])]

    return ScanReport(
        n=n,
        power_k=k,
        modulus=m,
        constraints=constraints,
        rows=tuple(rows),
        cells_scanned=cells * (m // period) ** 2,
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
    rows = [(da, cols) for da in range(1, n) if (cols := tuple(sorted([da * t % n for t in roots])))]
    return QuadraticScanReport(n=n, rows=tuple(rows), cells_scanned=(n - 1) * (n - 1))
