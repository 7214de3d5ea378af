"""Residue scan tests: kernel agreement, completeness, the cell-by-cell oracle."""
import itertools
import json
import random
from unittest import mock

import pytest

from truncbin import (
    BinomialPair,
    DomainError,
    ScanBudgetError,
    ScanConstraints,
    ScanReport,
    scan_divisibility,
    scan_quadratic,
    truncated2_direct,
    u2_mod,
)
from truncbin.residue_scan import _dumps


# ---------------------------------------------------------------------------
# modular kernel

def test_u2_mod_examples():
    assert u2_mod(1, 1, 3, 9) == 6
    assert u2_mod(1, 2, 7, 49) == 0
    assert u2_mod(0, 5, 11, 121) == 0


def test_u2_mod_agrees_with_exact_arithmetic():
    rng = random.Random("kernel")
    for _ in range(400):
        n = rng.choice((3, 5, 7, 11, 13))
        m = n ** rng.choice((1, 2, 3))
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        exact = truncated2_direct(BinomialPair(a, b, n))
        assert u2_mod(a, b, n, m) == exact % m, (a, b, n, m)


def test_u2_mod_translation_invariance():
    rng = random.Random("shift")
    for _ in range(200):
        n = rng.choice((3, 5, 7, 11))
        m = n**2
        a = rng.randrange(m)
        b = rng.randrange(m)
        j = rng.randint(-50, 50)
        k = rng.randint(-50, 50)
        assert u2_mod(a + j * m, b + k * m, n, m) == u2_mod(a, b, n, m)


def test_u2_mod_at_the_least_modulus():
    # m = 2, the least modulus accepted: U(a, b) is even for every a and b.
    for a, b, n in itertools.product(range(-4, 5), range(-4, 5), (3, 5, 7)):
        assert u2_mod(a, b, n, 2) == truncated2_direct(BinomialPair(a, b, n)) % 2, (a, b, n)


def test_u2_mod_rejects_tiny_modulus():
    for m in (1, 0, -2):
        with pytest.raises(DomainError, match=f"^modulus must be >= 2, got {m}$"):
            u2_mod(1, 1, 3, m)


def test_u2_mod_rejects_bad_arguments():
    for bad in (
        (1, 2, -3, 9),
        (1, 2, 4, 9),
        (1.5, 2, 3, 9),
        (1, True, 3, 9),
        (1, 2, 3, 9.0),
        (1, 2, 3, "9"),
    ):
        with pytest.raises(DomainError):
            u2_mod(*bad)


# ---------------------------------------------------------------------------
# divisibility scans

def test_scan_n7_finds_witnesses():
    report = scan_divisibility(7, 2, ScanConstraints.case_a())
    assert report.witnesses
    assert report.witnesses[0] == (1, 2)
    assert (1, 2) in report.witnesses
    assert report.modulus == 49
    assert list(report.witnesses) == sorted(report.witnesses)


def test_scan_n7_witness_completeness():
    # Every reported witness checks out in exact arithmetic, and a random
    # audit of non-witnesses finds no divisibility the scan missed.
    report = scan_divisibility(7, 2, ScanConstraints.case_a())
    witness_set = set(report.witnesses)
    for a, b in report.witnesses:
        assert truncated2_direct(BinomialPair(a, b, 7)) % 49 == 0
    rng = random.Random("audit7")
    audited = 0
    while audited < 200:
        a = rng.randrange(49)
        b = rng.randrange(49)
        if (a, b) in witness_set or not ScanConstraints.case_a().allows(a, b, 7):
            continue
        assert truncated2_direct(BinomialPair(a, b, 7)) % 49 != 0
        audited += 1


def test_scan_n3_empty():
    report = scan_divisibility(3, 2, ScanConstraints.case_a())
    assert report.witnesses == ()


def test_scan_n11_constrained_empty():
    report = scan_divisibility(11, 2, ScanConstraints.case_a())
    assert report.witnesses == ()
    assert report.cells_scanned == 10890


def test_scan_n11_unconstrained_witnesses_are_exactly_the_lifts():
    report = scan_divisibility(11, 2, ScanConstraints())
    violating = {
        (a, b)
        for a in range(121)
        for b in range(121)
        if a % 11 == 0 or b % 11 == 0 or (a + b) % 11 == 0
    }
    assert set(report.witnesses) == violating
    assert report.cells_scanned == 121 * 121


def _case_a_roots(n):
    """R(n): the t in 1 .. n-2 with (1 + t)^n = 1 + t^n (mod n^2), Mirimanoff's
    congruence.  t and 1 + t are prime to n, as Case A asks of b/a and (a+b)/a."""
    m = n * n
    return [t for t in range(1, n - 1) if pow(1 + t, n, m) == (1 + pow(t, n, m)) % m]


def test_case_a_census_matches_the_root_count_at_every_prime_below_100():
    # U(a, b) = a^n f(b/a) with f(t) = (1+t)^n - 1 - t^n, and n^2 | f(t) depends on
    # t mod n only.  So each of the n(n-1) residues a prime to n pairs with the
    # n lifts of a*t mod n^2 for each root t: n^2 (n-1) |R(n)| witnesses.
    primes = [n for n in range(5, 100) if all(n % d for d in range(2, n))]
    roots = {n: _case_a_roots(n) for n in primes}
    for n in primes:
        report = scan_divisibility(n, 2, ScanConstraints.case_a())
        assert report.witness_count == n * n * (n - 1) * len(roots[n]), n
    # For n = 1 (mod 3) the primitive cube roots of unity are roots; n = 2 (mod 3)
    # has none of them, and still 59 and 83 have roots below 100.
    assert [n for n in primes if n % 3 == 2 and roots[n]] == [59, 83]
    assert len(roots[59]) == 12
    assert scan_divisibility(59, 2, ScanConstraints.case_a()).witness_count == 2_422_776


def test_scan_cells_scanned_counts_allowed_pairs():
    for constraints in (
        ScanConstraints(),
        ScanConstraints.case_a(),
        ScanConstraints(forbid_a_zero=True),
        ScanConstraints(forbid_sum_zero_mod_n=True),
    ):
        report = scan_divisibility(5, 2, constraints)
        expected = sum(
            1
            for a in range(25)
            for b in range(25)
            if constraints.allows(a, b, 5)
        )
        assert report.cells_scanned == expected


@pytest.mark.parametrize(
    "n, k",
    [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (5, 1), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)],
)
def test_scan_matches_the_u2_mod_grid(n, k):
    # The oracle decides every cell with u2_mod.  With k > n the base rows
    # n, n**2, ..., from which the scan derives every row with n | a, hold
    # non-trivial cases.
    m = n**k
    divisible = {(a, b) for a in range(m) for b in range(m) if u2_mod(a, b, n, m) == 0}
    for flags in itertools.product((False, True), repeat=3):
        constraints = ScanConstraints(*flags)
        allowed = [(a, b) for a in range(m) for b in range(m) if constraints.allows(a, b, n)]
        report = scan_divisibility(n, k, constraints)
        assert report.witnesses == tuple(c for c in allowed if c in divisible), flags
        assert report.cells_scanned == len(allowed), flags


def _table_scan(n, k, constraints):
    """The earlier table kernel, kept as a reference: row 1 by homogeneity,
    every row with n | a checked cell by cell.  Returns its report, in row
    form, and its flat tuple of witness pairs, built pair by pair."""
    m = n**k
    table = [pow(x, n, m) for x in range(m)]
    table2 = table + table
    all_b = [b for b in range(m) if not (constraints.forbid_b_zero and b % n == 0)]

    def columns(a):
        if constraints.forbid_sum_zero_mod_n:
            return [b for b in all_b if (a + b) % n]
        return all_b

    def witness_columns(a, cols):
        pa = table[a]
        return [b for b in cols if table2[a + b] == (pa + table[b]) % m]

    row1 = columns(1)
    ratios = witness_columns(1, row1)
    rows = []
    witnesses = []
    cells = 0
    for a in range(m):
        if a % n:
            cells += len(row1)
            cols = sorted([a * t % m for t in ratios])
        elif not constraints.forbid_a_zero:
            cols = columns(a)
            cells += len(cols)
            cols = witness_columns(a, cols)
        else:
            continue
        if cols:
            rows.append((a, tuple(cols)))
        witnesses.extend([(a, b) for b in cols])
    return ScanReport(n, k, m, constraints, tuple(rows), cells), tuple(witnesses)


@pytest.mark.parametrize("n, k", [(3, 6), (5, 4), (7, 3), (11, 3), (13, 2), (23, 2)])
def test_scan_matches_the_table_kernel(n, k):
    # Deeper base rows than the u2_mod grid test can afford.
    for flags in itertools.product((False, True), repeat=3):
        constraints = ScanConstraints(*flags)
        report = scan_divisibility(n, k, constraints)
        reference, witnesses = _table_scan(n, k, constraints)
        assert report == reference, flags
        assert report.witnesses == witnesses, flags
        assert report.to_json() == reference.to_json(), flags


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in (3, 5, 7, 11, 13, 17, 19) for k in (2, 3)] + [(3, k) for k in (4, 5, 6)]
)
def test_nth_powers_mod_n_to_the_k_have_period_n_to_the_k_minus_1(n, k):
    # The lemma the scan stands on: (x + n**(k-1)*d)**n = x**n (mod n**k).
    m, period = n**k, n ** (k - 1)
    assert all(pow(x, n, m) == pow(x % period, n, m) for x in range(m))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_rows_one_period_apart_carry_equal_columns(n):
    for flags in itertools.product((False, True), repeat=3):
        report = scan_divisibility(n, 3, ScanConstraints(*flags))
        rows = dict(report.rows)
        for a in range(n**3 - n**2):
            assert rows.get(a) == rows.get(a + n**2), (flags, a)


@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 5, 7) for k in (2, 3)])
def test_rows_one_period_apart_share_one_cols_object(n, k):
    # _write_rows renders a tile once per cols object: a kernel that copied
    # the tile per row would print the same bytes, but slower.
    m, period = n**k, n ** (k - 1)
    shared = 0
    for flags in itertools.product((False, True), repeat=3):
        rows = dict(scan_divisibility(n, k, ScanConstraints(*flags)).rows)
        for a, cols in rows.items():
            if a + period < m:
                assert rows[a + period] is cols, (flags, a)
                shared += 1
    assert shared


def test_equal_scans_compare_equal_and_hash_alike():
    case_a = ScanConstraints.case_a()
    for n, k, constraints in ((7, 2, case_a), (5, 2, None), (11, 2, case_a)):
        first, second = scan_divisibility(n, k, constraints), scan_divisibility(n, k, constraints)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert type(first.rows) is tuple
        assert all(type(row) is tuple and type(row[1]) is tuple for row in first.rows)
    assert scan_divisibility(5, 2) != scan_divisibility(5, 2, ScanConstraints.case_a())


def test_scan_budget_guard():
    with pytest.raises(ScanBudgetError) as excinfo:
        scan_divisibility(13, 2, cell_budget=1000)
    assert excinfo.value.required_cells == 169 * 169
    assert "1000" in str(excinfo.value)
    # The guard is exact: a budget of n**(2k) cells admits the scan.
    assert scan_divisibility(5, 1, cell_budget=25).cells_scanned == 25
    with pytest.raises(ScanBudgetError):
        scan_divisibility(5, 1, cell_budget=24)


def test_scan_budget_refuses_huge_grids_before_building_them():
    # n**k here would have about 5 * 10**17 digits; the refusal must not build it
    # and its message must stay printable.
    with pytest.raises(ScanBudgetError) as excinfo:
        scan_divisibility(3, 10**18)
    assert f"3^{2 * 10**18} cells" in str(excinfo.value)


def test_scan_rejects_bad_arguments():
    with pytest.raises(DomainError):
        scan_divisibility(4, 2)
    with pytest.raises(DomainError):
        scan_divisibility(7, 0)
    with pytest.raises(DomainError):
        scan_divisibility(5, 1.5)
    with pytest.raises(DomainError):
        scan_divisibility(5, True)
    for budget in (1e8, None, True, "100"):
        with pytest.raises(DomainError):
            scan_divisibility(5, 2, cell_budget=budget)
    for constraints in ("case-a", (True, True, True), ScanConstraints):
        with pytest.raises(DomainError, match="ScanConstraints"):
            scan_divisibility(5, 1, constraints)


@pytest.mark.parametrize("args, kwargs, message", [
    (("yes",), {}, "forbid_a_zero must be a bool, got str"),
    ((1, 0, 0), {}, "forbid_a_zero must be a bool, got int"),
    ((False, None), {}, "forbid_b_zero must be a bool, got NoneType"),
    ((), {"forbid_sum_zero_mod_n": 1}, "forbid_sum_zero_mod_n must be a bool, got int"),
])
def test_constraints_refuse_flags_that_are_not_bools(args, kwargs, message):
    # An int flag would print as 1, not true, in the report's constraints.
    with pytest.raises(DomainError) as excinfo:
        ScanConstraints(*args, **kwargs)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# quadratic-form scans

def test_quadratic_n5_empty():
    report = scan_quadratic(5)
    assert report.zero_pairs == ()
    assert report.cells_scanned == 16


def test_quadratic_n7_zero_set():
    report = scan_quadratic(7)
    assert (1, 2) in report.zero_pairs
    assert (2, 4) in report.zero_pairs
    assert len(report.zero_pairs) == 12


def test_quadratic_n3_zero_set():
    # Brute force over the four pairs: (1,1) and (2,2) hit 0 mod 3
    # (1 + 1 + 1 = 3 and 4 + 4 + 4 = 12).
    report = scan_quadratic(3)
    assert report.zero_pairs == ((1, 1), (2, 2))


def test_quadratic_sum_n_pairs_never_vanish():
    # On the da + db = n boundary the form reduces to da^2 mod n, which
    # is nonzero for da in [1, n-1]; so the printed zeros_sum_n is empty.
    for n in [p for p in range(3, 100) if all(p % d for d in range(2, p))]:
        report = scan_quadratic(n)
        assert not [z for z in report.zero_pairs if sum(z) == n]
        assert report.to_jsonable()["zeros_sum_n"] == []


def test_quadratic_n11_empty_n13_not():
    assert scan_quadratic(11).zero_pairs == ()
    assert len(scan_quadratic(13).zero_pairs) == 24


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 19, 31, 37, 43, 97])
def test_quadratic_matches_brute_force(n):
    zeros = [
        (da, db)
        for da in range(1, n)
        for db in range(1, n)
        if (da * da + da * db + db * db) % n == 0
    ]
    report = scan_quadratic(n)
    payload = report.to_jsonable()
    assert payload["zeros_sum_n"] == [list(z) for z in zeros if sum(z) == n]
    assert payload["zeros_other"] == [list(z) for z in sorted(zeros) if sum(z) != n]
    assert payload["zero_count"] == len(zeros)
    roots = [t for t in range(1, n) if (1 + t + t * t) % n == 0]
    for da, cols in report.rows:
        assert cols == tuple(sorted([da * t % n for t in roots]))


def test_quadratic_budget_guard():
    # The guard counts the (n-1)^2 grid cells and is exact.
    assert scan_quadratic(7, cell_budget=36).cells_scanned == 36
    with pytest.raises(ScanBudgetError) as excinfo:
        scan_quadratic(7, cell_budget=35)
    assert excinfo.value.required_cells == 36
    with pytest.raises(ScanBudgetError):
        scan_quadratic(10007)
    for budget in (1e8, None, True, "100"):
        with pytest.raises(DomainError):
            scan_quadratic(5, cell_budget=budget)


def test_quadratic_rejects_composite():
    with pytest.raises(DomainError):
        scan_quadratic(9)


# ---------------------------------------------------------------------------
# the JSON renderer, against json.dumps(value, indent=2) as its oracle

# Strings that look like the renderer's own output or need escaping.
_TEXTS = ["", "x", "\u0000", "\n", "é", '"]', "%d", "[\n  1,\n  2\n]", "witnesses"]


def _int(rng):
    return rng.choice([0, -1, 7, rng.randrange(-10**9, 10**9), -rng.randrange(10**4000)])


def _random_value(rng, depth):
    """A value with lists of pairs, of near-pairs and of other values, nested."""
    size = rng.randrange(4)
    kind = rng.randrange(10 if depth else 4)
    if kind == 0:
        return _int(rng)
    if kind == 1:
        return rng.choice(_TEXTS)
    if kind == 2:
        return rng.choice([True, False, None, 1.5, -0.0, float("inf")])
    if kind == 3:
        return [[_int(rng), _int(rng)] for _ in range(size)]
    if kind == 4:
        return [[rng.choice([True, False]), _int(rng)] for _ in range(size)]
    if kind == 5:
        return [[_int(rng), _int(rng), _int(rng)] for _ in range(size)]
    if kind == 6:
        return [(_int(rng), _int(rng)) for _ in range(size)]
    if kind == 7:
        return [[_int(rng), _int(rng)] for _ in range(size)] + [_random_value(rng, depth - 1)]
    if kind == 8:
        return [_random_value(rng, depth - 1) for _ in range(size)]
    keys = rng.sample(_TEXTS + [1, None], size)
    return {key: _random_value(rng, depth - 1) for key in keys}


class _PairList(list):
    """A list subclass: json writes it as a list, indented."""


@pytest.mark.parametrize("value", [
    {}, [], [[]], [[1, 2]], [[-1, 10**4000]], [[True, 1]], [[1, False]], [[1, 2, 3]],
    [[1]], [(1, 2)], ((1, 2),), [[[1, 2]]], [[1, 2], [3, 4.0]], [[1, 2], None],
    {"witnesses": [[1, 2], [3, 4]], "empty": [], "nested": {"zeros": [[0, 0]]}},
    {"\u0000": [[1, 2]], 3: [[4, 5]]}, {"a": {}, "b": {"c": [[6, 7]]}},
    # Records and list subclasses: not exactly a scalar, list or dict, so indented.
    ScanConstraints.case_a(), _PairList([[1, 2], [3, 4]]), _PairList(),
    {"constraints": ScanConstraints(True, False, True), "pairs": _PairList([[5, 6]])},
])
def test_dumps_matches_json_on_edge_cases(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_matches_json_on_random_values():
    rng = random.Random("dumps")
    for _ in range(500):
        value = _random_value(rng, 4)
        assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_writes_scan_reports_without_json_for_pair_lists():
    reports = [scan_divisibility(7, 2), scan_quadratic(13)]
    expected = [json.dumps(report.to_jsonable(), indent=2) for report in reports]
    json_dumps = json.dumps

    def no_pair_lists(value, **kwargs):
        assert not (type(value) is list and value and type(value[0]) is list)
        return json_dumps(value, **kwargs)

    with mock.patch.object(json, "dumps", no_pair_lists):
        assert [report.to_json() for report in reports] == expected
