"""Residue scan tests: kernel agreement, completeness, the cell-by-cell oracle."""
import itertools
import random

import pytest

from truncbin import (
    BinomialPair,
    DomainError,
    ScanBudgetError,
    ScanConstraints,
    scan_divisibility,
    scan_quadratic,
    truncated2_direct,
    u2_mod,
)


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


def test_u2_mod_rejects_tiny_modulus():
    with pytest.raises(DomainError):
        u2_mod(1, 1, 3, 1)


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
    report = scan_divisibility(11, 2, ScanConstraints.none())
    violating = {
        (a, b)
        for a in range(121)
        for b in range(121)
        if a % 11 == 0 or b % 11 == 0 or (a + b) % 11 == 0
    }
    assert set(report.witnesses) == violating
    assert report.cells_scanned == 121 * 121


def test_scan_cells_scanned_counts_allowed_pairs():
    for constraints in (
        ScanConstraints.none(),
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
    # The oracle decides every cell with u2_mod.  With k > n the rows with
    # n | a, which the scan checks cell by cell, hold non-trivial cases.
    m = n**k
    divisible = {(a, b) for a in range(m) for b in range(m) if u2_mod(a, b, n, m) == 0}
    for flags in itertools.product((False, True), repeat=3):
        constraints = ScanConstraints(*flags)
        allowed = [(a, b) for a in range(m) for b in range(m) if constraints.allows(a, b, n)]
        report = scan_divisibility(n, k, constraints)
        assert report.witnesses == tuple(c for c in allowed if c in divisible), flags
        assert report.cells_scanned == len(allowed), flags


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
    # is nonzero for da in [1, n-1]; so that partition is always empty.
    for n in (3, 5, 7, 11, 13):
        report = scan_quadratic(n)
        assert report.zeros_sum_n == ()


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
    assert report.zeros_sum_n == tuple(z for z in zeros if sum(z) == n)
    assert report.zeros_other == tuple(z for z in zeros if sum(z) != n)


def test_quadratic_budget_guard():
    # The guard counts the (n-1)^2 grid cells and is exact.
    assert scan_quadratic(7, cell_budget=36).cells_scanned == 36
    with pytest.raises(ScanBudgetError) as excinfo:
        scan_quadratic(7, cell_budget=35)
    assert excinfo.value.required_cells == 36
    with pytest.raises(ScanBudgetError):
        scan_quadratic(10007)


def test_quadratic_rejects_composite():
    with pytest.raises(DomainError):
        scan_quadratic(9)
