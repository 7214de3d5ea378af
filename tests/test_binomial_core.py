"""Core construction tests, checked against independent oracles.

The binomial coefficient oracle is an additive Pascal triangle; the
truncated-binomial oracle is the direct power expansion written out in
the test itself, so the series forms are never compared to themselves.
"""
import math
import random

import pytest

from truncbin import (
    SERIES_FORMS,
    BinomialPair,
    DomainError,
    PreconditionError,
    TrinomialTriple,
    case_B_exponents,
    gcd_normalize,
    is_prime,
    padic_valuation,
    scan_divisibility,
    scan_quadratic,
    truncated2_direct,
    truncated2_series,
    truncated3,
    truncated3_terms,
    u2_mod,
)
from truncbin.binomial_core import _EXPONENTS, _inner_row, _series_forms, _u2

EXPONENTS = (3, 5, 7, 11, 13)


def pascal_row(n):
    """Additive Pascal-triangle oracle, no multiplication involved."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def u2_oracle(a, b, n):
    return (a + b) ** n - a**n - b**n


def series_oracle(a, b, n, form):
    """The per-term sums of the truncated2_series docstring, written out."""
    q = a + b
    if form == "mixed":
        return sum(math.comb(n, v) * a**v * b ** (n - v) for v in range(1, n))
    if form == "q_minus_a":
        return -sum(math.comb(n, v) * q**v * (-a) ** (n - v) for v in range(1, n))
    assert form == "q_minus_b"
    return -sum(math.comb(n, v) * q**v * (-b) ** (n - v) for v in range(1, n))


def sample_pairs(count, bound=10**6, seed="pairs"):
    rng = random.Random(seed)
    pairs = [(0, 0), (0, 5), (1, -1), (-3, -3), (2, 2)]
    pairs += [
        (rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(count)
    ]
    return pairs


# ---------------------------------------------------------------------------
# binomial coefficients

def test_inner_row_matches_pascal_oracle():
    for n in [n for n in range(25) if is_prime(n)]:
        row = pascal_row(n)
        assert _inner_row(n) == tuple(row[v] // n for v in range(n - 1, 0, -1))
        assert all(row[v] % n == 0 for v in range(1, n))


@pytest.mark.parametrize("n", [n for n in range(200) if is_prime(n)] + [1009])
def test_inner_row_matches_math_comb(n):
    assert _inner_row(n) == tuple(math.comb(n, v) // n for v in range(n - 1, 0, -1))


# ---------------------------------------------------------------------------
# primality and type validation

def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


# The strong pseudoprimes to the first 12 and 13 prime bases
# (Sorenson and Webster, 2015).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi12_and_refuses_psi13():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(DomainError, match="primality"):
        is_prime(PSI_13)


def test_is_prime_refuses_non_integers():
    for bad in (7.0, 2.0, "7", True, None):
        with pytest.raises(DomainError, match="int"):
            is_prime(bad)
    # 7.0 stays refused once 7 has been decided, and 7 stays prime.
    assert is_prime(7) and is_prime(2)
    with pytest.raises(DomainError):
        is_prime(7.0)


@pytest.mark.parametrize("bad_n", [1, 2, 4, 9, 15, 21, 0, -7, 7.0, True, PSI_12])
def test_pair_rejects_bad_exponent(bad_n):
    with pytest.raises(DomainError):
        BinomialPair(1, 2, bad_n)
    with pytest.raises(DomainError):
        TrinomialTriple(1, 2, 3, bad_n)
    # Every other entry point that takes an exponent shares the check.
    for call in (
        lambda: scan_divisibility(bad_n, 2),
        lambda: scan_quadratic(bad_n),
        lambda: padic_valuation(18, bad_n),
        lambda: case_B_exponents(1, bad_n),
        lambda: u2_mod(1, 2, bad_n, 9),
    ):
        with pytest.raises(DomainError, match="prime"):
            call()


def test_pair_rejects_non_integers():
    with pytest.raises(DomainError):
        BinomialPair(1.5, 2, 3)
    with pytest.raises(DomainError):
        TrinomialTriple(1, 2, "3", 5)


class Int(int):
    """An int subclass: accepted wherever an int is, never by the plain-int fast path."""


@pytest.mark.parametrize("bad_n", [7.0, True, "7", None])
def test_accepted_exponent_does_not_admit_lookalikes(bad_n):
    BinomialPair(1, 2, 7)
    TrinomialTriple(1, 2, 3, 7)
    message = f"^exponent must be a prime >= 3, got {bad_n!r}$"
    for call in (
        lambda: BinomialPair(1, 2, bad_n),
        lambda: TrinomialTriple(1, 2, 3, bad_n),
        lambda: padic_valuation(18, bad_n),
    ):
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("bad_n", [9, PSI_12])
def test_refused_exponent_is_refused_again(bad_n):
    for _ in range(2):
        with pytest.raises(DomainError, match=f"^exponent must be a prime >= 3, got {bad_n}$"):
            BinomialPair(1, 2, bad_n)
    assert bad_n not in _EXPONENTS


@pytest.mark.parametrize(
    "bad, kind", [(True, "bool"), (1.5, "float"), ("3", "str"), (None, "NoneType")]
)
def test_operand_refusals_after_plain_int_call(bad, kind):
    BinomialPair(1, 2, 7)
    TrinomialTriple(1, 2, 3, 7)
    for name, call in (
        ("a", lambda: BinomialPair(bad, 2, 7)),
        ("b", lambda: BinomialPair(1, bad, 7)),
        ("a", lambda: TrinomialTriple(bad, 2.5, 3, 7)),
        ("b", lambda: TrinomialTriple(1, bad, 3, 7)),
        ("c", lambda: TrinomialTriple(1, 2, bad, 7)),
        ("value", lambda: gcd_normalize([4, bad])),
        ("x", lambda: padic_valuation(bad, 7)),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be an int, got {kind}$"):
            call()


def test_int_subclass_operands_and_exponents_are_accepted():
    BinomialPair(1, 2, 7)
    assert truncated2_direct(BinomialPair(Int(1), Int(2), 7)) == 2058
    assert truncated3(TrinomialTriple(1, Int(1), 4, 3)) == u2_oracle(1, 1, 3) + u2_oracle(2, 4, 3)
    assert truncated2_direct(BinomialPair(1, 2, Int(7))) == 2058
    assert padic_valuation(Int(18), Int(3)).exponent == 2
    # A subclass is checked in full every time, so none is remembered.
    BinomialPair(1, 2, Int(2**31 - 1))
    assert all(type(n) is int for n in _EXPONENTS)
    with pytest.raises(DomainError, match="^exponent must be a prime >= 3, got 9$"):
        BinomialPair(1, 2, Int(9))


def test_derived_quantities():
    t = TrinomialTriple(1, 1, 4, 3)
    assert t.s == 6
    assert t.sum_divisible_by_2n
    assert t.beta == 1
    with pytest.raises(PreconditionError):
        TrinomialTriple(1, 1, 1, 3).beta


# ---------------------------------------------------------------------------
# two-term truncated binomial

def test_truncated2_direct_examples():
    assert truncated2_direct(BinomialPair(0, 5, 3)) == 0
    assert truncated2_direct(BinomialPair(1, -1, 5)) == 0
    assert truncated2_direct(BinomialPair(1, 1, 3)) == 6
    assert truncated2_direct(BinomialPair(1, 2, 7)) == 2058


def test_truncated2_series_mixed_example():
    # C(3,1) + C(3,2) = 3 + 3 at a = b = 1
    assert truncated2_series(BinomialPair(1, 1, 3), "mixed") == 6


def test_truncated2_series_equivalence_contract_examples():
    p = BinomialPair(2, 3, 5)
    assert truncated2_series(p, "q_minus_a") == truncated2_direct(p)
    p = BinomialPair(-4, 7, 11)
    assert truncated2_series(p, "q_minus_b") == truncated2_direct(p)


def test_truncated2_series_unknown_form():
    with pytest.raises(DomainError):
        truncated2_series(BinomialPair(1, 1, 3), "sideways")


# Pairs with a zero, with a = -b, with negative values, with |a| near 1e20, and the
# corners of the catalog's sample box.
EDGE_PAIRS = [
    (0, 7), (7, 0), (0, -3), (5, -5), (-10**20, 10**20), (-4, -9),
    (10**20 + 1, 3), (-(10**20) + 7, -2), (10**20, -(10**19)),
] + [(x * 10**6, y * 10**6) for x in (1, -1) for y in (1, -1)]


def test_series_forms_agree_with_direct_oracle():
    # The records' functions and the unchecked int kernels the catalog's sweeps
    # call, each against the power expansion and the per-term sums.
    cases = [(n, sample_pairs(200, seed=f"forms:{n}") + EDGE_PAIRS) for n in EXPONENTS]
    cases += [(n, sample_pairs(3, seed=f"forms:{n}") + EDGE_PAIRS) for n in (17, 101)]
    # series_oracle takes seconds per pair near 1e20 at n = 1009, so small pairs only.
    cases += [(1009, sample_pairs(2, bound=10**3, seed="forms:1009"))]
    for n, pairs in cases:
        for a, b in pairs:
            p = BinomialPair(a, b, n)
            expected = u2_oracle(a, b, n)
            assert truncated2_direct(p) == _u2(a, b, n) == expected
            for form, kernel_value in zip(SERIES_FORMS, _series_forms(a, b, n)):
                value = truncated2_series(p, form)
                assert value == kernel_value == expected, (a, b, n, form)
                assert value == series_oracle(a, b, n, form), (a, b, n, form)


def test_u2_even_divisible_symmetric():
    for n in EXPONENTS:
        for a, b in sample_pairs(200, seed=f"props:{n}"):
            u = truncated2_direct(BinomialPair(a, b, n))
            assert u % 2 == 0
            assert u % n == 0
            assert u == truncated2_direct(BinomialPair(b, a, n))


# ---------------------------------------------------------------------------
# three-term truncated binomial

def test_truncated3_examples():
    assert truncated3(TrinomialTriple(1, 1, 4, 3)) == 150
    assert truncated3(TrinomialTriple(1, -1, 0, 5)) == 0
    assert truncated3(TrinomialTriple(1, 2, 11, 7)) == 14**7 - 1 - 2**7 - 11**7


def test_truncated3_equals_full_expansion():
    """The four-power U(a, b, c) against its decomposition U(a, b) + U(a+b, c)."""
    rng = random.Random("triples")
    for n in EXPONENTS:
        for _ in range(150):
            a, b, c = (rng.randint(-10**6, 10**6) for _ in range(3))
            t = TrinomialTriple(a, b, c, n)
            assert truncated3(t) == truncated2_direct(t.pair_ab()) + truncated2_direct(t.pair_qc())


# Zeros, a = -b, c = -(a+b) and mixed signs.
EDGE_TRIPLES = [
    (0, 0, 0), (0, 0, 5), (0, 7, 0), (4, 0, 0), (3, -3, 0), (3, -3, 8), (-6, 6, -1),
    (2, 5, -7), (-4, -9, 13), (1, 2, -3), (-5, 8, -11), (12, -7, 30), (-1, -1, -1),
]


@pytest.mark.parametrize("n", [3, 1009])
def test_truncated3_terms_are_the_two_pair_binomials(n):
    for a, b, c in EDGE_TRIPLES:
        t = TrinomialTriple(a, b, c, n)
        u_ab, u_qc = truncated3_terms(t)
        assert (u_ab, u_qc) == (truncated2_direct(t.pair_ab()), truncated2_direct(t.pair_qc()))
        assert u_ab + u_qc == truncated3(t)


# ---------------------------------------------------------------------------
# gcd normalization

def test_gcd_normalize_examples():
    assert gcd_normalize([6, 10]) == ([3, 5], 2)
    assert gcd_normalize([-4, 8, 6]) == ([-2, 4, 3], 2)
    assert gcd_normalize([7, 11]) == ([7, 11], 1)


def test_gcd_normalize_rejects_all_zero():
    with pytest.raises(DomainError):
        gcd_normalize([0, 0, 0])
    with pytest.raises(DomainError):
        gcd_normalize([])


def test_gcd_normalize_idempotent_and_coprime():
    rng = random.Random("gcd")
    for _ in range(300):
        values = [rng.randint(-500, 500) for _ in range(rng.randint(2, 4))]
        if not any(values):
            continue
        normalized, g = gcd_normalize(values)
        assert g > 0
        assert [v * g for v in normalized] == values
        assert math.gcd(*normalized) == 1
        assert gcd_normalize(normalized) == (normalized, 1)
