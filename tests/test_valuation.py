"""Valuation and closed-form tests.

The valuation oracle is a repeated-division loop written here, kept
separate from the library implementation on purpose.  The n = 11
bracket equality against the direct form is pinned by these tests; the
test records the outcome rather than assuming it (see also claim II.9).
"""
import random

import pytest

from truncbin import (
    INFINITE,
    BinomialPair,
    DomainError,
    PreconditionError,
    TrinomialTriple,
    factored_u2,
    padic_valuation,
    quadratic_form_mod,
    trinomial_rhs_factored,
    truncated2_direct,
    truncated3,
    u2_valuation,
)


def valuation_oracle(x, p):
    """Independent repeated-division count; None stands for infinity."""
    if x == 0:
        return None
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# p-adic valuation

def test_padic_examples():
    v = padic_valuation(18, 3)
    assert (v.exponent, v.cofactor) == (2, 2)
    assert padic_valuation(0, 7).exponent == INFINITE
    assert padic_valuation(0, 7).is_infinite
    v = padic_valuation(2058, 7)
    assert (v.exponent, v.cofactor) == (3, 6)


def test_padic_negative_values():
    v = padic_valuation(-18, 3)
    assert (v.exponent, v.cofactor) == (2, -2)
    assert v.value == -18


def test_padic_matches_oracle_and_reconstructs():
    rng = random.Random("padic")
    for _ in range(500):
        x = rng.randint(-10**9, 10**9)
        p = rng.choice((3, 5, 7, 11, 13, 97))
        v = padic_valuation(x, p)
        expected = valuation_oracle(x, p)
        if expected is None:
            assert v.is_infinite
        else:
            assert v.exponent == expected
            assert v.cofactor % p != 0
            assert v.value == x


def test_padic_rejects_bad_base():
    for bad in (2, 4, 9, 1, -3):
        with pytest.raises(DomainError):
            padic_valuation(10, bad)


def test_padic_rejects_non_int_value():
    for bad in (True, False, 1.5, 9.0, "9", None):
        with pytest.raises(DomainError):
            padic_valuation(bad, 3)


def test_valuation_multiplicative_law():
    rng = random.Random("val-law")
    for _ in range(300):
        x = rng.randint(1, 10**6) * rng.choice((-1, 1))
        y = rng.randint(1, 10**6) * rng.choice((-1, 1))
        p = rng.choice((3, 5, 7, 11))
        assert (
            padic_valuation(x * y, p).exponent
            == padic_valuation(x, p).exponent + padic_valuation(y, p).exponent
        )


# ---------------------------------------------------------------------------
# valuation of the pair binomial from U mod n**K

U2_EXPONENTS = (3, 5, 7, 11, 13, 101)


def u2_valuation_cases(n):
    """Pairs that stress u2_valuation: zeros, signs, n | a, deep n | a+b."""
    rng = random.Random(f"u2-valuation:{n}")
    cases = [(0, 0), (0, 7), (-5, 0), (12, -12), (-(n**40), 0), (10**20 + 1, -(10**20) - 1)]
    cases += [(-3, 3), (-2, -9), (4, -13)]
    cases += [(n * 4, 1), (n**3, -2), (-(n**2) * 5, n), (n * 2, n**2 * 3), (n**5, -(n**5) * 2)]
    for j in sorted({1, 2, 3, n - 1, n, n + 1, 2 * n, 3 * n}):
        a = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        if a % n == 0:
            a += 1
        cases.append((a, n**j * rng.choice((-1, 1, 2, -7)) - a))
    for _ in range(40):
        cases.append((rng.randint(-10**20, 10**20), rng.randint(-10**20, 10**20)))
    return cases


@pytest.mark.parametrize("n", U2_EXPONENTS)
def test_u2_valuation_matches_dividing_the_built_u(n):
    for a, b in u2_valuation_cases(n):
        p = BinomialPair(a, b, n)
        expected = padic_valuation(truncated2_direct(p), n).exponent
        assert u2_valuation(p) == expected, (a, b)
        assert (expected == INFINITE) == (a * b * (a + b) == 0), (a, b)


def test_u2_valuation_closed_forms_at_depth():
    # n | a+b with n prime to a gives 1 + v_n(a+b), here well past the
    # first few doublings of K.
    for n, j in [(3, 9), (7, 21), (101, 303), (1009, 1008)]:
        assert u2_valuation(BinomialPair(5, n**j * 2 - 5, n)) == 1 + j


# ---------------------------------------------------------------------------
# closed forms for the pair binomial

def test_factored_u2_examples():
    assert factored_u2(BinomialPair(1, 1, 3)) == 6
    assert factored_u2(BinomialPair(1, 2, 7)) == 2058
    assert factored_u2(BinomialPair(1, -1, 5)) == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factored_u2_equals_direct(n):
    rng = random.Random(f"factored:{n}")
    for _ in range(400):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        p = BinomialPair(a, b, n)
        assert factored_u2(p) == truncated2_direct(p), (a, b)


def test_factored_u2_n11_bracket_equals_direct():
    # Outcome of the claim II.9 arbitration: the printed coefficient set
    # {5, 15, 30, 42} reproduces the direct form exactly.  Any edit to the
    # bracket should turn this red before anything else does.
    rng = random.Random("bracket-11")
    for a, b in [(1, 1), (1, 2), (2, 3), (-4, 7), (0, 9), (5, -5)]:
        p = BinomialPair(a, b, 11)
        assert factored_u2(p) == truncated2_direct(p), (a, b)
    for _ in range(400):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        p = BinomialPair(a, b, 11)
        assert factored_u2(p) == truncated2_direct(p), (a, b)


def test_factored_u2_unsupported_exponent():
    with pytest.raises(DomainError, match=r"3, 5, 7, 11"):
        factored_u2(BinomialPair(1, 2, 13))


# ---------------------------------------------------------------------------
# closed forms for the trinomial right-hand side

def test_trinomial_rhs_examples():
    assert trinomial_rhs_factored(TrinomialTriple(1, 1, 4, 3)) == 150
    t = TrinomialTriple(1, 2, 11, 7)
    assert trinomial_rhs_factored(t) == truncated3(t) == 85926204
    assert trinomial_rhs_factored(TrinomialTriple(1, -1, 0, 5)) == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trinomial_rhs_equals_truncated3(n):
    rng = random.Random(f"rhs:{n}")
    for _ in range(300):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        c = 2 * n * rng.randint(-10**4, 10**4) - a - b
        t = TrinomialTriple(a, b, c, n)
        assert trinomial_rhs_factored(t) == truncated3(t), (a, b, c)


def test_trinomial_rhs_requires_divisible_sum():
    with pytest.raises(PreconditionError):
        trinomial_rhs_factored(TrinomialTriple(1, 1, 1, 3))


def test_trinomial_rhs_unsupported_exponent():
    with pytest.raises(DomainError, match=r"3, 5, 7"):
        trinomial_rhs_factored(TrinomialTriple(1, 1, 20, 11))


# ---------------------------------------------------------------------------
# quadratic form and the valuation lift

def test_quadratic_form_mod_examples():
    assert quadratic_form_mod(1, 2, 5) == 2
    assert quadratic_form_mod(1, 2, 7) == 0
    assert quadratic_form_mod(0, 0, 11) == 0


def test_quadratic_form_mod_rejects_bad_arguments():
    for bad in ((1.5, 2, 7), (1, "2", 7), (True, 2, 7), (1, 2, 0), (1, 2, 7.0), (1, 2, 9)):
        with pytest.raises(DomainError):
            quadratic_form_mod(*bad)


def test_lift_law():
    # n | a+b with n coprime to ab forces at least n^2 into U(a, b).
    rng = random.Random("lift")
    for _ in range(300):
        n = rng.choice((3, 5, 7, 11, 13))
        a = rng.randint(-10**6, 10**6)
        if a % n == 0:
            continue
        b = n * rng.randint(-10**4, 10**4) - a
        v = padic_valuation(truncated2_direct(BinomialPair(a, b, n)), n)
        assert v.exponent >= 2, (a, b, n)
