"""Valuation and closed-form tests.

The valuation oracle is a repeated-division loop written here, kept
separate from the library implementation on purpose.  The hand-written
n = 3, 5, 7 factored forms and the printed n = 11 bracket are kept here
as oracles for the library's one factorisation, which the tests also
check against the direct form for every prime below 110 and at n = 1009.
The bracket's equality with the direct form is recorded as an outcome
rather than assumed (see also claim II.9).
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
    is_prime,
    padic_valuation,
    trinomial_rhs_factored,
    truncated2_direct,
    truncated3,
    u3_valuations,
)
from truncbin.valuation import _cm_factor


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
    assert repr(v) == "Valuation(base=7, exponent=3, cofactor=6)"  # as README shows it


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


@pytest.mark.parametrize("p", [3, 7, 101, 1009])
def test_padic_valuation_at_every_depth_to_2100(p):
    # x = u * p**v with p not dividing u, so the answer is (v, u).  The
    # repeated-division oracle takes v divisions of x, so it confirms the
    # answer at every 100th v only.
    for u in (1, -(p**30 + 1)):
        x = u
        for v in range(2101):
            got = padic_valuation(x, p)
            assert (got.exponent, got.cofactor) == (v, u)
            if v % 100 == 0:
                assert valuation_oracle(x, p) == v
            x *= p


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
# valuations of U(a, b), U(a+b, c) and U(a, b, c) from U mod n**K

U2_EXPONENTS = (3, 5, 7, 11, 13, 101)


def built_valuations(a, b, c, n):
    """(exponent, cofactor mod n) of U(a, b), U(a+b, c) and U(a, b, c), each
    built in full and divided by n."""
    t = TrinomialTriple(a, b, c, n)
    out = []
    for u in (truncated2_direct(t.pair_ab()), truncated2_direct(t.pair_qc()), truncated3(t)):
        v = padic_valuation(u, n)
        out.append((v.exponent, 0 if v.is_infinite else v.cofactor % n))
    return out


def residue_valuations(a, b, c, n):
    valuations = u3_valuations(TrinomialTriple(a, b, c, n))
    assert all(v.base == n for v in valuations)
    return [(v.exponent, v.unit) for v in valuations]


def u2_valuation_cases(n):
    """Pairs that stress the valuation of U(a, b): zeros, signs, n | a, deep n | a+b."""
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
        expected = built_valuations(a, b, 1, n)[0]
        assert residue_valuations(a, b, 1, n)[0] == expected, (a, b)
        assert (expected[0] == INFINITE) == (a * b * (a + b) == 0), (a, b)


def test_u2_valuation_closed_forms_at_depth():
    # n | a+b with n prime to a gives 1 + v_n(a+b), here well past the
    # first few doublings of K.
    for n, j in [(3, 9), (7, 21), (101, 303), (1009, 1008)]:
        assert u3_valuations(TrinomialTriple(5, n**j * 2 - 5, 1, n))[0].exponent == 1 + j


def u3_valuation_cases(n):
    """Triples on the pairs above: c = 0, cancelling c, n**j | c, 2n | a+b+c."""
    rng = random.Random(f"u3-valuation:{n}")
    cases = []
    for a, b in u2_valuation_cases(n)[:26]:
        c = rng.randint(-10**6, 10**6)
        cases += [(a, b, 0), (a, b, -a), (a, b, -a - b), (a, b, c),
                  (a, b, n**rng.randint(1, 4) * c), (a, b, 2 * n * c - a - b)]
    return cases


@pytest.mark.parametrize("n", U2_EXPONENTS)
def test_u3_valuations_match_dividing_the_built_u(n):
    for a, b, c in u3_valuation_cases(n):
        assert residue_valuations(a, b, c, n) == built_valuations(a, b, c, n), (a, b, c)


def test_u3_valuations_on_case_b_triples_at_depth():
    # c = 101^2 c0 and a + b = 101^201 q0, as the Case-B exponent algebra
    # wants: valuations of about 200 and 400, and n^202 divided out of U(q, c).
    rng = random.Random("u3-case-b")
    n = 101
    for _ in range(3):
        a, q0, c0 = (rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(3))
        c = n**2 * c0
        for b in (n**201 * q0 - a, n**201 * q0 * n - a):
            got = residue_valuations(a, b, c, n)
            assert got == built_valuations(a, b, c, n), (a, b, c)
            assert got[1][0] >= 2 * n


@pytest.mark.parametrize("n", [3, 5])
def test_u3_valuations_on_every_tiny_triple(n):
    # Every triple of tiny operands, zeros and cancellations included, where K_max
    # is smallest (3B + 2 at n = 3, B the operands' bit length).
    span = range(-4, 5)
    for a in span:
        for b in span:
            for c in span:
                assert residue_valuations(a, b, c, n) == built_valuations(a, b, c, n), (a, b, c)


# ---------------------------------------------------------------------------
# closed forms for the pair binomial

PRIMES_BELOW_110 = [n for n in range(3, 110) if is_prime(n)]


def printed_u2(a, b, n):
    """The hand-written factored forms: n = 3, 5, 7 and the n = 11 bracket."""
    quad = a * a + a * b + b * b
    if n == 3:
        return 3 * a * b * (a + b)
    if n == 5:
        return 5 * a * b * (a + b) * quad
    if n == 7:
        return 7 * a * b * (a + b) * quad**2
    bracket = (
        5 * a * b * (a**7 + b**7)
        + 15 * a**2 * b**2 * (a**5 + b**5)
        + 30 * a**3 * b**3 * (a**3 + b**3)
        + 42 * a**4 * b**4 * (a + b)
        + a**9
        + b**9
    )
    return 11 * a * b * bracket


def sample_pairs(n, count):
    """Seeded pairs: |a|, |b| <= 10^6, or <= 100 for n beyond 1000."""
    bound = 10**6 if n < 1000 else 100
    rng = random.Random(f"factored:{n}")
    return [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(count)]


def test_factored_u2_examples():
    assert factored_u2(BinomialPair(1, 1, 3)) == 6
    assert factored_u2(BinomialPair(1, 2, 7)) == 2058
    assert factored_u2(BinomialPair(1, -1, 5)) == 0


@pytest.mark.parametrize("n", [*PRIMES_BELOW_110, 1009])
def test_factored_u2_equals_direct(n):
    for a, b in sample_pairs(n, 40):
        p = BinomialPair(a, b, n)
        assert factored_u2(p) == truncated2_direct(p), (a, b)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factored_u2_equals_the_printed_forms(n):
    for a, b in sample_pairs(n, 200):
        assert factored_u2(BinomialPair(a, b, n)) == printed_u2(a, b, n), (a, b)


def test_factored_u2_n11_bracket_equals_direct():
    # Outcome of the claim II.9 arbitration: the printed coefficient set
    # {5, 15, 30, 42} reproduces the direct form, and so factored_u2.
    pairs = [(1, 1), (1, 2), (2, 3), (-4, 7), (0, 9), (5, -5)] + sample_pairs(11, 200)
    for a, b in pairs:
        p = BinomialPair(a, b, 11)
        assert printed_u2(a, b, 11) == truncated2_direct(p) == factored_u2(p), (a, b)


def test_factored_u2_at_n13():
    p = BinomialPair(1, 2, 13)
    assert factored_u2(p) == truncated2_direct(p) == 1586130


def test_cm_factor_pins_e_and_the_cofactor():
    # E_11 is the sextic of docs/findings.md (II.9).
    assert [_cm_factor(n) for n in (3, 5, 7)] == [(0, (1,)), (1, (1,)), (2, (1,))]
    assert _cm_factor(11) == (1, (1, 3, 7, 9, 7, 3, 1))
    assert _cm_factor(13) == (2, (1, 3, 8, 11, 8, 3, 1))


@pytest.mark.parametrize("n", PRIMES_BELOW_110)
def test_cm_factor_takes_out_every_factor(n):
    # U stays equal under a wrong e only if E_n absorbs the difference, so
    # the value tests cannot see it; E_n must be prime to a + b and to
    # a^2 + ab + b^2.  Writing t = a/b: t + 1 divides E_n iff E_n(-1) = 0,
    # and t^2 + t + 1 divides it iff E_n(w) = 0 for w a primitive cube
    # root of unity, iff the coefficient sums over the three classes of
    # the power mod 3 agree (w^2 = -1 - w).
    e, row = _cm_factor(n)
    assert len(row) == n - 2 - 2 * e
    assert sum(c * (-1) ** i for i, c in enumerate(row)) != 0
    assert len({sum(row[r::3]) for r in range(3)}) > 1


def test_cm_factor_refuses_a_remainder():
    # No prime leaves one; the composite 25 (25 = 1 mod 6, so e = 2) does.
    with pytest.raises(ArithmeticError, match="remainder"):
        _cm_factor(25)


# ---------------------------------------------------------------------------
# closed forms for the trinomial right-hand side

def printed_rhs(a, b, c, n):
    """The hand-written trinomial right-hand sides for n = 3, 5, 7."""
    q, quad = a + b, a * a + a * b + b * b
    core = 2 * ((a + b + c) // (2 * n)) * c * n
    if n == 3:
        return 3 * q * (a * b + core)
    if n == 5:
        return 5 * q * (a * b * quad + core * (q * q + core))
    return 7 * q * (a * b * quad**2 + core * (q * q + core) ** 2)


def sample_triples(n, count):
    """Seeded triples with 2n | a + b + c, on the pairs of sample_pairs."""
    rng = random.Random(f"rhs:{n}")
    return [(a, b, 2 * n * rng.randint(-10**4, 10**4) - a - b) for a, b in sample_pairs(n, count)]


def test_trinomial_rhs_examples():
    assert trinomial_rhs_factored(TrinomialTriple(1, 1, 4, 3)) == 150
    t = TrinomialTriple(1, 2, 11, 7)
    assert trinomial_rhs_factored(t) == truncated3(t) == 85926204
    assert trinomial_rhs_factored(TrinomialTriple(1, -1, 0, 5)) == 0


@pytest.mark.parametrize("n", [*PRIMES_BELOW_110, 1009])
def test_trinomial_rhs_equals_truncated3(n):
    for a, b, c in sample_triples(n, 40):
        t = TrinomialTriple(a, b, c, n)
        assert trinomial_rhs_factored(t) == truncated3(t), (a, b, c)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trinomial_rhs_equals_the_printed_forms(n):
    for a, b, c in sample_triples(n, 200):
        t = TrinomialTriple(a, b, c, n)
        assert trinomial_rhs_factored(t) == printed_rhs(a, b, c, n), (a, b, c)


def test_trinomial_rhs_requires_divisible_sum():
    with pytest.raises(PreconditionError):
        trinomial_rhs_factored(TrinomialTriple(1, 1, 1, 3))


def test_trinomial_rhs_at_n11():
    t = TrinomialTriple(1, 1, 20, 11)
    assert trinomial_rhs_factored(t) == truncated3(t) == 379518301411326


# ---------------------------------------------------------------------------
# the valuation lift

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
