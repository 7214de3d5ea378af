"""Exact construction of truncated binomials of two and three integers.

The truncated binomial of a pair is U(a, b) = (a + b)**n - a**n - b**n,
the Newton expansion with both pure n-th powers removed.  The three-integer
version U(a, b, c) = (a + b + c)**n - a**n - b**n - c**n decomposes as
U(a, b) + U(a + b, c).

All arithmetic is plain Python int, which is arbitrary precision, so every
value here is exact regardless of magnitude.  Exponents are restricted to
primes >= 3; everything the divisibility analysis relies on (binomial
coefficients proportional to the exponent, evenness of U) needs that.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import DomainError, PreconditionError

# The three equivalent summation forms of U(a, b); see truncated2_series.
SERIES_FORMS = ("mixed", "q_minus_a", "q_minus_b")

# The first 13 primes as Miller-Rabin witnesses decide primality exactly
# below _PSI_13, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# The plain ints _validate_exponent has accepted: the toolkit's one primality memo.
_EXPONENTS: set[int] = set()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3317044064679887385961981.

    That bound, about 3.3e24, covers anything that fits in 64 bits.  Larger
    n, and anything but an int, are refused with DomainError rather than
    guessed.  It keeps no cache: the primes accepted as exponents are
    remembered in _EXPONENTS, by _validate_exponent.
    """
    _validate_int("n", n)
    if n < 2:
        return False
    if n >= _PSI_13:
        raise DomainError(
            f"primality is only decided below {_PSI_13}, got a {n.bit_length()}-bit number"
        )
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _validate_exponent(n) -> None:
    """Every exponent and valuation base of the toolkit is an int prime >= 3.

    A plain int accepted once is answered from _EXPONENTS by one type check and
    one lookup.  Refusals and int subclasses are never remembered.
    """
    if type(n) is int and n in _EXPONENTS:
        return
    if not isinstance(n, int) or isinstance(n, bool) or n < 3 or not is_prime(n):
        raise DomainError(f"exponent must be a prime >= 3, got {n!r}")
    if type(n) is int:
        _EXPONENTS.add(n)


def _validate_int(name: str, value) -> None:
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise DomainError(f"{name} must be an int, got {type(value).__name__}")


class _Checked:
    """Base of a tuple record whose __new__ checks its fields: _make, and
    _replace through it, build the record by cls(...), so the check runs."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class BinomialPair(_Checked, namedtuple("BinomialPair", "a b n")):
    """Two integers together with a prime exponent n >= 3."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, n: int):
        if type(a) is not int or type(b) is not int:
            _validate_int("a", a)
            _validate_int("b", b)
        _validate_exponent(n)
        return tuple.__new__(cls, (a, b, n))


class TrinomialTriple(_Checked, namedtuple("TrinomialTriple", "a b c n")):
    """Three integers together with a prime exponent n >= 3."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, n: int):
        if type(a) is not int or type(b) is not int or type(c) is not int:
            _validate_int("a", a)
            _validate_int("b", b)
            _validate_int("c", c)
        _validate_exponent(n)
        return tuple.__new__(cls, (a, b, c, n))

    @property
    def s(self) -> int:
        """The sum a + b + c."""
        return self.a + self.b + self.c

    @property
    def sum_divisible_by_2n(self) -> bool:
        return self.s % (2 * self.n) == 0

    @property
    def beta(self) -> int:
        """The cofactor in s = 2 * beta * n; only defined when 2n divides s."""
        s = self.s
        beta, rest = divmod(s, 2 * self.n)
        if rest:
            raise PreconditionError(
                f"beta undefined: 2n = {2 * self.n} does not divide a+b+c = {s}"
            )
        return beta

    def pair_ab(self) -> BinomialPair:
        return BinomialPair(self.a, self.b, self.n)

    def pair_qc(self) -> BinomialPair:
        """The pair (a + b, c) appearing in the two-term decomposition."""
        return BinomialPair(self.a + self.b, self.c, self.n)


def truncated2_direct(p: BinomialPair) -> int:
    """U(a, b) = (a + b)**n - a**n - b**n, evaluated directly."""
    return _u2(*p)


def _u2(a: int, b: int, n: int) -> int:
    """U(a, b) from plain ints, the body of truncated2_direct; nothing is checked."""
    return (a + b) ** n - a**n - b**n


def _u2_residue(a: int, b: int, n: int, m: int) -> int:
    """U(a, b) mod m from three modular powers; the arguments are not checked."""
    return (pow(a + b, n, m) - pow(a, n, m) - pow(b, n, m)) % m


def truncated2_series(p: BinomialPair, form: str = "mixed") -> int:
    """Evaluate U(a, b) as one of its three equivalent summations.

    ``mixed``      sum_{v=1}^{n-1} C(n,v) * a**v * b**(n-v)
    ``q_minus_a``  - sum_{v=1}^{n-1} C(n,v) * q**v * (-a)**(n-v)
    ``q_minus_b``  - sum_{v=1}^{n-1} C(n,v) * q**v * (-b)**(n-v)

    where q = a + b.  The last two arise from expanding b**n = (q - a)**n
    and a**n = (q - b)**n.  All three agree exactly with truncated2_direct
    for every integer pair; that equivalence is a library contract and is
    exercised by the test suite.

    The sums are evaluated in one pass, all three forms together, and the
    requested one is returned; the arithmetic is exact.
    """
    if form not in SERIES_FORMS:
        raise DomainError(f"unknown series form {form!r}; expected one of {SERIES_FORMS}")
    return _series_forms(*p)[SERIES_FORMS.index(form)]


def _series_forms(a: int, b: int, n: int) -> tuple[int, int, int]:
    """The three sums of truncated2_series, in SERIES_FORMS order, by one Horner
    loop over _inner_row(n): in a for the mixed form, in q = -(a + b) for the two
    others, where q carries the signs because n - 2 is odd.  Like _u2 it takes
    plain ints and checks none of them; n must be a prime >= 3."""
    q = -(a + b)
    mixed = qa = qb = 0
    ap = bp = 1
    for c in _inner_row(n):
        cb = c * bp
        mixed = mixed * a + cb
        qa = qa * q + c * ap
        qb = qb * q + cb
        ap *= a
        bp *= b
    return n * a * b * mixed, n * q * a * qa, n * q * b * qb


@lru_cache(maxsize=64)
def _inner_row(n: int) -> tuple[int, ...]:
    """C(n, v)/n for v = n-1 down to 1: U(a, b) = n ab * _horner(_inner_row(n), a, b).

    By symmetry that is C(n, 1)/n, ..., C(n, n-1)/n.  Its first half comes
    from C(n, 1)/n = 1 by C(n, v+1) = C(n, v) * (n - v) / (v + 1), exact for
    n prime, and C(n, n-v) = C(n, v) mirrors it.  It is the toolkit's one
    binomial row: valuation._cm_factor takes E_n out of it.
    """
    row = [1]
    for v in range(1, n // 2):
        row.append(row[-1] * (n - v) // (v + 1))
    return tuple(row + row[n % 2 - 2::-1])  # C(n, n/2) once if n is even


def _horner(row: tuple[int, ...], x: int, y: int) -> int:
    """sum_i row[i] * x**(d-i) * y**i with d = len(row) - 1, by Horner's rule in x.

    After step i, acc = sum_{j<=i} row[j] * x**(i-j) * y**j and yp = y**(i+1).
    """
    acc, yp = 0, 1
    for c in row:
        acc = acc * x + c * yp
        yp *= y
    return acc


def truncated3(t: TrinomialTriple) -> int:
    """U(a, b, c) = (a + b + c)**n - a**n - b**n - c**n, from four powers.

    Its decomposition U(a, b) + U(a+b, c) is asserted by claim II.2 and the
    tests, against two truncated2_direct calls, not assumed here.
    """
    return t.s ** t.n - t.a ** t.n - t.b ** t.n - t.c ** t.n


def truncated3_terms(t: TrinomialTriple) -> tuple[int, int]:
    """(U(a, b), U(a+b, c)) from five powers, with (a + b)**n built once."""
    n = t.n
    qn = (t.a + t.b) ** n
    return qn - t.a ** n - t.b ** n, t.s ** n - qn - t.c ** n


def gcd_normalize(values: list[int]) -> tuple[list[int], int]:
    """Divide a list of integers by their (positive) gcd.

    Returns the normalized list and the gcd.  Signs are preserved, so
    gcd_normalize([-4, 8, 6]) == ([-2, 4, 3], 2).  An empty or all-zero
    list has no gcd and is rejected.
    """
    for v in values:
        _validate_int("value", v)
    g = math.gcd(*values) if values else 0
    if g == 0:
        raise DomainError("gcd_normalize needs at least one nonzero value")
    return [v // g for v in values], g
