"""p-adic valuations and closed-form factorizations of truncated binomials.

A Valuation splits an integer into cofactor * base**exponent with the base
not dividing the cofactor, which is the shape every "divisible by n**k"
statement in the compatibility module reduces to.  Zero gets the INFINITE
exponent sentinel so that a vanishing binomial can flow through the same
comparisons as everything else.

Closed forms
------------
For every prime n >= 3 the pair binomial factors as (Cauchy, Mirimanoff)

    U(a, b) = n ab(a + b) (a^2 + ab + b^2)^e E_n(a, b)

with e = 0 for n = 3, e = 1 for n = 5 (mod 6) and e = 2 for n = 1 (mod 6):
a primitive cube root of unity t = b/a is a root of U/(nab(a+b)) for
n >= 5, a double one for n = 1 (mod 6).  E_n, a form of degree
n - 3 - 2e, is 1 for n = 3, 5, 7; E_11 is the sextic of docs/findings.md.
factored_u2 evaluates this product.  E_n's coefficients are the row
C(n, v)/n, v = n-1 .. 1, of binomial_core._inner_row divided exactly
by a + b and e times by a^2 + ab + b^2; the row and E_n are built on
the first call for each n and cached.  At n = 10007 that call takes
35-55 ms on one vCPU of a 2-vCPU Xeon VM under CPython 3.11.7, about
16 ms of it building the row.  No CLI command reaches it.

When 2n divides a + b + c, write beta = (a+b+c) / (2n), q = a + b and
core = 2*beta*c*n.  Then q + c = 2*beta*n and q^2 + qc + c^2 = q^2 + core,
so the three-integer binomial U(a, b, c) = U(a, b) + U(q, c) equals

    n q (ab (a^2+ab+b^2)^e E_n(a, b) + core (q^2 + core)^e E_n(q, c)).

trinomial_rhs_factored evaluates this.  For n = 3, 5, 7 it is the
printed right-hand side term for term, e.g. 3q(ab + 2*beta*c*3) at n = 3.

Valuations modulo n^K
---------------------
u2_valuation takes v_n(U(a, b)) without building U.  For any K, the
residue r = U mod n^K comes from three modular powers, and a nonzero r
has the valuation of U, since v_n(U) < K.  K starts at 2 and doubles
while r is zero.  The doubling stops at a K_max exact for the pair: with
B = bits(max(|a|, |b|)), |a + b| < 2^(B+1) and |a|, |b| < 2^B, so

    |U| <= |a + b|^n + |a|^n + |b|^n < 2^(n(B+1)+1) <= n^K_max.

A nonzero U therefore has v_n(U) < K_max, and a zero residue at K_max
means U = 0, whose valuation is INFINITE.  Each modular power works on
numbers of K log2(n) bits, while U itself has about n B bits and
padic_valuation divides it once per unit of valuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .binomial_core import (
    BinomialPair,
    TrinomialTriple,
    _horner,
    _inner_row,
    _u2_residue,
    _validate_exponent,
    _validate_int,
)

# Exponent of the valuation of zero: 0 is divisible by every power.
INFINITE = math.inf


@dataclass(frozen=True)
class Valuation:
    """value == cofactor * base**exponent with base not dividing cofactor.

    exponent is INFINITE exactly when the value was zero (cofactor 0).
    """

    base: int
    exponent: int | float
    cofactor: int

    @property
    def is_infinite(self) -> bool:
        return self.exponent == INFINITE

    @property
    def value(self) -> int:
        return 0 if self.is_infinite else self.cofactor * self.base**self.exponent


def padic_valuation(x: int, p: int) -> Valuation:
    """Largest k with p**k dividing x, plus the remaining cofactor.

    padic_valuation(18, 3) -> 2 with cofactor 2; zero maps to INFINITE.
    """
    _validate_int("x", x)
    _validate_exponent(p)
    if x == 0:
        return Valuation(base=p, exponent=INFINITE, cofactor=0)
    k, cofactor = _strip(x, p)
    return Valuation(base=p, exponent=k, cofactor=cofactor)


def _strip(x: int, p: int) -> tuple[int, int]:
    """(k, x / p**k) for the largest k with p**k dividing the nonzero x."""
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k, x


def u2_valuation(p: BinomialPair) -> int | float:
    """v_n(U(a, b)) from U mod n**K, without building U.

    Equals padic_valuation(truncated2_direct(p), p.n).exponent, INFINITE
    when U = 0.  See the module docstring for why the largest K is exact.
    """
    a, b, n = p.a, p.b, p.n
    bound = n * (max(abs(a), abs(b)).bit_length() + 1) + 1
    k_max = -(-bound // (n.bit_length() - 1))  # n**k_max >= 2**bound > |U|
    k = 2
    while True:
        k = min(k, k_max)
        residue = _u2_residue(a, b, n, n**k)
        if residue:
            return _strip(residue, n)[0]
        if k == k_max:
            return INFINITE
        k *= 2


def factored_u2(p: BinomialPair) -> int:
    """U(a, b) as n ab(a+b) (a^2+ab+b^2)^e E_n(a, b), for every prime n.

    Equal to truncated2_direct; see the module docstring for e and E_n.
    """
    a, b, n = p.a, p.b, p.n
    e, row = _cm_factor(n)
    return n * a * b * (a + b) * (a * a + a * b + b * b) ** e * _horner(row, a, b)


def trinomial_rhs_factored(t: TrinomialTriple) -> int:
    """Factored right-hand side of the three-integer equation, for every prime n.

    Requires 2n | (a + b + c), so that beta is an integer, and raises
    PreconditionError otherwise.  Equals truncated3(t) exactly.
    """
    a, b, c, n = t.a, t.b, t.c, t.n
    q, core = a + b, 2 * t.beta * c * n
    e, row = _cm_factor(n)
    return n * q * (a * b * (a * a + a * b + b * b) ** e * _horner(row, a, b)
                    + core * (q * q + core) ** e * _horner(row, q, c))


@lru_cache(maxsize=64)
def _cm_factor(n: int) -> tuple[int, tuple[int, ...]]:
    """(e, E_n's coefficients in the order _horner takes them) for the prime n."""
    e = {3: 0, 5: 1, 1: 2}[n % 6]
    row = list(_inner_row(n))
    for d in (1,) + (2,) * e:  # divide by a + b, then e times by a^2 + ab + b^2
        for i in range(len(row) - d):
            for j in range(i + 1, i + d + 1):
                row[j] -= row[i]
        if any(row[-d:]):
            raise ArithmeticError(f"n = {n}: remainder {row[-d:]} on a form of degree {d}")
        del row[-d:]
    return e, tuple(row)
