"""p-adic valuations and closed-form factorizations of truncated binomials.

A Valuation splits an integer into cofactor * base**exponent with the base
not dividing the cofactor, which is the shape every "divisible by n**k"
statement in the compatibility module reduces to.  Zero gets the INFINITE
exponent sentinel so that a vanishing binomial can flow through the same
comparisons as everything else.  A UnitValuation keeps only the cofactor
mod the base: it is what the valuations of U taken from residues give.

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
u3_valuations takes the valuations of U(a, b), U(q, c) and
U(a, b, c) = U(a, b) + U(q, c), with q = a + b and s = q + c, without
building any of them.  For any K their residues mod n^K come from
x^n mod n^K for x in a, b, c, q and s: five modular powers per K,
shared by the three.  A nonzero residue r has the valuation v of U,
since v_n(r) < K and U = r (mod n^K), and U's unit (U / n^v) mod n is
(r / n^v) mod n.  K starts at 4 and doubles while a residue is zero: in
Case A (n | s, n not dividing c) n^2 always divides U(q, c), so K = 2
would decide nothing there.

U is homogeneous of degree n: when n^g divides a and b, U(a, b) =
n^(ng) U(a/n^g, b/n^g), and the residues are those of the second factor;
likewise for U(q, c) when n^g divides q and c, as in Case B, where this
takes n^n or more out of U(q, c).  As n is odd, U(a, b) is 0 when a, b
or a + b is, U(q, c) when q, c or s is, and U(a, b, c) when a + b, b + c
or c + a is; such a zero is known before any power is taken.

Any other zero stops the doubling at a K_max exact for the triple: with
B the bit length of the largest of |a|, |b|, |c|, |q| and |s| over the
n-power they share, each U over its n^(ng) is a sum of at most four
n-th powers below 2^(nB), so

    |U / n^(ng)| < 4 * 2^(nB) = 2^(nB+2) <= n^K_max,

and a zero residue at K_max means U = 0, whose valuation is INFINITE.
Each modular power works on numbers of K log2(n) bits, while U itself
has about n B bits, which padic_valuation would divide by n, n^2, n^4,
... in turn.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .binomial_core import (
    BinomialPair,
    TrinomialTriple,
    _horner,
    _inner_row,
    _validate_exponent,
    _validate_int,
)

# Exponent of the valuation of zero: 0 is divisible by every power.
INFINITE = math.inf


class Valuation(NamedTuple):
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
    """(k, x / p**k) for the largest k with p**k dividing the nonzero x.

    Past k = 1, x / p**2 is stripped of p**2 (so of p**4, p**8, ... in
    turn), which leaves at most one more p: O(log k) divisions, not the
    k of dividing by p one at a time.  k = 0 and k = 1, the common cases
    of a verdict, cost what that loop costs.
    """
    if x % p:
        return 0, x
    x //= p
    if x % p:
        return 1, x
    k, x = _strip(x // p, p * p)
    if x % p:
        return 2 * k + 2, x
    return 2 * k + 3, x // p


class UnitValuation(NamedTuple):
    """v_n(U) and U's unit: (U / base**exponent) mod base, in 1 .. base-1.

    What u3_valuations gives in place of a Valuation: the unit is the
    cofactor reduced mod base, so it stays a few digits however large U
    is.  exponent is INFINITE, and unit 0, exactly when U = 0.
    """

    base: int
    exponent: int | float
    unit: int


def u3_valuations(t: TrinomialTriple) -> tuple[UnitValuation, UnitValuation, UnitValuation]:
    """The valuations of U(a, b), U(a+b, c) and U(a, b, c), from U mod n**K.

    Each exponent equals padic_valuation of the built U, INFINITE when
    U = 0, and each unit that Valuation's cofactor mod n.  See the module
    docstring for the shared powers and why the largest K is exact.
    """
    a, b, c, n = t.a, t.b, t.c, t.n
    q, s = a + b, t.s
    # U(a, b) = n**(n*g1) * U1 with d1 = n**g1 dividing a and b, U(q, c) =
    # n**(n*g2) * U2 with d2 = n**g2 dividing q and c, so U(a, b, c) =
    # n**(n*g3) * U3 with g3 = min(g1, g2).  A gcd of 0 gets g = 0; its U is 0.
    g1 = _strip(math.gcd(a, b) or 1, n)[0]
    g2 = _strip(math.gcd(q, c) or 1, n)[0]
    g3 = min(g1, g2)
    d1, d2, d3 = n**g1, n**g2, n**g3
    x0, x1, x2 = q // d1, a // d1, b // d1
    y0, y1, y2 = s // d2, q // d2, c // d2
    zero = (a * b * q == 0, q * c * s == 0, q * (b + c) * (a + c) == 0)
    bits = (max(abs(a), abs(b), abs(c), abs(q), abs(s)) // d3).bit_length()
    k_max = -(-(n * bits + 2) // (n.bit_length() - 1))  # n**k_max > 4 * 2**(n*bits)
    k = 4
    while True:
        k = min(k, k_max)
        m = n**k
        pq = pow(x0, n, m)
        r1 = (pq - pow(x1, n, m) - pow(x2, n, m)) % m
        r2 = (pow(y0, n, m) - (pq if y1 == x0 else pow(y1, n, m)) - pow(y2, n, m)) % m
        r3 = (pow(n, n * (g1 - g3), m) * r1 + pow(n, n * (g2 - g3), m) * r2) % m
        # A nonzero residue keeps its valuation at every larger K.
        if k == k_max or (r1 or zero[0]) and (r2 or zero[1]) and (r3 or zero[2]):
            return _unit(r1, n, g1), _unit(r2, n, g2), _unit(r3, n, g3)
        k *= 2


def _unit(residue: int, n: int, g: int) -> UnitValuation:
    """The valuation of n**(n*g) * U from residue = U mod n**K, nonzero or U = 0."""
    if not residue:
        return UnitValuation(n, INFINITE, 0)
    v, unit = _strip(residue, n)
    return UnitValuation(n, n * g + v, unit % n)


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
