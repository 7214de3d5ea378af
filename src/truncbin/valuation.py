"""p-adic valuations and closed-form factorizations of truncated binomials.

A Valuation splits an integer into cofactor * base**exponent with the base
not dividing the cofactor, which is the shape every "divisible by n**k"
statement in the compatibility module reduces to.  Zero gets the INFINITE
exponent sentinel so that a vanishing binomial can flow through the same
comparisons as everything else.

Closed forms
------------
For the supported exponents the pair binomial factors as

    n = 3   U(a, b) = 3ab(a + b)
    n = 5   U(a, b) = 5ab(a + b)(a^2 + ab + b^2)
    n = 7   U(a, b) = 7ab(a + b)(a^2 + ab + b^2)^2
    n = 11  U(a, b) = 11ab * B(a, b)

where B is the degree-9 bracket hard-coded in factored_u2 (claim code II.9
in the verification catalog; its equality with the direct expansion is
itself under test rather than assumed).  The n = 3, 5, 7 forms are the
c-independent part of the trinomial right-hand sides below, obtained by
dropping the addend that carries c.

When 2n divides a + b + c, writing beta = (a+b+c) / (2n) and q = a + b,
the three-integer binomial U(a, b, c) equals

    n = 3   3 q (ab + 2*beta*c*3)
    n = 5   5 q (ab(a^2+ab+b^2)   + 2*beta*c*5 * (q^2 + 2*beta*c*5))
    n = 7   7 q (ab(a^2+ab+b^2)^2 + 2*beta*c*7 * (q^2 + 2*beta*c*7)^2)

trinomial_rhs_factored evaluates these; equality with truncated3 is exact.

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

from .binomial_core import (
    BinomialPair,
    TrinomialTriple,
    _u2_residue,
    _validate_exponent,
    _validate_int,
)
from .errors import DomainError, PreconditionError

# Exponent of the valuation of zero: 0 is divisible by every power.
INFINITE = math.inf

FACTORED_U2_EXPONENTS = (3, 5, 7, 11)
TRINOMIAL_RHS_EXPONENTS = (3, 5, 7)


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

    def __str__(self):
        if self.is_infinite:
            return f"0 (divisible by every power of {self.base})"
        return f"{self.cofactor} * {self.base}^{self.exponent}"


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
    """Closed-form evaluation of U(a, b) for n in {3, 5, 7, 11}.

    For n in {3, 5, 7} this is provably equal to truncated2_direct.  The
    n = 11 bracket is transcribed verbatim with coefficients 5, 15, 30, 42;
    whether it reproduces the direct form is exactly what claim II.9
    checks, so no correction is applied here.
    """
    a, b, n = p.a, p.b, p.n
    if n == 3:
        return 3 * a * b * (a + b)
    if n == 5:
        return 5 * a * b * (a + b) * (a * a + a * b + b * b)
    if n == 7:
        return 7 * a * b * (a + b) * (a * a + a * b + b * b) ** 2
    if n == 11:
        bracket = (
            5 * a * b * (a**7 + b**7)
            + 15 * a**2 * b**2 * (a**5 + b**5)
            + 30 * a**3 * b**3 * (a**3 + b**3)
            + 42 * a**4 * b**4 * (a + b)
            + a**9
            + b**9
        )
        return 11 * a * b * bracket
    raise DomainError(
        f"no closed form for n = {n}; supported exponents: {FACTORED_U2_EXPONENTS}"
    )


def trinomial_rhs_factored(t: TrinomialTriple) -> int:
    """Factored right-hand side of the three-integer equation, n in {3, 5, 7}.

    Requires 2n | (a + b + c) so that beta is an integer.  Equals
    truncated3(t) exactly on its whole domain.
    """
    n = t.n
    if n not in TRINOMIAL_RHS_EXPONENTS:
        raise DomainError(
            f"no factored right-hand side for n = {n}; "
            f"supported exponents: {TRINOMIAL_RHS_EXPONENTS}"
        )
    if not t.sum_divisible_by_2n:
        raise PreconditionError(
            f"2n = {2 * n} must divide a+b+c = {t.s} for the factored form"
        )
    a, b, q = t.a, t.b, t.a + t.b
    core = 2 * t.beta * t.c * n
    if n == 3:
        return 3 * q * (a * b + core)
    quad = a * a + a * b + b * b
    if n == 5:
        return 5 * q * (a * b * quad + core * (q * q + core))
    return 7 * q * (a * b * quad**2 + core * (q * q + core) ** 2)


def quadratic_form_mod(da: int, db: int, n: int) -> int:
    """(da^2 + da*db + db^2) mod n for residues in [0, n), n a prime exponent."""
    _validate_int("da", da)
    _validate_int("db", db)
    _validate_exponent(n)
    return (da * da + da * db + db * db) % n
