"""Decision procedures for equations built on truncated binomials.

Two equations are analyzed.  The two-integer equation

    (a + b)**n = U(a, b)

misses by exactly a**n + b**n, so it only holds in the trivial a = -b
case; binomial_equation_verdict settles it outright.  The three-integer
equation

    (a + b + c)**n = U(a, b) + U(a + b, c)

is attacked through divisibility by the exponent n.  After removing the
gcd the variables split into two cases: n divides none of them (Case A)
or exactly one (Case B).  Case A carries an incompatibility rule driven
by the n-adic valuation of U(a, b); Case B carries exponent bookkeeping
relating the n-adic valuations of c, q = a + b and beta = (a+b+c)/(2n).

Verdicts are reported in two tiers.  The rule tier applies only the
stated criterion (U(a, b) divisible by n**k with k < 2 forces
incompatibility).  The exact tier computes every valuation outright and
compares the two sides directly, so it can decide instances the rule
tier leaves open.  _CASE_A_TIERS is the one place the tiers, their order
and their reasons are declared; every tier rides along in the evidence.
"""
from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import NamedTuple

from .binomial_core import (
    BinomialPair,
    TrinomialTriple,
    _Checked,
    _validate_exponent,
    _validate_int,
    gcd_normalize,
)
from .errors import InconsistentCaseError, PreconditionError
from .valuation import padic_valuation, u3_valuations

PARITY_BOTH_ODD = "both-odd"
PARITY_ONE_EVEN = "one-even"


class VerdictKind(enum.Enum):
    INCOMPATIBLE = "Incompatible"
    UNDETERMINED = "Undetermined"
    TRIVIAL_ONLY = "TrivialOnly"


# The Case-A tiers in order, each (evidence key, reason, test).  A test takes
# v_n of U(a, b), U(a+b, c) and U(a, b, c) and the left side's valuation; a
# tier reports _TIER_KIND of whether its test decides the instance.
_TIER_KIND = {True: VerdictKind.INCOMPATIBLE, False: VerdictKind.UNDETERMINED}
_CASE_A_TIERS = (
    ("rule_tier", "rule:u-ab-valuation-below-2", lambda v1, v2, v_sum, lhs: v1.exponent < 2),
    ("exact_tier", "exact:sum-valuation-below-left-side",
     lambda v1, v2, v_sum, lhs: v_sum.exponent < lhs),
)


class Verdict(_Checked, namedtuple("Verdict", "kind reason evidence")):
    """Outcome of a compatibility check plus the values that drove it.

    evidence is a dict, a new empty one when none is given.
    """

    __slots__ = ()

    def __new__(cls, kind: VerdictKind, reason: str, evidence: dict | None = None):
        if evidence is None:
            evidence = {}
        if kind is VerdictKind.INCOMPATIBLE and not evidence:
            raise ValueError("an Incompatible verdict must carry evidence")
        return tuple.__new__(cls, (kind, reason, evidence))


class ConditionReport(_Checked, namedtuple(
        "ConditionReport", "coprime_after_normalization parity_class q_div_2n beta")):
    """Necessary conditions for the two-integer equation.

    Parity and divisibility are evaluated on the gcd-normalized pair;
    coprime_after_normalization records whether the input already had
    gcd 1.  beta is present exactly when 2n divides the normalized sum.
    """

    __slots__ = ()

    def __new__(cls, coprime_after_normalization: bool, parity_class: str, q_div_2n: bool,
                beta: int | None = None):
        if q_div_2n != (beta is not None):
            raise ValueError("beta must be present exactly when q_div_2n holds")
        return tuple.__new__(cls, (coprime_after_normalization, parity_class, q_div_2n, beta))


class ExponentProfile(NamedTuple):
    """The exponent triple (rho_c, rho_beta, rho_q) of Case B."""

    rho_c: int
    rho_beta: int
    rho_q: int


class CaseClassification(NamedTuple):
    kind: str  # "A" or "B"
    variable: str | None = None  # which of a, b, c the exponent divides


class CaseBReport(NamedTuple):
    """Observed Case-B decomposition versus the predicted exponent algebra.

    The triple is relabeled so the divisible variable sits in position c
    (the equation is symmetric, so nothing is lost).  c0, q0, beta0 are
    the cofactors of c, q = a + b and beta once the n-power is pulled
    out; rho_q or rho_beta is INFINITE when the quantity vanishes.
    """

    a: int
    b: int
    c: int
    n: int
    rho_c: int
    c0: int
    rho_q: int | float
    q0: int
    rho_beta: int | float
    beta0: int
    expected: ExponentProfile
    rho_q_matches: bool
    rho_beta_matches: bool
    u_ab_valuation: int | float
    u_ab_expected: int | float
    u_ab_matches: bool
    u_qc_valuation: int | float
    u_qc_expected: int | float
    u_qc_matches: bool


def binomial_equation_verdict(p: BinomialPair) -> Verdict:
    """Decide (a + b)**n = U(a, b).

    The two sides differ by the residual r = a**n + b**n, which vanishes
    only when a = -b (n is odd), so the verdict is TrivialOnly in that
    case and Incompatible otherwise.
    """
    residual = p.a**p.n + p.b**p.n
    if residual == 0:
        return Verdict(
            kind=VerdictKind.TRIVIAL_ONLY,
            reason="residual-zero:a-equals-minus-b",
            evidence={"residual": residual},
        )
    return Verdict(
        kind=VerdictKind.INCOMPATIBLE,
        reason="residual-nonzero",
        evidence={"residual": residual},
    )


def necessary_conditions_2(p: BinomialPair) -> ConditionReport:
    """Parity, coprimality and 2n-divisibility checks for a pair.

    The pair is gcd-normalized first; the equation is insensitive to the
    common factor and the parity argument needs coprime values.
    """
    if p.a == 0 and p.b == 0:
        raise PreconditionError("conditions undefined for the zero pair")
    (a, b), g = gcd_normalize([p.a, p.b])
    # Coprime now, so a and b are never both even.
    parity = PARITY_BOTH_ODD if a % 2 and b % 2 else PARITY_ONE_EVEN
    q = a + b
    divisible = q % (2 * p.n) == 0
    return ConditionReport(
        coprime_after_normalization=(g == 1),
        parity_class=parity,
        q_div_2n=divisible,
        beta=q // (2 * p.n) if divisible else None,
    )


def classify_divisibility_case(t: TrinomialTriple) -> CaseClassification:
    """Sort a coprime triple by how the exponent divides its variables.

    Case A: n divides none of a, b, c.  Case B: n divides exactly one,
    reported by name.  Two or more divisible variables contradict
    coprimality-with-the-equation and raise.
    """
    if math.gcd(t.a, t.b, t.c) != 1:
        raise PreconditionError(
            f"triple must be coprime (normalize first); gcd = {math.gcd(t.a, t.b, t.c)}"
        )
    divisible = [name for name, value in (("a", t.a), ("b", t.b), ("c", t.c)) if value % t.n == 0]
    if not divisible:
        return CaseClassification(kind="A")
    if len(divisible) > 1:
        raise InconsistentCaseError(
            f"{t.n} divides {', '.join(divisible)}; a coprime solution triple admits at most one"
        )
    return CaseClassification(kind="B", variable=divisible[0])


def case_A_verdict(t: TrinomialTriple) -> Verdict:
    """Incompatibility check for Case A triples.

    Preconditions: the triple is coprime with none of a, b, c divisible
    by n, and the sum a+b+c is divisible by 2n.  Violations raise
    PreconditionError naming the condition.  These force exactly one of
    a, b, c to be even, so parity is not tested: an even sum has two odd
    terms or none, and three even terms would not be coprime.

    The tiers run in the order of _CASE_A_TIERS; the reason is the first
    deciding tier's, and a tier that does not decide reports Undetermined.
    Rule tier: if v_n(U(a, b)) < 2 the right side is divisible by n only
    to the first power while the left side (2*beta*n)**n carries at least
    n of them, so the equation is incompatible.  Exact tier: v_sum, the
    valuation of U(a, b, c) = U(a, b) + U(a+b, c), falls short of the left
    side's n * (1 + v_n(beta)) (beta may itself carry powers of n); it
    decides instances the rule tier leaves open.

    No U is built: valuation.u3_valuations takes all three valuations from
    the residues of a^n, b^n, c^n, (a+b)^n and (a+b+c)^n mod n**K, five
    modular powers per K.  Each valuation in the evidence is a
    UnitValuation, its exponent with U's unit (U / n**exponent) mod n.
    """
    classification = classify_divisibility_case(t)
    if classification.kind != "A":
        raise PreconditionError(
            f"case-a: exponent {t.n} divides variable {classification.variable}"
        )
    if not t.sum_divisible_by_2n:
        raise PreconditionError(
            f"case-a: 2n = {2 * t.n} does not divide a+b+c = {t.s}"
        )

    beta = t.beta
    v1, v2, v_sum = u3_valuations(t)
    lhs_valuation = t.n * (1 + padic_valuation(beta, t.n).exponent)

    evidence = {}
    reason = None
    for key, tier_reason, decides in _CASE_A_TIERS:
        decided = decides(v1, v2, v_sum, lhs_valuation)
        evidence[key] = _TIER_KIND[decided]
        if decided and reason is None:
            reason = tier_reason
    evidence.update(v_u_ab=v1, v_u_qc=v2, v_sum=v_sum, beta=beta, lhs_valuation=lhs_valuation)
    kind = _TIER_KIND[reason is not None]
    return Verdict(kind, reason or "undetermined:valuations-compatible", evidence)


def case_B_exponents(rho_c: int, n: int) -> ExponentProfile:
    """Exponent algebra of Case B: rho_beta = rho_c - 1, rho_q = n*rho_c - 1.

    The relations only hold for rho_c >= 1, so rho_c = 0 is rejected.
    """
    _validate_exponent(n)
    _validate_int("rho_c", rho_c)
    if rho_c < 1:
        raise PreconditionError(
            f"exponent relations require rho_c >= 1, got {rho_c}"
        )
    return ExponentProfile(rho_c=rho_c, rho_beta=rho_c - 1, rho_q=n * rho_c - 1)


def case_B_consistency_check(t: TrinomialTriple) -> CaseBReport:
    """Compare a Case-B triple's observed valuations with the predicted ones.

    The divisible variable is moved into position c, then c, q = a + b and
    beta = (a+b+c)/(2n) are decomposed as cofactor * n**rho.  The report
    states whether the observed (rho_q, rho_beta) match case_B_exponents
    and whether v_n(U(a, b)) = rho_q + 1 and
    v_n(U(q, c)) = rho_q + 1 + rho_c*(n - 1) hold for this instance.
    This is a checker, not a solver: mismatches are reported, not raised.

    The observed v_n(U(a, b)) and v_n(U(q, c)) are computed, not read
    from those formulas: u3_valuations takes each from U mod n**K, which
    is as exact as dividing the fully built U and much cheaper at the
    valuations Case B produces (hundreds at n = 101).  As n divides q and
    c, n**n or more comes out of U(q, c) before any residue is taken.
    """
    classification = classify_divisibility_case(t)
    if classification.kind != "B":
        raise PreconditionError("case-b: none of a, b, c is divisible by the exponent")
    if not t.sum_divisible_by_2n:
        raise PreconditionError(
            f"case-b: 2n = {2 * t.n} does not divide a+b+c = {t.s}"
        )

    order = {"a": (t.b, t.c, t.a), "b": (t.a, t.c, t.b), "c": (t.a, t.b, t.c)}
    a, b, c = order[classification.variable]
    n = t.n
    if c == 0:
        raise PreconditionError(
            "case-b: the divisible variable is zero, decomposition undefined"
        )
    relabeled = TrinomialTriple(a, b, c, n)

    vc = padic_valuation(c, n)
    vq = padic_valuation(a + b, n)
    vbeta = padic_valuation(relabeled.beta, n)
    expected = case_B_exponents(vc.exponent, n)

    v_ab, v_qc, _ = u3_valuations(relabeled)
    u_ab, u_qc = v_ab.exponent, v_qc.exponent
    u_ab_expected = vq.exponent + 1
    u_qc_expected = vq.exponent + 1 + vc.exponent * (n - 1)

    return CaseBReport(
        a=a,
        b=b,
        c=c,
        n=n,
        rho_c=vc.exponent,
        c0=vc.cofactor,
        rho_q=vq.exponent,
        q0=vq.cofactor,
        rho_beta=vbeta.exponent,
        beta0=vbeta.cofactor,
        expected=expected,
        rho_q_matches=(vq.exponent == expected.rho_q),
        rho_beta_matches=(vbeta.exponent == expected.rho_beta),
        u_ab_valuation=u_ab,
        u_ab_expected=u_ab_expected,
        u_ab_matches=(u_ab == u_ab_expected),
        u_qc_valuation=u_qc,
        u_qc_expected=u_qc_expected,
        u_qc_matches=(u_qc == u_qc_expected),
    )
