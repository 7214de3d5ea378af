"""Compatibility verdict and case-analysis tests."""
import itertools
import math
import random
import re
import tracemalloc

import pytest

from truncbin import (
    PARITY_BOTH_ODD,
    PARITY_ONE_EVEN,
    BinomialPair,
    CaseBReport,
    DomainError,
    InconsistentCaseError,
    PreconditionError,
    TrinomialTriple,
    Verdict,
    VerdictKind,
    binomial_equation_verdict,
    case_A_verdict,
    case_B_consistency_check,
    case_B_exponents,
    classify_divisibility_case,
    necessary_conditions_2,
    padic_valuation,
    scan_quadratic,
    truncated2_direct,
)
from truncbin.claims import _sample_case_a_triple


def sample_case_a_triple(rng, n, bound=10**5):
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = 2 * n * rng.randint(-bound // (2 * n), bound // (2 * n)) - a - b
        if a % n == 0 or b % n == 0 or c % n == 0:
            continue
        if math.gcd(a, b, c) != 1:
            continue
        return TrinomialTriple(a, b, c, n)


# ---------------------------------------------------------------------------
# two-term equation verdict

def test_eq2_trivial_case():
    v = binomial_equation_verdict(BinomialPair(3, -3, 5))
    assert v.kind is VerdictKind.TRIVIAL_ONLY
    assert v.evidence["residual"] == 0


def test_eq2_incompatible_examples():
    v = binomial_equation_verdict(BinomialPair(1, 1, 3))
    assert v.kind is VerdictKind.INCOMPATIBLE
    assert v.evidence["residual"] == 2
    v = binomial_equation_verdict(BinomialPair(2, 4, 7))
    assert v.evidence["residual"] == 2**7 + 4**7 == 16512


def test_eq2_soundness_random():
    rng = random.Random("eq2")
    for _ in range(300):
        n = rng.choice((3, 5, 7))
        a = rng.randint(-1000, 1000)
        b = -a if rng.random() < 0.2 else rng.randint(-1000, 1000)
        v = binomial_equation_verdict(BinomialPair(a, b, n))
        assert (v.kind is VerdictKind.TRIVIAL_ONLY) == (a + b == 0)
        # residual identity: the gap between the two sides is a^n + b^n
        u = truncated2_direct(BinomialPair(a, b, n))
        assert (a + b) ** n - u == a**n + b**n == v.evidence["residual"]


def test_incompatible_verdict_requires_evidence():
    with pytest.raises(ValueError):
        Verdict(kind=VerdictKind.INCOMPATIBLE, reason="x", evidence={})


# ---------------------------------------------------------------------------
# necessary conditions

def test_conditions_examples():
    r = necessary_conditions_2(BinomialPair(5, 1, 3))
    assert r.coprime_after_normalization
    assert r.parity_class == PARITY_BOTH_ODD
    assert r.q_div_2n and r.beta == 1

    r = necessary_conditions_2(BinomialPair(1, 2, 3))
    assert r.coprime_after_normalization
    assert r.parity_class == PARITY_ONE_EVEN
    assert not r.q_div_2n and r.beta is None

    r = necessary_conditions_2(BinomialPair(7, -1, 3))
    assert r.parity_class == PARITY_BOTH_ODD
    assert r.q_div_2n and r.beta == 1

    # A zero entry, and a pair both even until the gcd is removed: once
    # normalized, (0, 1) and (-2, 3), never both even.
    for a, b in ((0, 5), (-4, 6)):
        r = necessary_conditions_2(BinomialPair(a, b, 3))
        assert r.parity_class == PARITY_ONE_EVEN


def test_conditions_normalize_first():
    # (10, 2) reduces to (5, 1): both odd afterwards, beta from the
    # reduced sum, and the report notes the pair was not coprime.
    r = necessary_conditions_2(BinomialPair(10, 2, 3))
    assert not r.coprime_after_normalization
    assert r.parity_class == PARITY_BOTH_ODD
    assert r.q_div_2n and r.beta == 1


def test_conditions_reject_zero_pair():
    with pytest.raises(PreconditionError):
        necessary_conditions_2(BinomialPair(0, 0, 3))


# ---------------------------------------------------------------------------
# case classification

def test_classify_examples():
    assert classify_divisibility_case(TrinomialTriple(1, 1, 4, 3)).kind == "A"
    cls = classify_divisibility_case(TrinomialTriple(1, 4, 9, 3))
    assert cls == ("B", "c")
    with pytest.raises(InconsistentCaseError):
        classify_divisibility_case(TrinomialTriple(3, 6, 1, 3))


def test_classify_requires_coprime_input():
    with pytest.raises(PreconditionError):
        classify_divisibility_case(TrinomialTriple(2, 4, 6, 3))


# ---------------------------------------------------------------------------
# Case A

def test_case_a_verdict_n3_example():
    v = case_A_verdict(TrinomialTriple(1, 1, 4, 3))
    assert v.kind is VerdictKind.INCOMPATIBLE
    assert v.evidence["rule_tier"] is VerdictKind.INCOMPATIBLE
    assert v.evidence["v_u_ab"].exponent == 1


def test_case_a_verdict_n7_exact_tier_decides():
    # v_7(U(1,2)) = 3 keeps the rule tier silent; the exact tier compares
    # v_7 of the sum (= 2) with the left side (= 7) and decides.
    v = case_A_verdict(TrinomialTriple(1, 2, 11, 7))
    assert v.kind is VerdictKind.INCOMPATIBLE
    assert v.evidence["rule_tier"] is VerdictKind.UNDETERMINED
    assert v.evidence["exact_tier"] is VerdictKind.INCOMPATIBLE
    assert v.evidence["v_u_ab"].exponent == 3
    assert v.evidence["v_u_qc"].exponent == 2
    assert v.evidence["v_sum"].exponent == 2
    assert v.evidence["lhs_valuation"] == 7


def test_case_a_verdict_rejects_case_b_input():
    # 3 divides b here, so the Case-A analysis must refuse the triple.
    with pytest.raises(PreconditionError, match="divides"):
        case_A_verdict(TrinomialTriple(1, 3, 2, 3))


def test_case_a_verdict_rejects_bad_sum():
    with pytest.raises(PreconditionError, match="2n"):
        case_A_verdict(TrinomialTriple(1, 1, 2, 3))


# The refusals of case_A_verdict: not coprime, n divides one variable, n divides
# two, 2n does not divide the sum.
_CASE_A_REFUSALS = re.compile(
    r"triple must be coprime \(normalize first\); gcd = \d+"
    r"|case-a: exponent \d+ divides variable [abc]"
    r"|\d+ divides [abc], [abc]; a coprime solution triple admits at most one"
    r"|case-a: 2n = \d+ does not divide a\+b\+c = -?\d+")


def test_case_a_preconditions_imply_exactly_one_even():
    # No parity test is needed: every triple the other conditions admit has one even entry.
    accepted = 0
    for n in (3, 5, 7):
        for a, b, c in itertools.product(range(-10, 11), repeat=3):
            try:
                case_A_verdict(TrinomialTriple(a, b, c, n))
            except PreconditionError as exc:
                assert _CASE_A_REFUSALS.fullmatch(str(exc)), (a, b, c, n, str(exc))
                continue
            assert [a % 2, b % 2, c % 2].count(0) == 1, (a, b, c, n)
            accepted += 1
    assert accepted > 0


def test_case_a_rule_monotonicity():
    # Whenever the rule tier decides, the exact tier agrees.
    rng = random.Random("monotone")
    for n in (3, 5, 7):
        for _ in range(60):
            v = case_A_verdict(sample_case_a_triple(rng, n))
            if v.evidence["rule_tier"] is VerdictKind.INCOMPATIBLE:
                assert v.evidence["exact_tier"] is VerdictKind.INCOMPATIBLE


# ---------------------------------------------------------------------------
# Case B

def test_case_b_exponents_examples():
    p = case_B_exponents(1, 5)
    assert (p.rho_c, p.rho_beta, p.rho_q) == (1, 0, 4)
    p = case_B_exponents(2, 3)
    assert (p.rho_c, p.rho_beta, p.rho_q) == (2, 1, 5)
    for rho_c in (0, -3):
        with pytest.raises(PreconditionError):
            case_B_exponents(rho_c, 7)
    for rho_c in (True, False, 1.5, 2.0, "2", None):
        with pytest.raises(DomainError):
            case_B_exponents(rho_c, 5)


def test_case_b_exponents_satisfy_relations():
    for n in (3, 5, 7, 11):
        for rho_c in range(1, 51):
            p = case_B_exponents(rho_c, n)
            assert p.rho_beta == rho_c - 1
            assert p.rho_q == n * rho_c - 1


# The Case-A tiers' reasons in decision order: the verdict gives the first deciding one's.
CASE_A_REASONS = ("rule:u-ab-valuation-below-2", "exact:sum-valuation-below-left-side")


def case_a_reference(t):
    """case_A_verdict's kind, reason, tiers, exponents and units on the exact path:
    U(a, b) and U(a+b, c) built in full and divided by n."""
    n = t.n
    u_ab, u_qc = truncated2_direct(t.pair_ab()), truncated2_direct(t.pair_qc())
    valuations = [padic_valuation(u, n) for u in (u_ab, u_qc, u_ab + u_qc)]
    lhs = n * (1 + padic_valuation(t.beta, n).exponent)
    tiers = (valuations[0].exponent < 2, valuations[2].exponent < lhs)
    deciding = [reason for reason, decides in zip(CASE_A_REASONS, tiers) if decides]
    return {
        "kind": VerdictKind.INCOMPATIBLE if deciding else VerdictKind.UNDETERMINED,
        "reason": (deciding + ["undetermined:valuations-compatible"])[0],
        "tiers": tiers,
        "valuations": [(v.exponent, 0 if v.is_infinite else v.cofactor % n) for v in valuations],
        "lhs_valuation": lhs,
    }


def lifted_case_a_triple(a, b, n, digits):
    """A Case-A (a, b, c) with n^digits | a^n + b^n + c^n, for a coprime (a, b) with
    n^2 | U(a, b) and n prime to a, b and a + b.

    c starts at -(a + b) mod n, where c^n = -(a^n + b^n) mod n^2 already, and each
    step fixes c^n one n-adic digit further: (c + d n^k)^n = c^n + d n^(k+1) mod
    n^(k+2), as c^(n-1) = 1 mod n.  Adding n^digits when a + b + c is odd keeps c^n
    mod n^(digits+1) and makes 2n | a + b + c.  Then U(a, b, c) = (a+b+c)^n -
    (a^n + b^n + c^n) has valuation at least min(digits, lhs), so from digits = lhs
    on the exact tier is silent too.
    """
    target = -(a**n + b**n)
    c = -(a + b) % n
    for k in range(1, digits - 1):
        modulus = n ** (k + 2)
        c += (target - pow(c, n, modulus)) % modulus // n ** (k + 1) * n**k
    if (a + b + c) % 2:
        c += n**digits
    t = TrinomialTriple(a, b, c, n)
    assert (a**n + b**n + c**n) % n**digits == 0 and classify_divisibility_case(t).kind == "A"
    return t


def case_a_oracle_triples(family):
    """The triples of one oracle family.  An int is the catalog's II.A sampler at
    that n: at n = 7 every third triple has 7 | a^2 + ab + b^2.  The other two keep
    the rule tier silent, where the two tiers can disagree.  "n59-u-3u" draws
    (a, b) = (u, 3u) mod 59, where v_59(U(a, b)) >= 2 and the exact tier decides.
    "lifted" builds triples with lifted_case_a_triple that reach v_sum = lhs."""
    if family == "n59-u-3u":
        rng = random.Random("case-a-oracle:n59-u-3u")
        residues = [(u, 3 * u % 59) for u in range(1, 59)]
        return [_sample_case_a_triple(rng, 59, residues) for _ in range(40)]
    if family == "lifted":
        return ([lifted_case_a_triple(a, b, 7, digits) for a, b in ((1, 2), (1, 4))
                 for digits in range(2, 19)]
                + [lifted_case_a_triple(1, 3, 59, digits) for digits in (2, 30, 58, 59, 69)])
    rng = random.Random(f"case-a-oracle:{family}")
    residues = scan_quadratic(7).zero_pairs if family == 7 else None
    return [_sample_case_a_triple(rng, family, residues if i % 3 == 0 else None)
            for i in range(100)]


@pytest.mark.parametrize("family", [3, 5, 7, 13, 101, "n59-u-3u", "lifted"])
def test_case_a_verdict_matches_the_exact_path(family):
    kinds = set()
    for t in case_a_oracle_triples(family):
        v = case_A_verdict(t)
        tiers = (v.evidence["rule_tier"], v.evidence["exact_tier"])
        seen = {
            "kind": v.kind,
            "reason": v.reason,
            "tiers": tuple(tier is VerdictKind.INCOMPATIBLE for tier in tiers),
            "valuations": [(v.evidence[key].exponent, v.evidence[key].unit)
                           for key in ("v_u_ab", "v_u_qc", "v_sum")],
            "lhs_valuation": v.evidence["lhs_valuation"],
        }
        assert seen == case_a_reference(t), (t.a, t.b, t.c, t.n)
        if isinstance(family, str):
            assert not seen["tiers"][0], (t.a, t.b, t.c, t.n)
        kinds.add(v.kind)
    if family == "lifted":
        assert kinds == {VerdictKind.INCOMPATIBLE, VerdictKind.UNDETERMINED}


def test_lifted_case_a_triple_rebuilds_the_pinned_blind_spot():
    # (1, 2, 1415372820201) at n = 7 solves the equation mod 7^14: v_sum = lhs = 14.
    t = lifted_case_a_triple(1, 2, 7, 16)
    assert t.c == 1415372820201
    v = case_A_verdict(t)
    assert v.kind is VerdictKind.UNDETERMINED
    assert v.evidence["v_sum"].exponent == v.evidence["lhs_valuation"] == 14
    t = lifted_case_a_triple(1, 3, 59, 69)
    v = case_A_verdict(t)
    assert (v.kind, v.evidence["v_u_ab"].exponent) == (VerdictKind.UNDETERMINED, 2)
    assert v.evidence["v_sum"].exponent == v.evidence["lhs_valuation"] == 59


def test_no_verdict_builds_u():
    # At n = 1000003 one n-th power of a 20-bit operand takes about 2.5 MB.  The
    # Case-B U(q, c) has valuation n + 1 here; n^n is divided out of it first.
    n = 1_000_003
    case_a = TrinomialTriple(999_983, 1_000_037, 4 * n - 2_000_020, n)
    case_b = TrinomialTriple(400_001, 600_002, n, n)
    tracemalloc.start()
    try:
        verdict = case_A_verdict(case_a)
        report = case_B_consistency_check(case_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert verdict.evidence["v_u_ab"].exponent == 1
    assert (report.u_ab_valuation, report.u_qc_valuation) == (2, n + 1)
    assert report.u_ab_matches and report.u_qc_matches


def test_case_b_consistency_mismatch_example():
    # q = 81 = 3^4 but the algebra wants rho_q = 3*4 - 1 = 11: mismatch,
    # while rho_beta and both U-valuations land exactly where predicted.
    r = case_B_consistency_check(TrinomialTriple(1, 80, 81, 3))
    assert r.rho_c == 4 and r.c0 == 1
    assert r.rho_q == 4 and r.q0 == 1
    assert r.expected.rho_q == 11
    assert not r.rho_q_matches
    assert r.rho_beta == 3 and r.rho_beta_matches
    assert r.u_ab_valuation == 5 and r.u_ab_matches
    assert r.u_qc_valuation == 13 and r.u_qc_matches


def test_case_b_consistency_fully_consistent_triple():
    # Found by small search: rho_c = 1, q = 9 = 3^2 as the algebra wants.
    r = case_B_consistency_check(TrinomialTriple(4, 5, 3, 3))
    assert r.rho_c == 1
    assert r.rho_q == 2 and r.rho_q_matches
    assert r.rho_beta == 0 and r.rho_beta_matches
    assert r.u_ab_valuation == 3 and r.u_ab_matches
    assert r.u_qc_valuation == 5 and r.u_qc_matches


def test_case_b_consistency_relabels_divisible_variable():
    reference = case_B_consistency_check(TrinomialTriple(1, 80, 81, 3))
    moved = case_B_consistency_check(TrinomialTriple(81, 1, 80, 3))
    assert (moved.a, moved.b, moved.c) == (reference.a, reference.b, reference.c)
    assert moved == reference


def case_b_report_oracle(a, b, c, n):
    """The Case-B report on the exact path: every U built and divided by n.

    c must be the variable divisible by n.
    """
    t = TrinomialTriple(a, b, c, n)
    vc, vq, vbeta = (padic_valuation(x, n) for x in (c, a + b, t.beta))
    expected = case_B_exponents(vc.exponent, n)
    u_ab = padic_valuation(truncated2_direct(t.pair_ab()), n).exponent
    u_qc = padic_valuation(truncated2_direct(t.pair_qc()), n).exponent
    u_ab_expected = vq.exponent + 1
    u_qc_expected = vq.exponent + 1 + vc.exponent * (n - 1)
    return CaseBReport(
        a=a, b=b, c=c, n=n,
        rho_c=vc.exponent, c0=vc.cofactor,
        rho_q=vq.exponent, q0=vq.cofactor,
        rho_beta=vbeta.exponent, beta0=vbeta.cofactor,
        expected=expected,
        rho_q_matches=vq.exponent == expected.rho_q,
        rho_beta_matches=vbeta.exponent == expected.rho_beta,
        u_ab_valuation=u_ab, u_ab_expected=u_ab_expected, u_ab_matches=u_ab == u_ab_expected,
        u_qc_valuation=u_qc, u_qc_expected=u_qc_expected, u_qc_matches=u_qc == u_qc_expected,
    )


def sample_case_b_triple(rng, n, rho_c, consistent):
    """A coprime Case-B triple (a, b, c) with v_n(c) = rho_c and 2n | a+b+c.

    consistent puts n**(n*rho_c - 1) into a+b, as the exponent algebra wants;
    otherwise a+b is random and the U(q, c) valuation rarely matches.
    """
    bound = 10**6
    while True:
        a = rng.randint(-bound, bound)
        c = n**rho_c * rng.choice((-1, 1)) * rng.randint(1, bound)
        if consistent:
            b = n ** (n * rho_c - 1) * rng.choice((-1, 1)) * rng.randint(1, bound) - a
        else:
            b = 2 * n * rng.randint(-bound, bound) - a - c
        if a % n == 0 or b % n == 0 or c % n ** (rho_c + 1) == 0:
            continue
        if (a + b + c) % (2 * n) or math.gcd(a, b, c) != 1:
            continue
        return a, b, c


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13])
def test_case_b_consistency_matches_the_exact_path(n):
    rng = random.Random(f"case-b-oracle:{n}")
    triples = [(1, -1, 6)] if n == 3 else []
    for rho_c in (1, 2, 3):
        for consistent in (True, False):
            triples += [sample_case_b_triple(rng, n, rho_c, consistent) for _ in range(8)]
    for a, b, c in triples:
        oracle = case_b_report_oracle(a, b, c, n)
        assert case_B_consistency_check(TrinomialTriple(a, b, c, n)) == oracle, (a, b, c)
        assert case_B_consistency_check(TrinomialTriple(c, a, b, n)) == oracle, (a, b, c)


def test_case_b_consistency_rejects_case_a_input():
    with pytest.raises(PreconditionError):
        case_B_consistency_check(TrinomialTriple(1, 1, 4, 3))
