"""The catalog's failure reports and its shared sample.

A claim that fails names the sample and exponent it failed at, and the
condition that failed.  The arithmetic never fails on working code, so
these tests replace the functions the claims call with broken ones.

run_claims draws the pair sample shared by six claims once; each claim
run alone must still report what it reports in the whole catalog.
"""
import hashlib
import random

import pytest

from truncbin import binomial_core, claims, compatibility, residue_scan, valuation
from truncbin.claims import (
    CLAIM_CODES,
    DEFAULT_SEED,
    FULL,
    PAIR_BOUND,
    QUICK,
    _shared_pairs,
    run_claim,
    run_claims,
)
from truncbin.compatibility import Verdict, VerdictKind
from truncbin.errors import DomainError


def failure(code):
    result = run_claim(code)
    assert not result.passed
    assert next(iter(result.details)) == "failed_at"
    return result.details


def off_by_one(fn):
    return lambda *args: fn(*args) + 1


def test_series_form_failure_names_pair_exponent_and_form(monkeypatch):
    def forms(a, b, n):
        return tuple(value + 1 for value in binomial_core._series_forms(a, b, n))

    monkeypatch.setattr(claims, "_series_forms", forms)
    assert failure("I.2") == {"failed_at": [0, 0, 3], "form": "mixed"}


def test_series_form_failure_scans_every_pair_before_the_next_exponent(monkeypatch):
    # The shared sample opens with (0, 0), (0, 5), (1, -1), (-1, -1), (1, 1).
    def forms(a, b, n):
        mixed, q_minus_a, q_minus_b = binomial_core._series_forms(a, b, n)
        broken = (a, b, n) == (-1, -1, 5) or (a, b, n) == (1, -1, 7)
        return mixed, q_minus_a, q_minus_b + broken

    monkeypatch.setattr(claims, "_series_forms", forms)
    assert failure("I.2") == {"failed_at": [-1, -1, 5], "form": "q_minus_b"}


@pytest.mark.parametrize("code", ["I.2", "I.div", "I.res", "II.2"])
def test_sweep_refuses_a_composite_exponent_before_its_samples(monkeypatch, code):
    # _sweep validates each exponent once; its checks evaluate U on unchecked ints.
    exponents = []

    def u2(a, b, n):
        exponents.append(n)
        return binomial_core._u2(a, b, n)

    monkeypatch.setattr(claims, "IDENTITY_EXPONENTS", (3, 9))
    monkeypatch.setattr(claims, "_u2", u2)
    with pytest.raises(DomainError, match="exponent must be a prime >= 3, got 9"):
        run_claim(code)
    assert set(exponents) == {3}


def test_draw_takes_the_stream_of_randrange():
    # _draw inlines randrange's rejection loop; a CPython that draws differently
    # in randrange fails here before any catalog row moves.
    def old_draw(rng):
        return rng.randrange(2 * PAIR_BOUND + 1) - PAIR_BOUND

    def stream(draw):
        rng = random.Random(f"{DEFAULT_SEED}:shared-pairs")
        out = []
        for i in range(100_000):
            out.append(draw(rng))
            if i % 3 == 0:
                out.append(rng.random())
            if i % 7 == 0:
                out.append(rng.choice(claims.IDENTITY_EXPONENTS))
        return out

    assert stream(claims._draw) == stream(old_draw)


@pytest.mark.parametrize("value, condition", [(1, "odd_value"), (2, "not_divisible_by_n")])
def test_even_and_divisible_failure_names_the_condition(monkeypatch, value, condition):
    monkeypatch.setattr(claims, "_u2", lambda a, b, n: value)
    assert failure("I.div") == {"failed_at": [0, 0, 3], condition: True}


def test_residual_failure_names_pair_and_exponent(monkeypatch):
    monkeypatch.setattr(claims, "_u2", off_by_one(binomial_core._u2))
    assert failure("I.res") == {"failed_at": [0, 0, 3]}


def test_decomposition_failure_names_triple_and_exponent(monkeypatch):
    monkeypatch.setattr(claims, "truncated3", off_by_one(binomial_core.truncated3))
    rng = random.Random(f"{DEFAULT_SEED}:II.2")
    first = [rng.randint(-PAIR_BOUND, PAIR_BOUND) for _ in range(3)]
    assert failure("II.2") == {"failed_at": [*first, 3]}


def draw(rng):
    return rng.randrange(2 * PAIR_BOUND + 1) - PAIR_BOUND


def first_two_term_sample():
    """I.1's first (a, b, n), drawn as the claim draws it."""
    rng = random.Random(f"{DEFAULT_SEED}:I.1")
    n = rng.choice(claims.IDENTITY_EXPONENTS)
    opposite = rng.random() < 0.1
    a = draw(rng)
    return [a, -a if opposite else draw(rng), n]


def test_two_term_failure_names_the_wrong_kind(monkeypatch):
    monkeypatch.setattr(claims, "binomial_equation_verdict",
                        lambda p: Verdict(VerdictKind.UNDETERMINED, "broken"))
    assert failure("I.1") == {"failed_at": first_two_term_sample(), "kind": "Undetermined"}


def test_two_term_failure_names_a_bad_residual(monkeypatch):
    def verdict(p):
        v = compatibility.binomial_equation_verdict(p)
        return Verdict(v.kind, v.reason, {**v.evidence, "residual": v.evidence["residual"] + 1})

    monkeypatch.setattr(claims, "binomial_equation_verdict", verdict)
    assert failure("I.1") == {"failed_at": first_two_term_sample(), "bad_residual": True}


FACTORED = [("II.5", 3), ("II.6", 5), ("II.8", 7)]


@pytest.mark.parametrize("code", [code for code, _ in FACTORED])
def test_factored_pair_failure_names_the_first_shared_pair(monkeypatch, code):
    monkeypatch.setattr(claims, "factored_u2", off_by_one(valuation.factored_u2))
    result = run_claim(code)
    assert not result.passed
    assert result.details == {"failed_pair": [0, 0]}


@pytest.mark.parametrize("code, n", FACTORED)
def test_factored_triple_failure_names_the_first_triple(monkeypatch, code, n):
    monkeypatch.setattr(claims, "trinomial_rhs_factored",
                        off_by_one(valuation.trinomial_rhs_factored))
    rng = random.Random(f"{DEFAULT_SEED}:{code}")
    a, b = draw(rng), draw(rng)
    c = 2 * n * rng.randint(-PAIR_BOUND // (2 * n), PAIR_BOUND // (2 * n)) - a - b
    result = run_claim(code)
    assert not result.passed
    assert result.details == {"failed_triple": [a, b, c]}


def test_bracket_mismatches_report_the_smallest_counterexample(monkeypatch):
    # Pairs from [-2, 2]^2, so that several mismatches tie on |a| + |b|, and the
    # printed bracket made wrong wherever a + b is odd.
    def printed(a, b):
        return binomial_core.truncated2_direct(binomial_core.BinomialPair(a, b, 11)) + (a + b) % 2

    monkeypatch.setattr(claims, "_draw", lambda rng: 2 - rng.randrange(5))
    monkeypatch.setattr(claims, "_printed_u11", printed)
    rng = random.Random(f"{DEFAULT_SEED}:II.9")
    pairs = [(2 - rng.randrange(5), 2 - rng.randrange(5)) for _ in range(QUICK.triples)]
    odd = sorted((abs(a) + abs(b), (a, b)) for a, b in pairs if (a + b) % 2)
    # The first of the pairs tied on the least |a| + |b| is not the least pair.
    tied = [(a, b) for a, b in pairs if (a + b) % 2 and abs(a) + abs(b) == odd[0][0]]
    assert tied[0] != odd[0][1]
    result = run_claim("II.9")
    assert result.passed
    assert result.details == {
        "verdict": "COUNTEREXAMPLE",
        "counterexample": list(odd[0][1]),
        "mismatch_count": len(odd),
        "pairs": QUICK.triples,
    }


# Details that hold a time, or a comparison of one with a bound.
TIMED = ("constrained_seconds", "constrained_under_1s", "best_enumeration_seconds",
         "enumeration_under_1ms")


def untimed(result):
    return {key: value for key, value in result.details.items() if key not in TIMED}


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "warm-memo"])
def test_claims_alone_report_what_the_catalog_reports(warm):
    together = {result.code: untimed(result) for result in run_claims()}
    assert list(together) == list(CLAIM_CODES)
    assert _shared_pairs.cache_info().currsize == 0
    if warm:
        _shared_pairs(DEFAULT_SEED, QUICK.pairs)
    for code in CLAIM_CODES:
        if not warm:
            _shared_pairs.cache_clear()
        assert untimed(run_claim(code)) == together[code], code
    # I.2, I.div, I.res, II.5, II.6 and II.8 read the sample.
    assert _shared_pairs.cache_info().hits == (6 if warm else 0)


def test_run_claims_draws_the_shared_sample_once_and_drops_it(monkeypatch):
    seen = []

    def recorded(code, **kwargs):
        result = run_claim(code, **kwargs)
        seen.append(_shared_pairs.cache_info())
        return result

    _shared_pairs.cache_clear()
    monkeypatch.setattr(claims, "run_claim", recorded)
    run_claims()
    assert (seen[-1].misses, seen[-1].hits, seen[-1].currsize) == (1, 5, 1)
    assert _shared_pairs.cache_info().currsize == 0


def test_scan_audit_failure_leaves_the_other_conditions(monkeypatch):
    expected = {**untimed(run_claim("II.A4")), "audit_ok": False}
    monkeypatch.setattr(claims, "_u2", off_by_one(binomial_core._u2))
    result = run_claim("II.A4")
    assert not result.passed
    assert untimed(result) == expected


def test_quadratic_cross_check_failure_names_the_first_cell(monkeypatch):
    # Every valuation at least 2: (1, 1) at n = 5 has neither 5 | a+b nor a zero.
    monkeypatch.setattr(claims, "padic_valuation",
                        lambda u, n: valuation.padic_valuation(u * n * n, n))
    result = run_claim("II.7")
    assert not result.passed
    assert result.details == {"cross_check_failed_at": [1, 1, 5]}


def case_a_verdicts(monkeypatch, tier, at):
    """case_A_verdict with tier reported Undetermined at exponent at; the triples it saw."""
    seen = []

    def verdict(t):
        seen.append(t)
        v = compatibility.case_A_verdict(t)
        if t.n == at:
            v = Verdict(v.kind, v.reason, {**v.evidence, tier: VerdictKind.UNDETERMINED})
        return v

    monkeypatch.setattr(claims, "case_A_verdict", verdict)
    return seen


def test_case_a_rule_tier_failure_names_the_first_triple(monkeypatch):
    seen = case_a_verdicts(monkeypatch, "rule_tier", 3)
    t = claims._sample_case_a_triple(random.Random(f"{DEFAULT_SEED}:II.A"), 3)
    assert failure("II.A") == {"failed_at": [t.a, t.b, t.c, 3], "tier": "rule"}
    assert seen == [t]


def test_case_a_exact_tier_failure_names_the_first_n7_triple(monkeypatch):
    seen = case_a_verdicts(monkeypatch, "exact_tier", 7)
    details = failure("II.A")
    t = seen[-1]
    assert details == {"failed_at": [t.a, t.b, t.c, 7], "tier": "exact"}
    # The rule tier passed every n = 3 and n = 5 triple first.
    assert [s.n for s in seen] == [3] * QUICK.triples + [5] * QUICK.triples + [7]
    # The first n = 7 triple is drawn from the zeros of the quadratic form.
    assert (t.a % 7, t.b % 7) in residue_scan.scan_quadratic(7).zero_pairs


def test_exponent_algebra_failure_names_rho_c_and_exponent(monkeypatch):
    def profile(rho_c, n):
        p = compatibility.case_B_exponents(rho_c, n)
        return p._replace(rho_q=p.rho_q + (rho_c == 2 and n == 5))

    monkeypatch.setattr(claims, "case_B_exponents", profile)
    assert failure("II.12") == {"failed_at": [2, 5]}


def test_exponent_algebra_failure_names_an_accepted_zero(monkeypatch):
    def profile(rho_c, n):
        return compatibility.case_B_exponents(rho_c or 1, n)

    monkeypatch.setattr(claims, "case_B_exponents", profile)
    result = run_claim("II.12")
    assert not result.passed
    assert result.details == {"rho_c_zero_not_rejected": True}


def test_lift_failure_names_pair_exponent_and_valuation(monkeypatch):
    monkeypatch.setattr(claims, "padic_valuation", lambda u, n: valuation.padic_valuation(n, n))
    rng = random.Random(f"{DEFAULT_SEED}:II.lift")
    n = rng.choice(claims.IDENTITY_EXPONENTS)
    a = draw(rng)
    while a % n == 0:
        a = draw(rng)
    b = n * rng.randint(-PAIR_BOUND // n, PAIR_BOUND // n) - a
    assert failure("II.lift") == {"failed_at": [a, b, n], "exponent": 1}


def recorded_pairs(monkeypatch, code):
    """The (a, b, n) that claims._u2 receives while code runs at FULL scale."""
    seen = []

    def recorded(a, b, n):
        seen.append((a, b, n))
        return binomial_core._u2(a, b, n)

    monkeypatch.setattr(claims, "_u2", recorded)
    assert run_claim(code, FULL).passed
    return seen


@pytest.mark.parametrize("code, digest", [
    ("II.lift", "32168af948c3846dd283c4a712889391a8d54071f827e0652d59bc9d9ff45686"),
    ("II.9", "9ae70f37bc99f1c60f2c07418eb68960f1c0c04408da2c1aa5a67385ec48fe8c"),
], ids=["II.lift", "II.9"])
def test_claim_samples_are_pinned(monkeypatch, code, digest):
    # Both claims print only counts, and II.9 is EQUAL for any sample: a changed
    # draw shows only in the pairs they evaluate.
    seen = recorded_pairs(monkeypatch, code)
    assert len(seen) == FULL.triples
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest
