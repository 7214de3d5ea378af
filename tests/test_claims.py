"""The catalog's failure reports and its shared sample.

A claim that fails names the sample and exponent it failed at, and the
condition that failed.  The arithmetic never fails on working code, so
these tests replace the functions the claims call with broken ones.

run_claims draws the pair sample shared by six claims once; each claim
run alone must still report what it reports in the whole catalog.
"""
import random

import pytest

from truncbin import binomial_core, claims
from truncbin.claims import (
    CLAIM_CODES,
    DEFAULT_SEED,
    PAIR_BOUND,
    QUICK,
    _shared_pairs,
    run_claim,
    run_claims,
)


def failure(code):
    result = run_claim(code)
    assert not result.passed
    assert next(iter(result.details)) == "failed_at"
    return result.details


def off_by_one(fn):
    return lambda *args: fn(*args) + 1


def test_series_form_failure_names_pair_exponent_and_form(monkeypatch):
    def forms(p):
        return tuple(value + 1 for value in binomial_core._series_forms(p))

    monkeypatch.setattr(claims, "_series_forms", forms)
    assert failure("I.2") == {"failed_at": [0, 0, 3], "form": "mixed"}


def test_series_form_failure_scans_every_pair_before_the_next_exponent(monkeypatch):
    # The shared sample opens with (0, 0), (0, 5), (1, -1), (-1, -1), (1, 1).
    def forms(p):
        mixed, q_minus_a, q_minus_b = binomial_core._series_forms(p)
        broken = (p.a, p.b, p.n) == (-1, -1, 5) or (p.a, p.b, p.n) == (1, -1, 7)
        return mixed, q_minus_a, q_minus_b + broken

    monkeypatch.setattr(claims, "_series_forms", forms)
    assert failure("I.2") == {"failed_at": [-1, -1, 5], "form": "q_minus_b"}


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
    monkeypatch.setattr(claims, "truncated2_direct", lambda p: value)
    assert failure("I.div") == {"failed_at": [0, 0, 3], condition: True}


def test_residual_failure_names_pair_and_exponent(monkeypatch):
    monkeypatch.setattr(claims, "truncated2_direct", off_by_one(binomial_core.truncated2_direct))
    assert failure("I.res") == {"failed_at": [0, 0, 3]}


def test_decomposition_failure_names_triple_and_exponent(monkeypatch):
    monkeypatch.setattr(claims, "truncated3", off_by_one(binomial_core.truncated3))
    rng = random.Random(f"{DEFAULT_SEED}:II.2")
    first = [rng.randint(-PAIR_BOUND, PAIR_BOUND) for _ in range(3)]
    assert failure("II.2") == {"failed_at": [*first, 3]}


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
