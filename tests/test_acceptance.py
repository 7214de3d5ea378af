"""Acceptance suite: every headline criterion at full scale, zero tolerance.

Each test runs the corresponding catalog claim at full sample sizes with
the default seed and prints one pass/fail line (run with ``pytest -s`` to
see the lines, or use ``truncbin verify --full`` for the same checks).
All arithmetic is exact, so every comparison is equality, never within
a tolerance.
"""
import random

import pytest

from truncbin.claims import (
    DEFAULT_SEED,
    FULL,
    PAIR_BOUND,
    _random_triples,
    _shared_pairs,
    run_claim,
)


def run(code):
    return run_claim(code, scale=FULL, seed=DEFAULT_SEED)


def report(number, result, note=""):
    status = "PASS" if result.passed else "FAIL"
    suffix = f" | {note}" if note else ""
    print(
        f"ACCEPTANCE {number:>2} [{status}] {result.code}: {result.title}"
        f" ({result.duration_ms:.0f} ms){suffix}"
    )


def test_criterion_01_series_form_equivalence():
    result = run("I.2")
    report(1, result, f"pairs={result.details.get('pairs')}")
    assert result.passed, result.details
    assert result.details["pairs"] == 10_000
    assert result.details["exponents"] == [3, 5, 7, 11, 13]
    assert result.duration_ms < 30_000


def test_criterion_02_evenness_and_prime_divisibility():
    result = run("I.div")
    report(2, result)
    assert result.passed, result.details
    assert result.details["pairs"] == 10_000


def test_criterion_03_residual_identity():
    result = run("I.res")
    report(3, result)
    assert result.passed, result.details
    assert result.details["pairs"] == 10_000


def test_criterion_04_factored_forms():
    for code, n in (("II.5", 3), ("II.6", 5), ("II.8", 7)):
        result = run(code)
        report(4, result, f"n={n}")
        assert result.passed, result.details
        assert result.details["pairs"] == 10_000
        assert result.details["triples"] == 1_000


def test_criterion_05_bracket_arbitration_is_definitive():
    result = run("II.9")
    report(5, result, f"verdict={result.details['verdict']}")
    assert result.passed, result.details
    assert result.details["pairs"] >= 1_000
    # the criterion asks for a definitive report either way; the observed
    # outcome (recorded in docs/findings.md) is EQUAL
    assert result.details["verdict"] in ("EQUAL", "COUNTEREXAMPLE")
    if result.details["verdict"] == "COUNTEREXAMPLE":
        assert result.details["counterexample"]


def test_criterion_06_eleven_squared_scan():
    result = run("II.A4")
    report(6, result, f"unconstrained={result.details['unconstrained_witnesses']}")
    assert result.passed, result.details
    assert result.details["constrained_witnesses"] == 0
    assert result.details["constrained_cells"] == 10_890
    assert result.details["constrained_empty"] is True
    assert result.details["constrained_under_1s"] is True
    assert result.details["witness_set_equals_violating_pairs"] is True
    assert result.details["unconstrained_witnesses"] == 3_751
    assert result.details["audit_ok"] is True
    assert result.details["audited_cells"] == 200


def test_criterion_07_quadratic_truth_tables():
    result = run("II.7")
    report(7, result)
    assert result.passed, result.details
    assert result.details["n5_zero_pairs"] == []
    assert [1, 2] in result.details["n7_zero_pairs"]
    assert result.details["n7_zero_count"] > 0
    assert result.details["zero_sets_ok"] is True
    assert result.details["enumeration_under_1ms"] is True
    # the da + db = n boundary contributes no zeros for either exponent
    assert result.details["sum_n_zeros_n5"] == []
    assert result.details["sum_n_zeros_n7"] == []


def test_criterion_08_case_a_rule():
    result = run("II.A")
    report(8, result)
    assert result.passed, result.details
    assert result.details["triples_per_exponent"] == 1_000
    assert result.details["rule_tier_incompatible"] == {3: 1_000, 5: 1_000}
    # the n = 7 batch must include instances the rule tier cannot decide
    assert result.details["n7_rule_tier_open_but_exact_decided"] > 0


def test_criterion_09_case_b_exponent_algebra():
    result = run("II.12")
    report(9, result)
    assert result.passed, result.details
    assert result.details["rho_c_range"] == [1, 50]
    assert result.details["exponents"] == [3, 5, 7, 11]


def test_criterion_10_lift_law():
    result = run("II.lift")
    report(10, result)
    assert result.passed, result.details
    assert result.details["pairs"] == 1_000


def test_criterion_11_scan_determinism():
    result = run("scan.det")
    report(11, result)
    assert result.passed, result.details
    assert result.details["reference"] == "u2_mod cell by cell"
    assert result.details["byte_identical"] is True
    assert result.details["witness_count"] == 4_056
    assert result.details["cells_scanned"] == 22_308


# The samples behind the criteria draw what randint(-PAIR_BOUND, PAIR_BOUND)
# draws, one value after another, and leave the generator where it leaves it.

def randint_draws(rng, count, width):
    return [
        tuple(rng.randint(-PAIR_BOUND, PAIR_BOUND) for _ in range(width)) for _ in range(count)
    ]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_shared_pairs_match_randint_stream(seed):
    reference = [(0, 0), (0, 5), (1, -1), (-1, -1), (1, 1)]
    reference += randint_draws(random.Random(f"{seed}:shared-pairs"), 2_995, 2)
    assert _shared_pairs(seed, 3_000) == tuple(reference)
    assert _shared_pairs(seed, 3) == tuple(reference[:3])


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_random_triples_match_randint_stream(seed):
    reference_rng, rng = random.Random(seed), random.Random(seed)
    assert _random_triples(rng, 1_000) == randint_draws(reference_rng, 1_000, 3)
    assert rng.getstate() == reference_rng.getstate()
