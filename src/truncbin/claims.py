"""Verification catalog: every headline claim as a rerunnable check.

Each claim has a short catalog code (I.2, II.9, ...), a one-line title
and a function that re-derives the claim from scratch with exact
arithmetic.  `truncbin verify` runs them and prints one pass/fail line
per claim; the acceptance test suite runs the same catalog at full
scale.  Sampling is deterministic: every claim seeds its own generator
from the run seed and its code, so subsets reproduce exactly.  The pair
sample that six claims share is seeded from the run seed alone; run_claims
draws it once per run, and a claim run by itself draws the same sample.
A sweep validates each exponent once, and the claims evaluate U on plain
ints with the unchecked kernels _u2 and _series_forms, not one record a pair.

Claim II.9 is special: it arbitrates a printed n = 11 expansion whose
correctness is under test, so it passes by producing a definitive
verdict (EQUAL or a canonical counterexample), whichever way the
arithmetic falls.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import namedtuple
from typing import NamedTuple

from .binomial_core import (
    SERIES_FORMS,
    BinomialPair,
    TrinomialTriple,
    _Checked,
    _series_forms,
    _u2,
    _u2_residue,
    _validate_exponent,
    truncated3,
)
from .compatibility import (
    VerdictKind,
    binomial_equation_verdict,
    case_A_verdict,
    case_B_exponents,
)
from .errors import DomainError, PreconditionError
from .residue_scan import (
    ScanConstraints,
    ScanReport,
    scan_divisibility,
    scan_quadratic,
)
from .valuation import factored_u2, padic_valuation, trinomial_rhs_factored

DEFAULT_SEED = 271828
IDENTITY_EXPONENTS = (3, 5, 7, 11, 13)
PAIR_BOUND = 10**6
_SPAN = 2 * PAIR_BOUND + 1
_SPAN_BITS = _SPAN.bit_length()


class Scale(NamedTuple):
    """Sample sizes for a verify run."""

    name: str
    pairs: int
    triples: int
    # No scan reads this; the benchmark's catalog workload reads QUICK's.
    det_workers: tuple[int, int]


QUICK = Scale(name="quick", pairs=300, triples=100, det_workers=(1, 2))
FULL = Scale(name="full", pairs=10_000, triples=1_000, det_workers=(1, 8))


class ClaimResult(_Checked, namedtuple("ClaimResult", "code title passed duration_ms details")):
    """One claim's outcome; details is a dict, a new empty one when none is given."""

    __slots__ = ()

    def __new__(cls, code: str, title: str, passed: bool, duration_ms: float,
                details: dict | None = None):
        if details is None:
            details = {}
        return tuple.__new__(cls, (code, title, passed, duration_ms, details))


# ---------------------------------------------------------------------------
# samplers

def _draw(rng):
    """One integer in [-PAIR_BOUND, PAIR_BOUND]: randrange(_SPAN) - PAIR_BOUND, inlined.

    randrange's _randbelow runs this loop: _SPAN.bit_length() bits, redrawn while
    they are _SPAN or more.  So it takes the same bits and gives the same stream.
    """
    r = rng.getrandbits(_SPAN_BITS)
    while r >= _SPAN:
        r = rng.getrandbits(_SPAN_BITS)
    return r - PAIR_BOUND


@functools.lru_cache(maxsize=1)
def _shared_pairs(seed, count):
    """The pair sample of I.2, I.div, I.res, II.5, II.6 and II.8; run_claims draws it once."""
    rng = random.Random(f"{seed}:shared-pairs")
    pairs = [(0, 0), (0, 5), (1, -1), (-1, -1), (1, 1)][:count]
    while len(pairs) < count:
        pairs.append((_draw(rng), _draw(rng)))
    return tuple(pairs)


def _random_triples(rng, count):
    return [(_draw(rng), _draw(rng), _draw(rng)) for _ in range(count)]


def _third(rng, n, a, b):
    """A random c with 2n | a+b+c.

    -PAIR_BOUND // m rounds down, so the scaled draws are not symmetric; recorded counts rely on it.
    """
    return 2 * n * rng.randint(-PAIR_BOUND // (2 * n), PAIR_BOUND // (2 * n)) - a - b


def _sample_case_a_triple(rng, n, residues=None):
    """A coprime triple with 2n | a+b+c, none divisible by n (so exactly one even).

    With residues given, (a mod n, b mod n) is drawn from that list.
    """
    while True:
        if residues is None:
            a, b = _draw(rng), _draw(rng)
        else:
            da, db = rng.choice(residues)
            a = da + n * rng.randint(-PAIR_BOUND // n, PAIR_BOUND // n)
            b = db + n * rng.randint(-PAIR_BOUND // n, PAIR_BOUND // n)
        c = _third(rng, n, a, b)
        if a % n and b % n and c % n and math.gcd(a, b, c) == 1:
            return TrinomialTriple(a, b, c, n)


# ---------------------------------------------------------------------------
# claim bodies

def _claim_two_term_verdict(rng, scale, seed):
    trivial = 0
    for _ in range(scale.pairs):
        n = rng.choice(IDENTITY_EXPONENTS)
        opposite = rng.random() < 0.1
        a = _draw(rng)
        b = -a if opposite else _draw(rng)
        verdict = binomial_equation_verdict(BinomialPair(a, b, n))
        expected = VerdictKind.TRIVIAL_ONLY if a + b == 0 else VerdictKind.INCOMPATIBLE
        if verdict.kind is not expected:
            return False, {"failed_at": [a, b, n], "kind": verdict.kind.value}
        if verdict.evidence["residual"] != a**n + b**n:
            return False, {"failed_at": [a, b, n], "bad_residual": True}
        trivial += verdict.kind is VerdictKind.TRIVIAL_ONLY
    return True, {"pairs": scale.pairs, "trivial_cases": trivial}


def _sweep(samples, check, label):
    """Run check(sample, n) at every exponent, validated once before its samples:
    None passes, a dict of details fails."""
    for n in IDENTITY_EXPONENTS:
        _validate_exponent(n)
        for sample in samples:
            failure = check(sample, n)
            if failure is not None:
                return False, {"failed_at": [*sample, n], **failure}
    return True, {label: len(samples), "exponents": list(IDENTITY_EXPONENTS)}


def _check_series_forms(pair, n):
    a, b = pair
    direct = _u2(a, b, n)
    for form, value in zip(SERIES_FORMS, _series_forms(a, b, n)):
        if value != direct:
            return {"form": form}


def _check_divisible(pair, n):
    a, b = pair
    u = _u2(a, b, n)
    if u % 2 != 0:
        return {"odd_value": True}
    if u % n != 0:
        return {"not_divisible_by_n": True}


def _check_residual(pair, n):
    a, b = pair
    if (a + b) ** n - _u2(a, b, n) != a**n + b**n:
        return {}


def _check_decomposition(triple, n):
    a, b, c = triple
    if truncated3(TrinomialTriple(a, b, c, n)) != _u2(a, b, n) + _u2(a + b, c, n):
        return {}


def _pair_sweep(check):
    return lambda rng, scale, seed: _sweep(_shared_pairs(seed, scale.pairs), check, "pairs")


def _claim_decomposition(rng, scale, seed):
    return _sweep(_random_triples(rng, scale.triples), _check_decomposition, "triples")


def _make_factored_claim(n):
    def body(rng, scale, seed):
        pairs = _shared_pairs(seed, scale.pairs)
        for a, b in pairs:
            if factored_u2(BinomialPair(a, b, n)) != _u2(a, b, n):
                return False, {"failed_pair": [a, b]}
        # Triples with 2n | a+b+c, the domain of the factored forms.
        for _ in range(scale.triples):
            a, b = _draw(rng), _draw(rng)
            t = TrinomialTriple(a, b, _third(rng, n, a, b), n)
            if trinomial_rhs_factored(t) != truncated3(t):
                return False, {"failed_triple": [a, b, t.c]}
        return True, {"pairs": len(pairs), "triples": scale.triples, "n": n}

    return body


def _printed_u11(a, b):
    """The printed n = 11 expansion of U(a, b), verbatim: II.9 checks it, so nothing is corrected."""
    bracket = (
        5 * a * b * (a**7 + b**7)
        + 15 * a**2 * b**2 * (a**5 + b**5)
        + 30 * a**3 * b**3 * (a**3 + b**3)
        + 42 * a**4 * b**4 * (a + b)
        + a**9
        + b**9
    )
    return 11 * a * b * bracket


def _claim_bracket_arbitration(rng, scale, seed):
    """Arbitrate the printed n = 11 expansion against the direct form.

    Definitive either way: EQUAL on the whole sample, or the
    counterexample with the smallest |a| + |b|.
    """
    mismatches = []
    for _ in range(scale.triples):
        a, b = _draw(rng), _draw(rng)
        if _printed_u11(a, b) != _u2(a, b, 11):
            mismatches.append((a, b))
    if mismatches:
        canonical = min(mismatches, key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab))
        details = {
            "verdict": "COUNTEREXAMPLE",
            "counterexample": list(canonical),
            "mismatch_count": len(mismatches),
            "pairs": scale.triples,
        }
    else:
        details = {"verdict": "EQUAL", "mismatch_count": 0, "pairs": scale.triples}
    return True, details  # definitive report produced either way


def _claim_scan_eleven(rng, scale, seed):
    start = time.perf_counter()
    constrained = scan_divisibility(11, 2, ScanConstraints.case_a())
    constrained_seconds = time.perf_counter() - start
    constrained_empty = constrained.witness_count == 0
    under_time_bound = constrained_seconds < 1.0

    unconstrained = scan_divisibility(11, 2, ScanConstraints())
    violating = {
        (a, b)
        for a in range(121)
        for b in range(121)
        if a % 11 == 0 or b % 11 == 0 or (a + b) % 11 == 0
    }
    witness_set = set(unconstrained.witnesses)
    sets_match = witness_set == violating

    audit_ok = True
    for _ in range(200):
        a = rng.randrange(121)
        b = rng.randrange(121)
        exact = _u2(a, b, 11)
        if (exact % 121 == 0) != ((a, b) in witness_set):
            audit_ok = False
            break

    passed = constrained_empty and under_time_bound and sets_match and audit_ok
    return passed, {
        "constrained_witnesses": constrained.witness_count,
        "constrained_cells": constrained.cells_scanned,
        "constrained_empty": constrained_empty,
        "constrained_seconds": round(constrained_seconds, 6),
        "constrained_under_1s": under_time_bound,
        "unconstrained_witnesses": unconstrained.witness_count,
        "witness_set_equals_violating_pairs": sets_match,
        "audited_cells": 200,
        "audit_ok": audit_ok,
    }


def _claim_quadratic_tables(rng, scale, seed):
    # n = 5 and n = 7 are each timed as the best of 3 scans.
    best5 = best7 = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        report5 = scan_quadratic(5)
        t1 = time.perf_counter()
        report7 = scan_quadratic(7)
        best5, best7 = min(best5, t1 - t0), min(best7, time.perf_counter() - t1)
    report3 = scan_quadratic(3)

    zero_sets_ok = report5.zero_pairs == () and (1, 2) in report7.zero_pairs
    under_time_bound = max(best5, best7) < 1e-3
    # Cross-check against exact valuations: with a, b in [1, n-1], U(a, b)
    # gains a second factor of n exactly when n | a+b or the quadratic
    # form vanishes mod n.
    for n, report in ((5, report5), (7, report7)):
        zero_set = set(report.zero_pairs)
        for da in range(1, n):
            for db in range(1, n):
                v = padic_valuation(_u2(da, db, n), n)
                lifted = (da + db) % n == 0 or (da, db) in zero_set
                if (v.exponent >= 2) != lifted:
                    return False, {"cross_check_failed_at": [da, db, n]}
    # The da + db = n boundary never produces a zero: the form reduces to
    # da^2 there, which is prime to n.  Recorded as a finding, checked by
    # filtering the zero set on it.
    return zero_sets_ok and under_time_bound, {
        "zero_sets_ok": zero_sets_ok,
        "n5_zero_pairs": [list(p) for p in report5.zero_pairs],
        "n7_zero_pairs": [list(p) for p in report7.zero_pairs],
        "n7_zero_count": len(report7.zero_pairs),
        "n3_zero_pairs": [list(p) for p in report3.zero_pairs],
        "sum_n_zeros_n5": [list(p) for p in report5.zero_pairs if sum(p) == 5],
        "sum_n_zeros_n7": [list(p) for p in report7.zero_pairs if sum(p) == 7],
        "best_enumeration_seconds": round(max(best5, best7), 9),
        "enumeration_under_1ms": under_time_bound,
    }


def _claim_case_a_rule(rng, scale, seed):
    rule_counts = {}
    for n in (3, 5):
        for _ in range(scale.triples):
            t = _sample_case_a_triple(rng, n)
            verdict = case_A_verdict(t)
            if verdict.evidence["rule_tier"] is not VerdictKind.INCOMPATIBLE:
                return False, {"failed_at": [t.a, t.b, t.c, n], "tier": "rule"}
        rule_counts[n] = scale.triples

    # Every third n = 7 triple has 7 | a^2 + ab + b^2.
    quad_zero_pairs = scan_quadratic(7).zero_pairs
    rule_open = 0
    for i in range(scale.triples):
        t = _sample_case_a_triple(rng, 7, quad_zero_pairs if i % 3 == 0 else None)
        verdict = case_A_verdict(t)
        if verdict.evidence["exact_tier"] is not VerdictKind.INCOMPATIBLE:
            return False, {"failed_at": [t.a, t.b, t.c, 7], "tier": "exact"}
        rule_open += verdict.evidence["rule_tier"] is VerdictKind.UNDETERMINED
    return True, {
        "triples_per_exponent": scale.triples,
        "rule_tier_incompatible": rule_counts,
        "n7_rule_tier_open_but_exact_decided": rule_open,
    }


def _claim_exponent_algebra(rng, scale, seed):
    for n in (3, 5, 7, 11):
        for rho_c in range(1, 51):
            profile = case_B_exponents(rho_c, n)
            if profile.rho_beta != rho_c - 1 or profile.rho_q != n * rho_c - 1:
                return False, {"failed_at": [rho_c, n]}
    try:
        case_B_exponents(0, 7)
    except PreconditionError:
        pass
    else:
        return False, {"rho_c_zero_not_rejected": True}
    return True, {"rho_c_range": [1, 50], "exponents": [3, 5, 7, 11]}


def _claim_lift_law(rng, scale, seed):
    for _ in range(scale.triples):
        n = rng.choice(IDENTITY_EXPONENTS)
        a = _draw(rng)
        while a % n == 0:
            a = _draw(rng)
        b = n * rng.randint(-PAIR_BOUND // n, PAIR_BOUND // n) - a
        v = padic_valuation(_u2(a, b, n), n)
        if not v.exponent >= 2:
            return False, {"failed_at": [a, b, n], "exponent": v.exponent}
    return True, {"pairs": scale.triples}


def _claim_scan_oracle(rng, scale, seed):
    """The scan report against one built cell by cell from u2_mod's formula."""
    n, k, constraints = 13, 2, ScanConstraints.case_a()
    report = scan_divisibility(n, k, constraints)
    m = n**k
    cells = [(a, b) for a in range(m) for b in range(m) if constraints.allows(a, b, n)]
    witnesses = [(a, b) for a, b in cells if _u2_residue(a, b, n, m) == 0]
    rows = tuple(
        (a, tuple(b for _, b in row)) for a, row in itertools.groupby(witnesses, key=lambda c: c[0])
    )
    reference = ScanReport(n, k, m, constraints, rows, len(cells))
    identical = report.to_json().encode() == reference.to_json().encode()
    return identical, {
        "reference": "u2_mod cell by cell",
        "witness_count": report.witness_count,
        "cells_scanned": report.cells_scanned,
        "byte_identical": identical,
    }


# ---------------------------------------------------------------------------
# registry

_CLAIMS = [
    ("I.1", "two-term equation holds only in the trivial a = -b case", _claim_two_term_verdict),
    ("I.2", "three series forms equal the direct expansion", _pair_sweep(_check_series_forms)),
    ("I.div", "U(a, b) is even and divisible by n for any parities", _pair_sweep(_check_divisible)),
    ("I.res", "(a+b)^n - U(a, b) = a^n + b^n exactly", _pair_sweep(_check_residual)),
    ("II.2", "three-term binomial equals U(a, b) + U(a+b, c)", _claim_decomposition),
    ("II.5", "n = 3 factored forms match the direct values", _make_factored_claim(3)),
    ("II.6", "n = 5 factored forms match the direct values", _make_factored_claim(5)),
    ("II.8", "n = 7 factored forms match the direct values", _make_factored_claim(7)),
    ("II.9", "n = 11 printed bracket arbitrated against the direct form", _claim_bracket_arbitration),
    ("II.A4", "n = 11 constrained scan empty; unconstrained set audited", _claim_scan_eleven),
    ("II.7", "quadratic-form zero sets for n = 5 and n = 7", _claim_quadratic_tables),
    ("II.A", "Case-A incompatibility rule on random valid triples", _claim_case_a_rule),
    ("II.12", "Case-B exponent algebra over rho_c in [1, 50]", _claim_exponent_algebra),
    ("II.lift", "n | a+b with n coprime to ab lifts U to n^2", _claim_lift_law),
    ("scan.det", "scan reports match a cell-by-cell u2_mod grid byte for byte", _claim_scan_oracle),
]

CLAIM_CODES = tuple(code for code, _, _ in _CLAIMS)
CLAIM_TITLES = {code: title for code, title, _ in _CLAIMS}
_CLAIM_FUNCS = {code: func for code, _, func in _CLAIMS}


def run_claim(code: str, scale: Scale = QUICK, seed=DEFAULT_SEED) -> ClaimResult:
    if code not in _CLAIM_FUNCS:
        raise DomainError(f"unknown claim {code!r}; known claims: {', '.join(CLAIM_CODES)}")
    rng = random.Random(f"{seed}:{code}")
    start = time.perf_counter()
    passed, details = _CLAIM_FUNCS[code](rng, scale, seed)
    duration_ms = (time.perf_counter() - start) * 1000.0
    return ClaimResult(
        code=code,
        title=CLAIM_TITLES[code],
        passed=passed,
        duration_ms=duration_ms,
        details=details,
    )


def run_claims(codes=None, scale: Scale = QUICK, seed=DEFAULT_SEED) -> list[ClaimResult]:
    selected = CLAIM_CODES if not codes else tuple(codes)
    try:
        return [run_claim(code, scale=scale, seed=seed) for code in selected]
    finally:
        _shared_pairs.cache_clear()
