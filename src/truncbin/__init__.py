"""Exact-arithmetic toolkit for truncated Newton binomials.

Builds U(a, b) = (a+b)^n - a^n - b^n and its three-integer companion
exactly, analyzes their divisibility by powers of the prime exponent,
decides compatibility verdicts for the equations built on them, and
runs exhaustive residue-class scans that settle divisibility claims
outright.
"""

from .binomial_core import (
    SERIES_FORMS,
    BinomialPair,
    TrinomialTriple,
    gcd_normalize,
    is_prime,
    truncated2_direct,
    truncated2_series,
    truncated3,
    truncated3_terms,
)
from .compatibility import (
    PARITY_BOTH_ODD,
    PARITY_ONE_EVEN,
    CaseBReport,
    CaseClassification,
    ConditionReport,
    ExponentProfile,
    Verdict,
    VerdictKind,
    binomial_equation_verdict,
    case_A_verdict,
    case_B_consistency_check,
    case_B_exponents,
    classify_divisibility_case,
    necessary_conditions_2,
)
from .errors import (
    DomainError,
    InconsistentCaseError,
    PreconditionError,
    ScanBudgetError,
)
from .residue_scan import (
    DEFAULT_CELL_BUDGET,
    QuadraticScanReport,
    ScanConstraints,
    ScanReport,
    scan_divisibility,
    scan_quadratic,
    u2_mod,
)
from .valuation import (
    INFINITE,
    UnitValuation,
    Valuation,
    factored_u2,
    padic_valuation,
    trinomial_rhs_factored,
    u3_valuations,
)

__version__ = "0.1.0"
