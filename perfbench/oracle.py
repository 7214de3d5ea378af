"""Independent answers for the verdict-batch checks.

Nothing here calls truncbin.  Truncated binomials are only ever reduced
modulo n**K (for valuations) or modulo two Mersenne primes (for values),
through three-argument pow, so the oracle never builds U itself and
stays cheap when the library's big integers run to tens of thousands of
digits.  Checks compare valuation exponents, never cofactors.
"""
from __future__ import annotations

import math

INFINITE = math.inf
# Residue moduli for value checks: two Mersenne primes, so a wrong value
# passes only if it agrees with the right one modulo about 2**188.
VALUE_MODULI = (2**61 - 1, 2**127 - 1)


def u_mod(n: int, m: int, *xs: int) -> int:
    """(x1 + ... + xr)**n - x1**n - ... - xr**n, reduced mod m."""
    return (pow(sum(xs), n, m) - sum(pow(x, n, m) for x in xs)) % m


def int_valuation(x: int, n: int):
    """Exponent of n in x by repeated division; INFINITE for zero."""
    if x == 0:
        return INFINITE
    k = 0
    while x % n == 0:
        x //= n
        k += 1
    return k


def u_valuation(n: int, *xs: int):
    """Exponent of n in U(x1, ..., xr), from U mod n**K with K doubling.

    Once n**K exceeds every possible |U| a zero residue means U == 0.
    """
    bits = max(abs(x) for x in xs).bit_length() + len(xs)
    k_max = -(-(n * bits + len(xs)) // (n.bit_length() - 1))
    k = 2
    while True:
        residue = u_mod(n, n**k, *xs)
        if residue:
            return int_valuation(residue, n)
        if k >= k_max:
            return INFINITE
        k = min(2 * k, k_max)


def case_a(a: int, b: int, c: int, n: int) -> dict:
    """Expected case_A_verdict fields for a valid Case-A triple."""
    v_u_ab = u_valuation(n, a, b)
    v_u_qc = u_valuation(n, a + b, c)
    v_sum = u_valuation(n, a, b, c)
    lhs = n * (1 + int_valuation((a + b + c) // (2 * n), n))
    rule = "Incompatible" if v_u_ab < 2 else "Undetermined"
    exact = "Incompatible" if v_sum < lhs else "Undetermined"
    if rule == "Incompatible":
        reason = "rule:u-ab-valuation-below-2"
    elif exact == "Incompatible":
        reason = "exact:sum-valuation-below-left-side"
    else:
        reason = "undetermined:valuations-compatible"
    return {
        "kind": "Incompatible" if "Incompatible" in (rule, exact) else "Undetermined",
        "reason": reason,
        "rule_tier": rule,
        "exact_tier": exact,
        "v_u_ab": v_u_ab,
        "v_u_qc": v_u_qc,
        "v_sum": v_sum,
        "lhs_valuation": lhs,
    }


def case_b(a: int, b: int, c: int, n: int) -> dict:
    """Expected case_B_consistency_check exponents for a Case-B triple.

    The variable divisible by n moves into position c the way the
    library documents: a -> (b, c, a), b -> (a, c, b).
    """
    if a % n == 0:
        a, b, c = b, c, a
    elif b % n == 0:
        a, b, c = a, c, b
    rho_c = int_valuation(c, n)
    rho_q = int_valuation(a + b, n)
    rho_beta = int_valuation((a + b + c) // (2 * n), n)
    expected = {"rho_c": rho_c, "rho_beta": rho_c - 1, "rho_q": n * rho_c - 1}
    u_ab = u_valuation(n, a, b)
    u_qc = u_valuation(n, a + b, c)
    return {
        "relabeled": (a, b, c),
        "rho_c": rho_c,
        "rho_q": rho_q,
        "rho_beta": rho_beta,
        "expected": expected,
        "rho_q_matches": rho_q == expected["rho_q"],
        "rho_beta_matches": rho_beta == expected["rho_beta"],
        "u_ab_valuation": u_ab,
        "u_ab_expected": rho_q + 1,
        "u_ab_matches": u_ab == rho_q + 1,
        "u_qc_valuation": u_qc,
        "u_qc_expected": rho_q + 1 + rho_c * (n - 1),
        "u_qc_matches": u_qc == rho_q + 1 + rho_c * (n - 1),
    }


def eq2(a: int, b: int, n: int) -> dict:
    """Expected binomial_equation_verdict: decided by a + b alone (n odd)."""
    if a + b == 0:
        kind, reason = "TrivialOnly", "residual-zero:a-equals-minus-b"
    else:
        kind, reason = "Incompatible", "residual-nonzero"
    residual = tuple((pow(a, n, m) + pow(b, n, m)) % m for m in VALUE_MODULI)
    return {"kind": kind, "reason": reason, "residual_residues": residual}


def value_residues(n: int, *xs: int) -> tuple[int, ...]:
    """U(x1, ..., xr) reduced modulo each of VALUE_MODULI."""
    return tuple(u_mod(n, m, *xs) for m in VALUE_MODULI)


def residues(value: int) -> tuple[int, ...]:
    """An exact integer reduced modulo each of VALUE_MODULI."""
    return tuple(value % m for m in VALUE_MODULI)
