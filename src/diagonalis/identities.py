"""Generating-function identity catalog.

Each checker builds both sides of an identity by independent routes and
returns None on success or the first mismatch (index, lhs, rhs).  All
computations are exact truncated series over Q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .sequences import binomial_oracle, builtin_recurrence, recurrence_seed
from .uniseries import (UniSeries, hypergeometric_2f1, recurrence_to_frobenius,
                        theta_hexagonal, verify_series_identity)

Mismatch = Optional[tuple]


def check_fran(M: int) -> Mismatch:
    """Franel generating function: sum a_n z^n = (1-2z)^-1 2F1(1/3,2/3;1;27z^2/(1-2z)^3)."""
    lhs = binomial_oracle("franel", M)
    inv = UniSeries([1, -2], M).inverse()
    arg = UniSeries([0, 0, 27], M) * inv * inv * inv
    rhs = inv * hypergeometric_2f1("1/3", "2/3", 1, M).compose(arg)
    return verify_series_identity(lhs, rhs)


def check_sd_gf(M: int) -> Mismatch:
    """Scaled Szego diagonal: sum s_n z^n = 2F1(1/3,2/3;1;27z(2-27z))."""
    lhs = recurrence_seed(builtin_recurrence("szego3"), M)
    arg = UniSeries([0, 54, -27 * 27], M)
    rhs = hypergeometric_2f1("1/3", "2/3", 1, M).compose(arg)
    return verify_series_identity(lhs, rhs)


def check_duco(M: int) -> Mismatch:
    """Lewy-Askey u_n generating function, quartic-root form."""
    lhs = recurrence_seed(builtin_recurrence("lewyaskey"), M)
    pref_poly = UniSeries([1, -48, 0, 12288], M)
    num = (UniSeries([0, 0, -1728], M) * UniSeries([3, -64], M)
           * UniSeries([1, -16], M) ** 6)
    den = pref_poly ** 3
    arg = num / den
    rhs = pref_poly.power("-1/4") * hypergeometric_2f1("1/12", "5/12", 1, M).compose(arg)
    return verify_series_identity(lhs, rhs)


def check_ducox(M: int) -> Mismatch:
    """Lewy-Askey u_n generating function, square-root form."""
    lhs = recurrence_seed(builtin_recurrence("lewyaskey"), M)
    pref_poly = UniSeries([1, -24], M)
    arg = UniSeries([0, 0, -64], M) * UniSeries([3, -64], M) / (pref_poly * pref_poly)
    rhs = pref_poly.power("-1/2") * hypergeometric_2f1("1/4", "3/4", 1, M).compose(arg)
    return verify_series_identity(lhs, rhs)


def check_ramanujan_cubic(M: int) -> Mismatch:
    """2F1(1/3,2/3;1; 1-((1-x)/(1+2x))^3) = (1+2x) 2F1(1/3,2/3;1; x^3)."""
    f = hypergeometric_2f1("1/3", "2/3", 1, M)
    ratio = UniSeries([1, -1], M) / UniSeries([1, 2], M)
    lhs_arg = UniSeries.one(M) - ratio ** 3
    lhs = f.compose(lhs_arg)
    rhs = UniSeries([1, 2], M) * f.compose(UniSeries([0, 0, 0, 1], M))
    return verify_series_identity(lhs, rhs)


def check_szego_binomial(M: int) -> Mismatch:
    """Recurrence-generated s_n against the alternating binomial sum."""
    lhs = recurrence_seed(builtin_recurrence("szego3"), M)
    rhs = binomial_oracle("szego3", M)
    return verify_series_identity(lhs, rhs)


Q_EXPANSION_LITERAL = UniSeries(
    [0, 1, Fraction(33, 2), 306, Fraction(12203, 2), 128109], 5)


def check_theta_modular(M: int) -> Mismatch:
    """Full modular pipeline: Frobenius solutions of the s_n recurrence,
    q(z) = exp(y1/y0), and y0(z) against the hexagonal theta series at 2q(z).

    This is the modular form y0(z(q/2)) = theta(q) without the reversion z(q):
    q(z) = z + O(z^2) is invertible, so composing with it maps an identity mod
    z^(M+1) to one mod q^(M+1) and back, and the first mismatch keeps its index."""
    sol = recurrence_to_frobenius(builtin_recurrence("szego3"), M)
    q = sol.q_series()
    if M >= 5:
        bad = verify_series_identity(q, Q_EXPANSION_LITERAL)
        if bad is not None:
            return bad
    return verify_series_identity(sol.y0, theta_hexagonal(M).compose(q * 2))


IDENTITIES: dict[str, Callable[[int], Mismatch]] = {
    "fran": check_fran,
    "sd-gf": check_sd_gf,
    "duco": check_duco,
    "ducox": check_ducox,
    "ramanujan-cubic": check_ramanujan_cubic,
    "szego-binomial": check_szego_binomial,
    "theta-modular": check_theta_modular,
}


def verify_identity(name: str, M: int) -> Mismatch:
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; "
                         f"known: {', '.join(sorted(IDENTITIES))}")
    return IDENTITIES[name](M)
