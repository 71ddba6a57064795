"""Test oracles: independent routes that no command needs.  The d = 4
nonsmooth locus, the two-variable asymptotic ratio (the one float check)
and two substitutions on a `MultiPoly` back the acceptance criteria and
the box-expansion generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from diagonalis.exactalg import rat
from diagonalis.multipoly import Coeff, Exponent, MultiPoly
from diagonalis.sequences import binomial_oracle


@dataclass(frozen=True)
class Locus4d:
    factor1: Fraction
    factor2: Fraction
    member: bool
    c_relation_residual: Fraction  # c*(a-1) - (a^3 + 2ab + b^2)


def nonsmooth_locus_4d(a, b, c) -> Locus4d:
    """Both factors of the d = 4 nonsmooth-locus factorization, evaluated
    exactly; membership iff either vanishes."""
    a, b, c = rat(a), rat(b), rat(c)
    f1 = a ** 3 + 2 * a * b - a * c + b ** 2 + c
    f2 = (64 * b ** 3 - 27 * (b ** 4 + c ** 2) + 6 * b * c * (2 * c - b)
          + c ** 3 - 54 * a * (2 * b - c) * (b ** 2 + c)
          + 18 * a ** 2 * (2 * b ** 2 + 10 * b * c - c ** 2)
          - 54 * a ** 3 * (b ** 2 + c) + 81 * a ** 4 * c)
    resid = c * (a - 1) - (a ** 3 + 2 * a * b + b ** 2)
    return Locus4d(f1, f2, f1 == 0 or f2 == 0, resid)


def asymptotic_ratio_2d(a, n: int) -> float:
    """Ratio of the exact diagonal term u_{n,n} of 1/(1-(x+y)+axy) to the
    smooth-point asymptotic (1+sqrt(1-a))^(2n+1) / (2 sqrt(pi n sqrt(1-a))).

    Both sides are taken in log space, where doubles suffice for terms far
    beyond the float range; log(num) and log(den) read the exact integers."""
    a = rat(a)
    if a >= 1:
        raise ValueError("asymptotic formula requires a < 1")
    if n < 1:
        raise ValueError("need n >= 1")
    u = binomial_oracle("2var", n, a=a)
    s = math.sqrt(1 - a)
    log_formula = (2 * n + 1) * math.log1p(s) - math.log(2 * math.sqrt(math.pi * n * s))
    return math.exp(math.log(u.numerator) - math.log(u.denominator) - log_formula)


def scale_variables(p: MultiPoly, scales: Sequence) -> MultiPoly:
    """Substitute x_j <- s_j * x_j."""
    if len(scales) != p.dim:
        raise ValueError("scale vector has wrong length")
    ss = [rat(s) for s in scales]
    out: dict[Exponent, Coeff] = {}
    for exp, c in p.terms.items():
        factor = Fraction(1)
        for s, e in zip(ss, exp):
            factor *= s ** e
        out[exp] = c * factor
    return MultiPoly(p.dim, out)


def substitute_zero(p: MultiPoly, var_index: int) -> MultiPoly:
    """Set x_{var_index} = 0, dropping to d-1 variables."""
    if not 0 <= var_index < p.dim:
        raise IndexError(f"variable index {var_index} out of range for d={p.dim}")
    if p.dim == 1:
        raise ValueError("cannot drop below one variable")
    out: dict[Exponent, Coeff] = {}
    for exp, c in p.terms.items():
        if exp[var_index] == 0:
            out[exp[:var_index] + exp[var_index + 1:]] = c
    return MultiPoly(p.dim - 1, out)
