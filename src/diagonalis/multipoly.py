"""The coefficients of a denominator sum_k c_k e_k(x_1, ..., x_d): each c_k
is a `Fraction` or a `UniPoly` (a polynomial in a parameter lambda).

A denominator is its coefficient vector c_0, ..., c_d (`FamilySpec.coeffs`),
which the box kernel and the cache take as they are.  The module keeps its
name until perfbench's `spans.LAYERS`, which looks it up by name, drops it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .exactalg import UniPoly, rat

Coeff = Union[Fraction, UniPoly]


def depends_on_lambda(c: Coeff) -> bool:
    """Whether c is a non-constant `UniPoly`; a constant one is a rational."""
    return isinstance(c, UniPoly) and not c.is_constant()


def _coerce_coeff(c) -> Coeff:
    if isinstance(c, UniPoly):
        return c
    return rat(c)
