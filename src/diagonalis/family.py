"""Catalog of the rational-function families 1 / sum_k c_k e_k and their
canonical normalization (c_0 = 1, c_1 = -1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import UniPoly, over_lcm, rat
from .multipoly import Coeff, _coerce_coeff, depends_on_lambda
from .registry import build, catalog


@dataclass(frozen=True)
class FamilySpec:
    dim: int
    coeffs: tuple[Coeff, ...]
    name: Optional[str] = None

    def __post_init__(self):
        if len(self.coeffs) != self.dim + 1:
            raise ValueError(
                f"need d+1 = {self.dim + 1} coefficients, got {len(self.coeffs)}")
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("c_0 must be nonzero")

    def has_lambda(self) -> bool:
        return any(map(depends_on_lambda, self.coeffs))


def make_family(d: int, coefficients: Sequence, name: Optional[str] = None) -> FamilySpec:
    return FamilySpec(d, tuple(map(_coerce_coeff, coefficients)), name)


def _grz(params) -> FamilySpec:
    d = int(params.pop("d", 4))
    if d < 2:
        raise ValueError("GRZ needs d >= 2")
    c = params.pop("c", math.factorial(d))
    return make_family(d, [1, -1] + [0] * (d - 2) + [c], f"GRZ-{d}")


def _h0b(params) -> FamilySpec:
    b = rat(params.pop("b"))
    return make_family(4, [1, -1, 0, b, -b * b], "h0b")


def _straub_lambda(params) -> FamilySpec:
    lam = params.pop("lam", None)
    t = UniPoly.x() if lam is None else UniPoly.const(rat(lam))
    cs = [UniPoly.const(1), -(t + 1), t * (t + 2), -((t - 1) * (t + 2) ** 2)]
    if lam is not None:
        cs = [c.constant_value() for c in cs]
    return make_family(3, cs, "StraubLambda")


# catalog name -> (keyword parameters -> family, popping those it takes), in catalog order
_FAMILIES = {
    "AG3": lambda p: make_family(3, [1, -1, 0, 4], "AG3"),
    "Szego3": lambda p: make_family(3, [1, -1, Fraction(3, 4), 0], "Szego3"),
    "LewyAskey": lambda p: make_family(4, [1, -1, Fraction(2, 3), 0, 0], "LewyAskey"),
    "KZ-D": lambda p: make_family(4, [1, -1, 0, 2, 4], "KZ-D"),
    "Kauers": lambda p: make_family(4, [1, -1, 0, Fraction(64, 27), 0], "Kauers"),
    "GRZ": _grz,
    "Koornwinder": lambda p: make_family(4, [1, -1, 0, 4, -16], "Koornwinder"),
    "Szego4": lambda p: make_family(
        4, [1, -1, Fraction(8, 9), Fraction(-16, 27), 0], "Szego4"),
    "hab": lambda p: make_family(3, [1, -1, p.pop("a"), p.pop("b")], "hab"),
    "habc": lambda p: make_family(4, [1, -1, p.pop("a"), p.pop("b"), p.pop("c")], "habc"),
    "h0b": _h0b,
    "h2var": lambda p: make_family(2, [1, -1, p.pop("a")], "h2var"),
    "StraubLambda": _straub_lambda,
}
_CATALOG = catalog(_FAMILIES, h0bb2="h0b")


def named_instance(name: str, **params) -> FamilySpec:
    """Look up a family by its catalog name.

    Parameterized entries: GRZ takes d (default 4) and c (default d!);
    hab takes a, b; habc takes a, b, c; h0b takes b (the family
    h_{0,b,-b^2}); h2var takes a; StraubLambda takes an optional lam to
    specialize the parameter.
    """
    return build(_CATALOG, name, "family", params)


def canonicalize(spec: FamilySpec) -> tuple[FamilySpec, Fraction]:
    """Normalize to c_0 = 1, c_1 = -1 by dividing by c_0 and rescaling the
    variables by s = -c_0/c_1; returns (normalized spec, s).

    c_k maps to (c_k / c_0) * s^k.  Requires c_1/c_0 < 0: otherwise a
    low-order Taylor coefficient is already nonpositive and no
    positivity-preserving normalization exists.  With c_k = n_k / D over
    one denominator, the image of c_k is n_k (-n_0)^k n_1^(d-k) over the
    one denominator n_0 n_1^d, so each coefficient is one `Fraction` of two
    integers.
    """
    if spec.has_lambda():
        raise ValueError("canonicalize needs numeric coefficients; "
                         "specialize lambda first")
    ns, _ = over_lcm(c.constant_value() if isinstance(c, UniPoly) else c
                     for c in spec.coeffs)
    n0, n1, d = ns[0], ns[1], spec.dim
    if n0 * n1 >= 0:
        raise ValueError("not normalizable while positive: c_1/c_0 >= 0")
    den = n0 * n1 ** d
    new = tuple(Fraction(n * (-n0) ** k * n1 ** (d - k), den) for k, n in enumerate(ns))
    return FamilySpec(d, new, spec.name), Fraction(-n0, n1)
