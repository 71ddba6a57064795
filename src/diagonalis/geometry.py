"""Critical-point and smoothness analysis for the symmetric families.

Implements the explicit nonsmooth-locus discriminant for d = 3, exact
real-root isolation by Sturm chains (one signed remainder sequence per
level of the gcd chain p, gcd(p, p'), ...), one diagonal-direction
critical-point analysis for d = 2, 3 on the canonical form (c_0 = 1,
c_1 = -1) of a family, and the box-positivity threshold bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import UniPoly, rat
from .family import FamilySpec, canonicalize, named_instance
# expand_reciprocal is bound here for perfbench's self-test, which checks that
# its tracer wraps a name that `from x import y` binds
from .seriesbox import expand_reciprocal, streamed_first_nonpositive  # noqa: F401


# --- nonsmooth locus --------------------------------------------------------

def nonsmooth_locus_3d(a, b) -> tuple[Fraction, bool]:
    """Evaluate 4a^3 - 3a^2 + 6ab + b^2 - 4b; zero iff the singular variety
    of h_{a,b} has nonsmooth points."""
    a, b = rat(a), rat(b)
    v = 4 * a ** 3 - 3 * a ** 2 + 6 * a * b + b ** 2 - 4 * b
    return v, v == 0


# --- discriminants ----------------------------------------------------------

def cubic_discriminant(c3, c2, c1, c0):
    """Discriminant of c3 x^3 + c2 x^2 + c1 x + c0 over any exact ring."""
    return (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
            - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)


# --- Sturm isolation --------------------------------------------------------

@dataclass(frozen=True)
class RootInterval:
    """Half-open interval (lo, hi] containing exactly one real root."""
    lo: Fraction
    hi: Fraction
    multiplicity: int


def _sturm_chain(p: UniPoly) -> tuple[list[UniPoly], UniPoly]:
    """The signed remainder sequence p, p', -rem, ... of (p, p') divided by
    its last member g, and g.  g is gcd(p, p') up to a constant factor, and
    the quotients form a Sturm chain of the square-free part of p."""
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    g = chain[-1]
    if g.degree >= 1:
        chain = [q.divmod(g)[0] for q in chain]
    return chain, g


def _variations(chain: list[UniPoly], x: Fraction) -> int:
    """Sign changes of the chain at x, zeros skipped; only signs are read."""
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _root_bound(p: UniPoly) -> Fraction:
    return 1 + Fraction(max(map(abs, p.nums)), abs(p.nums[-1]))


def sturm_isolate(p: UniPoly) -> list[RootInterval]:
    """Disjoint rational isolation intervals for the distinct positive roots
    of p, with multiplicities.

    One signed remainder sequence per member of the gcd chain p, g1, g2, ...
    (g1 = gcd(p, p'), g2 = gcd(g1, g1'), ...) gives one Sturm chain per
    level; all are built before any bisection.  Level 0 isolates the roots,
    and a root of p has multiplicity 1 plus the number of levels >= 1 with a
    root in its interval."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    levels, g = [], p
    while g.degree >= 1:
        chain, g = _sturm_chain(g)
        levels.append(chain)
    if not levels:
        return []
    chain = levels[0]
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(Fraction(0), _root_bound(chain[0]))]
    while stack:
        lo, hi = stack.pop()
        k = _count_roots(chain, lo, hi)
        if k == 0:
            continue
        if k == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    intervals.sort()
    # each interval holds one root of p, so each level counts 0 or 1 in it
    return [RootInterval(lo, hi, 1 + sum(_count_roots(c, lo, hi)
                                         for c in levels[1:]))
            for lo, hi in intervals]


# --- critical points -------------------------------------------------------

@dataclass(frozen=True)
class CritClass:
    """One class of diagonal-direction critical points."""
    kind: str                       # "symmetric" or "off-diagonal"
    polynomial: Optional[UniPoly]   # defining polynomial for symmetric points
    roots: tuple[RootInterval, ...]  # isolated real roots (symmetric class)
    positive_count: int             # critical points of this class in R_{>0}^d
    note: str = ""


@dataclass(frozen=True)
class CritReport:
    family: FamilySpec
    smooth: bool
    locus_value: Fraction
    classes: tuple[CritClass, ...]
    positive_orthant_count: int
    cubic_discriminant: Optional[Fraction]
    verdict: str                    # "violated" | "inconclusive"
    reason: str = ""


def _off_diagonal_3d(a: Fraction, b: Fraction) -> CritClass:
    """The second kind of d = 3 point: two coordinates 1/a, the third
    a(1-a)/(a^2+b); three of them in the open positive orthant, or none."""
    if a == 0:
        note = "class empty: a = 0 (coordinates 1/a undefined)"
    elif b == -a ** 3:
        note = ("degenerate: b = -a^3, second-kind points merge with "
                "the symmetric class")
    elif a ** 2 + b == 0:
        note = "degenerate: a^2 + b = 0, third coordinate undefined"
    else:
        third = a * (1 - a) / (a ** 2 + b)
        return CritClass("off-diagonal", None, (), 3 if a > 0 and third > 0 else 0,
                         f"coordinates (1/a, 1/a, {third}) and permutations")
    return CritClass("off-diagonal", None, (), 0, note)


def critical_points_diag(family: FamilySpec) -> CritReport:
    """Critical points for the diagonal direction (1, ..., 1) for d = 2, 3.

    The report is of the canonical form (c_0 = 1, c_1 = -1) of the family:
    dividing by c_0 and rescaling the variables by s = -c_0/c_1 > 0 keeps
    the variety, its smoothness and the count in the open positive orthant.
    The symmetric points (t, ..., t) are the positive roots of
    sum_k C(d, k) c_k t^k, that is 1 - 2t + at^2 or 1 - 3t + 3at^2 + bt^3."""
    d = family.dim
    if d not in (2, 3):
        raise ValueError("critical-point analysis supports d = 2 and d = 3 only")
    if family.has_lambda():
        raise ValueError("critical-point analysis needs numeric coefficients; "
                         "specialize lambda with --lam")
    family = canonicalize(family)[0]
    cs = [math.comb(d, k) * c for k, c in enumerate(family.coeffs)]
    poly = UniPoly(cs)
    roots = tuple(sturm_isolate(poly))
    classes = [CritClass("symmetric", poly, roots, len(roots))]
    a = family.coeffs[2]
    if d == 2:
        # all critical points for (1, 1) are symmetric; nonsmooth iff a = 1
        locus, disc = a - 1, None
    else:
        b = family.coeffs[3]
        locus = nonsmooth_locus_3d(a, b)[0]
        disc = cubic_discriminant(*reversed(cs))
        classes.append(_off_diagonal_3d(a, b))
    count = sum(c.positive_count for c in classes)
    if locus == 0:
        verdict, reason = "inconclusive", "locus-member: test inapplicable"
    elif d == 2 and count == 0:
        verdict, reason = "violated", "no critical point in the open positive orthant"
    elif d == 2:
        verdict, reason = "inconclusive", (
            "positive critical points exist; minimality not decided here")
    elif count != 1:
        verdict, reason = "violated", (
            f"{count} critical points in the open positive orthant (need exactly 1)")
    else:
        verdict, reason = "inconclusive", "necessary condition satisfied"
    return CritReport(family, locus != 0, locus, tuple(classes), count, disc,
                      verdict, reason)


# --- box-positivity threshold bisection ------------------------------------

def box_positivity_bisect(N: int, prec, b_lo, strict: bool) -> tuple[Fraction, Fraction]:
    """Bisect in b for the largest b at which the [0..N]^4 box of
    h_{0,b,-b^2} stays free of nonpositive (strict) or negative coefficients.

    Climbs from b_lo in steps of 1 to the first b that fails, then halves the
    last step.  Returns (lo, hi) with box positive at lo, not at hi, and
    hi - lo <= prec.
    """
    prec = rat(prec)
    if prec <= 0:
        raise ValueError(f"bisection precision must be positive, got {prec}")

    def box_ok(b: Fraction) -> bool:
        denom = named_instance("h0b", b=b).denominator()
        return streamed_first_nonpositive(denom, N, strict) is None

    lo = rat(b_lo)
    if not box_ok(lo):
        raise ValueError(f"expected the box to be positive at b = {lo}")
    hi = lo + 1
    while box_ok(hi):
        hi += 1
        if hi > lo + 8:
            raise ValueError("no nonpositive coefficient found up to b_lo + 8")
    lo = hi - 1  # the climb found the box positive there
    while hi - lo > prec:
        mid = (lo + hi) / 2
        if box_ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
