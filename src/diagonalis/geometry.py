"""Critical-point and smoothness analysis for the symmetric families.

Implements the explicit nonsmooth-locus discriminants for d = 3 and d = 4,
exact real-root isolation by Sturm chains (one signed remainder sequence
per level of the gcd chain p, gcd(p, p'), ...), the diagonal-direction
critical-point reductions for d = 2, 3, and the two-variable asymptotic
ratio check (the single place floating point appears).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exactalg import UniPoly, rat
from .family import FamilySpec, named_instance
from .sequences import binomial_oracle
from .seriesbox import expand_reciprocal, first_nonpositive


# --- nonsmooth loci ---------------------------------------------------------

def nonsmooth_locus_3d(a, b) -> tuple[Fraction, bool]:
    """Evaluate 4a^3 - 3a^2 + 6ab + b^2 - 4b; zero iff the singular variety
    of h_{a,b} has nonsmooth points."""
    a, b = rat(a), rat(b)
    v = 4 * a ** 3 - 3 * a ** 2 + 6 * a * b + b ** 2 - 4 * b
    return v, v == 0


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
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain: list[UniPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _root_bound(p: UniPoly) -> Fraction:
    lead = abs(p.leading_coefficient())
    return 1 + max(abs(c) for c in p.coeffs) / lead


def sturm_isolate(p: UniPoly, domain: str = "all") -> list[RootInterval]:
    """Disjoint rational isolation intervals for the distinct real roots of p
    (in (0, inf) when domain="positive"), with multiplicities.

    One signed remainder sequence per member of the gcd chain p, g1, g2, ...
    (g1 = gcd(p, p'), g2 = gcd(g1, g1'), ...) gives one Sturm chain per
    level; all are built before any bisection.  Level 0 isolates the roots,
    and a root of p has multiplicity 1 plus the number of levels >= 1 with a
    root in its interval."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if domain not in ("all", "positive"):
        raise ValueError(f"unknown domain {domain!r}")
    levels, g = [], p
    while g.degree >= 1:
        chain, g = _sturm_chain(g)
        levels.append(chain)
    if not levels:
        return []
    chain = levels[0]
    B = _root_bound(chain[0])
    lo0 = Fraction(0) if domain == "positive" else -B
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(lo0, B)]
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


@dataclass(frozen=True)
class AlgebraicNumber:
    """Real algebraic number as (defining polynomial, isolating interval)."""
    minpoly: UniPoly
    interval: tuple[Fraction, Fraction]

    def approx(self, dps: int = 30) -> Fraction:
        """Midpoint of the interval after dps*4 bisection steps."""
        lo, hi = self.interval
        p = self.minpoly
        flo = p(lo)
        for _ in range(dps * 4):
            if hi - lo == 0:
                break
            mid = (lo + hi) / 2
            fm = p(mid)
            if fm == 0:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2


# --- boundary curve and critical points ------------------------------------

def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def boundary_curve_3d(a) -> tuple[Union[Fraction, AlgebraicNumber],
                                  Union[Fraction, AlgebraicNumber]]:
    """The pair b_- <= b_+ with b = 2 - 3a +/- 2(1-a)^(3/2); exact rationals
    when 1 - a is a rational square, else algebraic representations."""
    a = rat(a)
    if a > 1:
        raise ValueError("boundary curve requires a <= 1")
    r = _rational_sqrt(1 - a)
    if r is not None:
        base = 2 - 3 * a
        off = 2 * r ** 3
        return base - off, base + off
    # both branches are roots of b^2 - 2(2-3a)b + (2-3a)^2 - 4(1-a)^3
    mp = UniPoly([(2 - 3 * a) ** 2 - 4 * (1 - a) ** 3, -2 * (2 - 3 * a), 1])
    roots = sturm_isolate(mp, "all")
    if len(roots) != 2:
        raise AssertionError("boundary quadratic must have two real roots for a <= 1")
    lo, hi = roots
    return (AlgebraicNumber(mp, (lo.lo, lo.hi)),
            AlgebraicNumber(mp, (hi.lo, hi.hi)))


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


def _canonical_params(family: FamilySpec) -> list[Fraction]:
    if family.has_lambda():
        raise ValueError("critical-point analysis needs numeric coefficients; "
                         "specialize lambda with --lam")
    cs = [c.constant_value() if isinstance(c, UniPoly) else c
          for c in family.coeffs]
    if cs[0] != 1 or cs[1] != -1:
        raise ValueError("critical-point analysis requires canonical form "
                         "(c_0 = 1, c_1 = -1); canonicalize first")
    return cs


def critical_points_diag(family: FamilySpec) -> CritReport:
    """Critical points for the diagonal direction (1, ..., 1) for d = 2, 3."""
    if family.dim == 2:
        return _crit_2d(family)
    if family.dim == 3:
        return _crit_3d(family)
    raise ValueError("critical-point analysis supports d = 2 and d = 3 only")


def _crit_2d(family: FamilySpec) -> CritReport:
    cs = _canonical_params(family)
    a = cs[2]
    # all critical points for (1,1) are symmetric; nonsmooth iff a = 1
    locus = a - 1
    smooth = locus != 0
    poly = UniPoly([1, -2, a])
    roots = tuple(sturm_isolate(poly, "positive"))
    count = len(roots)
    cls = CritClass("symmetric", poly, roots, count)
    if not smooth:
        verdict, reason = "inconclusive", "locus-member: test inapplicable"
    elif count == 0:
        verdict, reason = "violated", "no critical point in the open positive orthant"
    else:
        verdict, reason = "inconclusive", (
            "positive critical points exist; minimality not decided here")
    return CritReport(family, smooth, locus, (cls,), count, None, verdict, reason)


def _crit_3d(family: FamilySpec) -> CritReport:
    cs = _canonical_params(family)
    a, b = cs[2], cs[3]
    locus, member = nonsmooth_locus_3d(a, b)
    smooth = not member

    # first kind: symmetric points (c, c, c) with 1 - 3c + 3ac^2 + bc^3 = 0
    poly = UniPoly([1, -3, 3 * a, b])
    disc = cubic_discriminant(b, 3 * a, Fraction(-3), Fraction(1))
    roots = tuple(sturm_isolate(poly, "positive"))
    count1 = len(roots)
    cls1 = CritClass("symmetric", poly, roots, count1)

    # second kind: two coordinates 1/a, third a(1-a)/(a^2+b)
    if a == 0:
        cls2 = CritClass("off-diagonal", None, (), 0,
                         "class empty: a = 0 (coordinates 1/a undefined)")
        count2 = 0
    elif b == -a ** 3:
        cls2 = CritClass("off-diagonal", None, (), 0,
                         "degenerate: b = -a^3, second-kind points merge with "
                         "the symmetric class")
        count2 = 0
    elif a ** 2 + b == 0:
        cls2 = CritClass("off-diagonal", None, (), 0,
                         "degenerate: a^2 + b = 0, third coordinate undefined")
        count2 = 0
    else:
        third = a * (1 - a) / (a ** 2 + b)
        inside = a > 0 and third > 0
        count2 = 3 if inside else 0
        cls2 = CritClass(
            "off-diagonal", None, (), count2,
            f"coordinates (1/a, 1/a, {third}) and permutations")

    count = count1 + count2
    if not smooth:
        verdict, reason = "inconclusive", "locus-member: test inapplicable"
    elif count != 1:
        verdict, reason = "violated", (
            f"{count} critical points in the open positive orthant (need exactly 1)")
    else:
        verdict, reason = "inconclusive", "necessary condition satisfied"
    return CritReport(family, smooth, locus, (cls1, cls2), count, disc,
                      verdict, reason)


def necessity_test(family: FamilySpec) -> str:
    """"violated" or "inconclusive"; never claims positivity."""
    return critical_points_diag(family).verdict


# --- two-variable asymptotics ----------------------------------------------

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


# --- box-positivity threshold bisection ------------------------------------

def box_positivity_bisect(N: int, prec, b_lo=4,
                          strict: bool = False) -> tuple[Fraction, Fraction]:
    """Bisect in b for the largest b at which the [0..N]^4 box of
    h_{0,b,-b^2} stays free of nonpositive (or negative) coefficients.

    Returns (lo, hi) with box positive at lo, not at hi, hi - lo <= prec.
    """
    prec = rat(prec)
    if prec <= 0:
        raise ValueError(f"bisection precision must be positive, got {prec}")

    def box_ok(b: Fraction) -> bool:
        fam = named_instance("h0b", b=b)
        box = expand_reciprocal(fam.denominator(), N)
        return first_nonpositive(box, strict=strict) is None

    lo = rat(b_lo)
    if not box_ok(lo):
        raise ValueError(f"expected the box to be positive at b = {lo}")
    hi = lo + 1
    while box_ok(hi):
        hi += 1
        if hi > lo + 8:
            raise ValueError("no nonpositive coefficient found up to b_lo + 8")
    while hi - lo > prec:
        mid = (lo + hi) / 2
        if box_ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
