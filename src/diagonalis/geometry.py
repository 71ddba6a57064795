"""Critical-point and smoothness analysis for the symmetric families.

Implements the explicit nonsmooth-locus discriminant for d = 3, exact
real-root isolation by Sturm chains, one diagonal-direction critical-point
analysis for d = 2, 3 on the canonical form (c_0 = 1, c_1 = -1) of a family,
and the box-positivity threshold bisection.

The analysis runs on integers.  The canonical coefficients are put over one
denominator M once; the cubic discriminant and the locus are integer
polynomials in their numerators, divided by a power of M once at the end,
and the off-diagonal class is decided by integer comparisons.  A Sturm
chain is one signed remainder sequence per level of the gcd chain p,
gcd(p, p'), ..., held as int lists: each member is the primitive part of a
pseudo-remainder whose steps scale only by |lc| > 0 (W. S. Brown and
J. F. Traub, "On Euclid's algorithm and the theory of subresultants",
J. ACM 18, 1971), so it is a positive multiple of the remainder over Q and
every sign variation is the same.  Bisection points are integer (num, den)
pairs, and only the values reported become `Fraction`s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactalg import UniPoly, over_lcm, rat
from .family import FamilySpec, canonicalize, named_instance
# expand_reciprocal is bound here for perfbench's self-test, which checks that
# its tracer wraps a name that `from x import y` binds
from .seriesbox import (DEFAULT_ENTRY_LIMIT, expand_layers,  # noqa: F401
                        expand_reciprocal, streamed_first_nonpositive)


# --- nonsmooth locus --------------------------------------------------------

def nonsmooth_locus_3d(a, b) -> tuple[Fraction, bool]:
    """Evaluate 4a^3 - 3a^2 + 6ab + b^2 - 4b; zero iff the singular variety
    of h_{a,b} has nonsmooth points.  With a = x/D and b = y/D it is the
    integer 4x^3 + (6xy - 3x^2 + y^2) D - 4y D^2 over D^3."""
    (x, y), D = over_lcm((rat(a), rat(b)))
    v = Fraction(4 * x ** 3 + (6 * x * y - 3 * x * x + y * y) * D - 4 * y * D * D, D ** 3)
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


# A polynomial here is a list of int coefficients, lowest degree first, with
# a nonzero last entry; [] is zero.

def _primitive(p: list[int]) -> list[int]:
    g = functools.reduce(math.gcd, p, 0)
    return [c // g for c in p] if g > 1 else p


def _signed_prem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of -prem(a, b), a positive multiple of -(a mod b):
    each division step scales the running remainder by |lc(b)| and takes
    sign(lc(b)) * (its leading coefficient) times b off it."""
    f, s, low = abs(b[-1]), (1 if b[-1] > 0 else -1), b[:-1]
    r = list(a)
    while len(r) > len(low):
        q = r.pop() * s
        k = len(r) - len(low)
        if f != 1:
            r = [x * f for x in r]
        for j, y in enumerate(low):
            r[k + j] -= q * y
        while r and not r[-1]:
            r.pop()
    return _primitive([-x for x in r])


def _exact_quotient(a: list[int], g: list[int]) -> list[int]:
    """a / g for a primitive g that divides a over Q.  By Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    d, lc = len(g) - 1, g[-1]
    r, q = list(a), [0] * (len(a) - d)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d] // lc
        for j, y in enumerate(g):
            r[i + j] -= c * y
    return q


def _sturm_chain(p: list[int]) -> tuple[list[list[int]], list[int]]:
    """The signed remainder sequence p, p', -rem, ... of (p, p') divided by
    its last member g, and g.  Every member after p is primitive, and each
    is a positive multiple of the remainder over Q; g is gcd(p, p') up to a
    constant factor, and the quotients form a Sturm chain of the square-free
    part of p."""
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while chain[-1]:
        chain.append(_signed_prem(chain[-2], chain[-1]))
    chain.pop()
    g = chain[-1]
    if len(g) > 1:
        chain = [_exact_quotient(q, g) for q in chain]
    return chain, g


def _variations(chain: list[list[int]], n: int, d: int) -> int:
    """Sign changes of the chain at n/d, d > 0, zeros skipped.  A member of
    degree k has the sign of its homogeneous Horner sum sum c_i n^i d^(k-i),
    its value times d^k."""
    count = last = 0
    for q in chain:
        acc, dk = 0, 1
        for c in reversed(q):
            acc, dk = acc * n + c * dk, dk * d
        if acc:
            if last and (acc > 0) != (last > 0):
                count += 1
            last = acc
    return count


def sturm_isolate(p: UniPoly) -> list[RootInterval]:
    """Disjoint rational isolation intervals for the distinct positive roots
    of p, with multiplicities.

    One signed remainder sequence per member of the gcd chain p, g1, g2, ...
    (g1 = gcd(p, p'), g2 = gcd(g1, g1'), ...) gives one Sturm chain per
    level; all are built before any bisection.  Level 0 isolates the roots
    by bisecting (0, 1 + max|c_i|/|c_k|], the root bound of its first
    member, and a root of p has multiplicity 1 plus the number of levels
    >= 1 with a root in its interval.  An interval is (lo/den, hi/den] on
    integers, with the sign variations at both ends.  ArithmeticError if an
    interval narrower than the root separation of the first member still
    shows more than one root, which only a broken chain can give."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    levels, g = [], list(p.nums)
    while len(g) > 1:
        chain, g = _sturm_chain(g)
        levels.append(chain)
    if not levels:
        return []
    chain = levels[0]
    q, k = chain[0], len(chain[0]) - 1
    den = abs(q[-1])
    hi = den + max(map(abs, q))
    # Every interval below is hi/den wide, for this hi.  The square-free q
    # of degree k has its roots more than sqrt(3) k^(-(k+2)/2)
    # ||q||_2^(1-k) apart (K. Mahler, Michigan Math. J. 11, 1964), and
    # ||q||_2 <= sum |c|; so once den reaches `deepest`, an interval holds
    # at most one root of q.
    deepest = hi * k ** ((k + 3) // 2) * sum(map(abs, q)) ** (k - 1)
    stack = [(0, hi, den, _variations(chain, 0, 1), _variations(chain, hi, den))]
    found = []
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            found.append((lo, hi, den))
        elif v_lo - v_hi > 1:
            if den >= deepest:
                raise ArithmeticError(
                    f"a root-separation-wide interval ({lo}/{den}, {hi}/{den}] "
                    f"shows {v_lo - v_hi} roots: the Sturm chain is broken")
            v_mid = _variations(chain, lo + hi, 2 * den)
            stack.append((2 * lo, lo + hi, 2 * den, v_lo, v_mid))
            stack.append((lo + hi, 2 * hi, 2 * den, v_mid, v_hi))
    # each interval holds one root of p, so each level counts 0 or 1 in it
    return sorted((RootInterval(Fraction(lo, den), Fraction(hi, den), 1 + sum(
                       _variations(c, lo, den) - _variations(c, hi, den)
                       for c in levels[1:]))
                   for lo, hi, den in found), key=lambda r: r.lo)


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


def _off_diagonal_3d(x: int, y: int, M: int) -> CritClass:
    """The second kind of d = 3 point for a = x/M and b = y/M, M > 0: two
    coordinates 1/a, the third a(1-a)/(a^2+b) = x(M-x)/(x^2+yM); three of
    them in the open positive orthant, or none."""
    if x == 0:
        note = "class empty: a = 0 (coordinates 1/a undefined)"
    elif y * M * M == -x ** 3:
        note = ("degenerate: b = -a^3, second-kind points merge with "
                "the symmetric class")
    elif x * x + y * M == 0:
        note = "degenerate: a^2 + b = 0, third coordinate undefined"
    else:
        num, den = x * (M - x), x * x + y * M
        return CritClass("off-diagonal", None, (), 3 if x > 0 and num * den > 0 else 0,
                         f"coordinates (1/a, 1/a, {Fraction(num, den)}) and permutations")
    return CritClass("off-diagonal", None, (), 0, note)


def critical_points_diag(family: FamilySpec) -> CritReport:
    """Critical points for the diagonal direction (1, ..., 1) for d = 2, 3.

    The report is of the canonical form (c_0 = 1, c_1 = -1) of the family:
    dividing by c_0 and rescaling the variables by s = -c_0/c_1 > 0 keeps
    the variety, its smoothness and the count in the open positive orthant.
    The symmetric points (t, ..., t) are the positive roots of
    sum_k C(d, k) c_k t^k, that is 1 - 2t + at^2 or 1 - 3t + 3at^2 + bt^3.
    With c_k = m_k / M, the cubic's discriminant is that of its integer
    numerators over M^4."""
    d = family.dim
    if d not in (2, 3):
        raise ValueError("critical-point analysis supports d = 2 and d = 3 only")
    if family.has_lambda():
        raise ValueError("critical-point analysis needs numeric coefficients; "
                         "specialize lambda with --lam")
    family = canonicalize(family)[0]
    m, M = over_lcm(family.coeffs)
    cs = [math.comb(d, k) * c for k, c in enumerate(m)]
    poly = UniPoly.from_nums(cs, M)
    roots = tuple(sturm_isolate(poly))
    classes = [CritClass("symmetric", poly, roots, len(roots))]
    if d == 2:
        # all critical points for (1, 1) are symmetric; nonsmooth iff a = 1
        locus, disc = Fraction(m[2] - M, M), None
    else:
        locus = nonsmooth_locus_3d(*family.coeffs[2:])[0]
        disc = Fraction(cubic_discriminant(*reversed(cs)), M ** 4)
        classes.append(_off_diagonal_3d(m[2], m[3], M))
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
        layers = expand_layers(named_instance("h0b", b=b).coeffs, N, DEFAULT_ENTRY_LIMIT)
        hit = streamed_first_nonpositive(layers, next(layers), 4, N, strict)
        return hit is None

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
