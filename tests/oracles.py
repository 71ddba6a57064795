"""Test oracles: independent routes that no command needs.  The d = 4
nonsmooth locus, the two-variable asymptotic ratio (the one float check)
and two substitutions on a `MultiPoly` back the acceptance criteria and
the box-expansion generators.  The `Fraction` route of the critical-point
analysis, which the integer one in `geometry` replaced, backs its
differential tests, as a per-entry scan of a collected box backs the
streamed sign scan, a one-string cache writer the streamed one, and
Gauss-Jordan mod p on lists of residues the packed elimination of
`sequences._nullspace_mod`."""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from diagonalis.exactalg import UniPoly, rat
from diagonalis.family import FamilySpec
from diagonalis.geometry import (CritClass, CritReport, RootInterval,
                                 cubic_discriminant)
from diagonalis.multipoly import Coeff, Exponent, MultiPoly, grlex_key
from diagonalis.sequences import binomial_oracle
from unipoly_oracle import FractionUniPoly


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


def brute_force_first_nonpositive(box, strict: bool):
    """Graded-lex-first flagged index of the full box, reading every entry
    through `coefficient_at`."""
    for n in sorted(itertools.product(range(box.N + 1), repeat=box.dim),
                    key=grlex_key):
        c = box.coefficient_at(n)
        if isinstance(c, UniPoly):
            flagged = not c.coeffs or any(q < 0 for q in c.coeffs)
        else:
            flagged = c <= 0 if strict else c < 0
        if flagged:
            return n, c
    return None


def collected_cache_text(denom: MultiPoly, box) -> str:
    """The cache file (format v2) of a collected box of 1/denom, built as one
    string and sealed under the CRC-32 of its whole body."""
    d, N, R = box.dim, box.N, box.N + 1
    spelled = json.dumps(denom.to_json(), separators=(",", ":"))

    def index(code: int) -> str:  # the code read back as n_1,...,n_d
        return ",".join(str(code // R ** i % R) for i in range(d - 1, -1, -1))
    body = "".join([f"diagonalis-box v2; d={d}; N={N}; sym={int(d > 1)}; "
                    f"L={box.scale[1]}; B={box.scale[2]}; denom={spelled}\n"]
                   + [f"{index(c)}:{layer[c]:x}\n"
                      for layer in box.layers for c in sorted(layer, reverse=True)])
    return f"{body}crc32={zlib.crc32(body.encode()):08x}\n"


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


def list_nullspace_mod(matrix: list[list[int]],
                       p: int) -> tuple[list[list[int]], list[int]]:
    """`sequences._nullspace_mod` on lists: Gauss-Jordan mod p with one
    list of residues per row, every entry reduced at every row update."""
    ncols = len(matrix[0])
    rows = [[a % p for a in row] for row in matrix]
    pivots: list[int] = []  # pivots[i] is the pivot column of rows[i]
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]),
                         None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        # the columns before col are zero in the pivot row
        tail = rows[rank][col:] = [a * inv % p for a in rows[rank][col:]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
        pivots.append(col)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] % p
        basis.append(vec)
    return basis, pivots


# --- the Fraction route of geometry.critical_points_diag -------------------

def fraction_canonicalize(spec: FamilySpec) -> tuple[FamilySpec, Fraction]:
    """c_k -> (c_k / c_0) s^k with s = -c_0/c_1, one `Fraction` at a time."""
    cs = [c.constant_value() if isinstance(c, UniPoly) else c for c in spec.coeffs]
    c0 = cs[0]
    cs = [c / c0 for c in cs]
    if cs[1] >= 0:
        raise ValueError("not normalizable while positive: c_1/c_0 >= 0")
    s = -1 / cs[1]
    new = tuple(c * s ** k for k, c in enumerate(cs))
    return FamilySpec(spec.dim, new, spec.name), s


def fraction_locus_3d(a: Fraction, b: Fraction) -> Fraction:
    return 4 * a ** 3 - 3 * a ** 2 + 6 * a * b + b ** 2 - 4 * b


def fraction_sturm_chain(p: FractionUniPoly):
    """(chain, g): the remainder sequence p, p', -(p mod p'), ... over Q
    divided by its last member g."""
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    g = chain[-1]
    if g.degree >= 1:
        chain = [q.divmod(g)[0] for q in chain]
    return chain, g


def fraction_variations(chain, x: Fraction) -> int:
    """Sign changes of the chain's `Fraction` values at x, zeros skipped."""
    signs = [v > 0 for v in (q(x) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _fraction_count(chain, lo: Fraction, hi: Fraction) -> int:
    return fraction_variations(chain, lo) - fraction_variations(chain, hi)


def fraction_sturm_isolate(p: FractionUniPoly) -> list[RootInterval]:
    """The positive roots of p, bisected on `Fraction`s from one chain per
    level of the gcd chain, with multiplicities as `geometry` gives them."""
    levels, g = [], p
    while g.degree >= 1:
        chain, g = fraction_sturm_chain(g)
        levels.append(chain)
    if not levels:
        return []
    chain = levels[0]
    first = chain[0]
    bound = 1 + max(map(abs, first.coeffs)) / abs(first.leading_coefficient())
    intervals, stack = [], [(Fraction(0), bound)]
    while stack:
        lo, hi = stack.pop()
        k = _fraction_count(chain, lo, hi)
        if k == 1:
            intervals.append((lo, hi))
        elif k > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return [RootInterval(lo, hi, 1 + sum(_fraction_count(c, lo, hi) for c in levels[1:]))
            for lo, hi in sorted(intervals)]


def _fraction_off_diagonal_3d(a: Fraction, b: Fraction) -> CritClass:
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


def fraction_critical_points_diag(family: FamilySpec) -> CritReport:
    """`geometry.critical_points_diag` on `Fraction`s: the canonical form,
    the locus and the discriminant from `Fraction` arithmetic, and the roots
    from remainder chains of `FractionUniPoly`s."""
    family = fraction_canonicalize(family)[0]
    d = family.dim
    cs = [math.comb(d, k) * c for k, c in enumerate(family.coeffs)]
    poly = UniPoly(cs)
    roots = tuple(fraction_sturm_isolate(FractionUniPoly(cs)))
    classes = [CritClass("symmetric", poly, roots, len(roots))]
    a = family.coeffs[2]
    if d == 2:
        locus, disc = a - 1, None
    else:
        b = family.coeffs[3]
        locus = fraction_locus_3d(a, b)
        disc = cubic_discriminant(*reversed(cs))
        classes.append(_fraction_off_diagonal_3d(a, b))
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
