"""Test oracles: independent routes that no command needs.  The d = 4
nonsmooth locus and the two-variable asymptotic ratio (the one float check)
back the acceptance criteria.  The monomial route of a denominator
sum_k c_k e_k, its terms as a dict exponent -> coefficient, backs the box
kernel, which reads the coefficient vector c_0, ..., c_d alone: a geometric
series and a per-entry kernel expand 1/p from the dict, and two vector maps
(scaling the variables, setting one to 0) have their dict counterparts.  The
`Fraction` route of the critical-point analysis, which the integer one in
`geometry` replaced, backs its differential tests, as a per-entry scan of a
collected box (`collect`, every layer kept; `entry_at`, one exact entry read
at its orbit representative) backs the streamed sign scan, a cache writer
that reads the diagonal of a collected box the streamed one, Gauss-Jordan
mod p on lists of residues the packed elimination of
`sequences._nullspace_mod`, a double loop over the coefficient pairs the
padded `exactalg.convolve` of `UniPoly.__mul__`, a `Fraction` loop over
the terms the integer recurrence check of `sequences.recurrence_check`,
and a `Fraction` runner the integer one of `uniseries._run_extended`."""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from diagonalis.exactalg import UniPoly, plain, rat
from diagonalis.family import FamilySpec
from diagonalis.geometry import (CritClass, CritReport, RootInterval,
                                 cubic_discriminant)
from diagonalis.multipoly import depends_on_lambda
from diagonalis.seriesbox import (DEFAULT_ENTRY_LIMIT, _code, _exact, _index,
                                  _kernel_scale, _unpack, expand_layers)
from diagonalis.uniseries import UniSeries
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
    """Ratio of the exact diagonal term u_{n,n} of 1/(1-(x+y)+axy),
    sum_k (2n-k)! / (k! (n-k)!^2) (-a)^k, to the smooth-point asymptotic
    (1+sqrt(1-a))^(2n+1) / (2 sqrt(pi n sqrt(1-a))).

    Both sides are taken in log space, where doubles suffice for terms far
    beyond the float range; log(num) and log(den) read the exact integers."""
    a = rat(a)
    if a >= 1:
        raise ValueError("asymptotic formula requires a < 1")
    if n < 1:
        raise ValueError("need n >= 1")
    u = sum(Fraction(math.factorial(2 * n - k), math.factorial(k) * math.factorial(n - k) ** 2)
            * (-a) ** k for k in range(n + 1))
    s = math.sqrt(1 - a)
    log_formula = (2 * n + 1) * math.log1p(s) - math.log(2 * math.sqrt(math.pi * n * s))
    return math.exp(math.log(u.numerator) - math.log(u.denominator) - log_formula)


# --- the monomial route of a denominator sum_k c_k e_k ---------------------

def grlex_key(exp: tuple) -> tuple:
    # graded lex with x1 > x2 > ...: within a degree layer, (1,0) precedes (0,1)
    return (sum(exp), tuple(-e for e in exp))


def elementary_symmetric(d: int, k: int) -> dict:
    """e_k(x_1, ..., x_d) as {exponent: 1}: every squarefree degree-k
    monomial; e_0 = 1."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return {tuple(int(j in combo) for j in range(d)): 1
            for combo in itertools.combinations(range(d), k)}


def symmetric_denominator(c: Sequence) -> dict:
    """sum_k c_k e_k(x_1, ..., x_d), d = len(c) - 1, as {exponent: c_k},
    without the zero terms."""
    return {exp: ck for k, ck in enumerate(c) if ck
            for exp in elementary_symmetric(len(c) - 1, k)}


def scale_variables(c: Sequence, s) -> list:
    """The coefficient vector of p(s x_1, ..., s x_d): c_k -> c_k s^k."""
    s = rat(s)
    return [ck * s ** k for k, ck in enumerate(c)]


def substitute_zero(c: Sequence) -> list:
    """The coefficient vector of p(x_1, ..., x_{d-1}, 0): c_d dropped."""
    if len(c) < 3:
        raise ValueError("cannot drop below one variable")
    return list(c[:-1])


def geometric_oracle(c: Sequence, N: int) -> dict:
    """Independent expansion of 1/p on [0..N]^d, every index: truncated
    geometric series in (1 - p/c0) on the monomial dict of p.  Works over Q
    and over Q[lambda] (c_0 must be a number)."""
    d = len(c) - 1
    c0 = Fraction(c[0].constant_value() if isinstance(c[0], UniPoly) else c[0])
    r = {exp: -pm / c0 for exp, pm in symmetric_denominator(c).items() if any(exp)}
    total = {(0,) * d: Fraction(1)}
    power = {(0,) * d: Fraction(1)}
    for _ in range(d * N):
        nxt = {}
        for e1, a in power.items():
            for e2, b in r.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if all(x <= N for x in e):
                    nxt[e] = nxt.get(e, Fraction(0)) + a * b
        power = nxt
        for e, a in power.items():
            total[e] = total.get(e, Fraction(0)) + a
        if not power:
            break
    return {e: v / c0 for e, v in total.items()}


def entry_layer(d: int, N: int, t: int, symmetric: bool) -> list:
    """(n, code, shape) for every index n in [0..N]^d of total degree t, in
    lexicographic order; only the non-decreasing n when `symmetric`.  code
    is n read in base N+1; shape caps at 1 each coordinate of n, or in
    symmetric mode each gap n_i - n_{i-1} (n_{-1} = 0)."""
    parts = [((), 0, (), 0, t)]  # prefix, code, shape, last coordinate, rest
    for slots in range(d, 1, -1):
        grown = []
        for prefix, code, shape, prev, rest in parts:
            lo = prev if symmetric else 0
            hi = min(rest // slots if symmetric else rest, N)
            for v in range(max(lo, rest - (slots - 1) * N), hi + 1):
                grown.append((prefix + (v,), code * (N + 1) + v,
                              shape + (min(v - lo, 1),), v, rest - v))
        parts = grown
    return [(prefix + (rest,), code * (N + 1) + rest,
             shape + (min(rest - (prev if symmetric else 0), 1),))
            for prefix, code, shape, prev, rest in parts if rest <= N]


def per_entry_kernel(c: Sequence, N: int, symmetric: bool) -> tuple:
    """(c_0, L, B, {n: v_n}): the box of 1/p by the per-entry kernel on the
    monomial dict of p, with the box kernel's c_0 and L, one index tuple, one
    shape tuple and one stencil sum per entry.  Over Q[lambda] it packs at one
    width B for the whole box, its own, from the l1 bound
    ||v_n||_1 <= W^|n| with W the sum of |w| over the weights' coefficients,
    so that it checks the width the box kernel certifies layer by layer
    instead of sharing it; B = 0 over Q."""
    c0, L, *_ = _kernel_scale(c)
    d = len(c) - 1
    terms = []  # (m, lambda-coefficients of w_m = L^|m| p_m / c_0)
    for m, pm in symmetric_denominator(c).items():
        if any(m):
            qs = pm.coeffs if isinstance(pm, UniPoly) else [pm]
            terms.append((m, [int(Fraction(q) * L ** sum(m) / c0) for q in qs]))
    W = sum(abs(w) for _, ints in terms for w in ints)
    B = max(1, W ** (d * N)).bit_length() + 1 if any(map(depends_on_lambda, c)) else 0
    weights = [(m, sum(w << (B * i) for i, w in enumerate(ints))) for m, ints in terms]
    deg = max((sum(m) for m, _ in weights), default=0)
    radix = tuple((N + 1) ** (d - 1 - i) for i in range(d))

    def compile_stencil(n, code):
        merged = {}
        for m, w in weights:
            prev = tuple(a - b for a, b in zip(n, m))
            if min(prev) < 0:
                continue
            if symmetric:
                prev = tuple(sorted(prev))
            key = (sum(m), code - sum(a * r for a, r in zip(prev, radix)))
            merged[key] = merged.get(key, 0) + w
        return [(k, off, w) for (k, off), w in merged.items() if w]

    stencils, ints = {}, {(0,) * d: 1}
    recent = [{0: 1}]  # recent[k - 1] holds layer t - k
    for t in range(1, d * N + 1):
        current = {}
        for n, code, shape in entry_layer(d, N, t, symmetric):
            if shape not in stencils:
                stencils[shape] = compile_stencil(n, code)
            acc = 0
            for k, off, w in stencils[shape]:
                acc -= w * recent[k - 1][code - off]
            current[code] = ints[n] = acc
        recent.insert(0, current)
        del recent[deg:]
    return c0, L, B, ints


def per_entry_data(c: Sequence, N: int, symmetric: bool) -> dict:
    """The exact box of 1/p by `per_entry_kernel`, every u_n keyed by n."""
    c0, L, B, ints = per_entry_kernel(c, N, symmetric)

    def exact(n, v):
        den = c0.numerator * L ** sum(n)
        if B:
            return UniPoly([Fraction(x * c0.denominator, den) for x in _unpack(v, B)])
        return Fraction(v * c0.denominator, den)
    return {n: exact(n, v) for n, v in ints.items()}


class CollectedBox:
    """Taylor coefficients of 1/p on [0..N]^d as the kernel's integers v_n
    with scale (c_0, L, B_0), B_0 = 0 over Q: layers[t] maps the code of each
    sorted n with |n| = t to v_n, whose digit width is widths[t]."""

    def __init__(self, dim: int, N: int, layers: list, scale: tuple, widths: list):
        self.dim = dim
        self.N = N
        self.layers = layers
        self.scale = scale
        self.widths = widths
        self.ring = "Qlambda" if scale[2] else "Q"

    @property
    def data(self) -> dict:
        """Every stored (sorted) entry as an exact value, built on each read."""
        c0, L, _ = self.scale
        return {_index(code, self.dim, self.N): _exact(c0, L, B, t, v)
                for t, (layer, B) in enumerate(zip(self.layers, self.widths))
                for code, v in layer.items()}


def collect(c: Sequence, N: int) -> CollectedBox:
    """The box of 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, with every layer
    that `expand_layers` yields kept, where a command holds a window of them."""
    layers = expand_layers(c, N, DEFAULT_ENTRY_LIMIT)
    scale, stream = next(layers), list(layers)
    return CollectedBox(len(c) - 1, N, [layer for _, layer, _ in stream], scale,
                        [B for _, _, B in stream])


def entry_at(box: CollectedBox, n):
    """The exact entry u_n of a collected box, read at its stored orbit
    representative, the sorted n."""
    t = sum(n)
    return _exact(*box.scale[:2], box.widths[t], t,
                  box.layers[t][_code(tuple(sorted(n)), box.N)])


def box_stream(box: CollectedBox):
    """The layers (t, layers[t], B_t) of a collected box, as `expand_layers`
    yields them."""
    return zip(itertools.count(), box.layers, box.widths)


def brute_force_first_nonpositive(box: CollectedBox, strict: bool):
    """Graded-lex-first flagged index of the full box, reading every entry
    through `entry_at`."""
    for n in sorted(itertools.product(range(box.N + 1), repeat=box.dim),
                    key=grlex_key):
        c = entry_at(box, n)
        if isinstance(c, UniPoly):
            flagged = not c.coeffs or any(q < 0 for q in c.coeffs)
        else:
            flagged = c <= 0 if strict else c < 0
        if flagged:
            return n, c
    return None


def collected_cache_text(c: Sequence, box: CollectedBox) -> str:
    """The cache file (format v4) of a collected box of 1/sum c_k e_k, its
    diagonal read at each index (n,...,n) and the file built as one string,
    sealed under the CRC-32 of its whole body."""
    d, N = box.dim, box.N
    spelled = json.dumps(plain(list(c)), separators=(",", ":"))
    code = sum((N + 1) ** i for i in range(d))  # of (1,...,1)
    body = "".join([f"diagonalis-diagonal v4; N={N}; L={box.scale[1]}; c={spelled}\n"]
                   + [f"{n}:{box.layers[d * n][n * code]:x}\n" for n in range(N + 1)])
    return f"{body}crc32={zlib.crc32(body.encode()):08x}\n"


def double_loop_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of the integer polynomials a and b, lowest coefficient
    first, one term a_i b_j at a time: the oracle of `UniPoly.__mul__`,
    which pads both to the product's length for `exactalg.convolve`."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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


def fraction_recurrence_check(rec, terms: Sequence[Fraction]):
    """`sequences.recurrence_check` on a list of `Fraction`s: each residual
    sum_j p_j(n) u_{n+j} summed in `Fraction` arithmetic, with the
    polynomials evaluated by `UniPoly.__call__`."""
    r = rec.order
    if len(terms) < r + 1:
        raise ValueError(f"window too short: need at least {r + 1} terms")
    for n in range(len(terms) - r):
        resid = sum((rec.coeffs[j](n) * terms[n + j] for j in range(r + 1)),
                    Fraction(0))
        if resid:
            return (n, resid)
    return None


def fraction_run_extended(coeffs, upto: int, initial, forcing=None) -> UniSeries:
    """`uniseries._run_extended` summed in `Fraction` arithmetic, with the
    polynomials evaluated by `UniPoly.__call__`: u_0..u_upto of
    sum_j p_j(n) u_{n+j} = -forcing(n), extended by u_k = 0 for k < 0, from
    the rationals `initial`; `forcing` maps n to a rational."""
    if upto < 0:
        raise ValueError(f"cannot extend up to a negative index {upto}")
    r = len(coeffs) - 1
    vals = [rat(u) for u in initial] + [Fraction(0)] * (upto + 1 - len(initial))
    for n in range(len(initial) - r, upto - r + 1):
        lead = coeffs[r](n)
        if lead == 0:
            raise ValueError(f"leading coefficient vanishes at n={n}; "
                             f"extension blocked at index {n + r}")
        s = forcing(n) if forcing else Fraction(0)
        for j in range(max(0, -n), r):
            s += coeffs[j](n) * vals[n + j]
        vals[n + r] = -s / lead
    return UniSeries(vals)


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
