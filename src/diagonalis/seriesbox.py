"""Exact Taylor expansion of 1/p, p = sum_k c_k e_k(x_1, ..., x_d), on a
coefficient box.

A denominator is its coefficient vector c_0, ..., c_d over Q or Q[lambda].
The box holds the coefficients u_n of 1/p for n in [0..N]^d, computed a
layer (total degree t = |n|) at a time from the convolution recurrence
c_0 * u_n = [n = 0] - sum_k c_k sum_{S, |S| = k} u_{n - 1_S}, over the
k-subsets S of the coordinates with n - 1_S >= 0, run on integers.  With
L > 0 the smallest integer that makes every w_k = -c_k * L^k / c_0
integral, v_n = c_0 * L^|n| * u_n satisfies v_0 = 1 and

    v_n = sum_k w_k sum_{S, |S| = k} v_{n - 1_S};

over Q[lambda] the weights are packed as w_k(2^B) (Kronecker substitution),
and the balanced base-2^B digits of v_n(2^B) are the lambda-coefficients.
The digit width B is certified layer by layer, not bounded once for the
box: after each layer one bias add, one OR over the layer and one mask
check that its digits leave bits(W) + 1 bits of room, W = sum_k C(d, k)
||w_k||_1, so the next layer decodes exactly; a layer without that room
still decodes, and the layers held and the weights are re-packed wider
(`_fits`, `_repack`, the comment before `_LOOKAHEAD`).

u_n depends only on the orbit of n under permuting the coordinates, so a
box stores the sorted representative of each orbit.  An index n is keyed
by its code, n read as a base-(N+1) number, so the predecessor n - 1_S is
one integer subtraction away.  Which predecessors exist, and their code
offsets, depend only on the shape of n: which of its gaps n_i - n_{i-1}
(n_{-1} = 0) are nonzero, at most 2^d shapes, with orbit multiplicities
merged into the stencils.  A layer is enumerated as groups of codes of one
shape, each derived from the layers before it: the indices of total degree
t whose last j+1 coordinates are equal are those whose last j+2 are equal,
and those of degree t-j-1 with their last j+1 (equal) coordinates raised by
one, one addition to each code (`_shape_groups`).  A shape's sweep is one
comprehension over its group, such as

    lambda codes, P1, P2, P3: [w0 * (P1[c - 5] + P1[c - 41]) + w1 * (P3[c - 46])
                               for c in codes]

with P_k the layer t - k: the (lag k, offset) terms of the shape's stencil,
those of one k and one multiplicity m (of the k-subsets S that reach one
predecessor) under one product by the merged weight w_k * m.  The text holds
only lags and offsets: it is compiled as a factory `lambda w0, w1: <sweep>`,
and each box binds its merged weights as the arguments, since CPython
refuses str() of an int past 4300 digits and packed Q[lambda] weights grow
with N.  The boxes of one d, N and support (the k with c_k != 0) share a box
plan, memoized for the life of the interpreter: each shape's factory,
compiled the first time a box meets the shape, and the layer groups of
(d, N), held if the box stores at most 2^13 entries, C(N+d, d), and else
enumerated anew by each box, so that a large box holds a window of them.
The boxes of a bisection enumerate their layers and compile once.
`expand_layers` yields each layer t, the kernel's dict code -> v_n, with its
digit width B_t once it is finished, and holds only the deg(p) + 1 layers
that layer t + 1 reads.
The positivity scan reads that stream as it comes and stops at the first
layer with a hit; `tap_diagonal` keeps the integer v_(n,...,n) of each d-th
layer as the stream passes, for `save_cache`.  A cache (format v4) holds
those N + 1 integers alone, the only entries its reader reads.
`expand_reciprocal` keeps them in a `CoeffBox`, which holds no layer.  For
d >= 4 and every k >= 1 with c_k != 0 in {1, d-1, d}, it counts them
instead of tapping them (`_counted_diagonal`): with g full steps, b
complement steps [d] - {i} and a = d*s + b singleton steps, s = n - g - b,

    v_(n,...,n) = sum_{g, b} C(a + b + g, g) X_s(b) w_1^a w_{d-1}^b w_d^g,
    X_s(b) = (d*s + 2b)! [y^b] (sum_j y^j / (j! (s + j)!))^d,

O(N^3) integer products where the box sweeps C(N + d, d) entries.  A d <= 3
box keeps its layers.
`extract_diagonal` and `load_cache` give the diagonal u_(n,...,n), n = 0..N,
as a `UniSeries` of order N rescaled from the kernel's integers
(`_diagonal`); `CoeffBox.data` expands the box anew to read any other u_n.
"""

from __future__ import annotations

import json
import math
import zlib
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul, or_
from typing import Sequence, TextIO

from .exactalg import UniPoly, convolve, pack, plain, rat
from .multipoly import Coeff, _coerce_coeff, depends_on_lambda
from .uniseries import UniSeries

Exponent = tuple[int, ...]

DEFAULT_ENTRY_LIMIT = 10 ** 8

CACHE_MAGIC = "diagonalis-diagonal v4"

# (d, N) -> the box plan, (its layer groups if held, else None,
# {(support, shape): `_sweep` of the shape}), as the module docstring spells it
_PLANS: dict = {}


class BoxTooLargeError(ValueError):
    """Raised when a requested box exceeds the entry limit."""


def _shape_groups(d: int, N: int):
    """Yield, for t = 0..dN, the non-decreasing indices n in [0..N]^d with
    |n| = t as {shape: codes}, the codes of a group in no set order.  code
    reads n in base N+1; bit j of shape is set iff the gap before the last
    j+1 coordinates of n is nonzero, the gaps being n_i - n_{i-1}
    (n_{-1} = 0).

    G_j(t), the n with |n| = t whose last j+1 coordinates are equal, is
    G_{j+1}(t) (gap j is 0) and, disjoint from it, G_j(t-j-1) with those
    coordinates raised by one (gap j is nonzero): code + 1 + R + ... + R^j,
    dropping the n whose last coordinate is N, and bit j set.  G_d(0) is
    {0}, and layer t is G_0(t)."""
    R = N + 1
    steps = [1] * d  # (R^(j+1) - 1) / N
    for j in range(1, d):
        steps[j] = steps[j - 1] * R + 1
    # past[j][t % (j+1)] holds G_j(t-j-1) until G_j(t) replaces it
    past: list[list[dict[int, list[int]]]] = [[{}] * (j + 1) for j in range(d)]
    for t in range(d * N + 1):
        groups = {0: [0]} if t == 0 else {}  # G_d(t)
        for j in range(d - 1, -1, -1):
            step, slot = steps[j], t % (j + 1)
            raised: dict[int, list[int]] = {}
            for shape, codes in past[j][slot].items():
                codes = [c + step for c in codes if c % R != N]
                if codes:
                    shape |= 1 << j
                    if shape in raised:
                        raised[shape] += codes
                    else:
                        raised[shape] = codes
            raised.update(groups)
            groups = past[j][slot] = raised
        yield groups


def _code(n: Exponent, N: int) -> int:
    """The index n read as a base-(N+1) number."""
    return sum(e * (N + 1) ** i for i, e in enumerate(reversed(n)))


def _index(code: int, d: int, N: int) -> Exponent:
    """The index n in [0..N]^d whose base-(N+1) reading is `code`."""
    return tuple(code // (N + 1) ** i % (N + 1) for i in range(d - 1, -1, -1))


def _exact(c0: Fraction, L: int, B: int, t: int, v: int) -> Coeff:
    """The exact coefficient v / (c_0 * L^t) of a kernel integer v in layer t
    of digit width B."""
    den = c0.numerator * L ** t
    if B:
        return UniPoly.from_nums([c * c0.denominator for c in _unpack(v, B)], den)
    return Fraction(v * c0.denominator, den)


class CoeffBox:
    """The box of 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, as the kernel's
    scale (c_0, L, B_0), B_0 = 0 over Q, and integers v_(n,...,n), n = 0..N,
    of its diagonal; a Q[lambda] box keeps none, as its diagonal is not read."""

    def __init__(self, c: Sequence[Coeff], N: int, scale: tuple, diagonal: list[int]):
        self.c = c
        self.N = N
        self.scale = scale
        self.diagonal = diagonal

    @property
    def data(self) -> dict[Exponent, Coeff]:
        """Every stored (sorted) entry as an exact value, re-expanded on each read."""
        d = len(self.c) - 1
        layers = expand_layers(self.c, self.N, (self.N + 1) ** d)
        c0, L, _ = next(layers)
        return {_index(code, d, self.N): _exact(c0, L, B, t, v)
                for t, layer, B in layers for code, v in layer.items()}


def _smallest_scale(requirements) -> int:
    """Smallest L > 0 with den | L**k for every (den, k) in `requirements`.

    Denominators are factored by trial division below 10**4; a cofactor
    left over with no such prime factor and not known to be prime is taken
    whole, which keeps L valid (though possibly not minimal) without
    factoring large numbers.
    """
    exps: dict[int, int] = {}
    rest = 1
    for den, k in requirements:
        f = 2
        while f * f <= den and f < 10 ** 4:
            e = 0
            while den % f == 0:
                den //= f
                e += 1
            if e:
                exps[f] = max(exps.get(f, 0), -(-e // k))
            f += 1 if f == 2 else 2
        if f * f <= den:  # stopped by the trial-division bound
            rest = math.lcm(rest, den)
        elif den > 1:  # a prime
            exps[den] = max(exps.get(den, 0), 1)
    return math.lcm(math.prod(f ** e for f, e in exps.items()), rest)


def _unpack(v: int, B: int) -> list[int]:
    """Balanced base-2^B digits of v, lowest first, without trailing zeros:
    the coefficients of the integer polynomial q with q(2^B) = v, provided
    they are all of absolute value < 2^(B-1)."""
    digits, half = [], 1 << (B - 1)
    while v:
        c = ((v & (2 * half - 1)) ^ half) - half  # low B bits, sign-extended
        digits.append(c)
        v = (v - c) >> B
    return digits


def _kernel_scale(c: Sequence[Coeff]) -> tuple:
    """(c_0, L, B, weights [(k, the lambda-coefficients of w_k, one over Q)]
    for each k >= 1 with c_k != 0) of the kernel for 1/sum c_k e_k,
    d = len(c) - 1; B is the digit width of layer 0, 0 over Q.  Requires an
    invertible c_0."""
    c0 = c[0]
    if depends_on_lambda(c0):
        raise ValueError("not expandable at origin: constant term not invertible")
    c0 = Fraction(c0.constant_value() if isinstance(c0, UniPoly) else c0)
    if not c0:
        raise ValueError("not expandable at origin: zero constant term")
    ratios = [(k, [Fraction(q) / c0 for q in (ck.coeffs if isinstance(ck, UniPoly) else [ck])])
              for k, ck in enumerate(c) if k and ck]  # c_k / c_0, lambda-coefficients
    L = _smallest_scale((q.denominator, k) for k, qs in ratios for q in qs)
    weights = [(k, [-int(q * L ** k) for q in qs]) for k, qs in ratios]
    # v_0 = 1 has the one digit 1, which b = 2 holds
    B = _width(2, _growth(len(c) - 1, weights)) if any(map(depends_on_lambda, c)) else 0
    return c0, L, B, weights


# Over Q[lambda] each weight w is packed as w(2^B), a ring homomorphism
# Z[lambda] -> Z, so the kernel computes v_n(2^B), whose balanced base-2^B
# digits are the lambda-coefficients of v_n while they lie in
# [-2^(B-1), 2^(B-1)).  A digit of v_n is a sum of products of a weight
# coefficient and a digit of a predecessor, so it is at most W times the
# widest digit of the layers read, W = sum_k C(d, k) ||w_k||_1.  If every
# digit of the layers read lies in [-2^(b-1), 2^(b-1)) with
# b = B - bits(W) - 1, every digit of the next layer is below
# W * 2^(b-1) < 2^(B-1) and decodes exactly: by induction, the width is
# certified layer by layer with `_fits`.  When a layer fails it, its digits
# still decode; the layers held are re-packed (`_repack`) at the width of
# their widest digit plus _LOOKAHEAD layers of growth by bits(W) bits.  A
# narrow lookahead re-packs often and a wide one makes every product wider.
# StraubLambda `expand --check-positive`, timed in one CPython 3.11
# interpreter on a 2-vCPU x86-64 VM, took 2.8 ms at N = 16 for 3 to 8 layers
# (3.6 at 1, 4.6 at 24) and 345 to 357 ms at N = 50 (423 at 1, 515 at 24);
# 6 is the middle of that flat range.  Its digits grow by about 1.5 bits a
# layer, against bits(W) = 5, so its starting width of 38 bits holds its
# boxes up to N = 8 without a re-pack.
_LOOKAHEAD = 6


def _growth(d: int, weights) -> int:
    """bits(W), W = sum_k C(d, k) ||w_k||_1 over the weights' lambda-coefficients."""
    return sum(math.comb(d, k) * sum(map(abs, w)) for k, w in weights).bit_length()


def _width(b: int, growth: int) -> int:
    """The digit width B for layers with every digit in [-2^(b-1), 2^(b-1)),
    whose digits grow by at most `growth` bits a layer: B - growth - 1 leaves
    room for _LOOKAHEAD layers."""
    return b + (_LOOKAHEAD + 1) * growth + 1


def _ones(B: int, slots: int) -> int:
    """sum 2^(B i), i < slots: a 1 in each of `slots` base-2^B digits."""
    return ((1 << B * slots) - 1) // ((1 << B) - 1)


def _slots(top: int, B: int) -> int:
    """A digit count that covers the balanced base-2^B digits of every value
    of absolute value <= top: if digit j is the top one, |v| > 2^(Bj) / 3."""
    return (top.bit_length() + 1) // B + 1


def _fits(layer: dict[int, int], B: int, b: int) -> bool:
    """Whether every balanced base-2^B digit of the layer's values lies in
    [-2^(b-1), 2^(b-1)), 1 <= b < B, given that each lies in
    [-2^(B-1), 2^(B-1)).  With the bias 2^(b-1) added to each digit, they
    all do iff no biased value has a bit b..B-1 of a digit set, read in
    two's complement: the digits below the lowest one out of range are
    plain digits below 2^b, and that one reaches 2^b, or is negative and
    borrows from the digit above it (or, at the top, makes the value
    negative), which sets its bit B-1."""
    values = layer.values()
    ones = _ones(B, _slots(max(map(abs, values)), B))
    bias = ones << (b - 1)
    return not reduce(or_, map(bias.__add__, values)) & ones * ((1 << B) - (1 << b))


def _repack(layers, B: int, B2: int) -> list[dict[int, int]]:
    """The layers as fresh dicts, each value's balanced base-2^B digits
    moved to base 2^B2, B2 > B.  With the bias 2^(B-1) on each digit they
    are plain B-bit digits; log2(slots) rounds of a mask and a shift spread
    them, each round moving the upper half of every block of digits to its
    place at the new width."""
    slots = _slots(max(max(map(abs, layer.values()), default=0) for layer in layers), B)
    rounds, size = [], 1 << (slots - 1).bit_length()  # a power of two >= slots
    while size > 1:  # blocks of `size` digits, each at its place
        half = size // 2
        upper = ((1 << size * B) - (1 << half * B)) * _ones(size * B2, -(-slots // size))
        rounds.append((upper, half * (B2 - B)))
        size = half
    bias, bias2 = _ones(B, slots) << (B - 1), _ones(B2, slots) << (B - 1)

    def spread(v: int) -> int:
        x = v + bias
        for upper, shift in rounds:
            moved = x & upper
            x = (x ^ moved) | (moved << shift)
        return x - bias2
    return [{code: spread(v) for code, v in layer.items()} for layer in layers]


def _sweep(d: int, N: int, support: tuple, code: int) -> tuple:
    """(factory, keys) of the shape of index `code` for the weights w_k, k in
    `support`, as the module docstring spells them: factory(*[w_k * m for
    (k, m) in keys]) is the shape's sweep."""
    n = _index(code, d, N)
    merged: dict = {}  # (lag k, code offset) -> multiplicity m
    for k in support:
        for subset in combinations(range(d), k):
            prev = [e - (i in subset) for i, e in enumerate(n)]
            if min(prev) >= 0:
                key = (k, code - _code(sorted(prev), N))
                merged[key] = merged.get(key, 0) + 1
    reads: dict = {}  # (k, m) -> its reads
    for (k, off), m in merged.items():
        reads.setdefault((k, m), []).append(f"P{k}[c - {off}]")
    terms = [f"w{i} * ({' + '.join(r)})" for i, r in enumerate(reads.values())]
    params = "".join(f", P{k}" for k in range(1, max(support, default=0) + 1))
    text = (f"lambda {', '.join(f'w{i}' for i in range(len(reads)))}: lambda codes"
            f"{params}: [{' + '.join(terms) or '0'} for c in codes]")
    return eval(compile(text, "<stencil>", "eval")), list(reads)


def expand_layers(c: Sequence[Coeff], N: int, entry_limit: int):
    """Expand 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, for an invertible
    c_0: yield the scale (c_0, L, B_0), then (t, layers[t], B_t) for
    t = 0..dN, B_t the digit width of layer t (0 over Q).  Only the
    deg(p) + 1 layers t - deg(p) .. t that the kernel reads are held; an
    earlier one is dropped once it is yielded and no longer read.  A layer
    is never changed once yielded: a re-pack makes new ones."""
    d = len(c) - 1
    if d < 1:
        raise ValueError("need at least c_0 and c_1")
    if N < 0:
        raise ValueError("box bound must be >= 0")
    if (N + 1) ** d > entry_limit:
        raise BoxTooLargeError(
            f"box [0..{N}]^{d} has {(N + 1) ** d} entries, limit {entry_limit}")
    c0, L, B, weights = _kernel_scale(c)
    yield c0, L, B
    support, growth = tuple(k for k, _ in weights), _growth(d, weights)
    w = {k: pack(wk, B) for k, wk in weights}
    deg = max(support, default=0)  # deg(p)
    if (d, N) not in _PLANS:
        _PLANS[d, N] = (list(_shape_groups(d, N)) if math.comb(N + d, d) <= 1 << 13
                        else None, {})
    held, sweeps = _PLANS[d, N]
    bound: dict = {}  # shape -> its sweep, bound to this box's weights
    current: dict[int, int] = {0: 1}
    window = (current, *[{}] * deg)[:deg]  # layers t - 1, ..., t - deg
    yield 0, current, B
    layers = enumerate(held or _shape_groups(d, N))
    next(layers)  # layer 0, v_0 = 1, is yielded above
    for t, groups in layers:
        current = {}
        for shape, codes in groups.items():
            sweep = bound.get(shape)
            if sweep is None:
                if (support, shape) not in sweeps:
                    sweeps[support, shape] = _sweep(d, N, support, codes[0])
                factory, keys = sweeps[support, shape]
                sweep = bound[shape] = factory(*[w[k] * m for k, m in keys])
            current.update(zip(codes, sweep(codes, *window)))
        window = (current, *window)[:deg]
        yield t, current, B
        if B and not _fits(current, B, B - growth - 1):
            # the other layers held fit B - growth - 1, and this one fits
            # at most growth bits more
            b = B - growth
            while not _fits(current, B, b):
                b += 1
            B2 = _width(b, growth)
            window = tuple(_repack(window, B, B2))
            B, w, bound = B2, {k: pack(wk, B2) for k, wk in weights}, {}


def _counted_diagonal(d: int, N: int, weights) -> list[int]:
    """The kernel's integers v_(n,...,n), n = 0..N, of a rational box on
    [0..N]^d, d >= 3, whose weights (k, [w_k]) have every k in {1, d-1, d}:
    the integers `tap_diagonal` reads off the layers, counted instead.

    v_n sums the weights of the paths from 0 to (n,...,n) whose steps are
    1_S, each weighted w_|S|.  Such a path has g full steps, b complement
    steps [d] - {i}, beta_i of which miss i, and alpha_i = s + beta_i
    singleton steps on i, s = n - g - b: a = d*s + b >= 0 singletons in all.
    Its a + b other steps have (a + b)! / prod(alpha_i! beta_i!) orders and
    its full steps C(a + b + g, g) places among them, so

        v_n = sum_{g, b} C(a + b + g, g) X_s(b) w_1^a w_{d-1}^b w_d^g,
        X_s(b) = (d*s + 2b)! [y^b] G_s(y)^d,
        G_s(y) = sum_{j >= max(0, -s)} y^j / (j! (s + j)!).

    G_{-r} = y^r G_r, so X_s(b) = Y_r(i) = (dr + 2i)! [y^i] G_r^d with
    r = |s| and i = min(a, b).  By Vandermonde [y^i] G_r^2 = C(2r + 2i, i)
    / (r + i)!^2, so G_r^d is ceil(d/2) - 1 products (`convolve`) of series
    in i <= N - r, their terms scaled to integers by (r + top)!^2 and, for
    G_r, top! (r + top)!.  If w_1 or w_{d-1} is 0, only i = 0 is read,
    Y_r(0) = (dr)! / r!^d.  The count takes O(N^3) products, O(N^2) if
    w_{d-1} = 0, where the box sweeps C(N + d, d) entries."""
    w = {k: wk for k, (wk,) in weights}
    w1, wc, wd = w.get(1, 0), w.get(d - 1, 0), w.get(d, 0)
    Y = []  # Y[r][i]
    for r in range(N + 1):
        top = N - r if w1 and wc else 0
        rising, lower = [1] * (top + 1), [1] * (top + 1)  # (r+top)!/(r+i)!, top!/i!
        for i in range(top, 0, -1):
            rising[i - 1], lower[i - 1] = rising[i] * (r + i), lower[i] * i
        square = [math.comb(2 * r + 2 * i, i) * f * f for i, f in enumerate(rising)]
        power = square
        for _ in range(d // 2 - 1):
            power = convolve(power, square, top + 1)
        if d % 2:
            power = convolve(power, list(map(mul, rising, lower)), top + 1)
        den = math.factorial(r + top) ** d * math.factorial(top) ** (d % 2)
        Y.append([math.factorial(d * r + 2 * i) * x // den for i, x in enumerate(power)])
    terms = []  # terms[m]: (a + b, Y w_1^a w_{d-1}^b) of each nonzero term with s + b = m
    for m in range(N + 1):
        row = []
        for b in range(d * m // (d - 1) + 1):
            s = m - b
            a = d * s + b
            weight = w1 ** a * wc ** b
            if weight:
                row.append((a + b, Y[abs(s)][min(a, b)] * weight))
        terms.append(row)
    diagonal = []
    for n in range(N + 1):
        v = sum(z for _, z in terms[n])
        for g in range(1, n + 1) if wd else ():
            v += wd ** g * sum(math.comb(q + g, g) * z for q, z in terms[n - g])
        diagonal.append(v)
    return diagonal


def expand_reciprocal(c: Sequence[Coeff], N: int,
                      entry_limit: int = DEFAULT_ENTRY_LIMIT) -> CoeffBox:
    """Expand 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, for an invertible c_0,
    keeping its diagonal; a Q[lambda] box draws no layer.  The scale comes
    from `expand_layers`, with every refusal.  If d >= 4 and every k >= 1
    with c_k != 0 lies in {1, d-1, d}, the diagonal is counted
    (`_counted_diagonal`),

        v_n = sum_{g, b} C(a + b + g, g) X_s(b) w_1^a w_{d-1}^b w_d^g,

    s = n - g - b, a = d*s + b >= 0, in O(N^3) products; otherwise it is
    read off the layers (`tap_diagonal`)."""
    d = len(c) - 1
    layers = expand_layers(c, N, entry_limit)
    scale, diagonal = next(layers), []
    if scale[2]:
        return CoeffBox(c, N, scale, diagonal)
    if d >= 4 and all(k in (1, d - 1, d) for k, ck in enumerate(c) if k and ck):
        diagonal = _counted_diagonal(d, N, _kernel_scale(c)[3])
    else:
        for _ in tap_diagonal(layers, d, N, diagonal):
            pass
    return CoeffBox(c, N, scale, diagonal)


def streamed_first_nonpositive(layers, scale: tuple, d: int, N: int, strict: bool):
    """(index, coefficient) at the graded-lex-first index of the box on
    [0..N]^d with this scale and layers (t, layers[t], B_t), taken in order
    of t, whose coefficient is <= 0 (strict) or < 0, or None; over Q[lambda]
    (strict only), whose coefficient is not a nonzero polynomial with
    coefficients >= 0.  It reads no layer past the first with a hit, and none
    if c_0 < 0."""
    c0, L, B0 = scale
    if B0 and not strict:
        raise ValueError("a Q[lambda] box has no non-strict check")
    if c0 < 0:  # u_0 = 1/c_0 < 0 is flagged, strict or not
        return (0,) * d, _exact(c0, L, B0, 0, 1)
    # u_n = v_n / (c_0 L^|n|) has the sign of v_n, and is flagged over Q iff
    # v_n < lo.  Over Q[lambda], the lambda-coefficients of u_n times c_0 L^|n|
    # are the balanced base-2^B digits of v_n, each of absolute value < 2^(B-1).
    # They are all >= 0 iff they are also its plain base-2^B digits, i.e. iff
    # v_n >= 0 and no digit has its top bit (`mask`) set; the mask covers
    # every digit of the layer's widest value.
    lo = 1 if strict else 0
    for t, layer, B in layers:
        if B:
            mask = _ones(B, _slots(max(map(abs, layer.values())), B)) << (B - 1)
            hits = [c for c, v in layer.items() if v < lo or v & mask]
        else:
            hits = [c for c, v in layer.items() if v < lo]
        if hits:
            # grlex order puts the total degree first, so the first layer with
            # a hit holds the answer: its lex-largest index, taking for a
            # stored orbit representative its descending rearrangement
            first, code = max((tuple(sorted(_index(c, d, N), reverse=True)), c)
                              for c in hits)
            return first, _exact(c0, L, B, t, layer[code])
    return None


def tap_diagonal(layers, d: int, N: int, diagonal: list):
    """Pass the layers (t, layers[t], B_t) of a box on [0..N]^d through,
    appending the kernel's integer v_(n,...,n) of each layer t = d*n to
    `diagonal`."""
    step = _code((1,) * d, N)  # (n,...,n) has code n * step
    for t, layer, B in layers:
        if t % d == 0:
            diagonal.append(layer[t // d * step])
        yield t, layer, B


def save_cache(c: Sequence[Coeff], N: int, scale: tuple, diagonal: Sequence[int],
               fh: TextIO) -> None:
    """Write cache format v4 of the diagonal of 1/sum c_k e_k on [0..N]^d,
    rational, with this scale and the kernel's integers v_n at (n,...,n),
    n = 0..N: a header line, one `n:v_n` line per n with v_n in hexadecimal,
    and a last line `crc32=` of every byte before it."""
    spelled = json.dumps(plain(list(map(_coerce_coeff, c))), separators=(",", ":"))
    # hexadecimal: CPython refuses decimal conversion past 4300 digits, and
    # power-of-two bases convert in linear time
    body = "".join([f"{CACHE_MAGIC}; N={N}; L={scale[1]}; c={spelled}\n",
                    *[f"{n}:{v:x}\n" for n, v in enumerate(diagonal)]])
    # CRC-32, not SHA-256: `hashlib` maps OpenSSL (3.6 MiB resident), and an unkeyed
    # hash that anyone can recompute detects only accidental damage, as a CRC does
    fh.write(f"{body}crc32={zlib.crc32(body.encode()):08x}\n")


def _coefficient_vector(spelled: str) -> list[Coeff]:
    """The c= of a cache header: a JSON list of c_0, ..., c_d, d >= 1, each
    a rational string or a list of them (a lambda-polynomial)."""
    c = json.loads(spelled)
    if not isinstance(c, list) or len(c) < 2:
        raise ValueError("need a list c_0, ..., c_d with d >= 1")
    return [UniPoly.from_json(ck) if isinstance(ck, list) else rat(ck) for ck in c]


def _diagonal(scale: tuple, d: int, vs: list[int]) -> UniSeries:
    """The series of u_n = v_n / (c_0 * L^(dn)), n = 0..N, from the kernel's
    integers v_n at (n,...,n) of a rational box on [0..N]^d with this scale."""
    return UniSeries._of(vs, 1).scale_argument(Fraction(1, scale[1] ** d)) / scale[0]


def extract_diagonal(box: CoeffBox) -> UniSeries:
    """The series of u_(n,...,n), n = 0..N, of a rational box."""
    if box.scale[2]:
        raise ValueError("diagonal extraction requires a rational box")
    return _diagonal(box.scale, len(box.c) - 1, box.diagonal)


def load_cache(fh: TextIO) -> tuple[int, UniSeries]:
    """(d, the series of u_(n,...,n), n = 0..N) of a cache file written by
    `save_cache`, read whole.

    Raises ValueError for a v1, v2 or v3 file, a missing crc32= trailer
    (truncated) or a body that does not match it; naming the header field,
    for a missing or malformed N, L or c, a c that depends on lambda or has
    no invertible c_0, and an L that is not the kernel's for c and N; and
    naming the line, for a line count other than N + 1 and a malformed line
    or one whose index is not its n."""
    header = fh.readline()
    for old in ("v1", "v2", "v3"):
        if header.startswith(f"diagonalis-box {old};"):
            raise ValueError(f"cache format {old} is no longer read; "
                             "re-create it with expand --cache")
    if not header.startswith(CACHE_MAGIC + "; "):
        raise ValueError("not a diagonalis cache file")
    body, _, trailer = (header + fh.read()).removesuffix("\n").rpartition("\n")
    if not trailer.startswith("crc32="):
        raise ValueError("cache has no crc32= trailer (truncated file)")
    if trailer != "crc32=%08x" % zlib.crc32(f"{body}\n".encode()):
        raise ValueError("cache body does not match its crc32= trailer (damaged file)")
    header, *lines = body.split("\n")
    meta = dict(f.partition("=")[::2] for f in header[len(CACHE_MAGIC) + 2:].split("; ", 2))

    def field(key: str, parse):
        try:
            return parse(meta[key])
        # any JSON shape may come, nested past the decoder's recursion limit too
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"cache header: missing or malformed {key}= "
                             f"({exc})") from None

    N = field("N", int)
    field("L", int)  # and checked against the kernel's below
    c = field("c", _coefficient_vector)
    if N < 0:
        raise ValueError(f"cache header: negative N={N}")
    # the line count before the scale: a file whose N and lines disagree
    # costs one comparison
    if len(lines) != N + 1:
        raise ValueError(f"cache holds {len(lines)} diagonal lines; "
                         f"N={N} needs N + 1 = {N + 1}")
    if any(map(depends_on_lambda, c)):
        raise ValueError("diagonal extraction requires a rational box")
    try:
        scale = _kernel_scale(c)[:3]
    except ValueError as exc:
        raise ValueError(f"cache header: c= {exc}") from None
    if meta["L"] != str(scale[1]):
        raise ValueError(f"cache header: L={meta['L']} but c and N give L={scale[1]}")
    diagonal = []
    for n, line in enumerate(lines):
        try:
            index, v = line.split(":")
            diagonal.append(int(v, 16))
        except ValueError as exc:
            raise ValueError(f"line {n + 2}: malformed entry {line!r} ({exc})") from None
        if index != str(n):
            raise ValueError(f"line {n + 2}: found index {index!r}, expected {n}")
    return len(c) - 1, _diagonal(scale, len(c) - 1, diagonal)
