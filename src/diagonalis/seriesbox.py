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
one, one addition to each code (`_shape_groups`).  Each shape is compiled
once per call into one comprehension over its group, such as

    lambda codes, P1, P2, P3: [w0 * (P1[c - 5] + P1[c - 41]) + w1 * (P3[c - 46])
                               for c in codes]

with P_k the layer t - k: the (lag, offset) terms of the shape's stencil,
those that share a merged weight under one product.  The source text holds
only lags and offsets; the merged weights are bound by name in the
namespace the text is evaluated in, since CPython refuses str() of an int
past 4300 digits and packed Q[lambda] weights grow with N.  The compiled
code is memoized by its text, so a box whose shapes and N recur (the boxes
of a bisection) compiles nothing anew.
`expand_layers` yields each layer t, the kernel's dict code -> v_n, once it
is finished, and holds only the deg(p) + 1 layers that layer t + 1 reads.
The positivity scan and the cache writer read that stream as it comes: the
scan stops at the first layer with a hit, and `save_cache` writes each layer
and drops it.  `CoeffBox.layers[t]` keeps every layer, for the diagonals and
a loaded cache.  The exact u_n, a `Fraction` or `UniPoly`, is built only
when an entry is read.
"""

from __future__ import annotations

import json
import math
import zlib
from fractions import Fraction
from itertools import chain, combinations
from typing import Sequence, TextIO

from .exactalg import UniPoly, plain, rat
from .multipoly import Coeff, _coerce_coeff, depends_on_lambda

Exponent = tuple[int, ...]

DEFAULT_ENTRY_LIMIT = 10 ** 8

CACHE_MAGIC = "diagonalis-box v3"

# the compiled code of each stencil sweep, by its source text: a shape's text
# recurs in every expansion of the same stencil at the same N
_SWEEPS: dict = {}


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


def _index_text(d: int, N: int):
    """code -> the index n as a cache line spells it, `n_1,...,n_d`."""
    R = N + 1
    powers, digits = [R ** i for i in range(d - 1, -1, -1)], [str(e) for e in range(R)]
    return lambda code: ",".join([digits[code // p % R] for p in powers])


def _exact(scale: tuple, t: int, v: int) -> Coeff:
    """The exact coefficient v / (c_0 * L^t) of a kernel integer v in layer t."""
    c0, L, B = scale
    den = c0.numerator * L ** t
    if B:
        return UniPoly.from_nums([c * c0.denominator for c in _unpack(v, B)], den)
    return Fraction(v * c0.denominator, den)


class CoeffBox:
    """Taylor coefficients of 1/p on [0..N]^d as the kernel's integers v_n
    with scale (c_0, L, B), B = 0 over Q: layers[t] maps the code of each
    sorted n with |n| = t to v_n."""

    def __init__(self, dim: int, N: int, layers: list[dict[int, int]],
                 scale: tuple):
        self.dim = dim
        self.N = N
        self.layers = layers
        self.scale = scale
        self.ring = "Qlambda" if scale[2] else "Q"

    @property
    def data(self) -> dict[Exponent, Coeff]:
        """Every stored (sorted) entry as an exact value, built on each read."""
        return {_index(code, self.dim, self.N): _exact(self.scale, t, v)
                for t, layer in enumerate(self.layers) for code, v in layer.items()}

    def coefficient_at(self, n) -> Coeff:
        n = tuple(n)
        if len(n) != self.dim or any(e < 0 or e > self.N for e in n):
            raise IndexError(f"index {n} outside box [0..{self.N}]^{self.dim}")
        t = sum(n)  # the stored orbit representative is the sorted index
        return _exact(self.scale, t, self.layers[t][_code(tuple(sorted(n)), self.N)])


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


def _kernel_scale(c: Sequence[Coeff], N: int) -> tuple:
    """(c_0, L, B, packed weights [(k, w_k(2^B))] for each k >= 1 with
    c_k != 0) of the kernel for 1/sum c_k e_k on [0..N]^d, d = len(c) - 1;
    B = 0 over Q.  Requires an invertible c_0."""
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
    # Over Q[lambda] each weight w is packed as w(2^B), a ring homomorphism
    # Z[lambda] -> Z, so the loop computes v_n(2^B).  With W the sum of |c|
    # over the weight coefficients of all C(d, k) monomials of each e_k,
    # ||v_n||_1 <= W^|n| by induction (every predecessor is at least one
    # layer lower; merged weights only add terms already counted), so
    # 2^(B-1) > max(1, W^(dN)) lets `_unpack` decode v_n.
    d = len(c) - 1
    W = sum(math.comb(d, k) * abs(q) for k, w in weights for q in w)
    B = max(1, W ** (d * N)).bit_length() + 1 if any(map(depends_on_lambda, c)) else 0
    return c0, L, B, [(k, int(UniPoly(w)(1 << B))) for k, w in weights]


def expand_layers(c: Sequence[Coeff], N: int, entry_limit: int):
    """Expand 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, for an invertible
    c_0: yield the scale (c_0, L, B), then (t, layers[t]) for t = 0..dN.
    Only the deg(p) + 1 layers t - deg(p) .. t that the kernel reads are
    held; an earlier one is dropped once it is yielded and no longer read."""
    d = len(c) - 1
    if d < 1:
        raise ValueError("need at least c_0 and c_1")
    if N < 0:
        raise ValueError("box bound must be >= 0")
    if (N + 1) ** d > entry_limit:
        raise BoxTooLargeError(
            f"box [0..{N}]^{d} has {(N + 1) ** d} entries, limit {entry_limit}")
    c0, L, B, weights = _kernel_scale(c, N)
    yield c0, L, B
    deg = max((k for k, _ in weights), default=0)  # deg(p)

    def compile_stencil(code: int):
        """The sweep of a shape, (codes, P1, ..., P_deg) -> [v_n for n in
        codes] with P_k the layer t - k, as the module docstring spells it."""
        n = _index(code, d, N)
        merged: dict = {}  # (lag k, code offset) -> merged weight, never 0
        for k, w in weights:
            for subset in combinations(range(d), k):
                prev = [e - (i in subset) for i, e in enumerate(n)]
                if min(prev) >= 0:
                    key = (k, code - _code(sorted(prev), N))
                    merged[key] = merged.get(key, 0) + w
        reads: dict[int, list[str]] = {}  # merged weight -> its reads
        for (k, off), w in merged.items():
            reads.setdefault(w, []).append(f"P{k}[c - {off}]")
        names = {f"w{i}": w for i, w in enumerate(reads)}
        terms = [f"{name} * ({' + '.join(r)})" for name, r in zip(names, reads.values())]
        text = f"lambda codes{params}: [{' + '.join(terms) or '0'} for c in codes]"
        sweep = _SWEEPS.get(text)
        if sweep is None:
            sweep = _SWEEPS[text] = compile(text, "<stencil>", "eval")
        return eval(sweep, names)

    params = "".join(f", P{k}" for k in range(1, deg + 1))
    sweeps: dict = {}
    current: dict[int, int] = {0: 1}
    window = (current, *[None] * deg)[:deg]  # layers t - 1, ..., t - deg
    yield 0, current
    layers = enumerate(_shape_groups(d, N))
    next(layers)  # layer 0, v_0 = 1, is yielded above
    for t, groups in layers:
        current = {}
        for shape, codes in groups.items():
            sweep = sweeps.get(shape)
            if sweep is None:
                sweep = sweeps[shape] = compile_stencil(codes[0])
            current.update(zip(codes, sweep(codes, *window)))
        window = (current, *window)[:deg]
        yield t, current


def expand_reciprocal(c: Sequence[Coeff], N: int,
                      entry_limit: int = DEFAULT_ENTRY_LIMIT) -> CoeffBox:
    """Expand 1/sum c_k e_k on [0..N]^d, d = len(c) - 1, for an invertible
    c_0, keeping every layer."""
    layers = expand_layers(c, N, entry_limit)
    scale = next(layers)
    return CoeffBox(len(c) - 1, N, [layer for _, layer in layers], scale)


def streamed_first_nonpositive(layers, scale: tuple, d: int, N: int, strict: bool):
    """(index, coefficient) at the graded-lex-first index of the box on
    [0..N]^d with this scale and layers (t, layers[t]), taken in order of t,
    whose coefficient is <= 0 (strict) or < 0, or None; over Q[lambda] (strict
    only), whose coefficient is not a nonzero polynomial with coefficients
    >= 0.  It reads no layer past the first with a hit."""
    c0, _, B = scale
    if B and not strict:
        raise ValueError("a Q[lambda] box has no non-strict check")
    # u_n = v_n / (c_0 L^|n|) has the sign of s * v_n, s = sign(c_0).  Over
    # Q[lambda], the lambda-coefficients of u_n times |c_0| L^|n| are the
    # balanced base-2^B digits of s * v_n, each of absolute value < 2^(B-1).
    # They are all >= 0 iff they are also its plain base-2^B digits, i.e. iff
    # s * v_n >= 0 and no digit has its top bit (`mask`) set; the mask covers
    # every digit of the layer's widest value.
    s, lo = (1 if c0 > 0 else -1), (1 if strict else 0)
    for t, layer in layers:
        top = max(map(abs, layer.values())).bit_length() // B + 1 if B else 0
        mask = sum(1 << (B * i + B - 1) for i in range(top))
        hits = [c for c, v in layer.items() if s * v < lo or s * v & mask]
        if hits:
            # grlex order puts the total degree first, so the first layer with
            # a hit holds the answer: its lex-largest index, taking for a
            # stored orbit representative its descending rearrangement
            first, code = max((tuple(sorted(_index(c, d, N), reverse=True)), c)
                              for c in hits)
            return first, _exact(scale, t, layer[code])
    return None


def save_cache(c: Sequence[Coeff], N: int, scale: tuple, layers, fh: TextIO) -> None:
    """Write cache format v3 of the box of 1/sum c_k e_k on [0..N]^d with this
    scale and layers (t, layers[t]), as `expand_layers` yields them: a header
    line, one `i,j,...:v_n` line per stored entry (sorted orbit
    representatives) in graded-lex order with the kernel's integer v_n in
    hexadecimal, and a last line `crc32=` of every byte before it.  Each
    layer is written, and added to the CRC, as it comes."""
    index = _index_text(len(c) - 1, N)
    spelled = json.dumps(plain(list(map(_coerce_coeff, c))), separators=(",", ":"))
    header = f"{CACHE_MAGIC}; N={N}; L={scale[1]}; B={scale[2]}; c={spelled}\n"
    # hexadecimal: CPython refuses decimal conversion past 4300 digits (packed
    # StraubLambda entries pass it at N = 19); power-of-two bases convert in linear
    # time.  Within a layer, graded-lex order is descending code order.
    texts = ("".join([f"{index(code)}:{layer[code]:x}\n"
                      for code in sorted(layer, reverse=True)])
             for _, layer in layers)
    # CRC-32, not SHA-256: `hashlib` maps OpenSSL (3.6 MiB resident), and an unkeyed
    # hash that anyone can recompute detects only accidental damage, as a CRC does
    crc = 0
    for text in chain([header], texts):
        fh.write(text)
        crc = zlib.crc32(text.encode(), crc)
    fh.write(f"crc32={crc:08x}\n")


def _coefficient_vector(spelled: str) -> list[Coeff]:
    """The c= of a cache header: a JSON list of c_0, ..., c_d, d >= 1, each
    a rational string or a list of them (a lambda-polynomial)."""
    c = json.loads(spelled)
    if not isinstance(c, list) or len(c) < 2:
        raise ValueError("need a list c_0, ..., c_d with d >= 1")
    return [UniPoly.from_json(ck) if isinstance(ck, list) else rat(ck) for ck in c]


def load_cache(fh: TextIO) -> CoeffBox:
    """Read a cache file written by `save_cache`.

    Raises ValueError for a v1 or v2 file, to be re-created, a missing
    crc32= trailer (truncated) or a body that does not match it; naming the
    header field, for a missing or malformed N or c (c_0 invertible) and an
    L or B that is not the kernel's for c and N; and, naming the line, for
    an entry count other than C(N+d, d), a malformed entry and an index
    other than the one the header fixes there: `save_cache` writes the
    kernel's enumeration of the box, layer by layer in graded-lex order."""
    text = fh.read()
    for old in ("v1", "v2"):
        if text.startswith(f"diagonalis-box {old};"):
            raise ValueError(f"cache format {old} is no longer read; "
                             "re-create it with expand --cache")
    if not text.startswith(CACHE_MAGIC + "; "):
        raise ValueError("not a diagonalis box cache file")
    body, _, trailer = text.removesuffix("\n").rpartition("\n")
    if not trailer.startswith("crc32="):
        raise ValueError("cache has no crc32= trailer (truncated file)")
    if trailer != "crc32=%08x" % zlib.crc32(f"{body}\n".encode()):
        raise ValueError("cache body does not match its crc32= trailer (damaged file)")
    header, *lines = body.split("\n")
    fields = header[len(CACHE_MAGIC) + 2:].split("; ", 3)
    meta = dict(f.partition("=")[::2] for f in fields)

    def field(key: str, parse):
        try:
            return parse(meta[key])
        # any JSON shape may come, nested past the decoder's recursion limit too
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"cache header: missing or malformed {key}= "
                             f"({exc})") from None

    N = field("N", int)
    c = field("c", _coefficient_vector)
    if N < 0:
        raise ValueError(f"cache header: negative N={N}")
    dim = len(c) - 1
    expected = math.comb(N + dim, dim)
    if len(lines) != expected:  # before the loop: a forged huge N never enumerates
        raise ValueError(f"line {len(lines) + 1}: cache ends after {len(lines)} "
                         f"entries; expected {expected}")
    # line by line, the indices `save_cache` writes: each layer's codes in
    # descending order (the shapes only group them)
    index, entries = _index_text(dim, N), iter(enumerate(lines, 2))
    layers: list[dict[int, int]] = []
    for groups in _shape_groups(dim, N):
        layers.append(layer := {})
        codes = chain.from_iterable(groups.values())
        for code, (lineno, line) in zip(sorted(codes, reverse=True), entries):
            try:
                idx_s, v_s = line.split(":")
                layer[code] = int(v_s, 16)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed entry {line!r} ({exc})") from None
            want = index(code)
            if idx_s != want:
                raise ValueError(f"line {lineno}: found index {idx_s!r}, expected {want}")
    # after the count check, so that a forged huge N never reaches W^(dN)
    try:
        c0, L, B, _ = _kernel_scale(c, N)
    except ValueError as exc:
        raise ValueError(f"cache header: c= {exc}") from None
    for key, want in (("L", L), ("B", B)):
        if meta.get(key) != str(want):
            raise ValueError(f"cache header: {key}={meta.get(key)} but c and N "
                             f"give {key}={want}")
    return CoeffBox(dim, N, layers, (c0, L, B))
