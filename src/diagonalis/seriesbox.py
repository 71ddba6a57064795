"""Exact Taylor expansion of 1/p on a coefficient box.

The box holds the coefficients u_n of 1/p for n in [0..N]^d, computed a
layer (total degree t = |n|) at a time from the convolution recurrence
c_0 * u_n = [n = 0] - sum_{0 != m <= n} p_m * u_{n-m}, run on integers.
With L > 0 the smallest integer that makes every w_m = L^|m| * p_m / c_0
integral, v_n = c_0 * L^|n| * u_n satisfies v_0 = 1 and

    v_n = - sum_{0 != m <= n} w_m * v_{n-m};

over Q[lambda] the weights are packed as w(2^B) (Kronecker substitution),
and the balanced base-2^B digits of v_n(2^B) are the lambda-coefficients.

An index n is keyed by its code, n read as a base-(N+1) number, so the
predecessor n - m is one integer subtraction away.  Which predecessors
exist, and their code offsets, depend only on the shape of n: each
coordinate capped at the largest exponent K of p (the zero pattern for
p = sum c_k e_k).  A layer is enumerated as groups of codes of one shape;
each shape is compiled once per call into a stencil of (lag, offset,
weight) terms, and a group is swept once per term, all its codes at once.
`expand_layers` yields each layer t, the kernel's dict code -> v_n, once it
is finished, and holds only the deg(p) + 1 layers that layer t + 1 reads, so
a positivity scan can stop at the first layer with a hit;
`CoeffBox.layers[t]` keeps every layer.  The exact u_n, a `Fraction` or
`UniPoly`, is built only when an entry is read.

The denominator must be symmetric, so u_n depends only on the orbit of n:
a box stores the sorted representative of each index orbit, whose shape is
its gaps capped at K (at most 2^d stencils for K = 1), with orbit
multiplicities merged into the stencils.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from operator import sub
from typing import TextIO

from .exactalg import UniPoly
from .multipoly import Coeff, Exponent, MultiPoly, depends_on_lambda

DEFAULT_ENTRY_LIMIT = 10 ** 8

CACHE_MAGIC = "diagonalis-box v2"


class BoxTooLargeError(ValueError):
    """Raised when a requested box exceeds the entry limit."""


def _layer(d: int, N: int, t: int, cap: int) -> dict[int, list[int]]:
    """The non-decreasing indices n in [0..N]^d with |n| = t, as {shape: codes
    in ascending order}.  code reads n in base N+1; shape reads in base cap+1
    the gaps n_i - n_{i-1} (n_{-1} = 0) of n, each capped at `cap`."""
    if d == 1:
        return {min(t, cap): [t]} if t <= N else {}
    R, base = N + 1, cap + 1
    groups: dict[int, list[int]] = defaultdict(list)
    parts = [(0, 0, 0, t)]  # code, shape, last coordinate, rest of the first d-2
    for slots in range(d, 2, -1):
        grown = []
        for code, shape, prev, rest in parts:
            code, shape = code * R, shape * base
            for v in range(max(prev, rest - (slots - 1) * N), min(rest // slots, N) + 1):
                g = v - prev
                grown.append((code + v, shape + (g if g < cap else cap), v, rest - v))
        parts = grown
    # the last two coordinates (a, rest - a) have codes start + a * N; the run
    # of a with both gaps at the cap is one range (one loop over a: +4% wall)
    for code, shape, prev, rest in parts:
        lo = rest - N if rest - N > prev else prev
        hi, ihi = (rest // 2 if rest // 2 < N else N), (rest - cap) // 2
        ilo, ihi = prev + cap if prev + cap > lo else lo, ihi if ihi < hi else hi
        start, shape = code * R * R + rest, shape * base * base
        if ilo <= ihi:
            groups[shape + cap * base + cap].extend(
                range(start + ilo * N, start + ihi * N + 1, N))
            edges = [*range(lo, ilo), *range(ihi + 1, hi + 1)]
        else:
            edges = range(lo, hi + 1)
        for a in edges:
            g, gap = a - prev, rest - 2 * a
            groups[shape + (g if g < cap else cap) * base
                   + (gap if gap < cap else cap)].append(start + a * N)
    return groups


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

    def __init__(self, denom: MultiPoly, N: int, layers: list[dict[int, int]],
                 scale: tuple):
        self.denom = denom
        self.dim = denom.dim
        self.N = N
        self.layers = layers
        self.scale = scale
        self.ring = "Qlambda" if scale[2] else "Q"

    def value(self, n: Exponent) -> Coeff:
        """The exact coefficient v_n / (c_0 * L^|n|) at a stored index n."""
        return _exact(self.scale, sum(n), self.layers[sum(n)][_code(n, self.N)])

    @property
    def data(self) -> dict[Exponent, Coeff]:
        """Every stored (sorted) entry as an exact value, built on each read."""
        return {_index(code, self.dim, self.N): _exact(self.scale, t, v)
                for t, layer in enumerate(self.layers) for code, v in layer.items()}

    def coefficient_at(self, n) -> Coeff:
        n = tuple(n)
        if len(n) != self.dim or any(e < 0 or e > self.N for e in n):
            raise IndexError(f"index {n} outside box [0..{self.N}]^{self.dim}")
        return self.value(tuple(sorted(n)))


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


def _kernel_scale(p: MultiPoly, N: int) -> tuple:
    """(c_0, L, B, packed weights [(m, w_m(2^B))]) of the kernel for 1/p on
    [0..N]^d; B = 0 over Q.  Requires an invertible constant term."""
    c0 = p.constant_term()
    if isinstance(c0, UniPoly):
        if not c0.is_constant() or not c0:
            raise ValueError("not expandable at origin: constant term not invertible")
        c0 = c0.constant_value()
    elif not c0:
        raise ValueError("not expandable at origin: zero constant term")
    c0 = Fraction(c0)
    lam = any(map(depends_on_lambda, p.terms.values()))
    monomials = []  # (m, p_m / c_0 as lambda-coefficients; one over Q)
    for m, c in p.terms.items():
        if any(m):
            qs = c.coeffs if isinstance(c, UniPoly) else [c]
            monomials.append((m, [Fraction(q) / c0 for q in qs]))
    L = _smallest_scale((q.denominator, sum(m)) for m, qs in monomials for q in qs)
    weights = [(m, [int(q * L ** sum(m)) for q in qs]) for m, qs in monomials]
    # Over Q[lambda] each weight w is packed as w(2^B), a ring homomorphism
    # Z[lambda] -> Z, so the loop computes v_n(2^B).  With W the sum of |c|
    # over all weight coefficients, ||v_n||_1 <= W^|n| by induction (every
    # predecessor is at least one layer lower; merged weights only add terms
    # already counted), so 2^(B-1) > max(1, W^(dN)) lets `_unpack` decode v_n.
    W = sum(abs(c) for _, w in weights for c in w)
    B = max(1, W ** (p.dim * N)).bit_length() + 1 if lam else 0
    return c0, L, B, [(m, int(UniPoly(w)(1 << B))) for m, w in weights]


def expand_layers(p: MultiPoly, N: int, entry_limit: int):
    """Expand 1/p on [0..N]^d for a symmetric p with an invertible constant
    term: yield the scale (c_0, L, B), then (t, layers[t]) for t = 0..dN.
    Only the deg(p) + 1 layers t - deg(p) .. t that the kernel reads are
    held; an earlier one is dropped once it is yielded and no longer read."""
    if N < 0:
        raise ValueError("box bound must be >= 0")
    if not p.is_symmetric():
        raise ValueError("a box needs a symmetric denominator")
    if (N + 1) ** p.dim > entry_limit:
        raise BoxTooLargeError(
            f"box [0..{N}]^{p.dim} has {(N + 1) ** p.dim} entries, "
            f"limit {entry_limit}")
    c0, L, B, weights = _kernel_scale(p, N)
    yield c0, L, B
    d = p.dim
    K = max((max(m) for m, _ in weights), default=1)
    deg = max((sum(m) for m, _ in weights), default=0)  # deg(p)

    def compile_stencil(code: int) -> list:
        """Merged (layer lag, code offset, weight) triples for a shape."""
        n = _index(code, d, N)
        merged: dict = {}
        for m, w in weights:
            prev = tuple(map(sub, n, m))
            if min(prev) < 0:
                continue
            prev = tuple(sorted(prev))
            key = (sum(m), code - _code(prev, N))
            merged[key] = merged.get(key, 0) + w
        return [(k, off, w) for (k, off), w in merged.items() if w]

    stencils: dict[int, list] = {}
    layers: list = [{0: 1}]  # layers[t - k] for 1 <= k <= deg; None below them
    yield 0, layers[0]
    for t in range(1, d * N + 1):
        if t > deg:
            layers[t - deg - 1] = None
        current: dict[int, int] = {}
        for shape, codes in _layer(d, N, t, K).items():
            stencil = stencils.get(shape)
            if stencil is None:
                stencil = stencils[shape] = compile_stencil(codes[0])
            acc = [0] * len(codes)
            for k, off, w in stencil:
                prev = layers[t - k]
                acc = [a - w * prev[c - off] for a, c in zip(acc, codes)]
            current.update(zip(codes, acc))
        layers.append(current)
        yield t, current


def expand_reciprocal(p: MultiPoly, N: int,
                      entry_limit: int = DEFAULT_ENTRY_LIMIT) -> CoeffBox:
    """Expand 1/p on [0..N]^d for a symmetric p with an invertible constant
    term, keeping every layer."""
    layers = expand_layers(p, N, entry_limit)
    scale = next(layers)
    return CoeffBox(p, N, [layer for _, layer in layers], scale)


def _scan(layers, scale: tuple, d: int, N: int, strict: bool):
    """(index, coefficient) at the graded-lex-first flagged index of the
    layers (t, layers[t]), taken in order of t, or None; it reads no layer
    past the first with a hit."""
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


def first_nonpositive(box: CoeffBox, strict: bool = True):
    """(index, coefficient) at the graded-lex-first index of the full box
    whose coefficient is <= 0 (strict) or < 0, or None; over Q[lambda] (strict
    only), whose coefficient is not a nonzero polynomial with coefficients >= 0."""
    return _scan(enumerate(box.layers), box.scale, box.dim, box.N, strict)


def streamed_first_nonpositive(p: MultiPoly, N: int, strict: bool,
                               entry_limit: int = DEFAULT_ENTRY_LIMIT):
    """`first_nonpositive(expand_reciprocal(p, N, entry_limit), strict)`,
    expanding only up to the first layer with a hit and holding deg(p) + 1
    layers at a time."""
    layers = expand_layers(p, N, entry_limit)
    return _scan(layers, next(layers), p.dim, N, strict)


def save_cache(box: CoeffBox, fh: TextIO) -> None:
    """Write cache format v2: a header line, one `i,j,...:v_n` line per stored
    entry in graded-lex order with the kernel's integer v_n in hexadecimal,
    and a last line `crc32=` of every byte before it."""
    d, N = box.dim, box.N
    denom = json.dumps(box.denom.to_json(), separators=(",", ":"))
    index = _index_text(d, N)
    # hexadecimal: CPython refuses decimal conversion past 4300 digits (packed
    # StraubLambda entries pass it at N = 19); power-of-two bases convert in linear
    # time.  Within a layer, graded-lex order is descending code order.
    # sym=1: sorted orbit representatives only; at d = 1 every orbit is one index
    body = "".join([f"{CACHE_MAGIC}; d={d}; N={N}; sym={int(d > 1)}; "
                    f"L={box.scale[1]}; B={box.scale[2]}; denom={denom}\n"]
                   + [f"{index(c)}:{layer[c]:x}\n"
                      for layer in box.layers for c in sorted(layer, reverse=True)])
    # CRC-32, not SHA-256: `hashlib` maps OpenSSL (3.6 MiB resident), and an unkeyed
    # hash that anyone can recompute detects only accidental damage, as a CRC does
    fh.write(f"{body}crc32={zlib.crc32(body.encode()):08x}\n")


def load_cache(fh: TextIO) -> CoeffBox:
    """Read a cache file written by `save_cache`.

    Raises ValueError for a v1 file or a full box (sym=0 at d >= 2), both to
    be re-created, a missing crc32= trailer (truncated) or a body that does
    not match it; naming the header field, for a missing or malformed d, N,
    sym or denom (in d variables, symmetric, invertible at 0) and an L or B
    that is not the kernel's for denom and N; and, naming the line, for an
    entry count other than C(N+d, d), a malformed entry and an index other
    than the one the header fixes there: `save_cache` writes the kernel's
    enumeration of the box, layer by layer in graded-lex order."""
    text = fh.read()
    if text.startswith("diagonalis-box v1;"):
        raise ValueError("cache format v1 is no longer read; "
                         "re-create it with expand --cache")
    if not text.startswith(CACHE_MAGIC + "; "):
        raise ValueError("not a diagonalis box cache file")
    body, _, trailer = text.removesuffix("\n").rpartition("\n")
    if not trailer.startswith("crc32="):
        raise ValueError("cache has no crc32= trailer (truncated file)")
    if trailer != "crc32=%08x" % zlib.crc32(f"{body}\n".encode()):
        raise ValueError("cache body does not match its crc32= trailer (damaged file)")
    header, *lines = body.split("\n")
    fields = header[len(CACHE_MAGIC) + 2:].split("; ", 5)
    meta = dict(f.partition("=")[::2] for f in fields)

    def field(key: str, parse):
        try:
            return parse(meta[key])
        # any JSON shape may come, nested past the decoder's recursion limit too
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"cache header: missing or malformed {key}= "
                             f"({exc})") from None

    dim = field("d", int)
    N = field("N", int)
    sym = field("sym", {"0": 0, "1": 1}.__getitem__)
    denom = field("denom", lambda s: MultiPoly.from_json(json.loads(s)))
    if dim > 1 and not sym:
        raise ValueError("a full-box cache (sym=0) is no longer read; "
                         "re-create it with expand --cache")
    if N < 0:
        raise ValueError(f"cache header: negative N={N}")
    if denom.dim != dim:
        raise ValueError(f"cache header: denom has {denom.dim} variables, not d={dim}")
    if not denom.is_symmetric():
        raise ValueError("cache header: sym=1 but denom is not symmetric")
    expected = math.comb(N + dim, dim)
    if len(lines) != expected:  # before the loop: a forged huge N never enumerates
        raise ValueError(f"line {len(lines) + 1}: cache ends after {len(lines)} "
                         f"entries; expected {expected} for sym={sym}")
    # line by line, the indices `save_cache` writes: each layer's codes in
    # descending order (the cap only groups them)
    index, entries = _index_text(dim, N), iter(enumerate(lines, 2))
    layers: list[dict[int, int]] = [{} for _ in range(dim * N + 1)]
    for t, layer in enumerate(layers):
        codes = chain.from_iterable(_layer(dim, N, t, 1).values())
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
        c0, L, B, _ = _kernel_scale(denom, N)
    except ValueError as exc:
        raise ValueError(f"cache header: denom= {exc}") from None
    for key, want in (("L", L), ("B", B)):
        if meta.get(key) != str(want):
            raise ValueError(f"cache header: {key}={meta.get(key)} but denom and N "
                             f"give {key}={want}")
    return CoeffBox(denom, N, layers, (c0, L, B))
