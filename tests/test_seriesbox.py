import functools
import io
import itertools
import json
import math
import re
import tracemalloc
import zlib
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diagonalis import cli, exactalg, seriesbox
from diagonalis.cli import main
from diagonalis.exactalg import UniPoly
from diagonalis.family import named_instance
from diagonalis.multipoly import MultiPoly, symmetric_denominator
from diagonalis.seriesbox import (BoxTooLargeError, _kernel_scale, _smallest_scale,
                                  _unpack, expand_layers, expand_reciprocal,
                                  load_cache, save_cache, streamed_first_nonpositive)
from oracles import (brute_force_first_nonpositive, collected_cache_text,
                     scale_variables, substitute_zero)


def _streamed(p: MultiPoly, N: int, strict: bool = True):
    """The sign scan of the box of 1/p on [0..N]^d, streamed from the kernel
    as `expand --check-positive` runs it."""
    layers = expand_layers(p, N, 10 ** 8)
    return streamed_first_nonpositive(layers, next(layers), p.dim, N, strict)


def _cache_text(p: MultiPoly, N: int) -> str:
    """The cache file of the box of 1/p on [0..N]^d, streamed from the kernel
    as `expand --cache` writes it."""
    layers = expand_layers(p, N, 10 ** 8)
    buf = io.StringIO()
    save_cache(p, N, next(layers), layers, buf)
    return buf.getvalue()


def _resaved(p: MultiPoly, box) -> str:
    """The cache file of a collected or loaded box of 1/p."""
    buf = io.StringIO()
    save_cache(p, box.N, box.scale, enumerate(box.layers), buf)
    return buf.getvalue()


def geometric_oracle(p: MultiPoly, N: int) -> dict:
    """Independent expansion of 1/p: truncated geometric series in (1 - p/c0).

    Completely separate route from the layered convolution recurrence.
    Works over Q and over Q[lambda] (the constant term must be a number).
    """
    d = p.dim
    c0 = p.constant_term()
    if isinstance(c0, UniPoly):
        c0 = c0.constant_value()
    r = {}  # r = 1 - p/c0, no constant term
    for exp, c in p.terms.items():
        if any(exp):
            r[exp] = -c / c0
    total = {(0,) * d: F(1)}
    power = {(0,) * d: F(1)}
    for _ in range(d * N):
        nxt = {}
        for e1, a in power.items():
            for e2, b in r.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if all(x <= N for x in e):
                    nxt[e] = nxt.get(e, F(0)) + a * b
        power = nxt
        for e, a in power.items():
            total[e] = total.get(e, F(0)) + a
        if not power:
            break
    return {e: v / c0 for e, v in total.items()}


def test_geometric_two_var_binomials():
    p = MultiPoly(2, {(0, 0): F(1), (1, 0): F(-1), (0, 1): F(-1)})
    box = expand_reciprocal(p, 3)
    oracle = geometric_oracle(p, 3)
    for n in range(4):
        for m in range(4):
            assert box.coefficient_at((n, m)) == oracle[(n, m)] == math.comb(n + m, n)
    assert box.coefficient_at((2, 1)) == 3


def test_factored_denominator_all_ones():
    p = symmetric_denominator([1, -1, 1])  # (1-x)(1-y)
    box = expand_reciprocal(p, 5)
    assert all(box.coefficient_at(e) == 1
               for e in itertools.product(range(6), repeat=2))


def test_one_plus_x_plus_y():
    p = symmetric_denominator([1, 1, 0])
    box = expand_reciprocal(p, 2)
    assert box.coefficient_at((1, 0)) == -1
    assert box.coefficient_at((0, 0)) == 1


def test_zero_constant_term_rejected():
    p = MultiPoly(2, {(1, 0): F(1), (0, 1): F(1)})
    with pytest.raises(ValueError, match="not expandable at origin"):
        expand_reciprocal(p, 2)


def test_entry_limit_guard():
    p = symmetric_denominator([1, -1, 0, 4])
    with pytest.raises(BoxTooLargeError):
        expand_reciprocal(p, 100, entry_limit=1000)


def test_reconstruction_invariant():
    # p * (truncated series) == 1 inside the box, exactly
    for coeffs in ([1, -1, 0, 4], [1, -1, F(3, 4), 0], [2, -3, F(1, 2)]):
        p = symmetric_denominator(coeffs)
        N = 4
        box = expand_reciprocal(p, N)
        for n in itertools.product(range(N + 1), repeat=p.dim):
            acc = F(0)
            for m, pm in p.terms.items():
                prev = tuple(a - b for a, b in zip(n, m))
                if all(x >= 0 for x in prev):
                    acc += pm * box.coefficient_at(prev)
            assert acc == (1 if not any(n) else 0)


def test_restriction_consistency():
    p = symmetric_denominator([1, -1, F(1, 3), F(-2)])
    box = expand_reciprocal(p, 4)
    sub = expand_reciprocal(substitute_zero(p, 2), 4)
    for n in itertools.product(range(5), repeat=2):
        assert sub.coefficient_at(n) == box.coefficient_at(n + (0,))


def test_first_nonpositive_one_plus_x_plus_y():
    assert _streamed(symmetric_denominator([1, 1, 0]), 3) == ((1, 0), F(-1))


def test_first_nonpositive_positive_family():
    assert _streamed(symmetric_denominator([1, -1, 1]), 5) is None


def test_first_nonpositive_koornwinder_nonstrict():
    # brute-force control via the independent geometric oracle
    p = symmetric_denominator([1, -1, 0, 4, -16])
    N = 4
    assert _streamed(p, N, strict=False) is None
    oracle = geometric_oracle(p, N)
    assert all(v >= 0 for v in oracle.values())


def test_first_nonpositive_lambda_box_refuses_non_strict():
    lam = UniPoly.x()
    p = MultiPoly(1, {(0,): UniPoly.const(1), (1,): -lam})
    with pytest.raises(ValueError, match="no non-strict check"):
        _streamed(p, 3, strict=False)


def test_lambda_check_geometric():
    # 1/(1 - lambda x): coefficients lambda^n
    lam = UniPoly.x()
    p = MultiPoly(1, {(0,): UniPoly.const(1), (1,): -lam})
    assert _streamed(p, 3) is None
    assert expand_reciprocal(p, 3).coefficient_at((3,)) == lam ** 3


def test_lambda_entries_are_read_without_a_fraction_per_digit(monkeypatch):
    # 1/(-2 + w x) with w = 3 lambda^2 - lambda: coefficients -w^n / 2^(n+1)
    lam = UniPoly.x()
    w = 3 * lam ** 2 - lam
    box = expand_reciprocal(MultiPoly(1, {(0,): UniPoly.const(-2), (1,): w}), 4)
    made = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)
    monkeypatch.setattr(seriesbox, "Fraction", Counted)
    monkeypatch.setattr(exactalg, "Fraction", Counted)
    entry = box.coefficient_at((4,))
    assert not made
    assert entry == -(w ** 4) / 32


def test_lambda_check_flags_negative():
    # 1/(1 - (lambda - 1) x): coefficient of x is lambda - 1
    lam = UniPoly.x()
    p = MultiPoly(1, {(0,): UniPoly.const(1), (1,): -(lam - 1)})
    assert _streamed(p, 2) == ((1,), lam - 1)


def test_lambda_check_flags_graded_lex_first_of_full_box():
    # 1/(1 - (lambda - 1) e_1) at d = 3: every degree-1 entry is lambda - 1,
    # and (1,0,0) precedes (0,1,0) and the stored (0,0,1) in graded-lex order
    lam = UniPoly.x()
    p = symmetric_denominator([UniPoly.const(1), -(lam - 1), 0, 0])
    assert _streamed(p, 2) == ((1, 0, 0), lam - 1)


def _same_scan(p, N, strict=True):
    """The streamed check returns what the per-entry oracle reads off the
    collected box."""
    hit = _streamed(p, N, strict)
    assert hit == brute_force_first_nonpositive(expand_reciprocal(p, N), strict)
    return hit


_eighths = st.integers(-40, 40).map(lambda k: F(k, 8))


@settings(deadline=None, max_examples=30)
@given(_eighths, _eighths, st.booleans())
@example(F(1, 4), F(23, 8), True)  # flagged at (3,3,2) from N = 8 on
def test_streamed_check_matches_the_box_scan_on_hab(a, b, strict):
    _same_scan(named_instance("hab", a=a, b=b).denominator(), 8, strict)


@settings(deadline=None, max_examples=15)
@given(_eighths, st.booleans())
@example(F(-1, 8), True)  # positive
@example(F(9, 2), False)  # flagged at (4,1,1,1), in the last layer but one
def test_streamed_check_matches_the_box_scan_on_h0b(b, strict):
    _same_scan(named_instance("h0b", b=b).denominator(), 4, strict)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2).flatmap(
           lambda d: st.tuples(st.lists(_coeff, min_size=d, max_size=d),
                               _coeff.filter(bool))),
       st.integers(0, 9), st.booleans())
def test_streamed_check_matches_the_box_scan_on_coeffs(rest_c0, N, strict):
    rest, c0 = rest_c0
    _same_scan(symmetric_denominator([c0, *rest]), N, strict)


@pytest.mark.parametrize("N", [1, 4, 8, 12])
def test_streamed_check_matches_the_box_scan_on_straub_lambda(N):
    assert _same_scan(named_instance("StraubLambda").denominator(), N) is None


_lam_coeff = st.lists(st.integers(-2, 2), max_size=3).map(UniPoly)


@settings(deadline=None, max_examples=30)
@given(_lam_coeff, _lam_coeff, st.integers(0, 5))
def test_streamed_check_matches_the_box_scan_over_q_lambda(c1, c2, N):
    _same_scan(symmetric_denominator([UniPoly.const(1), c1, c2]), N)


def test_streamed_check_stops_at_the_first_flagged_layer(capsys, monkeypatch):
    # 1/(1 + x + y) is flagged at (1,0): layers 0 and 1 are drawn, no more
    drawn = []

    def counted(p, N, entry_limit):
        layers = expand(p, N, entry_limit)
        yield next(layers)
        for t, layer in layers:
            drawn.append(t)
            yield t, layer
    expand = seriesbox.expand_layers
    monkeypatch.setattr(cli, "expand_layers", counted)
    assert main(["expand", "--coeffs", "1,1,0", "--N", "3", "--check-positive"]) == 1
    assert "check: (1,0) -> -1\n" in capsys.readouterr().out
    assert drawn == [0, 1]


def test_expand_layers_yields_the_scale_then_each_layer():
    p = named_instance("AG3").denominator()
    layers = expand_layers(p, 4, 10 ** 8)
    box = expand_reciprocal(p, 4)
    assert next(layers) == box.scale
    assert list(layers) == list(enumerate(box.layers))


@pytest.mark.parametrize("p, N, limit", [
    (named_instance("AG3").denominator(), -1, 10 ** 8),
    (MultiPoly(2, {(0, 0): F(1), (1, 0): F(-1)}), 3, 10 ** 8),
    (named_instance("AG3").denominator(), 3, 63),
    (MultiPoly(1, {(1,): F(1)}), 3, 10 ** 8),
], ids=["negative-N", "not-symmetric", "entry-limit", "zero-constant"])
def test_expand_layers_refuses_before_the_scale(p, N, limit):
    # so a caller that reads only the scale gets every refusal a full expansion gets
    with pytest.raises(ValueError):
        next(expand_layers(p, N, limit))


def test_a_weight_past_4300_digits_expands():
    # each sweep binds its weights by name; formatting 10**5000 into the
    # sweep's source text would raise ValueError
    p = MultiPoly(1, {(0,): F(1), (1,): F(-10 ** 5000)})
    assert expand_reciprocal(p, 3).data == geometric_oracle(p, 3)


def _peak(run) -> tuple:
    """run() and the peak of the memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def _kzd26_box_peak() -> int:
    """The peak of collecting the box of KZ-D on [0..26]^4, all 105 layers."""
    return _peak(lambda: expand_reciprocal(named_instance("KZ-D").denominator(), 26))[1]


def test_streamed_check_holds_a_window_of_layers():
    # KZ-D has no nonpositive coefficient, so the scan expands every layer;
    # it holds deg(p) + 1 = 5 of the 105
    hit, streamed = _peak(lambda: _streamed(named_instance("KZ-D").denominator(), 26))
    assert hit is None
    assert 3 * streamed < _kzd26_box_peak()


def test_cache_write_holds_a_window_of_layers(tmp_path, capsys):
    # `expand --cache` writes each layer as it comes, so it holds a window of
    # layers, neither the box nor the text of the whole file
    argv = ["expand", "--family", "KZ-D", "--N", "26", "--cache", str(tmp_path / "k.box")]
    code, written = _peak(lambda: main(argv))
    assert code == 0 and capsys.readouterr().out.endswith(f"cache: {tmp_path}/k.box\n")
    assert 3 * written < _kzd26_box_peak()


def test_cache_roundtrip_rational():
    p = symmetric_denominator([1, -1, 0, 4])
    box = expand_reciprocal(p, 3)
    text = _cache_text(p, 3)
    loaded = load_cache(io.StringIO(text))
    assert loaded.N == box.N and loaded.dim == box.dim and loaded.ring == "Q"
    for n in itertools.product(range(4), repeat=3):
        assert loaded.coefficient_at(n) == box.coefficient_at(n)
    # bit-exact round trip
    assert _resaved(p, loaded) == text


def test_cache_roundtrip_lambda():
    lam = UniPoly.x()
    p = MultiPoly(1, {(0,): UniPoly.const(1), (1,): -lam})
    loaded = load_cache(io.StringIO(_cache_text(p, 4)))
    assert loaded.ring == "Qlambda"
    assert loaded.coefficient_at((4,)) == lam ** 4


def test_cache_rejects_other_files():
    with pytest.raises(ValueError):
        load_cache(io.StringIO("not a cache\n"))


# --- differential test: integer stencil kernel vs geometric series ---------

denominators = st.sampled_from([1, 1, 2, 3, 4, 9])
small_rationals = st.builds(F, st.integers(-4, 4), denominators)
nonzero_rationals = st.builds(F, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), denominators)
lambda_polys = st.lists(small_rationals, min_size=1, max_size=3).map(UniPoly)


@st.composite
def reciprocal_cases(draw):
    """(p, N) for small boxes of a symmetric p over Q or Q[lambda]."""
    d = draw(st.integers(1, 3))
    over_lambda = draw(st.booleans())
    coeff = st.one_of(small_rationals, lambda_polys) if over_lambda else small_rationals
    c0 = draw(nonzero_rationals)
    if draw(st.integers(0, 4)) == 0:  # constant p
        rest = [F(0)] * d
    else:
        rest = [draw(coeff) for _ in range(d)]
    p = symmetric_denominator([c0] + rest)
    reshape = draw(st.sampled_from(["none", "scale", "drop", "square"]))
    if reshape == "square":  # exponents up to 2: shapes are capped at 2
        p = p * p
    elif reshape == "scale":  # one factor for every variable keeps p symmetric
        p = scale_variables(p, [draw(nonzero_rationals)] * d)
    elif reshape == "drop" and d > 1:
        p = substitute_zero(p, draw(st.integers(0, d - 1)))
    return p, draw(st.integers(0, 4))


lam = UniPoly.x()


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases())
@example((symmetric_denominator([F(-2), F(1, 2), F(2, 9), F(-4, 3)]), 4))
@example((symmetric_denominator([F(3), F(0), F(0)]), 3))
@example((symmetric_denominator([1, -1, 0, F(1, 4)]), 4))
@example((symmetric_denominator([1, -1, F(1, 3), 2]) ** 2, 4))
@example((scale_variables(symmetric_denominator([1, -1, F(3, 4), 1]), [F(1, 3)] * 3), 3))
@example((substitute_zero(symmetric_denominator([1, -1, F(1, 3), -2]), 1), 4))
@example((symmetric_denominator([UniPoly([F(-1)]), -(lam + 1), lam * (lam + F(1, 2)),
                                 UniPoly([F(1, 4), 0, -1])]), 3))
@example((symmetric_denominator([1, -lam, lam * lam - 1]), 4))
@example((symmetric_denominator([F(1, 3), UniPoly([4, -3, 9]),
                                 UniPoly([F(-9, 2), 0, -4])]), 4))
def test_kernel_matches_geometric_oracle(case):
    p, N = case
    box = expand_reciprocal(p, N)
    # a constant UniPoly coefficient is a rational and leaves the box over Q
    lam_ring = any(isinstance(c, UniPoly) and c.degree > 0 for c in p.terms.values())
    assert box.ring == ("Qlambda" if lam_ring else "Q")
    assert all(isinstance(v, UniPoly if lam_ring else F) for v in box.data.values())
    oracle = geometric_oracle(p, N)
    for n in itertools.product(range(N + 1), repeat=p.dim):
        assert box.coefficient_at(n) == oracle.get(n, 0), n


@settings(deadline=None, max_examples=60)
@given(reciprocal_cases(), st.booleans())
@example((MultiPoly(1, {(0,): UniPoly.const(1), (1,): -(lam - 1)}), 3), True)
@example((symmetric_denominator([1, -(lam + 1), lam * (lam + 2),  # StraubLambda
                                 UniPoly([4, 0, -3, -1])]), 4), True)
@example((symmetric_denominator([-1, lam + 1, 0, lam]), 2), True)
@example((symmetric_denominator([-1, 1, 0, -4]), 3), False)
@example((symmetric_denominator([1, -1, 0, 4, -16]), 3), False)
@example((symmetric_denominator([1, -1, 0, 4, -16]), 3), True)
@example((symmetric_denominator([1, 1, 0]), 3), True)
def test_first_nonpositive_matches_brute_force(case, strict):
    p, N = case
    box = expand_reciprocal(p, N)
    strict = strict or box.ring == "Qlambda"  # a lambda box has no other check
    assert _streamed(p, N, strict) == brute_force_first_nonpositive(box, strict)


@st.composite
def packable(draw):
    """(B, integer coefficients of absolute value < 2^(B-1))."""
    B = draw(st.integers(2, 80))
    bound = 2 ** (B - 1) - 1
    return B, draw(st.lists(st.one_of(st.just(0), st.just(bound), st.just(-bound),
                                      st.integers(-bound, bound)), max_size=8))


@given(packable())
@example((2, []))
@example((2, [0, 0, 0]))
@example((3, [-3, 0, 3, -3, 0]))
def test_pack_unpack_roundtrip(case):
    B, coeffs = case
    trimmed = list(coeffs)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert _unpack(int(UniPoly(coeffs)(2 ** B)), B) == trimmed


def test_constant_lambda_denominator():
    # a constant UniPoly is a rational, so the box is over Q
    box = expand_reciprocal(MultiPoly.constant(2, UniPoly.const(3)), 2)
    assert box.ring == "Q"
    assert box.data[(0, 0)] == F(1, 3) and isinstance(box.data[(0, 0)], F)
    for n in itertools.product(range(3), repeat=2):
        if any(n):
            assert box.coefficient_at(n) == 0


def test_smallest_scale():
    assert _smallest_scale([(27, 3), (1, 1)]) == 3  # Kauers: 64/27 on e_3
    assert _smallest_scale([(27, 1)]) == 27
    assert _smallest_scale([(12, 2)]) == 6
    assert _smallest_scale([(8, 2), (4, 3)]) == 4
    assert _smallest_scale([(72, 2)]) == 12
    assert _smallest_scale([(12, 2), (9, 1)]) == 18
    assert _smallest_scale([(4, 2), (9, 1)]) == 18
    assert _smallest_scale([]) == 1
    big = 10007 ** 2  # prime cofactor above the trial-division range
    assert _smallest_scale([(big, 2)]) ** 2 % big == 0


# --- damaged cache files ------------------------------------------------------

def _kzd3_cache_lines():
    """The header and entry lines of a KZ-D N=3 cache, without its trailer."""
    return _cache_text(symmetric_denominator([1, -1, 0, 2, 4]), 3).splitlines(
        keepends=True)[:-1]


def _resealed(lines):
    """The cache file of these lines under a fresh crc32= trailer, so that a
    damaged body passes the hash check and reaches the structural checks."""
    body = "".join(lines)
    return io.StringIO(f"{body}crc32={zlib.crc32(body.encode()):08x}\n")


def test_cache_rejects_truncated_file():
    lines = _kzd3_cache_lines()
    assert len(lines) == 1 + 35
    with pytest.raises(ValueError, match=r"no crc32= trailer \(truncated file\)"):
        load_cache(io.StringIO("".join(lines[:30])))


def test_cache_rejects_wrong_entry_count():
    with pytest.raises(ValueError, match=r"line 30: cache ends after 29 entries; "
                                         r"expected 35 for sym=1"):
        load_cache(_resealed(_kzd3_cache_lines()[:30]))


def test_cache_refuses_a_forged_huge_N_before_enumerating(monkeypatch):
    lines = _kzd3_cache_lines()
    lines[0] = lines[0].replace("; N=3; ", f"; N={10 ** 6}; ")

    def no_layers(*args):
        raise AssertionError("a layer was enumerated")
    monkeypatch.setattr(seriesbox, "_shape_groups", no_layers)
    with pytest.raises(ValueError, match=rf"^line 36: cache ends after 35 entries; "
                                         rf"expected {math.comb(10 ** 6 + 4, 4)} for sym=1$"):
        load_cache(_resealed(lines))


def test_cache_rejects_changed_digit_under_old_trailer():
    text = _cache_text(symmetric_denominator([1, -1, 0, 2, 4]), 3)
    assert "\n3,3,3,3:220\ncrc32=" in text
    damaged = text.replace("\n3,3,3,3:220\n", "\n3,3,3,3:221\n")
    with pytest.raises(ValueError, match=r"does not match its crc32= trailer"):
        load_cache(io.StringIO(damaged))


def test_cache_refuses_format_v1():
    v1 = ('diagonalis-box v1; d=1; N=1; ring=Q; denom={"dim":1,"terms":'
          '[{"exp":[0],"coeff":"1"},{"exp":[1],"coeff":"-1"}]}\n0:1\n1:1\n')
    with pytest.raises(ValueError, match=r"^cache format v1 is no longer read; "
                                         r"re-create it with expand --cache$"):
        load_cache(io.StringIO(v1))


def test_cache_rejects_duplicate_index():
    lines = _kzd3_cache_lines()
    lines[5] = lines[4].split(":")[0] + ":" + lines[5].split(":", 1)[1]
    with pytest.raises(ValueError, match=r"line 6: found index '0,0,0,2', expected 0,1,1,1$"):
        load_cache(_resealed(lines))


@pytest.mark.parametrize("index", ["0,0,0,4", "0,0,1", "-1,0,0,2"])
def test_cache_rejects_index_outside_box(index):
    lines = _kzd3_cache_lines()
    lines[7] = index + ":" + lines[7].split(":", 1)[1]
    with pytest.raises(ValueError, match=rf"line 8: found index '{index}', expected 0,0,0,3$"):
        load_cache(_resealed(lines))


def test_cache_rejects_unsorted_index_in_symmetric_file():
    lines = _kzd3_cache_lines()
    assert lines[2].startswith("0,0,0,1:")
    lines[2] = "1,0,0,0:" + lines[2].split(":", 1)[1]
    with pytest.raises(ValueError, match=r"line 3: found index '1,0,0,0', expected 0,0,0,1$"):
        load_cache(_resealed(lines))


def test_cache_rejects_entries_out_of_order():
    # the two layer-2 entries swapped: each index is in the box, sorted and
    # distinct, but not on the line where the kernel's enumeration puts it
    lines = _kzd3_cache_lines()
    assert [line.split(":")[0] for line in lines[3:5]] == ["0,0,1,1", "0,0,0,2"]
    lines[3], lines[4] = lines[4], lines[3]
    with pytest.raises(ValueError, match=r"line 4: found index '0,0,0,2', expected 0,0,1,1$"):
        load_cache(_resealed(lines))


def test_cache_rejects_malformed_line():
    lines = _kzd3_cache_lines()
    lines[3] = "0,0,1,1=c\n"
    with pytest.raises(ValueError, match=r"line 4: malformed entry"):
        load_cache(_resealed(lines))


@pytest.mark.parametrize("key,lam_box", [("L", False), ("B", False), ("B", True)])
def test_cache_rejects_scale_that_disagrees_with_denom(key, lam_box):
    p = (MultiPoly(1, {(0,): UniPoly.const(1), (1,): -lam}) if lam_box
         else symmetric_denominator([1, -1, 0, 2, 4]))
    lines = _cache_text(p, 3).splitlines(keepends=True)[:-1]
    lines[0] = re.sub(rf"; {key}=\d+;", f"; {key}=7;", lines[0])
    with pytest.raises(ValueError, match=rf"cache header: {key}=7 but denom and N give"):
        load_cache(_resealed(lines))


def test_cache_rejects_symmetric_flag_on_nonsymmetric_denom():
    # the KZ-D header with 1 - x_1 - 2 x_2 - x_3 - x_4 as its denom
    p = MultiPoly(4, {(0, 0, 0, 0): F(1), (1, 0, 0, 0): F(-1), (0, 1, 0, 0): F(-2),
                      (0, 0, 1, 0): F(-1), (0, 0, 0, 1): F(-1)})
    lines = _kzd3_cache_lines()
    head, _, _ = lines[0].partition("; denom=")
    lines[0] = f"{head}; denom={json.dumps(p.to_json(), separators=(',', ':'))}\n"
    with pytest.raises(ValueError, match=r"sym=1 but denom is not symmetric"):
        load_cache(_resealed(lines))


def test_symmetric_box_needs_symmetric_denominator():
    # 1/(1 - x - 2y): u_(1,0) = 1, but a sorted-representative box would
    # store u_(0,1) = 2 for it
    p = MultiPoly(2, {(0, 0): F(1), (1, 0): F(-1), (0, 1): F(-2)})
    with pytest.raises(ValueError, match="^a box needs a symmetric denominator$"):
        expand_reciprocal(p, 3)


def test_cache_refuses_a_full_box():
    # only the library could write sym=0 at d >= 2: a box of every index
    lines = _kzd3_cache_lines()
    lines[0] = lines[0].replace("; sym=1; ", "; sym=0; ")
    with pytest.raises(ValueError, match=r"^a full-box cache \(sym=0\) is no longer read; "
                                         r"re-create it with expand --cache$"):
        load_cache(_resealed(lines))


# cache files as written before a box had one layout, byte for byte: sym=1 at
# d >= 2 and sym=0 at d = 1, where every orbit is one index
_KZD3_FILE = (
    'diagonalis-box v2; d=4; N=3; sym=1; L=1; B=0; denom={"dim":4,"terms":['
    '{"exp":[0,0,0,0],"coeff":"1"},{"exp":[1,0,0,0],"coeff":"-1"},'
    '{"exp":[0,1,0,0],"coeff":"-1"},{"exp":[0,0,1,0],"coeff":"-1"},'
    '{"exp":[0,0,0,1],"coeff":"-1"},{"exp":[1,1,1,0],"coeff":"2"},'
    '{"exp":[1,1,0,1],"coeff":"2"},{"exp":[1,0,1,1],"coeff":"2"},'
    '{"exp":[0,1,1,1],"coeff":"2"},{"exp":[1,1,1,1],"coeff":"4"}]}\n'
    + "".join(f"{line}\n" for line in """
        0,0,0,0:1 0,0,0,1:1 0,0,1,1:2 0,0,0,2:1 0,1,1,1:4 0,0,1,2:3 0,0,0,3:1
        1,1,1,1:4 0,1,1,2:8 0,0,2,2:6 0,0,1,3:4 1,1,1,2:a 0,1,2,2:12 0,1,1,3:e
        0,0,2,3:a 1,1,2,2:14 1,1,1,3:1c 0,2,2,2:2e 0,1,2,3:24 0,0,3,3:14
        1,2,2,2:22 1,1,2,3:38 0,2,2,3:66 0,1,3,3:50 2,2,2,2:28 1,2,2,3:60
        1,1,3,3:88 0,2,3,3:f8 2,2,2,3:70 1,2,3,3:e4 0,3,3,3:28c 2,2,3,3:f0
        1,3,3,3:1d8 2,3,3,3:190 3,3,3,3:220 crc32=2cf71c74""".split()))
_D1_FILE = ('diagonalis-box v2; d=1; N=5; sym=0; L=2; B=0; denom={"dim":1,"terms":['
            '{"exp":[0],"coeff":"2"},{"exp":[1],"coeff":"-3"}]}\n'
            '0:1\n1:3\n2:9\n3:1b\n4:51\n5:f3\ncrc32=7fe8b043\n')


@pytest.mark.parametrize("text, coeffs, N", [
    (_KZD3_FILE, [1, -1, 0, 2, 4], 3),
    (_D1_FILE, [2, -3], 5),
], ids=["KZ-D", "d1"])
def test_cache_files_of_the_two_layouts_still_load(text, coeffs, N):
    box = load_cache(io.StringIO(text))
    p = symmetric_denominator(coeffs)
    assert box.layers == expand_reciprocal(p, N).layers
    assert _resaved(p, box) == text


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases())
@example((symmetric_denominator([F(-2), F(1, 2), F(2, 9), F(-4, 3)]), 4))
@example((MultiPoly.constant(2, -4), 0))  # one entry, in layer 0
@example((symmetric_denominator([F(1, 3), UniPoly([4, -3, 9]),
                                 UniPoly([F(-9, 2), 0, -4])]), 4))
def test_cache_roundtrip_keeps_the_kernel_integers(case):
    p, N = case
    box = expand_reciprocal(p, N)
    text = _cache_text(p, N)
    loaded = load_cache(io.StringIO(text))
    assert (loaded.layers, loaded.scale) == (box.layers, box.scale)
    assert _resaved(p, loaded) == text


# --- differential test: layer kernel vs the per-entry kernel -----------------

def _entry_layer(d: int, N: int, t: int, symmetric: bool, cap: int) -> list:
    """(n, code, shape) for every index n in [0..N]^d of total degree t, in
    lexicographic order; only the non-decreasing n when `symmetric`.  code
    is n read in base N+1; shape caps at `cap` each coordinate of n, or in
    symmetric mode each gap n_i - n_{i-1} (n_{-1} = 0)."""
    parts = [((), 0, (), 0, t)]  # prefix, code, shape, last coordinate, rest
    for slots in range(d, 1, -1):
        grown = []
        for prefix, code, shape, prev, rest in parts:
            lo = prev if symmetric else 0
            hi = min(rest // slots if symmetric else rest, N)
            for v in range(max(lo, rest - (slots - 1) * N), hi + 1):
                grown.append((prefix + (v,), code * (N + 1) + v,
                              shape + (min(v - lo, cap),), v, rest - v))
        parts = grown
    return [(prefix + (rest,), code * (N + 1) + rest,
             shape + (min(rest - (prev if symmetric else 0), cap),))
            for prefix, code, shape, prev, rest in parts if rest <= N]


def per_entry_data(p: MultiPoly, N: int, symmetric: bool) -> dict:
    """The exact box of 1/p by the per-entry kernel: one index tuple, one
    shape tuple and one stencil sum per entry, every v_n keyed by n."""
    c0, L, B, weights = _kernel_scale(p, N)
    d = p.dim
    K = max((max(m) for m, _ in weights), default=1)
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
        for n, code, shape in _entry_layer(d, N, t, symmetric, K):
            if shape not in stencils:
                stencils[shape] = compile_stencil(n, code)
            acc = 0
            for k, off, w in stencils[shape]:
                acc -= w * recent[k - 1][code - off]
            current[code] = ints[n] = acc
        recent.insert(0, current)
        del recent[deg:]

    def exact(n, v):
        den = c0.numerator * L ** sum(n)
        if B:
            return UniPoly([F(c * c0.denominator, den) for c in _unpack(v, B)])
        return F(v * c0.denominator, den)
    return {n: exact(n, v) for n, v in ints.items()}


def _power_sum_denominator(b, a):
    """1 - e_1 + b (x^2 + y^2 + z^2) + a e_2: u_(2,0,0) = 1 - b and
    u_(1,1,0) = 2 - a, so layer 2 is the first flagged one when either
    is <= 0."""
    terms = {(0, 0, 0): F(1)}
    for i in range(3):
        terms[tuple(int(j == i) for j in range(3))] = F(-1)
        terms[tuple(2 * int(j == i) for j in range(3))] = F(b)
        terms[tuple(int(j != i) for j in range(3))] = F(a)
    return MultiPoly(3, terms)


@pytest.mark.parametrize("p, N", [
    (named_instance("Kauers").denominator(), 12),
    (named_instance("hab", a=F(1, 4), b=F(23, 8)).denominator(), 30),
    (named_instance("hab", a=F(0), b=F(-3, 8)).denominator(), 30),
    (named_instance("GRZ", d=5).denominator(), 8),
    (named_instance("StraubLambda").denominator(), 16),
    # every variable has exponent 2, so that every gap of a shape reaches 2
    (_power_sum_denominator(F(1, 2), F(-1, 3)), 7),
], ids=["Kauers-sym", "hab-1/4-23/8", "hab-0--3/8", "GRZ5", "StraubLambda",
        "power-sum"])
def test_layer_kernel_matches_per_entry_kernel(p, N):
    assert expand_reciprocal(p, N).data == per_entry_data(p, N, True)


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases())
@example((symmetric_denominator([1, -1, F(1, 3), 2]) ** 2, 4))
@example((symmetric_denominator([1, -lam, lam * lam - 1]), 4))
# x^2 and yz reach one predecessor with weights 1 and -1: 12 merged terms cancel
@example((_power_sum_denominator(1, -1), 4))
# x, y and xy reach distinct predecessors with one weight: one product
@example((symmetric_denominator([1, -1, -1]), 4))
def test_layer_kernel_matches_per_entry_kernel_on_random_denominators(case):
    p, N = case
    assert expand_reciprocal(p, N).data == per_entry_data(p, N, True)


@pytest.mark.parametrize("d", range(1, 6))
def test_shape_groups_match_the_per_entry_enumeration(d):
    # each layer derived from the earlier ones against the entries of that
    # layer enumerated one by one, grouped by shape, as sets
    for N, cap in itertools.product(range(9), range(1, 4)):
        layers = list(seriesbox._shape_groups(d, N, cap))
        assert len(layers) == d * N + 1
        for t, groups in enumerate(layers):
            want: dict = {}
            for _, code, shape in _entry_layer(d, N, t, True, cap):
                want.setdefault(functools.reduce(lambda s, g: s * (cap + 1) + g, shape),
                                set()).add(code)
            assert all(len(set(codes)) == len(codes) for codes in groups.values())
            assert {shape: set(codes) for shape, codes in groups.items()} == want


def test_symmetric_mode_matches_full():
    # the sorted representatives against the per-entry kernel on every index
    p = symmetric_denominator([1, -1, 0, 2, 4])
    full = per_entry_data(p, 3, False)
    assert len(full) == 4 ** 4
    box = expand_reciprocal(p, 3)
    assert all(box.coefficient_at(n) == v for n, v in full.items())


# --- pinned scan and cache behaviour ------------------------------------------

@pytest.mark.parametrize("b, a, want", [
    (2, 3, (2, 0, 0)),  # both orbits flagged: (2,0,0) precedes (1,1,0)
    (0, 3, (1, 1, 0)),
    (2, 0, (2, 0, 0)),
])
@pytest.mark.parametrize("reloaded", [True, False])
def test_scan_breaks_ties_within_the_first_flagged_layer(b, a, want, reloaded):
    p = _power_sum_denominator(b, a)
    box = expand_reciprocal(p, 3)
    if reloaded:  # read back from its cache, whose layers hold the codes in another order
        box = load_cache(io.StringIO(_cache_text(p, 3)))
    flagged = {tuple(sorted(n)) for n in itertools.product(range(4), repeat=3)
               if sum(n) == 2 and box.coefficient_at(n) <= 0}
    assert len(flagged) == 1 + (b == 2 and a == 3)
    for strict in (True, False):
        hit = streamed_first_nonpositive(enumerate(box.layers), box.scale, 3, 3, strict)
        assert hit == brute_force_first_nonpositive(box, strict)
        assert hit[0] == want


_CACHED = [named_instance("KZ-D").denominator(), named_instance("Kauers").denominator(),
           named_instance("StraubLambda").denominator(),
           named_instance("hab", a=F(1, 4), b=F(23, 8)).denominator()]
_CACHED_IDS = ["KZ-D", "Kauers", "StraubLambda", "hab-failing"]


@pytest.mark.parametrize("p, N, crc", [
    (_CACHED[0], 8, "82e6476a"),
    (_CACHED[1], 6, "e9ef6463"),
    (_CACHED[2], 6, "3c0ce671"),
    (_CACHED[3], 12, "fbb156c8"),
], ids=_CACHED_IDS)
def test_cache_bytes_are_pinned(p, N, crc):
    assert _cache_text(p, N).endswith(f"\ncrc32={crc}\n")


@pytest.mark.parametrize("p", _CACHED, ids=_CACHED_IDS)
def test_streamed_cache_matches_the_collected_writer(p):
    # hab-failing is flagged at (3,3,2) from N = 8 on
    for N in (0, 1, 3, 8):
        assert _cache_text(p, N) == collected_cache_text(p, expand_reciprocal(p, N))
