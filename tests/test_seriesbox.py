import functools
import io
import itertools
import json
import math
import os
import re
import tracemalloc
import zlib
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diagonalis import cli, exactalg, seriesbox
from diagonalis.cli import main
from diagonalis.exactalg import UniPoly
from diagonalis.family import named_instance
from diagonalis.multipoly import _coerce_coeff, depends_on_lambda
from diagonalis.seriesbox import (BoxTooLargeError, _kernel_scale, _smallest_scale,
                                  _unpack, expand_layers, expand_reciprocal,
                                  extract_diagonal, load_cache, save_cache,
                                  streamed_first_nonpositive, tap_diagonal)
from oracles import (box_stream, brute_force_first_nonpositive, collect, collected_cache_text,
                     entry_at, entry_layer, geometric_oracle, per_entry_data, per_entry_kernel,
                     scale_variables, substitute_zero, symmetric_denominator)


def vec(*cs) -> tuple:
    """The coefficient vector c_0, ..., c_d of 1/sum c_k e_k, as a family holds it."""
    return tuple(map(_coerce_coeff, cs))


def _streamed(c, N: int, strict: bool = True):
    """The sign scan of the box of 1/p on [0..N]^d, streamed from the kernel
    as `expand --check-positive` runs it."""
    layers = expand_layers(c, N, 10 ** 8)
    return streamed_first_nonpositive(layers, next(layers), len(c) - 1, N, strict)


def _tapped(c, N: int) -> tuple:
    """(scale, the kernel's integers v_(n,...,n)) of the box of 1/p on
    [0..N]^d, tapped from the kernel's layer stream as `expand --cache`
    takes them."""
    layers = expand_layers(c, N, 10 ** 8)
    scale, diagonal = next(layers), []
    for _ in tap_diagonal(layers, len(c) - 1, N, diagonal):
        pass
    return scale, diagonal


def _cache_text(c, N: int) -> str:
    """The cache file of the diagonal of 1/p on [0..N]^d, tapped from the
    kernel's layer stream as `expand --cache` takes it."""
    buf = io.StringIO()
    save_cache(c, N, *_tapped(c, N), buf)
    return buf.getvalue()


def _loaded(fh) -> tuple:
    """(d, the diagonal's values) of a cache file: a list has one length,
    where two series are equal up to the lower order."""
    d, diagonal = load_cache(fh)
    return d, diagonal.coeffs


def _resaved(c, diagonal) -> str:
    """The cache file of a loaded diagonal of 1/p, its kernel integers
    v_n = c_0 * L^(dn) * u_n taken back from the series."""
    d, N = len(c) - 1, diagonal.order
    c0, L, B, _ = _kernel_scale(c)
    vs = [u * c0 * L ** (d * n) for n, u in enumerate(diagonal.coeffs)]
    assert B == 0 and all(v.denominator == 1 for v in vs)
    buf = io.StringIO()
    save_cache(c, N, (c0, L, B), [int(v) for v in vs], buf)
    return buf.getvalue()


def test_geometric_two_var_binomials():
    c = vec(1, -1, 0)
    box = collect(c, 3)
    oracle = geometric_oracle(c, 3)
    for n in range(4):
        for m in range(4):
            assert entry_at(box, (n, m)) == oracle[(n, m)] == math.comb(n + m, n)
    assert entry_at(box, (2, 1)) == 3


def test_factored_denominator_all_ones():
    box = collect(vec(1, -1, 1), 5)  # (1-x)(1-y)
    assert all(entry_at(box, e) == 1
               for e in itertools.product(range(6), repeat=2))


def test_one_plus_x_plus_y():
    box = collect(vec(1, 1, 0), 2)
    assert entry_at(box, (1, 0)) == -1
    assert entry_at(box, (0, 0)) == 1


def test_zero_constant_term_rejected():
    with pytest.raises(ValueError, match="not expandable at origin"):
        expand_reciprocal(vec(0, 1, 0), 2)  # x + y


def test_entry_limit_guard():
    with pytest.raises(BoxTooLargeError):
        expand_reciprocal(vec(1, -1, 0, 4), 100, entry_limit=1000)


def test_reconstruction_invariant():
    # p * (truncated series) == 1 inside the box, exactly
    for coeffs in ([1, -1, 0, 4], [1, -1, F(3, 4), 0], [2, -3, F(1, 2)]):
        N = 4
        box = collect(vec(*coeffs), N)
        for n in itertools.product(range(N + 1), repeat=len(coeffs) - 1):
            acc = F(0)
            for m, pm in symmetric_denominator(coeffs).items():
                prev = tuple(a - b for a, b in zip(n, m))
                if all(x >= 0 for x in prev):
                    acc += pm * entry_at(box, prev)
            assert acc == (1 if not any(n) else 0)


def test_restriction_consistency():
    c = vec(1, -1, F(1, 3), F(-2))
    box = collect(c, 4)
    sub = collect(substitute_zero(c), 4)
    for n in itertools.product(range(5), repeat=2):
        assert entry_at(sub, n) == entry_at(box, n + (0,))


def test_first_nonpositive_one_plus_x_plus_y():
    assert _streamed(vec(1, 1, 0), 3) == ((1, 0), F(-1))


def test_first_nonpositive_positive_family():
    assert _streamed(vec(1, -1, 1), 5) is None


def test_first_nonpositive_koornwinder_nonstrict():
    # brute-force control via the independent geometric oracle
    c = vec(1, -1, 0, 4, -16)
    N = 4
    assert _streamed(c, N, strict=False) is None
    oracle = geometric_oracle(c, N)
    assert all(v >= 0 for v in oracle.values())


def test_first_nonpositive_lambda_box_refuses_non_strict():
    with pytest.raises(ValueError, match="no non-strict check"):
        _streamed(vec(1, -UniPoly.x()), 3, strict=False)
    # also where c_0 < 0 would flag the origin without reading a layer
    c = vec(-1, UniPoly([1, 1]), 0, UniPoly.x())
    with pytest.raises(ValueError, match="no non-strict check"):
        streamed_first_nonpositive(_no_layers(), _kernel_scale(c)[:3], 3, 3, False)


def test_lambda_check_geometric():
    # 1/(1 - lambda x): coefficients lambda^n
    lam = UniPoly.x()
    c = vec(1, -lam)
    assert _streamed(c, 3) is None
    assert entry_at(collect(c, 3), (3,)) == lam ** 3


def test_lambda_entries_are_read_without_a_fraction_per_digit(monkeypatch):
    # 1/(-2 + w x) with w = 3 lambda^2 - lambda: coefficients -w^n / 2^(n+1)
    lam = UniPoly.x()
    w = 3 * lam ** 2 - lam
    box = collect(vec(-2, w), 4)
    made = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)
    monkeypatch.setattr(seriesbox, "Fraction", Counted)
    monkeypatch.setattr(exactalg, "Fraction", Counted)
    entry = entry_at(box, (4,))
    assert not made
    assert entry == -(w ** 4) / 32


def test_lambda_check_flags_negative():
    # 1/(1 - (lambda - 1) x): coefficient of x is lambda - 1
    lam = UniPoly.x()
    assert _streamed(vec(1, -(lam - 1)), 2) == ((1,), lam - 1)


def test_lambda_check_flags_graded_lex_first_of_full_box():
    # 1/(1 - (lambda - 1) e_1) at d = 3: every degree-1 entry is lambda - 1,
    # and (1,0,0) precedes (0,1,0) and the stored (0,0,1) in graded-lex order
    lam = UniPoly.x()
    assert _streamed(vec(1, -(lam - 1), 0, 0), 2) == ((1, 0, 0), lam - 1)


def _same_scan(c, N, strict=True):
    """The streamed check returns what the per-entry oracle reads off the
    collected box."""
    hit = _streamed(c, N, strict)
    assert hit == brute_force_first_nonpositive(collect(c, N), strict)
    return hit


_eighths = st.integers(-40, 40).map(lambda k: F(k, 8))


@settings(deadline=None, max_examples=30)
@given(_eighths, _eighths, st.booleans())
@example(F(1, 4), F(23, 8), True)  # flagged at (3,3,2) from N = 8 on
def test_streamed_check_matches_the_box_scan_on_hab(a, b, strict):
    _same_scan(named_instance("hab", a=a, b=b).coeffs, 8, strict)


@settings(deadline=None, max_examples=15)
@given(_eighths, st.booleans())
@example(F(-1, 8), True)  # positive
@example(F(9, 2), False)  # flagged at (4,1,1,1), in the last layer but one
def test_streamed_check_matches_the_box_scan_on_h0b(b, strict):
    _same_scan(named_instance("h0b", b=b).coeffs, 4, strict)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2).flatmap(
           lambda d: st.tuples(st.lists(_coeff, min_size=d, max_size=d),
                               _coeff.filter(bool))),
       st.integers(0, 9), st.booleans())
# c_0 < 0, where the scan reads no layer: u_0 = 1/c_0 < 0 is the first hit,
# strict or not
@example(([F(1)], F(-1)), 3, True)
@example(([F(-1), F(2)], F(-2)), 4, False)
def test_streamed_check_matches_the_box_scan_on_coeffs(rest_c0, N, strict):
    rest, c0 = rest_c0
    _same_scan(vec(c0, *rest), N, strict)


def _no_layers():
    raise AssertionError("a layer was drawn")
    yield  # a generator, that raises when it is drawn from


@pytest.mark.parametrize("c, strict", [
    (vec(-2, 1, F(1, 3), F(5, 7)), True),
    (vec(-2, 1, F(1, 3), F(5, 7)), False),
    (vec(F(-1, 3), 5), True),
    (vec(-1, UniPoly([1, 1]), 0, UniPoly.x()), True),  # over Q[lambda]
], ids=["strict", "non-strict", "d1", "lambda"])
def test_negative_constant_term_flags_the_origin_before_any_layer(c, strict):
    d, N = len(c) - 1, 3
    hit = streamed_first_nonpositive(_no_layers(), _kernel_scale(c)[:3], d, N, strict)
    assert hit == brute_force_first_nonpositive(collect(c, N), strict)
    assert hit[0] == (0,) * d


@pytest.mark.parametrize("N", [1, 4, 8, 12])
def test_streamed_check_matches_the_box_scan_on_straub_lambda(N):
    assert _same_scan(named_instance("StraubLambda").coeffs, N) is None


_lam_coeff = st.lists(st.integers(-2, 2), max_size=3).map(UniPoly)


@settings(deadline=None, max_examples=30)
@given(_lam_coeff, _lam_coeff, st.integers(0, 5))
def test_streamed_check_matches_the_box_scan_over_q_lambda(c1, c2, N):
    _same_scan(vec(1, c1, c2), N)


def test_streamed_check_stops_at_the_first_flagged_layer(capsys, monkeypatch):
    # 1/(1 + x + y) is flagged at (1,0): layers 0 and 1 are drawn, no more
    drawn = []

    def counted(c, N, entry_limit):
        layers = expand(c, N, entry_limit)
        yield next(layers)
        for t, layer, B in layers:
            drawn.append(t)
            yield t, layer, B
    expand = seriesbox.expand_layers
    monkeypatch.setattr(cli, "expand_layers", counted)
    assert main(["expand", "--coeffs", "1,1,0", "--N", "3", "--check-positive"]) == 1
    assert "check: (1,0) -> -1\n" in capsys.readouterr().out
    assert drawn == [0, 1]


def test_expand_layers_yields_the_scale_then_each_layer():
    c = named_instance("AG3").coeffs
    layers = expand_layers(c, 4, 10 ** 8)
    box = collect(c, 4)
    assert next(layers) == box.scale
    assert list(layers) == list(box_stream(box))


@pytest.mark.parametrize("c, N, limit", [
    (named_instance("AG3").coeffs, -1, 10 ** 8),
    (vec(1), 3, 10 ** 8),
    (named_instance("AG3").coeffs, 3, 63),
    (vec(0, 1), 3, 10 ** 8),
], ids=["negative-N", "no-variable", "entry-limit", "zero-constant"])
def test_expand_layers_refuses_before_the_scale(c, N, limit):
    # so a caller that reads only the scale gets every refusal a full expansion gets
    with pytest.raises(ValueError):
        next(expand_layers(c, N, limit))


def test_a_weight_past_4300_digits_expands():
    # each sweep binds its weights by name; formatting 10**5000 into the
    # sweep's source text would raise ValueError
    c = vec(1, -10 ** 5000)
    assert expand_reciprocal(c, 3).data == geometric_oracle(c, 3)


def _peak(run) -> tuple:
    """run() and the peak of the memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def _box26_peak(family: str) -> int:
    """The peak of collecting the box of a d = 4 family on [0..26]^4, all 105
    layers (`collect`)."""
    return _peak(lambda: collect(named_instance(family).coeffs, 26))[1]


def test_streamed_check_holds_a_window_of_layers():
    # KZ-D has no nonpositive coefficient, so the scan expands every layer;
    # it holds deg(p) + 1 = 5 of the 105
    hit, streamed = _peak(lambda: _streamed(named_instance("KZ-D").coeffs, 26))
    assert hit is None
    assert 3 * streamed < _box26_peak("KZ-D")


def test_cache_write_holds_a_window_of_layers(tmp_path, capsys):
    # `expand --cache` of a tapped diagonal (LewyAskey, c_2 != 0) keeps the
    # diagonal integers of the layers as they pass, so it holds a window of
    # layers, not the box
    argv = ["expand", "--family", "LewyAskey", "--N", "26", "--cache", str(tmp_path / "l.box")]
    code, written = _peak(lambda: main(argv))
    assert code == 0 and capsys.readouterr().out.endswith(f"cache: {tmp_path}/l.box\n")
    assert 3 * written < _box26_peak("LewyAskey")


def test_cache_read_holds_a_window(tmp_path, capsys):
    # `diag --from-cache` reads a file of N + 1 diagonal lines and builds no box
    path = str(tmp_path / "k.box")
    assert main(["expand", "--family", "KZ-D", "--N", "26", "--cache", path]) == 0
    capsys.readouterr()
    code, read = _peak(lambda: main(["diag", "--from-cache", path, "--oracle", "kzd"]))
    assert code == 0 and "oracle: match (kzd, n <= 26)" in capsys.readouterr().out
    assert 3 * read < _box26_peak("KZ-D")


def test_family_diagonal_holds_a_window_of_layers(capsys):
    # `diag --family` keeps the diagonal integers of the layers as they pass;
    # LewyAskey (c_2 != 0) is tapped, where KZ-D is counted
    argv = ["diag", "--family", "LewyAskey", "--N", "26", "--scale", "9-power",
            "--oracle", "lewy-askey"]
    code, held = _peak(lambda: main(argv))
    assert code == 0 and "oracle: match (lewy-askey, n <= 26)" in capsys.readouterr().out
    assert 3 * held < _box26_peak("LewyAskey")


# the lewyaskey recurrence of s_n = 9^n u_n / C(2n, n), carried over to the
# LewyAskey diagonal u_n: 243 (n+1)(n+2)^3 u_(n+2) + ... = 0
_LEWY_ASKEY_U = json.dumps([["11520", "55296", "93184", "65536", "16384"],
                            ["-14040", "-41544", "-45648", "-22176", "-4032"],
                            ["1944", "4860", "4374", "1701", "243"]])


def test_recurrence_check_of_a_family_holds_a_window_of_layers(capsys):
    argv = ["recur", "check", "--rec-json", _LEWY_ASKEY_U, "--family", "LewyAskey",
            "--N", "26"]
    code, held = _peak(lambda: main(argv))
    assert code == 0 and "result: pass\n" in capsys.readouterr().out
    assert 3 * held < _box26_peak("LewyAskey")


# --- the counted diagonal vs the tapped box ---------------------------------

@st.composite
def counted_cases(draw):
    """(c, N): d = 3..6, c_0 != 0 of either sign, c_k = 0 for k outside
    {0, 1, d-1, d} and, at d = 3, c_1 = 0 or c_2 = 0; N = 0..8."""
    d = draw(st.integers(3, 6))
    c = [draw(nonzero_rationals)] + [F(0)] * d
    for k in (1, d - 1, d):
        c[k] = draw(small_rationals)
    if d == 3:
        c[draw(st.sampled_from([1, 2]))] = F(0)
    return vec(*c), draw(st.integers(0, 8))


@settings(deadline=None, max_examples=80)
@given(counted_cases(), st.sampled_from([0, 0, 0, 40]))
# c_1 times 10^5000: hypothesis reprs an example, and CPython refuses str()
# of an int past 4300 digits
@example((vec(1, -1, 0, 3, 1), 4), 5000)
@example((vec(-2, 0, 0, F(1, 3), F(-4, 9)), 8), 0)  # c_0 < 0, c_1 = 0
@example((vec(1, -1, 0, 0, 0, F(5, 2)), 8), 0)  # d = 5, c_(d-1) = 0
@example((vec(F(3, 4), -1, 0, 0, 0, 2, F(-1, 4)), 6), 0)  # d = 6
@example((named_instance("Kauers").coeffs, 12), 0)
@example((named_instance("KZ-D").coeffs, 12), 0)
@example((named_instance("Koornwinder").coeffs, 12), 0)
@example((named_instance("GRZ", d=4).coeffs, 12), 0)
@example((named_instance("GRZ", d=5).coeffs, 12), 0)
@example((named_instance("GRZ", d=6).coeffs, 12), 0)
@example((named_instance("h0b", b=F(-1, 8)).coeffs, 12), 0)
@example((named_instance("AG3").coeffs, 12), 0)
@example((named_instance("hab", a=0, b=F(31, 8)).coeffs, 12), 0)
@example((vec(1, 0, F(-1, 2), 2), 12), 0)  # d = 3, c_1 = 0
def test_counted_diagonal_matches_the_tapped_box(case, digits):
    c, N = case
    c = (c[0], c[1] * 10 ** digits, *c[2:])
    d = len(c) - 1
    assert seriesbox._counted_diagonal(d, N, _kernel_scale(c)[3]) == _tapped(c, N)[1]


def _refuse_layers(*args):
    raise AssertionError("a layer was enumerated")


def _refuse_count(*args):
    raise AssertionError("the diagonal was counted")


def _collected_diagonal(c, N: int) -> list[str]:
    box = collect(c, N)
    return [str(entry_at(box, (n,) * box.dim)) for n in range(N + 1)]


def _reported_diagonal(argv, capsys) -> list[str]:
    assert main(argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["diagonal"]


@pytest.mark.parametrize("argv, want", [
    (["diag", "--family", "Kauers", "--N", "12"], "N: 12\n"),
    (["diag", "--family", "KZ-D", "--N", "20", "--oracle", "kzd"],
     "oracle: match (kzd, n <= 20)\n"),
    (["recur", "guess", "--family", "KZ-D", "--N", "20", "--max-order", "2",
      "--max-degree", "3"], "order: 2\ndegree: 3\n"),
    (["recur", "check", "--builtin", "kzd", "--family", "KZ-D", "--N", "20"],
     "result: pass\n"),
    # d = 3 with c_2 = 0
    (["diag", "--family", "AG3", "--N", "10", "--oracle", "franel"],
     "oracle: match (franel, n <= 10)\n"),
], ids=["diag-Kauers", "diag-KZ-D", "guess", "check", "diag-AG3"])
def test_a_counted_family_enumerates_no_layer(argv, want, capsys, monkeypatch, cold_plans):
    monkeypatch.setattr(seriesbox, "_shape_groups", _refuse_layers)
    assert main(argv) == 0 and want in capsys.readouterr().out


@pytest.mark.parametrize("argv, want", [
    (["diag", "--family", "LewyAskey", "--N", "8", "--scale", "9-power",
      "--oracle", "lewy-askey"], "oracle: match (lewy-askey, n <= 8)\n"),
    (["diag", "--family", "Szego3", "--N", "10", "--scale", "2", "--oracle", "szego3"],
     "oracle: match (szego3, n <= 10)\n"),
    (["diag", "--family", "hab", "--a", "1/4", "--b", "23/8", "--N", "10"], "N: 10\n"),
], ids=["LewyAskey", "Szego3", "hab"])
def test_a_tapped_family_is_not_counted(argv, want, capsys, monkeypatch):
    monkeypatch.setattr(seriesbox, "_counted_diagonal", _refuse_count)
    assert main(argv) == 0 and want in capsys.readouterr().out


@pytest.mark.parametrize("c, family", [
    (named_instance("Szego4").coeffs, ["--family", "Szego4"]),
    (named_instance("Szego3").coeffs, ["--family", "Szego3"]),
    (named_instance("hab", a=F(1, 4), b=F(23, 8)).coeffs,
     ["--family", "hab", "--a", "1/4", "--b", "23/8"]),
], ids=["Szego4", "Szego3", "hab"])
def test_a_tapped_family_is_the_collected_one(c, family, capsys, monkeypatch):
    monkeypatch.setattr(seriesbox, "_counted_diagonal", _refuse_count)
    argv = ["diag", *family, "--N", "8"]
    assert _reported_diagonal(argv, capsys) == _collected_diagonal(c, 8)


@pytest.mark.parametrize("N", [0, 1, 3, 16])
@pytest.mark.parametrize("family, params", [
    ("KZ-D", {}), ("Kauers", {}), ("AG3", {}), ("hab", {"a": "0", "b": "31/8"}),
], ids=["KZ-D", "Kauers", "AG3", "hab"])
def test_a_counted_cache_is_the_collected_one(family, params, N, tmp_path, capsys,
                                              monkeypatch):
    # `expand --cache` without a scan counts these diagonals, and writes the
    # bytes of the cache read off the collected box
    c = named_instance(family, **params).coeffs
    want = collected_cache_text(c, collect(c, N))
    monkeypatch.setattr(seriesbox, "_PLANS", {})  # no layer groups held from `collect`
    monkeypatch.setattr(seriesbox, "_shape_groups", _refuse_layers)
    path = tmp_path / "x.box"
    argv = ["expand", "--family", family, *[f"--{k}={v}" for k, v in params.items()],
            "--N", str(N), "--cache", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f"cache: {path}\n")
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("argv, message", [
    (["diag", "--family", "KZ-D", "--N", "20", "--entry-limit", "100"],
     "diag: error: box [0..20]^4 has 194481 entries, limit 100"),
    (["recur", "check", "--builtin", "kzd", "--family", "KZ-D", "--N", "20",
      "--entry-limit", "100"],
     "recur check: error: box [0..20]^4 has 194481 entries, limit 100"),
    (["diag", "--family", "KZ-D", "--N", "-1"], "diag: error: box bound must be >= 0"),
    (["diag", "--coeffs", "0,-1,0,2,4", "--N", "3"], "diag: error: c_0 must be nonzero"),
    (["diag", "--family", "StraubLambda", "--N", "3"],
     "diag: error: diagonal extraction requires a rational box"),
    # --entry-limit stays a size guard on the (N+1)^d entries of a counted box
    (["expand", "--family", "KZ-D", "--N", "20", "--cache", "k.box", "--entry-limit", "100"],
     "expand: error: box [0..20]^4 has 194481 entries, limit 100"),
    (["diag", "--family", "AG3", "--N", "40", "--entry-limit", "100"],
     "diag: error: box [0..40]^3 has 68921 entries, limit 100"),
], ids=["entry-limit", "check-entry-limit", "negative-N", "zero-c0", "lambda",
        "cache-entry-limit", "d3-entry-limit"])
def test_refusals_come_before_any_count(argv, message, capsys, monkeypatch, tmp_path):
    def no_file(*args, **kwargs):
        raise AssertionError("a file was opened")
    monkeypatch.setattr(seriesbox, "_counted_diagonal", _refuse_count)
    monkeypatch.setattr(cli, "open", no_file, raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIAGONALIS_CACHE", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"diagonalis {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("c, limit, error, message", [
    (vec(1, -1, 0, 2, 4), 100, BoxTooLargeError, "box [0..20]^4 has 194481 entries, limit 100"),
    (vec(0, -1, 0, 2, 4), 10 ** 8, ValueError, "not expandable at origin: zero constant term"),
    (vec(1, -UniPoly.x(), 0, UniPoly.x(), 1), 10 ** 8, ValueError,
     "diagonal extraction requires a rational box"),
], ids=["entry-limit", "zero-c0", "lambda"])
def test_library_refusals_come_before_any_count(c, limit, error, message, monkeypatch):
    monkeypatch.setattr(seriesbox, "_counted_diagonal", _refuse_count)
    with pytest.raises(error) as exc:
        extract_diagonal(expand_reciprocal(c, 20, limit))
    assert str(exc.value) == message


@pytest.mark.parametrize("limit, error, message", [
    (10 ** 8, ValueError, "diagonal extraction requires a rational box"),
    (100, BoxTooLargeError, "box [0..20]^3 has 9261 entries, limit 100"),
], ids=["lambda", "entry-limit-first"])
def test_a_lambda_box_is_refused_before_any_layer(limit, error, message, monkeypatch,
                                                  cold_plans):
    def no_layer(*args):
        raise AssertionError("a layer was enumerated")
    monkeypatch.setattr(seriesbox, "_shape_groups", no_layer)
    with pytest.raises(error) as exc:
        expand_reciprocal(named_instance("StraubLambda").coeffs, 20, limit)
    assert str(exc.value) == message


def test_cache_roundtrip_rational():
    c = vec(1, -1, 0, 4)
    box = collect(c, 3)
    text = _cache_text(c, 3)
    d, diagonal = load_cache(io.StringIO(text))
    assert d == 3 and diagonal.order == 3
    assert diagonal.coeffs == [entry_at(box, (n,) * 3) for n in range(4)]
    # bit-exact round trip
    assert _resaved(c, diagonal) == text


def test_cache_roundtrip_lambda(monkeypatch):
    # `expand --cache` refuses a Q[lambda] family; a file that holds one
    # anyway is refused by its c=, before the kernel's scale is taken
    lam = UniPoly.x()
    text = _cache_text(vec(1, -lam), 4)
    assert text.startswith('diagonalis-diagonal v4; N=4; L=1; c=["1",["0","-1"]]\n')

    def no_scale(*args):
        raise AssertionError("the kernel's scale was taken")
    monkeypatch.setattr(seriesbox, "_kernel_scale", no_scale)
    with pytest.raises(ValueError, match=r"^diagonal extraction requires a rational box$"):
        load_cache(io.StringIO(text))


def test_cache_rejects_other_files():
    with pytest.raises(ValueError):
        load_cache(io.StringIO("not a cache\n"))


# --- differential test: integer stencil kernel vs the monomial route -------

denominators = st.sampled_from([1, 1, 2, 3, 4, 9])
small_rationals = st.builds(F, st.integers(-4, 4), denominators)
nonzero_rationals = st.builds(F, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), denominators)
lambda_polys = st.lists(small_rationals, min_size=1, max_size=3).map(UniPoly)
# the largest N per d: the oracles read every index of [0..N]^d
_MAX_N = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def reciprocal_cases(draw):
    """(c, N) for small boxes of 1/sum c_k e_k, d = 1..5, over Q or Q[lambda]."""
    d = draw(st.integers(1, 5))
    over_lambda = draw(st.booleans())
    coeff = st.one_of(small_rationals, lambda_polys) if over_lambda else small_rationals
    c0 = draw(nonzero_rationals)
    if draw(st.integers(0, 4)) == 0:  # constant p
        rest = [F(0)] * d
    else:
        rest = [draw(coeff) for _ in range(d)]
    c = vec(c0, *rest)
    reshape = draw(st.sampled_from(["none", "scale", "drop"]))
    if reshape == "scale":
        c = vec(*scale_variables(c, draw(nonzero_rationals)))
    elif reshape == "drop" and d > 1:
        c = vec(*substitute_zero(c))
    return c, draw(st.integers(0, _MAX_N[len(c) - 1]))


lam = UniPoly.x()


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases())
@example((vec(F(-2), F(1, 2), F(2, 9), F(-4, 3)), 4))
@example((vec(F(3), F(0), F(0)), 3))
@example((vec(1, -1, 0, F(1, 4)), 4))
@example((vec(*scale_variables([1, -1, F(3, 4), 1], F(1, 3))), 3))
@example((vec(*substitute_zero([1, -1, F(1, 3), -2])), 4))
@example((vec(UniPoly([F(-1)]), -(lam + 1), lam * (lam + F(1, 2)),
              UniPoly([F(1, 4), 0, -1])), 3))
@example((vec(1, -lam, lam * lam - 1), 4))
@example((vec(F(1, 3), UniPoly([4, -3, 9]), UniPoly([F(-9, 2), 0, -4])), 4))
@example((vec(1, -1, F(2, 3), 0, 0, -lam), 2))  # d = 5 over Q[lambda]
@example((named_instance("GRZ", d=5).coeffs, 2))
def test_kernel_matches_geometric_oracle(case):
    c, N = case
    box = collect(c, N)
    # a constant UniPoly coefficient is a rational and leaves the box over Q
    lam_ring = any(map(depends_on_lambda, c))
    assert box.ring == ("Qlambda" if lam_ring else "Q")
    assert all(isinstance(v, UniPoly if lam_ring else F) for v in box.data.values())
    oracle = geometric_oracle(c, N)
    for n in itertools.product(range(N + 1), repeat=len(c) - 1):
        assert entry_at(box, n) == oracle.get(n, 0), n


@settings(deadline=None, max_examples=60)
@given(reciprocal_cases(), st.booleans())
@example((vec(1, -(lam - 1)), 3), True)
@example((vec(1, -(lam + 1), lam * (lam + 2), UniPoly([4, 0, -3, -1])), 4),  # StraubLambda
         True)
@example((vec(-1, lam + 1, 0, lam), 2), True)
@example((vec(-1, 1, 0, -4), 3), False)
@example((vec(1, -1, 0, 4, -16), 3), False)
@example((vec(1, -1, 0, 4, -16), 3), True)
@example((vec(1, 1, 0), 3), True)
def test_first_nonpositive_matches_brute_force(case, strict):
    c, N = case
    box = collect(c, N)
    strict = strict or box.ring == "Qlambda"  # a lambda box has no other check
    assert _streamed(c, N, strict) == brute_force_first_nonpositive(box, strict)


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
    box = collect(vec(UniPoly.const(3), 0, 0), 2)
    assert box.ring == "Q"
    assert box.data[(0, 0)] == F(1, 3) and isinstance(box.data[(0, 0)], F)
    for n in itertools.product(range(3), repeat=2):
        if any(n):
            assert entry_at(box, n) == 0


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
    """The header and diagonal lines of a KZ-D N=3 cache, without its trailer."""
    return _cache_text(vec(1, -1, 0, 2, 4), 3).splitlines(
        keepends=True)[:-1]


def _resealed(lines):
    """The cache file of these lines under a fresh crc32= trailer, so that a
    damaged body passes the hash check and reaches the structural checks."""
    body = "".join(lines)
    return io.StringIO(f"{body}crc32={zlib.crc32(body.encode()):08x}\n")


def test_cache_rejects_truncated_file():
    lines = _kzd3_cache_lines()
    assert len(lines) == 1 + 4
    with pytest.raises(ValueError, match=r"no crc32= trailer \(truncated file\)"):
        load_cache(io.StringIO("".join(lines[:3])))


def test_cache_rejects_missing_trailer_of_a_whole_body():
    with pytest.raises(ValueError, match=r"no crc32= trailer \(truncated file\)"):
        load_cache(io.StringIO("".join(_kzd3_cache_lines())))


def test_cache_rejects_wrong_entry_count():
    lines = _kzd3_cache_lines()
    for body, count in ((lines[:4], 3), (lines + ["4:0\n"], 5)):
        with pytest.raises(ValueError, match=rf"^cache holds {count} diagonal lines; "
                                             rf"N=3 needs N \+ 1 = 4$"):
            load_cache(_resealed(body))


def test_cache_refuses_a_forged_huge_N_before_enumerating(monkeypatch, cold_plans):
    # refused by its line count, before the kernel's scale or any layer
    lines = _kzd3_cache_lines()
    lines[0] = lines[0].replace("; N=3; ", f"; N={10 ** 6}; ")

    def refused(*args):
        raise AssertionError("the scale was taken or a layer enumerated")
    monkeypatch.setattr(seriesbox, "_kernel_scale", refused)
    monkeypatch.setattr(seriesbox, "_shape_groups", refused)
    with pytest.raises(ValueError, match=rf"^cache holds 4 diagonal lines; "
                                         rf"N={10 ** 6} needs N \+ 1 = {10 ** 6 + 1}$"):
        load_cache(_resealed(lines))


def test_cache_rejects_changed_digit_under_old_trailer():
    text = _cache_text(vec(1, -1, 0, 2, 4), 3)
    assert "\n3:220\ncrc32=" in text
    damaged = text.replace("\n3:220\n", "\n3:221\n")
    with pytest.raises(ValueError, match=r"does not match its crc32= trailer"):
        load_cache(io.StringIO(damaged))


def test_cache_refuses_format_v1():
    v1 = ('diagonalis-box v1; d=1; N=1; ring=Q; denom={"dim":1,"terms":'
          '[{"exp":[0],"coeff":"1"},{"exp":[1],"coeff":"-1"}]}\n0:1\n1:1\n')
    with pytest.raises(ValueError, match=r"^cache format v1 is no longer read; "
                                         r"re-create it with expand --cache$"):
        load_cache(io.StringIO(v1))


@pytest.mark.parametrize("old, new, key", [
    ("; N=3;", "; N=three;", "N"),
    ("; N=3;", ";", "N"),
    ("; L=1;", "; L=1/1;", "L"),
    ("; L=1;", ";", "L"),
    ('c=["1","-1","0","2","4"]', 'c=["1"]', "c"),
    ('c=["1","-1","0","2","4"]', 'c=["1","-1","0","2",4.5]', "c"),
], ids=["N", "no-N", "L", "no-L", "c", "c-float"])
def test_cache_rejects_malformed_header_field(old, new, key):
    lines = _kzd3_cache_lines()
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new, 1)
    with pytest.raises(ValueError, match=rf"^cache header: missing or malformed {key}= "):
        load_cache(_resealed(lines))


# line n + 2 holds n: line 2 holds 0, and line 4, 2
def test_cache_rejects_duplicate_index():
    lines = _kzd3_cache_lines()
    lines[3] = "1:" + lines[3].split(":", 1)[1]
    with pytest.raises(ValueError, match=r"^line 4: found index '1', expected 2$"):
        load_cache(_resealed(lines))


@pytest.mark.parametrize("index", ["0,0,0,4", "0,0,1", "-1,0,0,2"])
def test_cache_rejects_index_outside_box(index):
    # an index of the whole box, as format v3 spelled it, where v4 holds n
    lines = _kzd3_cache_lines()
    lines[2] = index + ":" + lines[2].split(":", 1)[1]
    with pytest.raises(ValueError, match=rf"^line 3: found index '{index}', expected 1$"):
        load_cache(_resealed(lines))


def test_cache_rejects_entries_out_of_order():
    lines = _kzd3_cache_lines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(ValueError, match=r"^line 2: found index '1', expected 0$"):
        load_cache(_resealed(lines))


def test_cache_rejects_malformed_line():
    lines = _kzd3_cache_lines()
    lines[2] = "1=4\n"
    with pytest.raises(ValueError, match=r"^line 3: malformed entry '1=4'"):
        load_cache(_resealed(lines))


@pytest.mark.parametrize("key,lam_box", [("L", False)])
def test_cache_rejects_scale_that_disagrees_with_denom(key, lam_box):
    lines = _kzd3_cache_lines()
    lines[0] = re.sub(rf"; {key}=\d+;", f"; {key}=7;", lines[0])
    with pytest.raises(ValueError, match=rf"^cache header: {key}=7 but c and N give {key}=1$"):
        load_cache(_resealed(lines))


# format v4 files of the two box layouts that format v3 spelled apart, sorted
# orbit representatives at d >= 2 and one index per orbit at d = 1, pinned
# byte for byte
_KZD3_V4_FILE = ('diagonalis-diagonal v4; N=3; L=1; c=["1","-1","0","2","4"]\n'
                 '0:1\n1:4\n2:28\n3:220\ncrc32=e65b112c\n')
_D1_V4_FILE = ('diagonalis-diagonal v4; N=5; L=2; c=["2","-3"]\n'
               '0:1\n1:3\n2:9\n3:1b\n4:51\n5:f3\ncrc32=af662a3a\n')


@pytest.mark.parametrize("text, coeffs, N", [
    (_KZD3_V4_FILE, [1, -1, 0, 2, 4], 3),
    (_D1_V4_FILE, [2, -3], 5),
], ids=["KZ-D", "d1"])
def test_cache_files_of_the_two_layouts_still_load(text, coeffs, N):
    c = vec(*coeffs)
    assert _cache_text(c, N) == text
    d, diagonal = load_cache(io.StringIO(text))
    assert (d, diagonal.coeffs) == (len(c) - 1, extract_diagonal(expand_reciprocal(c, N)).coeffs)
    assert _resaved(c, diagonal) == text


# the same two boxes as format v3 wrote them: every sorted index of the box
_KZD3_FILE = (
    'diagonalis-box v3; N=3; L=1; B=0; c=["1","-1","0","2","4"]\n'
    + "".join(f"{line}\n" for line in """
        0,0,0,0:1 0,0,0,1:1 0,0,1,1:2 0,0,0,2:1 0,1,1,1:4 0,0,1,2:3 0,0,0,3:1
        1,1,1,1:4 0,1,1,2:8 0,0,2,2:6 0,0,1,3:4 1,1,1,2:a 0,1,2,2:12 0,1,1,3:e
        0,0,2,3:a 1,1,2,2:14 1,1,1,3:1c 0,2,2,2:2e 0,1,2,3:24 0,0,3,3:14
        1,2,2,2:22 1,1,2,3:38 0,2,2,3:66 0,1,3,3:50 2,2,2,2:28 1,2,2,3:60
        1,1,3,3:88 0,2,3,3:f8 2,2,2,3:70 1,2,3,3:e4 0,3,3,3:28c 2,2,3,3:f0
        1,3,3,3:1d8 2,3,3,3:190 3,3,3,3:220 crc32=ba43cb2f""".split()))
_D1_FILE = ('diagonalis-box v3; N=5; L=2; B=0; c=["2","-3"]\n'
            '0:1\n1:3\n2:9\n3:1b\n4:51\n5:f3\ncrc32=7fd5ffe7\n')


@pytest.mark.parametrize("text", [_KZD3_FILE, _D1_FILE], ids=["KZ-D", "d1"])
def test_cache_refuses_format_v3(text):
    with pytest.raises(ValueError, match=r"^cache format v3 is no longer read; "
                                         r"re-create it with expand --cache$"):
        load_cache(io.StringIO(text))


# the same two boxes as format v2 wrote them, with the nested denom= header
_V2_FILES = [
    'diagonalis-box v2; d=4; N=3; sym=1; L=1; B=0; denom={"dim":4,"terms":['
    '{"exp":[0,0,0,0],"coeff":"1"},{"exp":[1,0,0,0],"coeff":"-1"},'
    '{"exp":[0,1,0,0],"coeff":"-1"},{"exp":[0,0,1,0],"coeff":"-1"},'
    '{"exp":[0,0,0,1],"coeff":"-1"},{"exp":[1,1,1,0],"coeff":"2"},'
    '{"exp":[1,1,0,1],"coeff":"2"},{"exp":[1,0,1,1],"coeff":"2"},'
    '{"exp":[0,1,1,1],"coeff":"2"},{"exp":[1,1,1,1],"coeff":"4"}]}\n'
    + _KZD3_FILE.split("\n", 1)[1].replace("crc32=ba43cb2f", "crc32=2cf71c74"),
    'diagonalis-box v2; d=1; N=5; sym=0; L=2; B=0; denom={"dim":1,"terms":['
    '{"exp":[0],"coeff":"2"},{"exp":[1],"coeff":"-3"}]}\n'
    '0:1\n1:3\n2:9\n3:1b\n4:51\n5:f3\ncrc32=7fe8b043\n',
]


@pytest.mark.parametrize("text", _V2_FILES, ids=["KZ-D", "d1"])
def test_cache_refuses_format_v2(text):
    with pytest.raises(ValueError, match=r"^cache format v2 is no longer read; "
                                         r"re-create it with expand --cache$"):
        load_cache(io.StringIO(text))


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases().filter(lambda case: not any(map(depends_on_lambda, case[0]))))
@example((vec(F(-2), F(1, 2), F(2, 9), F(-4, 3)), 4))
@example((vec(-4, 0, 0), 0))  # one entry, in layer 0
def test_cache_roundtrip_keeps_the_kernel_integers(case):
    c, N = case
    text = _cache_text(c, N)
    assert text == collected_cache_text(c, collect(c, N))
    assert _resaved(c, load_cache(io.StringIO(text))[1]) == text


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(small_rationals, min_size=d,
                                                    max_size=d)),
       nonzero_rationals, st.integers(0, 8))
@example([F(1, 2), F(2, 9), F(-4, 3)], F(-2), 4)
@example([F(-3)], F(2), 5)  # d = 1: every layer is one index
@example([F(0), F(0)], F(-4), 0)  # N = 0: one line
@example([F(-1), F(0), F(2), F(4)], F(1), 8)  # KZ-D
def test_cache_diagonal_is_the_box_diagonal(rest, c0, N):
    c = vec(c0, *rest)
    d, diagonal = _loaded(io.StringIO(_cache_text(c, N)))
    assert d == len(c) - 1
    assert diagonal == extract_diagonal(expand_reciprocal(c, N)).coeffs


def _refuse_exact(*args):
    raise AssertionError("a diagonal read went through seriesbox._exact")


def _diagonal_routes(c, N: int) -> tuple:
    """The diagonal of the box of 1/p on [0..N]^d by `extract_diagonal` and by
    `load_cache`, each run with `seriesbox._exact` refusing: both rescale the
    kernel's integers, and neither builds an exact entry of its own."""
    box, text = expand_reciprocal(c, N), _cache_text(c, N)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seriesbox, "_exact", _refuse_exact)
        return extract_diagonal(box).coeffs, load_cache(io.StringIO(text))[1].coeffs


def _oracle_diagonal(c, N: int) -> list:
    data = per_entry_data(c, N, True)
    return [data[(n,) * (len(c) - 1)] for n in range(N + 1)]


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases().filter(lambda case: not any(map(depends_on_lambda, case[0]))))
@example((vec(-2, 1, F(1, 3), F(5, 7)), 9))  # c_0 = -2, L = 42
@example((named_instance("Kauers").coeffs, 12))  # 64/27 on e_3: L = 3
@example((vec(F(3, 2), F(-5, 4)), 11))  # d = 1, L = 6
@example((vec(-2, 1, F(1, 3), F(5, 7)), 0))  # N = 0
def test_both_diagonal_routes_rescale_the_kernel_integers(case):
    c, N = case
    assert _diagonal_routes(c, N) == (_oracle_diagonal(c, N),) * 2


# --- differential test: layer kernel vs the per-entry kernel -----------------

@pytest.mark.parametrize("c, N", [
    (named_instance("Kauers").coeffs, 12),
    (named_instance("hab", a=F(1, 4), b=F(23, 8)).coeffs, 30),
    (named_instance("hab", a=F(0), b=F(-3, 8)).coeffs, 30),
    (named_instance("GRZ", d=5).coeffs, 8),
    (named_instance("StraubLambda").coeffs, 16),
    # C(23, 4) = 8855 stored entries, past 2^13: the plan holds no groups, and
    # the box enumerates its own
    (named_instance("Kauers").coeffs, 19),
], ids=["Kauers-sym", "hab-1/4-23/8", "hab-0--3/8", "GRZ5", "StraubLambda",
        "Kauers-streamed-groups"])
def test_layer_kernel_matches_per_entry_kernel(c, N):
    assert collect(c, N).data == per_entry_data(c, N, True)


@settings(deadline=None, max_examples=40)
@given(reciprocal_cases())
@example((vec(1, -lam, lam * lam - 1), 4))
# x, y and xy reach distinct predecessors with one weight: one product
@example((vec(1, -1, -1), 4))
@example((vec(1, -1, F(2, 3), 0, 0, -lam), 2))  # d = 5 over Q[lambda]
def test_layer_kernel_matches_per_entry_kernel_on_random_denominators(case):
    c, N = case
    assert collect(c, N).data == per_entry_data(c, N, True)


@st.composite
def boxes_of_one_plan(draw):
    """(N, [c, ...]): two to four denominators of one d and one support, the
    k >= 1 with c_k != 0, over Q or Q[lambda], each with kernel weights other
    than those of the one before it."""
    d = draw(st.integers(1, 5))
    support = draw(st.sets(st.integers(1, d)))
    N = draw(st.integers(0, _MAX_N[d]))
    over_lambda = draw(st.booleans())
    coeff = (st.one_of(nonzero_rationals, lambda_polys.filter(bool)) if over_lambda
             else nonzero_rationals)
    box = st.tuples(nonzero_rationals, *[coeff if k in support else st.just(F(0))
                                         for k in range(1, d + 1)]).map(lambda c: vec(*c))
    boxes = draw(st.lists(box, min_size=2, max_size=4))
    assume(all(_kernel_scale(a)[3] != _kernel_scale(b)[3]
               for a, b in zip(boxes, boxes[1:])))
    return N, boxes


@settings(deadline=None, max_examples=30)
@given(boxes_of_one_plan())
# at (1, 1), 2 * w_1 = 1 * w_2 = 2 in the first box but not in the second: a
# sweep text that put equal merged weights under one product fails the second
@example((4, [vec(1, -1, -2), vec(1, -1, -3), vec(1, -1, -2)]))
@example((3, [named_instance("StraubLambda").coeffs, vec(1, -lam, lam * lam - 1, lam)]))
# past 2^13 entries the plan holds no groups, and each box streams its own
@example((9000, [vec(1, -1), vec(1, -2), vec(1, 1)]))
def test_boxes_of_one_plan_match_the_per_entry_kernel(case):
    N, boxes = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seriesbox, "_PLANS", {})  # the first box cold, the others warm
        for c in boxes:
            assert collect(c, N).data == per_entry_data(c, N, True)


@pytest.mark.parametrize("d", range(1, 6))
def test_shape_groups_match_the_per_entry_enumeration(d):
    # each layer derived from the earlier ones against the entries of that
    # layer enumerated one by one, grouped by shape, as sets
    for N in range(9):
        layers = list(seriesbox._shape_groups(d, N))
        assert len(layers) == d * N + 1
        for t, groups in enumerate(layers):
            want: dict = {}
            for _, code, shape in entry_layer(d, N, t, True):
                want.setdefault(functools.reduce(lambda s, g: 2 * s + g, shape),
                                set()).add(code)
            assert all(len(set(codes)) == len(codes) for codes in groups.values())
            assert {shape: set(codes) for shape, codes in groups.items()} == want


def test_symmetric_mode_matches_full():
    # the sorted representatives against the per-entry kernel on every index
    c = vec(1, -1, 0, 2, 4)
    full = per_entry_data(c, 3, False)
    assert len(full) == 4 ** 4
    box = collect(c, 3)
    assert all(entry_at(box, n) == v for n, v in full.items())


@functools.cache
def _straub_lambda_box():
    return collect(named_instance("StraubLambda").coeffs, 16)


@pytest.mark.parametrize("r", ["-3", "-1/2", "0", "1", "7/2", "1000000"])
def test_lambda_box_at_r_is_the_rational_box_of_lam_r(r):
    # the packed Q[lambda] box at N = 16, where B is tight, specialized entry
    # by entry, against the box over Q of the family with lam = r
    lam_box = _straub_lambda_box()
    box = collect(named_instance("StraubLambda", lam=r).coeffs, 16)
    assert box.ring == "Q" and len(box.data) == math.comb(19, 3)
    assert {n: u(F(r)) for n, u in lam_box.data.items()} == box.data


# --- the certified Q[lambda] digit width -------------------------------------

@st.composite
def digit_rows(draw):
    """(B, b, rows of balanced base-2^B digits, each in [-2^(B-1), 2^(B-1))),
    1 <= b < B, with digits at and around the edges of both ranges."""
    B = draw(st.integers(2, 40))
    b = draw(st.integers(1, B - 1))
    edges = [-(1 << (B - 1)), (1 << (B - 1)) - 1, -(1 << (b - 1)), (1 << (b - 1)) - 1,
             -(1 << (b - 1)) - 1, 1 << (b - 1), 0]
    digit = st.one_of(st.sampled_from(edges), st.integers(-(1 << (B - 1)), (1 << (B - 1)) - 1))
    return B, b, draw(st.lists(st.lists(digit, max_size=6), min_size=1, max_size=5))


@settings(max_examples=150)
@given(digit_rows())
@example((2, 1, [[-2, 1, -1]]))
@example((5, 3, [[0, 0, -5]]))  # out of range at the top digit only
@example((8, 7, [[63, 0], [-64]]))
def test_certificate_fits_iff_every_digit_is_in_range(case):
    B, b, rows = case
    layer = {i: exactalg.pack(row, B) for i, row in enumerate(rows)}
    fits = all(-(1 << (b - 1)) <= x < 1 << (b - 1) for row in rows for x in row)
    assert seriesbox._fits(layer, B, b) == fits


@settings(max_examples=150)
@given(digit_rows(), st.integers(1, 70))
# 6 = 1 * 4^2 - 2 * 4 - 2: three digits, where 6 < 2^3 looks like two
@example((2, 1, [[-2, -2, 1]]), 1)
def test_certificate_repack_keeps_every_digit(case, wider):
    B, _, rows = case
    held = [{i: exactalg.pack(row, B) for i, row in enumerate(rows)}, {}]
    snapshot = [dict(layer) for layer in held]
    repacked = seriesbox._repack(held, B, B + wider)
    assert held == snapshot  # fresh dicts; the old ones are left as they were
    assert repacked[1] == {}
    assert all(_unpack(repacked[0][i], B + wider) == _unpack(held[0][i], B)
               for i in range(len(rows)))


@st.composite
def lambda_boxes(draw):
    """(c, N) over Q[lambda] for d = 1..3, with more layers than the oracle
    properties above draw, so that a narrow width is re-packed many times."""
    d = draw(st.integers(1, 3))
    c = vec(draw(nonzero_rationals), *[draw(st.one_of(small_rationals, lambda_polys))
                                       for _ in range(d)])
    assume(any(map(depends_on_lambda, c)))
    return c, draw(st.integers(0, {1: 16, 2: 8, 3: 5}[d]))


def _yielded(c, N: int) -> list:
    """The scale and every layer that `expand_layers` yields, each with a
    copy taken as it was yielded."""
    layers = expand_layers(c, N, 10 ** 8)
    return [next(layers)] + [(t, layer, B, dict(layer)) for t, layer, B in layers]


@settings(deadline=None, max_examples=60)
@given(lambda_boxes(), st.integers(0, 2))
@example((named_instance("StraubLambda").coeffs, 5), 0)
@example((vec(1, -lam, lam * lam - 1), 8), 0)
def test_lambda_kernel_matches_per_entry_kernel_at_any_lookahead(case, lookahead):
    # a lookahead of 0 to 2 layers re-packs every few layers, so each box
    # here starts too narrow and must widen as it goes
    c, N = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seriesbox, "_LOOKAHEAD", lookahead)
        box = collect(c, N)
        yielded = _yielded(c, N)
        streamed = _streamed(c, N)
    assert box.data == per_entry_data(c, N, True)
    assert all(layer == before for _, layer, _, before in yielded[1:])
    assert streamed == brute_force_first_nonpositive(box, True)


@pytest.mark.parametrize("c, N", [
    (vec(1, -10 ** 40 * lam), 30),
    (vec(1, -10 ** 40 * lam, 0, lam), 5),
    (vec(3, 10 ** 40 * lam - 1, lam * lam), 8),
], ids=["d1", "d3", "d2"])
def test_a_huge_lambda_weight_widens_and_matches_the_oracle(c, N):
    # bits(W) = 134: the starting width holds _LOOKAHEAD layers of it, and
    # each layer past them is wider by 133 bits, so the kernel must widen
    box = collect(c, N)
    assert len(set(box.widths)) > 2
    assert box.data == per_entry_data(c, N, True)
    if len(c) == 2:
        assert box.data == geometric_oracle(c, N)


@pytest.mark.parametrize("c, N", [
    (named_instance("StraubLambda").coeffs, 40),
    (vec(1, -10 ** 40 * lam, 0, lam), 5),
], ids=["StraubLambda", "huge-weight"])
def test_no_yielded_layer_is_changed_afterwards(c, N):
    # each re-pack builds new dicts: a layer that was yielded, and may be
    # kept (`collect`) or read later, stays as it was yielded
    yielded = _yielded(c, N)
    assert len({B for _, _, B, _ in yielded[1:]}) > 2
    assert all(layer == before for _, layer, _, before in yielded[1:])


def test_straub_lambda_digits_match_the_l1_width_for_every_N_to_24():
    # the lambda-coefficients of each v_n, read at the certified width of its
    # layer, against those read at the one width of the per-entry kernel,
    # from the l1 bound W^(dN)
    c = named_instance("StraubLambda").coeffs
    for N in range(25):
        box = collect(c, N)
        _, _, B, ints = per_entry_kernel(c, N, True)
        for t, (layer, width) in enumerate(zip(box.layers, box.widths)):
            for code, v in layer.items():
                assert _unpack(v, width) == _unpack(ints[seriesbox._index(code, 3, N)], B)


# --- pinned scan and cache behaviour ------------------------------------------

@pytest.mark.parametrize("a, b, want", [
    (F(7, 4), 0, (2, 1, 0)),  # both orbits flagged: (2,1,0) precedes (1,1,1)
    (F(5, 4), 0, (1, 1, 1)),
    (F(7, 4), -5, (2, 1, 0)),
])
@pytest.mark.parametrize("reloaded", [True, False])
def test_scan_breaks_ties_within_the_first_flagged_layer(a, b, want, reloaded):
    # 1 - e_1 + a e_2 + b e_3: layers 0..2 are positive for a < 2, and in
    # layer 3, u_(2,1,0) = 3 - 2a and u_(1,1,1) = 6 - 6a - b
    c = named_instance("hab", a=a, b=b).coeffs
    box = collect(c, 3)
    if reloaded:  # the same layers with their codes in reverse order
        box.layers = [dict(reversed(layer.items())) for layer in box.layers]
    flagged = {tuple(sorted(n)) for n in itertools.product(range(4), repeat=3)
               if sum(n) == 3 and entry_at(box, n) <= 0}
    assert len(flagged) == 1 + (a == F(7, 4) and b == 0)
    for strict in (True, False):
        hit = streamed_first_nonpositive(box_stream(box), box.scale, 3, 3, strict)
        assert hit == brute_force_first_nonpositive(box, strict)
        assert hit[0] == want


# StraubLambda at lambda = 1/2: `expand --cache` refuses a Q[lambda] family
_CACHED = [named_instance("KZ-D").coeffs, named_instance("Kauers").coeffs,
           named_instance("StraubLambda", lam=F(1, 2)).coeffs,
           named_instance("hab", a=F(1, 4), b=F(23, 8)).coeffs]
_CACHED_IDS = ["KZ-D", "Kauers", "StraubLambda", "hab-failing"]


@pytest.mark.parametrize("c, N, crc", [
    (_CACHED[0], 8, "f15e70c6"),
    (_CACHED[1], 6, "a5ef48e7"),
    (_CACHED[2], 6, "fca9c04e"),
    (_CACHED[3], 12, "67eb2db1"),
], ids=_CACHED_IDS)
def test_cache_bytes_are_pinned(c, N, crc):
    assert _cache_text(c, N).endswith(f"\ncrc32={crc}\n")


@pytest.mark.parametrize("c", _CACHED, ids=_CACHED_IDS)
def test_streamed_cache_matches_the_collected_writer(c):
    # hab-failing is flagged at (3,3,2) from N = 8 on
    for N in (0, 1, 3, 8):
        assert _cache_text(c, N) == collected_cache_text(c, collect(c, N))
