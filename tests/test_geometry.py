import signal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diagonalis import geometry
from diagonalis.exactalg import UniPoly, plain
from diagonalis.family import make_family, named_instance
from diagonalis.geometry import (box_positivity_bisect, critical_points_diag,
                                 cubic_discriminant, nonsmooth_locus_3d,
                                 sturm_isolate)
from diagonalis.seriesbox import expand_reciprocal
from oracles import (asymptotic_ratio_2d, brute_force_first_nonpositive,
                     fraction_critical_points_diag, fraction_sturm_chain,
                     fraction_variations, nonsmooth_locus_4d)
from unipoly_oracle import FractionUniPoly


def test_locus_3d_members():
    assert nonsmooth_locus_3d(0, 4) == (0, True)
    assert nonsmooth_locus_3d(1, -1) == (0, True)
    assert nonsmooth_locus_3d(0, 0) == (0, True)


def test_locus_3d_nonmember():
    val, member = nonsmooth_locus_3d(F(1, 2), 2)
    assert val == F(7, 4) and not member


def test_locus_4d_table_points():
    for a, b, c in [(0, 2, 4), (F(2, 3), 0, 0), (0, 4, -16),
                    (F(8, 9), F(-16, 27), 0)]:
        assert nonsmooth_locus_4d(a, b, c).member


def test_locus_4d_nonmember_and_relation():
    rep = nonsmooth_locus_4d(2, 3, 5)
    assert not rep.member
    # the c-relation residual vanishes exactly when c(a-1) = a^3 + 2ab + b^2
    a, b = F(2), F(3)
    c = (a ** 3 + 2 * a * b + b * b) / (a - 1)
    assert nonsmooth_locus_4d(a, b, c).c_relation_residual == 0


def test_sturm_no_positive_root_for_b5():
    assert sturm_isolate(UniPoly([1, -3, 0, 5])) == []


def test_sturm_two_positive_roots_for_b3():
    p = UniPoly([1, -3, 0, 3])
    roots = sturm_isolate(p)
    assert len(roots) == 2
    # oracle: sign changes on a rational grid
    grid = [F(k, 10) for k in range(0, 21)]
    signs = [p(x) for x in grid]
    changes = sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)
    assert changes == 2
    for r in roots:
        assert p(r.lo) * p(r.hi) < 0 and r.multiplicity == 1


def test_sturm_sqrt2_pair():
    # of the pair -sqrt(2), sqrt(2) only the positive root is isolated
    roots = sturm_isolate(UniPoly([-2, 0, 1]))
    assert len(roots) == 1
    assert 0 <= roots[0].lo and roots[0].lo ** 2 < 2 <= roots[0].hi ** 2


def test_sturm_multiplicity():
    # (x-1)^2 (x+2): the simple root -2 lies outside (0, inf)
    p = UniPoly([1, -1]) * UniPoly([1, -1]) * UniPoly([2, 1])
    assert [r.multiplicity for r in sturm_isolate(p)] == [2]
    # (x-1)^3 (x+2): a triple root
    roots = sturm_isolate(UniPoly([-1, 1]) ** 3 * UniPoly([2, 1]))
    assert [r.multiplicity for r in roots] == [3]
    assert roots[0].lo < 1 <= roots[0].hi
    # x^2 (x-1): the double root at 0 lies outside (0, inf)
    roots = sturm_isolate(UniPoly.x() ** 2 * UniPoly([-1, 1]))
    assert [r.multiplicity for r in roots] == [1]
    assert roots[0].lo < 1 <= roots[0].hi


# Oracle: isolation of the positive roots by the square-free route over the
# `Fraction` polynomials, with the monic square-free part from a Euclid gcd and a
# fresh Sturm chain for each interval and level.

def _monic(p):
    return p / p.leading_coefficient()


def _euclid_gcd(a, b):
    while b:
        a, b = b, a % b
    return _monic(a)


def _squarefree(p):
    return _monic(p.divmod(_euclid_gcd(p, p.derivative()))[0])


def _plain_chain(p):
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-(chain[-2] % chain[-1]))
    return chain[:-1]


def _distinct_roots(chain, lo, hi):
    def variations(x):
        signs = [q(x) > 0 for q in chain if q(x)]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def _squarefree_isolate(p):
    p = FractionUniPoly(p.coeffs)
    sq = _squarefree(p)
    if sq.degree < 1:
        return []
    chain = _plain_chain(sq)
    B = 1 + max(abs(c) for c in sq.coeffs) / abs(sq.leading_coefficient())
    intervals, stack = [], [(F(0), B)]
    while stack:
        lo, hi = stack.pop()
        k = _distinct_roots(chain, lo, hi)
        if k == 1:
            intervals.append((lo, hi))
        elif k > 1:
            stack += [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
    gcds = [p]
    while True:
        g = _euclid_gcd(gcds[-1], gcds[-1].derivative())
        if g.degree < 1:
            break
        gcds.append(g)
    return [geometry.RootInterval(lo, hi, 1 + sum(
                1 for g in gcds[1:]
                if _distinct_roots(_plain_chain(_squarefree(g)), lo, hi)))
            for lo, hi in sorted(intervals)]


_small = st.integers(-3, 3)
_factor = st.one_of(
    st.tuples(_small, st.integers(1, 3)),
    st.tuples(_small, _small, st.integers(1, 3))).map(UniPoly)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=4),
       st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
# roots 1 and 1.0001 part after 15 halvings, within the 19 that the
# separation bound allows
@example([(UniPoly([-1, 1]), 1), (UniPoly([-10001, 10000]), 2)], F(1))
def test_sturm_isolate_matches_the_squarefree_route(factors, scale):
    p = UniPoly.const(scale)
    for f, m in factors:
        p = p * f ** m
    assert sturm_isolate(p) == _squarefree_isolate(p)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.fractions(-9, 9, max_denominator=6), max_size=5)
                .map(UniPoly), max_size=6),
       st.fractions(min_value=-6, max_value=6, max_denominator=12))
def test_variations_read_signs_as_fraction_values_do(chain, x):
    # the oracle evaluates each member to a Fraction and reads its sign; the
    # integer numerators are the members times den > 0
    want = fraction_variations([FractionUniPoly(q.coeffs) for q in chain], x)
    assert geometry._variations([list(q.nums) for q in chain], *x.as_integer_ratio()) == want


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=4),
       st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
       st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                min_size=1, max_size=4))
def test_integer_chain_is_the_fraction_chain_up_to_positive_scalars(factors, scale, xs):
    # level by level, each member of the integer chain of primitive
    # pseudo-remainders is a positive multiple of the remainder over Q, so the
    # variations agree with those of the FractionUniPoly chain at every x
    p = UniPoly.const(scale)
    for f, m in factors:
        p = p * f ** m
    g, G = list(p.nums), FractionUniPoly(p.coeffs)
    while len(g) > 1:
        (chain, g), (CHAIN, G) = geometry._sturm_chain(g), fraction_sturm_chain(G)
        assert len(chain) == len(CHAIN)
        for q, Q in zip(chain + [g], CHAIN + [G]):
            ratio = q[-1] / Q.leading_coefficient()
            assert ratio > 0 and FractionUniPoly(q) == Q * ratio
            assert all(type(c) is int for c in q)
        for x in xs:
            assert (geometry._variations(chain, *x.as_integer_ratio())
                    == fraction_variations(CHAIN, x))
    assert G.degree < 1


def test_one_sturm_chain_per_gcd_level(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)
    real = geometry._sturm_chain
    monkeypatch.setattr(geometry, "_sturm_chain", counted)
    assert len(sturm_isolate(UniPoly([1, -3, 0, 3]))) == 2
    assert len(calls) == 1
    calls.clear()
    # (x-1)^3 (x+2)^2: levels p, (x-1)^2 (x+2) and x-1 up to constants
    p = UniPoly([-1, 1]) ** 3 * UniPoly([2, 1]) ** 2
    assert [r.multiplicity for r in sturm_isolate(p)] == [3]
    assert [len(q) - 1 for q in calls] == [5, 3, 1]


def test_isolation_builds_a_fraction_only_for_each_reported_end(monkeypatch):
    # the chains, the sign reads and the bisection points are all integers
    made = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)
    monkeypatch.setattr(geometry, "Fraction", Counted)
    for p in (UniPoly([1, -3, 1, F(-1, 27)]),
              UniPoly([-1, 1]) ** 3 * UniPoly([2, 1]) ** 2 * UniPoly([-3, 1])):
        made.clear()
        roots = sturm_isolate(p)
        assert len(made) == 2 * len(roots) and len(roots) in (2, 3)


def test_broken_sturm_chain_raises_and_does_not_hang(monkeypatch):
    # remainders of the wrong sign break the chain: without the separation
    # bound, some interval shows two roots at every depth and bisection
    # never ends
    real = geometry._signed_prem
    monkeypatch.setattr(geometry, "_signed_prem",
                        lambda a, b: [-c for c in real(a, b)])

    def hung(signum, frame):
        raise TimeoutError("sturm_isolate still bisecting after 5 s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ArithmeticError, match="Sturm chain is broken"):
            sturm_isolate(UniPoly([1, -3, 0, 3]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sturm_rejects_zero():
    with pytest.raises(ValueError):
        sturm_isolate(UniPoly())


def test_cubic_discriminant_b_identity():
    # discriminant of 1 - 3c + b c^3 equals 27 b (4 - b) identically in b
    b = UniPoly.x()
    disc = cubic_discriminant(b, UniPoly.const(0), UniPoly.const(-3),
                              UniPoly.const(1))
    assert disc == 27 * b * (UniPoly.const(4) - b)


def test_charpoly_cubic_factor_discriminant_identity():
    # the cubic factor (x+b)^3 + 27x(a^3 + ab - (1-a)x), as a cubic in x over
    # Q[a, b], has discriminant -3^9 (a^3 - 3a^2 - b)^2 (4a^3 - 3a^2 + 6ab + b^2 - 4b).
    # Both sides have degree <= 9 in a and <= 6 in b, so their difference,
    # zero on 10 values of a times 7 of b, is zero identically
    for A in range(-5, 5):
        for B in range(-3, 4):
            c3 = 1
            c2 = 3 * B - 27 * (1 - A)
            c1 = 3 * B ** 2 + 27 * (A ** 3 + A * B)
            c0 = B ** 3
            disc = cubic_discriminant(c3, c2, c1, c0)
            locus = 4 * A ** 3 - 3 * A ** 2 + 6 * A * B + B ** 2 - 4 * B
            expected = (A ** 3 - 3 * A ** 2 - B) ** 2 * locus * (-(3 ** 9))
            assert disc == expected, (A, B)


def test_necessity_violated_h05():
    fam = make_family(3, [1, -1, 0, 5])
    rep = critical_points_diag(fam)
    assert rep.smooth
    assert rep.positive_orthant_count == 0
    assert rep.verdict == "violated"


def test_necessity_violated_above_boundary():
    fam = named_instance("hab", a=F(1, 2), b=2)
    assert critical_points_diag(fam).verdict == "violated"


def test_necessity_inconclusive_on_locus():
    # Szego3 lies on the nonsmooth locus; the critical-point count is not
    # probative there
    rep = critical_points_diag(named_instance("Szego3"))
    assert not rep.smooth
    assert rep.verdict == "inconclusive"
    assert "locus-member" in rep.reason


def test_necessity_2d_cases():
    rep = critical_points_diag(named_instance("h2var", a=F(1, 2)))
    assert rep.verdict == "inconclusive"
    assert rep.positive_orthant_count > 0
    rep_neg = critical_points_diag(named_instance("h2var", a=F(-3)))
    assert rep_neg.verdict == "inconclusive"


def test_crit_3d_second_class_notes():
    rep0 = critical_points_diag(make_family(3, [1, -1, 0, 2]))
    assert any("class empty" in c.note for c in rep0.classes)
    a = F(1, 2)
    repd = critical_points_diag(make_family(3, [1, -1, a, -a ** 3]))
    assert any("degenerate" in c.note for c in repd.classes)


_NO_POINT = "no critical point in the open positive orthant"
_MINIMALITY = "positive critical points exist; minimality not decided here"
_MEMBER = "locus-member: test inapplicable"
_SATISFIED = "necessary condition satisfied"
_EMPTY = "class empty: a = 0 (coordinates 1/a undefined)"
_MERGED = "degenerate: b = -a^3, second-kind points merge with the symmetric class"
_UNDEFINED = "degenerate: a^2 + b = 0, third coordinate undefined"


def _need_one(count):
    return f"{count} critical points in the open positive orthant (need exactly 1)"


# one case per verdict branch: (family, parameters) -> verdict, reason,
# positive-orthant count and the note of each class
_BRANCHES = [
    ("h2var", {"a": 2}, "violated", _NO_POINT, 0, ("",)),
    ("h2var", {"a": 1}, "inconclusive", _MEMBER, 1, ("",)),
    ("h2var", {"a": F(1, 2)}, "inconclusive", _MINIMALITY, 2, ("",)),
    ("h2var", {"a": -3}, "inconclusive", _MINIMALITY, 1, ("",)),
    ("hab", {"a": 0, "b": 2}, "violated", _need_one(2), 2, ("", _EMPTY)),
    ("hab", {"a": F(1, 2), "b": F(-1, 8)}, "violated", _need_one(3), 3,
     ("", _MERGED)),
    ("hab", {"a": 2, "b": -4}, "inconclusive", _SATISFIED, 1, ("", _UNDEFINED)),
    ("hab", {"a": F(1, 4), "b": F(1, 16)}, "violated", _need_one(5), 5,
     ("", "coordinates (1/a, 1/a, 3/2) and permutations")),
    ("hab", {"a": -1, "b": 2}, "violated", _need_one(2), 2,
     ("", "coordinates (1/a, 1/a, -2/3) and permutations")),
    ("hab", {"a": 1, "b": -1}, "inconclusive", _MEMBER, 1, ("", _MERGED)),
]


@pytest.mark.parametrize(
    "name, params, verdict, reason, count, notes", _BRANCHES,
    ids=[" ".join([name, *(f"{k}={x}" for k, x in params.items())])
         for name, params, *_ in _BRANCHES])
def test_every_verdict_branch(name, params, verdict, reason, count, notes):
    rep = critical_points_diag(named_instance(name, **params))
    assert (rep.verdict, rep.reason) == (verdict, reason)
    assert rep.positive_orthant_count == count
    assert tuple(c.note for c in rep.classes) == notes
    assert rep.smooth == (reason != _MEMBER)


def _same_as_the_fraction_route(fam):
    rep, want = critical_points_diag(fam), fraction_critical_points_diag(fam)
    assert rep == want
    # plain() keeps a Fraction a string and an int a number, so this also
    # checks that every reported value is still a Fraction
    assert plain(rep) == plain(want)
    return rep


def test_critical_points_match_the_fraction_route_on_the_benchmark_grid():
    # the grid of `geometry grid --a=0:1:1/8 --b=-1:4:1/4`
    for a in (F(k, 8) for k in range(9)):
        for b in (F(k, 4) for k in range(-4, 17)):
            _same_as_the_fraction_route(named_instance("hab", a=a, b=b))


_hab_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=30)


@settings(deadline=None, max_examples=80)
@given(_hab_rationals, _hab_rationals)
def test_critical_points_match_the_fraction_route_on_hab(a, b):
    _same_as_the_fraction_route(named_instance("hab", a=a, b=b))


@settings(deadline=None, max_examples=40)
@given(_hab_rationals)
def test_critical_points_match_the_fraction_route_on_h2var(a):
    _same_as_the_fraction_route(named_instance("h2var", a=a))


_nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([2, 3]), _nonzero, _nonzero,
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                min_size=2, max_size=2))
@example(3, F(-2), F(3), [F(1), F(5)])
@example(3, F(-1), F(1), [F(0), F(5)])
@example(3, F(-3, 2), F(1, 4), [F(2, 7), F(-5, 9)])
@example(2, F(3), F(-6), [F(2), F(0)])
@example(2, F(-4), F(1), [F(1, 3), F(0)])
@example(3, F(2, 5), F(-3, 7), [F(-1, 2), F(0)])
def test_critical_points_match_the_fraction_route_on_any_c0(d, c0, c1, rest):
    # as `--coeffs` gives them: c_0 not 1, negative or not, and c_1/c_0 < 0
    if c0 * c1 > 0:
        c1 = -c1
    _same_as_the_fraction_route(make_family(d, [c0, c1, *rest[:d - 1]]))


@pytest.mark.parametrize("a, b", [
    (0, 2), (0, F(-3, 5)),                      # a = 0: the class is empty
    (F(1, 3), F(-1, 27)), (F(1, 2), F(-1, 8)),  # b = -a^3
    (F(-2, 3), F(8, 27)),
    (2, -4), (F(1, 3), F(-1, 9)),               # a^2 + b = 0
    (0, 4), (1, -1), (0, 0),                    # locus members
    (F(3, 4), 0),                               # a double root
], ids=str)
def test_critical_points_match_the_fraction_route_on_degenerate_branches(a, b):
    rep = _same_as_the_fraction_route(named_instance("hab", a=a, b=b))
    if (a, b) == (F(1, 3), F(-1, 27)):
        # 1 - 3t + t^2 - t^3/27 has three simple positive roots
        assert [r.multiplicity for r in rep.classes[0].roots] == [1, 1, 1]
    if (a, b) == (F(3, 4), 0):
        assert [r.multiplicity for r in rep.classes[0].roots] == [2]


def test_crit_analyses_the_canonical_form():
    # 2 - 4x - 4y + 4xy and 1 - 2e1 + 3e2 are h2var a=1/2 and Szego3 after
    # dividing by c_0 and rescaling the variables by s = -c_0/c_1
    for fam, canon in [(make_family(2, [2, -4, 4]), named_instance("h2var", a=F(1, 2))),
                       (named_instance("StraubLambda", lam=1), named_instance("Szego3"))]:
        rep, want = critical_points_diag(fam), critical_points_diag(canon)
        assert rep.family.coeffs == canon.coeffs and rep.family.name == fam.name
        assert (rep.verdict, rep.reason, rep.positive_orthant_count) == \
            (want.verdict, want.reason, want.positive_orthant_count)
    with pytest.raises(ValueError, match="c_1/c_0 >= 0"):
        critical_points_diag(make_family(2, [2, 1, 1]))
    with pytest.raises(ValueError, match="--lam"):
        critical_points_diag(named_instance("StraubLambda"))
    with pytest.raises(ValueError, match="d = 2 and d = 3 only"):
        critical_points_diag(named_instance("KZ-D"))


def test_report_json_shape():
    data = plain(critical_points_diag(named_instance("AG3")))
    assert data["verdict"] in ("violated", "inconclusive")
    assert isinstance(data["classes"], list) and data["classes"]


def test_violated_verdict_backed_by_box():
    fam = make_family(3, [1, -1, 0, 5])
    assert critical_points_diag(fam).verdict == "violated"
    box = expand_reciprocal(fam.coeffs, 12)
    assert brute_force_first_nonpositive(box, True) is not None


def test_disc_consistency_with_boundary():
    # sampled: discriminant of the symmetric cubic is negative exactly above
    # the upper boundary branch b_+ = 2 - 3a + 2(1-a)^(3/2), a locus member
    for r in (F(1), F(1, 2), F(1, 3)):
        a = 1 - r ** 2
        b_plus = 2 - 3 * a + 2 * r ** 3
        assert nonsmooth_locus_3d(a, b_plus)[1]
        for b in (b_plus + 1, b_plus + F(1, 7)):
            rep = critical_points_diag(make_family(3, [1, -1, a, b]))
            assert rep.cubic_discriminant < 0
        below = b_plus - F(1, 7)
        rep = critical_points_diag(make_family(3, [1, -1, a, below]))
        assert rep.cubic_discriminant > 0


def test_asymptotic_ratio_smoke():
    r = asymptotic_ratio_2d(0, 1)
    assert 0 < r < 2
    assert abs(asymptotic_ratio_2d(0, 50) - 1) < 0.01
    with pytest.raises(ValueError):
        asymptotic_ratio_2d(1, 10)
    with pytest.raises(ValueError):
        asymptotic_ratio_2d(0, 0)


def test_box_positivity_bisect_small():
    lo, hi = box_positivity_bisect(4, F(1, 4), 4, False)
    assert 4 <= lo < hi
    assert hi - lo <= F(1, 4)


def test_box_positivity_bisect_rejects_nonpositive_prec(monkeypatch):
    def no_box(*args, **kwargs):
        raise AssertionError("a box was expanded before prec was checked")
    monkeypatch.setattr(geometry, "expand_layers", no_box)
    for prec in (0, F(-1, 64)):
        with pytest.raises(ValueError, match="precision must be positive"):
            box_positivity_bisect(4, prec, 4, False)
