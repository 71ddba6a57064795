import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from diagonalis.exactalg import UniPoly
from diagonalis.identities import Q_EXPANSION_LITERAL
from diagonalis.sequences import builtin_recurrence, recurrence_seed
from diagonalis.uniseries import (LogSolution, UniSeries, _run_extended,
                                  hypergeometric_2f1, recurrence_to_frobenius,
                                  theta_hexagonal, verify_series_identity)
from oracles import fraction_run_extended


# Test-only oracles: the plain O(M^2) coefficient loops and the compose-based
# reversion, independent of UniSeries._ode and of Lagrange inversion; and
# the Fraction product and Miller loop that the integer paths replaced.

def mul_oracle(f, g):
    m = min(f.order, g.order)
    a, b = f.coeffs, g.coeffs
    out = [F(0)] * (m + 1)
    for i in range(m + 1):
        if a[i]:
            for j in range(m + 1 - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def ode_oracle(f, g0, c, a, b):
    # c*n*g_n = sum_{k=1..n} (a*k - b*n)*f_k*g_{n-k}, one Fraction at a time
    fs, a, b = f.coeffs, F(a), F(b)
    g = [F(g0)]
    for n in range(1, len(fs)):
        g.append(sum(((a * k - b * n) * fs[k] * g[n - k]
                      for k in range(1, n + 1) if fs[k]), F(0)) / (c * n))
    return g


def reduced(s):
    """s itself, after checking its integers are reduced over den > 0."""
    assert type(s.den) is int and all(type(x) is int for x in s.nums)
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    return s


def inverse_oracle(f):
    m = f.order
    inv = [F(0)] * (m + 1)
    inv[0] = 1 / f.coeffs[0]
    for n in range(1, m + 1):
        s = F(0)
        for k in range(1, n + 1):
            if f.coeffs[k]:
                s += f.coeffs[k] * inv[n - k]
        inv[n] = -s * inv[0]
    return UniSeries(inv)


def exp_oracle(f):
    m = f.order
    out = [F(0)] * (m + 1)
    out[0] = F(1)
    for n in range(1, m + 1):
        # n*g_n = sum_{k=1..n} k*f_k*g_{n-k}
        s = F(0)
        for k in range(1, n + 1):
            if f.coeffs[k]:
                s += k * f.coeffs[k] * out[n - k]
        out[n] = s / n
    return UniSeries(out)


def power_oracle(f, r):
    m = f.order
    if m == 0:
        return UniSeries([1])
    log = (f.derivative() * inverse_oracle(f).truncate(m - 1)).integrate()
    return exp_oracle(log * F(r))


def compose_oracle(f, inner):
    # Horner with every partial sum kept to the full order
    m = min(f.order, inner.order)
    acc = UniSeries([], m)
    for c in reversed(f.coeffs[:m + 1]):
        acc = acc * inner.truncate(m) + UniSeries([c], m)
    return acc


def reversion_oracle(f):
    # fix g_n from the z^n coefficient of z - f(g), one order at a time
    m = f.order
    g = UniSeries([0, 1 / f.coeffs[1]], m)
    for n in range(2, m + 1):
        resid = UniSeries.z(m) - compose_oracle(f, g)
        g = g + UniSeries([0] * n + [resid.coeffs[n] / f.coeffs[1]], m)
    return g


def geometric(order):
    # 1/(1-z)
    return UniSeries([1] * (order + 1))


def test_mul_truncates_to_min_order():
    f = UniSeries([1, 1, 1], 2)
    g = UniSeries([1, 2], 1)
    assert (f * g).order == 1
    assert (f * g).coeffs == [1, 3]


def test_series_holds_integers_over_one_denominator():
    f = UniSeries([F(1, 2), F(-1, 3), 0, F(5, 6)], 4)
    assert (f.nums, f.den) == ([3, -2, 0, 5, 0], 6)
    assert f.coeffs == [F(1, 2), F(-1, 3), 0, F(5, 6), 0] and f[1] == F(-1, 3)
    assert reduced(UniSeries([], 3)).den == 1
    # a truncation or product drops the content it no longer needs
    assert reduced(f.truncate(0)).den == 2
    assert reduced(f * F(6)).den == 1


def test_equality_compares_values_across_denominators():
    f, g = UniSeries([F(1, 2), F(1, 3)]), UniSeries([F(1, 2), F(1, 5), 7])
    assert f.truncate(0) == g and g.truncate(0) == f
    assert f != g and verify_series_identity(f, g) == (1, F(1, 3), F(1, 5))


def test_inverse_geometric():
    inv = UniSeries([1, -1], 6).inverse()
    assert inv == geometric(6)


def test_div_and_arith_operators():
    one = UniSeries.one(5)
    f = UniSeries([1, -1], 5)
    assert one / f == geometric(5)
    assert f - f == UniSeries([], 5)
    assert f * geometric(5) == one


def test_2f1_first_coefficients():
    f = hypergeometric_2f1("1/3", "2/3", 1, 4)
    assert f[0] == 1
    assert f[1] == F(2, 9)
    assert f[2] == F(10, 81)


def test_2f1_quarter_parameters():
    f = hypergeometric_2f1("1/4", "3/4", 1, 2)
    assert f[1] == F(3, 16)


def test_2f1_terminating_and_pole():
    # negative integer upper parameter terminates
    f = hypergeometric_2f1(-2, 1, 1, 6)
    assert f.coeffs[3:] == [0, 0, 0, 0]
    # the term recurrence's leading coefficient -(n+1)(n-1) vanishes at n = 1
    with pytest.raises(ValueError, match="blocked at index 2"):
        hypergeometric_2f1(1, 1, -1, 6)


def hypergeometric_oracle(a, b, c, M):
    """2F1 coefficients as the term product prod_{j<n} (a+j)(b+j)/((1+j)(c+j))."""
    coeffs, term = [F(1)], F(1)
    for j in range(M):
        term = term * (a + j) * (b + j) / ((1 + j) * (c + j))
        coeffs.append(term)
    return coeffs


parameters = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=60)
@given(parameters, parameters,
       parameters.filter(lambda c: c.denominator != 1 or c > 0),
       st.integers(min_value=0, max_value=12))
def test_2f1_matches_term_product(a, b, c, M):
    assert hypergeometric_2f1(a, b, c, M).coeffs == hypergeometric_oracle(a, b, c, M)


def binomial_series_oracle(r, x_coeff, order):
    """(1 + x_coeff*z)^r by the generalized binomial theorem."""
    r = F(r)
    coeffs = [F(1)]
    term = F(1)
    for j in range(order):
        term = term * (r - j) / (j + 1) * x_coeff
        coeffs.append(term)
    return UniSeries(coeffs, order)


def test_power_against_binomial_oracle():
    base = UniSeries([1, -27], 8)
    got = base.power("2/3")
    want = binomial_series_oracle(F(2, 3), F(-27), 8)
    assert verify_series_identity(got, want) is None
    assert got[1] == -18 and got[2] == -81


def test_log_oracle():
    # log(1-z) = -sum z^n/n
    got = UniSeries([1, -1], 7).log()
    want = UniSeries([0] + [F(-1, n) for n in range(1, 8)])
    assert got == want


def test_compose_szego_argument():
    # 2F1(1/3,2/3;1; 27z(2-27z)) starts 1 + 12z
    f = hypergeometric_2f1("1/3", "2/3", 1, 3)
    g = f.compose(UniSeries([0, 54, -729], 3))
    assert g[0] == 1 and g[1] == 12


def test_reversion_z_plus_z2():
    f = UniSeries([0, 1, 1], 5)
    g = f.reversion()
    assert g.coeffs == [0, 1, -1, 2, -5, 14]
    assert g == reversion_oracle(f)


def test_reversion_requires_unit_linear_term():
    with pytest.raises(ValueError):
        UniSeries([0, 0, 1], 3).reversion()
    with pytest.raises(ValueError):
        UniSeries([1, 1], 3).reversion()


def test_reversion_at_order_zero():
    # to order 0 the compositional inverse is 0, whatever the linear term
    assert UniSeries([0], 0).reversion().coeffs == [0]
    assert UniSeries([0, 2, 1], 3).truncate(0).reversion().coeffs == [0]


def theta_double_loop_oracle(M):
    counts = [0] * (M + 1)
    # generous bound, deliberately cruder than the library's
    for n in range(-3 * M - 3, 3 * M + 4):
        for m in range(-3 * M - 3, 3 * M + 4):
            q = n * n + n * m + m * m
            if q <= M:
                counts[q] += 1
    return counts


def test_theta_hexagonal_small():
    t = theta_hexagonal(3)
    assert t.coeffs == [1, 6, 0, 6]
    assert t.coeffs == theta_double_loop_oracle(3)


def test_theta_hexagonal_oracle_to_20():
    assert theta_hexagonal(20).coeffs == theta_double_loop_oracle(20)


def test_frobenius_analytic_solution_is_seed():
    rec = builtin_recurrence("szego3")
    sol = recurrence_to_frobenius(rec, 8)
    seed = recurrence_seed(rec, 8)
    assert sol.y0.coeffs == seed.coeffs
    assert sol.g[0] == 0


def test_frobenius_q_series_literal():
    sol = recurrence_to_frobenius(builtin_recurrence("szego3"), 5)
    q = sol.q_series()
    assert q.coeffs == [0, 1, F(33, 2), 306, F(12203, 2), 128109]


def test_frobenius_g_solves_forced_recurrence():
    rec = builtin_recurrence("szego3")
    sol = recurrence_to_frobenius(rec, 12)
    assert verify_series_identity(sol.q_series(), Q_EXPANSION_LITERAL) is None
    # L g = -L' y0 on every instance of the extended recurrence
    dps = [p.derivative() for p in rec.coeffs]
    for n in range(-1, 11):
        assert sum(rec.coeffs[j](n) * sol.g[n + j] + dps[j](n) * sol.y0[n + j]
                   for j in range(3) if n + j >= 0) == 0


_run_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _extended_runs(draw):
    """(p_j, upto, initial, forcing) for a recurrence of order r = 1 to 3
    with rational coefficients of degree <= 2, 1 to r + 1 initial terms (so
    that the instances n < 0 run from one term), and half the time a
    forcing (q_j, v) with v long enough for every instance."""
    r = draw(st.integers(1, 3))
    polys = st.lists(_run_fracs, max_size=3).map(UniPoly)
    ps = draw(st.lists(polys, min_size=r + 1, max_size=r + 1).filter(lambda ps: ps[-1]))
    upto = draw(st.integers(0, 25))
    initial = draw(st.lists(_run_fracs, min_size=1, max_size=r + 1))
    forcing = None
    if draw(st.booleans()):
        forcing = (draw(st.lists(polys, min_size=1, max_size=r + 1)),
                   draw(st.lists(_run_fracs, min_size=upto + 1, max_size=upto + 1)))
    return ps, upto, initial, forcing


def _outcome(run):
    """The coefficients and order a run returns, or its ValueError message."""
    try:
        seq = run()
    except ValueError as exc:
        return str(exc)
    return seq.coeffs, seq.order


@settings(max_examples=150, deadline=None)
@given(_extended_runs())
@example((builtin_recurrence("franel").coeffs, -1, [1], None))
@example(([UniPoly([1]), UniPoly([-3, 1])], 8, [2], None))
@example(([UniPoly([1]), UniPoly([1]), UniPoly([0, 1])], 5, [1],
          ([UniPoly([0, 1])], [1, 2, 3, 4, 5, 6])))
def test_integer_runner_matches_the_fraction_runner(case):
    # the running denominator and the integer instance sums give the terms,
    # the order and the pinned errors of the Fraction runner they replaced
    ps, upto, initial, forcing = case
    fraction_forcing = series_forcing = None
    if forcing:
        qs, v = forcing

        def fraction_forcing(n):
            return sum((q(n) * v[n + j] for j, q in enumerate(qs) if n + j >= 0), F(0))
        series_forcing = (qs, UniSeries(v))
    want = _outcome(lambda: fraction_run_extended(ps, upto, initial, fraction_forcing))
    got = _outcome(lambda: _run_extended(ps, upto, UniSeries(initial), series_forcing))
    assert got == want


def test_frobenius_rejects_simple_indicial_root():
    # Franel's leading coefficient (n+2)^2 has no double root at n = -2... it
    # does; use a recurrence whose indicial root is simple instead.
    from diagonalis.exactalg import UniPoly
    from diagonalis.sequences import PRecurrence
    rec = PRecurrence((UniPoly([1]), UniPoly([0, 1]), UniPoly([2, 1])))
    with pytest.raises(ValueError):
        recurrence_to_frobenius(rec, 4)


def test_verify_series_identity_reports_first_mismatch():
    f = UniSeries([1, 2, 3], 2)
    g = UniSeries([1, 2, 4], 2)
    assert verify_series_identity(f, g) == (2, 3, 4)
    assert verify_series_identity(f, f) is None


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
small_series_units = st.lists(small_fractions, min_size=0, max_size=5)


@settings(max_examples=40)
@given(small_series_units)
def test_exp_log_roundtrip(tail):
    f = UniSeries([1] + tail, len(tail) + 1)
    assert f.log().exp() == f


@settings(max_examples=40)
@given(small_series_units, st.integers(min_value=-3, max_value=3))
def test_power_inverse_pairs(tail, k):
    f = UniSeries([1] + tail, len(tail) + 1)
    assert f.power(k) == f ** k
    assert f.power(F(1, 2)).power(2) == f


@settings(max_examples=40)
@given(small_series_units)
def test_reversion_roundtrip(tail):
    f = UniSeries([0, 1] + tail, len(tail) + 2)
    g = f.reversion()
    z = UniSeries.z(f.order)
    assert f.compose(g) == z
    assert g.compose(f) == z


nonzero_fractions = small_fractions.filter(bool)
small_tails = st.lists(small_fractions, min_size=0, max_size=7)
# denominators that differ from one coefficient to the next
mixed_fractions = st.one_of(small_fractions, st.fractions(
    min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
mixed_tails = st.lists(mixed_fractions, min_size=0, max_size=8)


@settings(max_examples=40)
@given(mixed_fractions.filter(bool), mixed_tails)
def test_inverse_against_loop_oracle(f0, tail):
    # f0 != 1 puts c = f0 and g0 = 1/f0 into the recurrence
    f = UniSeries([f0] + tail)
    assert reduced(f.inverse()).coeffs == inverse_oracle(f).coeffs


@settings(max_examples=40)
@given(mixed_tails)
def test_exp_against_loop_oracle(tail):
    f = UniSeries([0] + tail)
    assert reduced(f.exp()).coeffs == exp_oracle(f).coeffs


@settings(max_examples=40)
@given(mixed_tails, small_fractions)
@example([F(-48), F(0), F(12288)], F(-1, 4))
@example([F(1, 3), F(-7, 2)], F(-5, 2))
def test_power_against_log_exp_oracle(tail, r):
    f = UniSeries([1] + tail)
    got = reduced(f.power(r))
    assert got.coeffs == power_oracle(f, r).coeffs
    assert got.coeffs == ode_oracle(f, 1, 1, r + 1, 1)


# about half the coefficients 0, so outer and inner series come sparse
sparse_fractions = st.one_of(st.just(F(0)), small_fractions)


@st.composite
def compositions(draw):
    """(outer, inner): outer to order up to 40; inner of valuation 1-4, or 0
    to its order, of an order above, equal to or below the outer one."""
    order = draw(st.integers(0, 40))
    outer = draw(st.lists(sparse_fractions, min_size=order + 1, max_size=order + 1))
    inner_order = max(0, order + draw(st.sampled_from([-7, -1, 0, 0, 1, 7])))
    v = draw(st.integers(1, 4))
    lead = draw(st.one_of(st.just(F(0)), nonzero_fractions))
    tail = draw(st.lists(sparse_fractions, max_size=inner_order)) if lead else []
    return UniSeries(outer), UniSeries([0] * v + [lead] + tail, inner_order)


@settings(max_examples=80, deadline=None)
@given(compositions())
# M = 0 and M = 1, with an inner of order below, equal to and above the outer
@example((UniSeries([F(3, 2)]), UniSeries([0, 5])))
@example((UniSeries([1, -2]), UniSeries([0])))
@example((UniSeries([F(1, 3), 2, -1]), UniSeries([0, F(-7, 2)])))
@example((UniSeries([F(1, 3), 2, -1, F(5, 7), 1, 1, 3, F(-2, 9)]),
          UniSeries([0, 0, F(27, 2), 0, -1, 4])))
@example((UniSeries([1, 2, 3, 4, 5, 6, 7]), UniSeries([0, 0, 0, 5])))  # valuation 3
@example((UniSeries([1, 2, 3, 4]), UniSeries([0, 0, 0, 0])))  # inner 0 to the order
# K = 40 coefficients in blocks of 7: 5 full blocks and a partial top one of 5;
# a square K = 36 of 6 full blocks; and K = 11 at valuation 4, blocks 4, 4, 3
@example((UniSeries(range(1, 41)), UniSeries([0, 1, F(-1, 2), 3], 39)))
@example((UniSeries([F(1, n) for n in range(1, 37)]), UniSeries([0, 2, 0, 0, 1], 38)))
@example((UniSeries([0] * 10 + [1] * 31), UniSeries([0, 0, 0, 0, F(3, 4), 1], 40)))
def test_compose_against_full_horner(pair):
    f, inner = pair
    got, want = reduced(f.compose(inner)), compose_oracle(f, inner)
    assert (got.nums, got.den, got.order) == (want.nums, want.den, want.order)


@settings(max_examples=40)
@given(nonzero_fractions, small_tails)
def test_reversion_against_compose_oracle(f1, tail):
    f = UniSeries([0, f1] + tail)
    assert f.reversion().coeffs == reversion_oracle(f).coeffs


mixed_series = st.lists(mixed_fractions, min_size=1, max_size=9)


@settings(max_examples=40)
@given(mixed_series, mixed_series)
def test_add_sub_over_mixed_denominators(xs, ys):
    f, g = UniSeries(xs), UniSeries(ys)
    assert reduced(f + g).coeffs == [x + y for x, y in zip(f.coeffs, g.coeffs)]
    assert reduced(f - g).coeffs == [x - y for x, y in zip(f.coeffs, g.coeffs)]
    assert reduced(-f).coeffs == [-x for x in f.coeffs]


@settings(max_examples=40)
@given(mixed_series, mixed_series, mixed_fractions)
def test_mul_against_fraction_oracle(xs, ys, q):
    f, g = UniSeries(xs), UniSeries(ys)
    assert reduced(f * g).coeffs == mul_oracle(f, g)
    assert reduced(q * f).coeffs == [q * x for x in f.coeffs]
    if q:
        assert reduced(f / q).coeffs == [x / q for x in f.coeffs]


@settings(max_examples=40)
@given(mixed_series, mixed_fractions, nonzero_fractions, small_fractions,
       small_fractions)
def test_ode_against_fraction_oracle(xs, g0, c, a, b):
    f = UniSeries(xs)
    assert reduced(f._ode(g0, c, a, b)).coeffs == ode_oracle(f, g0, c, a, b)


@settings(max_examples=40)
@given(mixed_series, small_tails, nonzero_fractions)
def test_every_operation_keeps_the_series_reduced(xs, tail, s):
    f, inner = UniSeries(xs), UniSeries([0] + tail)
    reduced(f.truncate(0))
    reduced(f.derivative())
    reduced(f.integrate())
    reduced(f.scale_argument(s))
    assert f.scale_argument(s).coeffs == [x * s ** n for n, x in enumerate(f.coeffs)]
    reduced(f.compose(inner))
    reduced(f ** 3)
    reduced(UniSeries([0, s] + tail).reversion())
