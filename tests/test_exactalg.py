import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diagonalis import exactalg
from diagonalis.exactalg import UniPoly, binomial, over_lcm, plain, rat, reduce_nums
from unipoly_oracle import FractionUniPoly

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 4)


def test_binomial_pascal():
    assert binomial(4, 2) == 6


def test_binomial_factorial_oracle():
    # oracle: 6!/(3! 3!)
    expected = F(math.factorial(6), math.factorial(3) * math.factorial(3))
    assert binomial(6, 3) == expected == 20


def test_binomial_out_of_range():
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_unipoly_eval_franel_step():
    # oracle: term-by-term sum 7*1 + 7*1 + 2
    p = UniPoly([2, 7, 7])
    assert p(1) == 7 + 7 + 2 == 16


def test_unipoly_eval_zero_poly():
    assert UniPoly()(5) == 0


def test_unipoly_eval_root():
    assert UniPoly([1, 1])(-1) == 0


def test_unipoly_mul_difference_of_squares():
    assert UniPoly([1, 1]) * UniPoly([1, -1]) == UniPoly([1, 0, -1])


def test_unipoly_sub_cancels_to_zero():
    z = UniPoly([0, 0, 1]) - UniPoly([0, 0, 1])
    assert z.is_zero()
    assert z.degree == -1


def test_unipoly_mul_convolution_oracle():
    # oracle: coefficient convolution of (x+2)(x+3)
    a, b = [2, 1], [3, 1]
    conv = [F(0)] * 3
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    assert UniPoly(a) * UniPoly(b) == UniPoly(conv)
    assert conv == [6, 5, 1]


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(rationals, rationals)
def test_rational_always_reduced(a, b):
    q = a * b
    assert math.gcd(q.numerator, q.denominator) == 1
    assert q.denominator > 0


small_polys = st.lists(rationals, max_size=5).map(UniPoly)


@given(small_polys, small_polys, rationals)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@pytest.mark.parametrize("k", range(7))
@given(p=st.lists(rationals, max_size=3).map(UniPoly))
def test_power_is_the_product_of_k_copies(k, p):
    want = UniPoly.const(1)
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative power"):
        UniPoly([1, 1]) ** -1


@given(small_polys)
def test_no_trailing_zeros(p):
    assert not p.coeffs or p.coeffs[-1] != 0


def test_divmod():
    for num, div, quot, rem in [
        ([6, 5, 1], [2, 1], [3, 1], []),  # (x+2)(x+3)
        # a negative, non-unit leading coefficient in the divisor
        ([1, 0, 0, 1], [1, -2], [F(-1, 8), F(-1, 4), F(-1, 2)], [F(9, 8)]),
        ([F(1, 2), F(-1, 3), F(5, 7)], [F(3, 4), F(-6, 5)],
         [F(-95, 1008), F(-25, 42)], [F(767, 1344)]),
        ([1, 2], [0, 0, 3], [], [1, 2]),  # lower degree than the divisor
        ([], [5], [], []),
    ]:
        q, r = UniPoly(num).divmod(UniPoly(div))
        assert q == UniPoly(quot) and r == UniPoly(rem)
        assert UniPoly(num) % UniPoly(div) == r
        Q, R = FractionUniPoly(num).divmod(FractionUniPoly(div))
        assert (q.coeffs, r.coeffs) == (Q.coeffs, R.coeffs)


def test_primitive_normalization():
    for coeffs, want in [
        ([F(2, 3), F(-4, 3)], [-1, 2]),
        ([F(-6, 5), 0, F(-9, 5)], [2, 0, 3]),
        ([7], [1]),
        ([], []),
    ]:
        assert UniPoly(coeffs).primitive() == UniPoly(want)
        assert FractionUniPoly(coeffs).primitive().coeffs == UniPoly(want).coeffs


# --- the integer form against the Fraction oracle ----------------------------

poly_coeffs = st.lists(st.one_of(rationals, st.integers(-50, 50)), max_size=6)


@given(poly_coeffs, poly_coeffs, rationals)
def test_integer_unipoly_matches_the_fraction_oracle(a, b, x):
    p, q = UniPoly(a), UniPoly(b)
    P, Q = FractionUniPoly(a), FractionUniPoly(b)
    assert p.coeffs == P.coeffs and p.degree == P.degree
    assert [p[i] for i in range(-1, 8)] == [P[i] for i in range(-1, 8)]
    for op in (operator.add, operator.sub, operator.mul):
        assert op(p, q).coeffs == op(P, Q).coeffs
        assert op(p, x).coeffs == op(P, x).coeffs
        assert op(x, p).coeffs == op(x, P).coeffs
    assert (-p).coeffs == (-P).coeffs
    assert (p * 3).coeffs == (P * 3).coeffs
    if x:
        assert (p / x).coeffs == (P / x).coeffs
    for k in range(4):
        assert (p ** k).coeffs == (P ** k).coeffs
    if b and any(b):
        (d, r), (D, R) = p.divmod(q), P.divmod(Q)
        assert (d.coeffs, r.coeffs) == (D.coeffs, R.coeffs)
        assert (p % q).coeffs == (P % Q).coeffs
    assert p.derivative().coeffs == P.derivative().coeffs
    assert p.primitive().coeffs == P.primitive().coeffs
    assert p.content() == P.content()
    assert p.leading_coefficient() == P.leading_coefficient()
    assert p(x) == P(x) and p(3) == P(3)
    assert p.sign_at(x) == (P(x) > 0) - (P(x) < 0)
    assert p.to_json() == P.to_json()
    assert repr(p) == repr(P).replace("FractionUniPoly", "UniPoly")
    assert (p == x) == (P == x) and (p == q) == (P == Q)


@given(poly_coeffs)
def test_integer_form_is_canonical(cs):
    p = UniPoly(cs)
    assert p.den > 0 and all(type(n) is int for n in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    assert UniPoly.from_nums([n * -3 for n in p.nums] + [0], -3 * p.den) == p


@given(st.lists(rationals, max_size=6))
def test_over_lcm_and_reduce_nums(qs):
    nums, den = over_lcm(qs)
    assert [F(n, den) for n in nums] == qs
    assert math.gcd(den, *nums) == 1
    assert reduce_nums([n * 6 for n in nums], den * 6) == (nums, den)


class _Counted(F):
    """A stand-in for `Fraction` that counts its constructions."""
    made = 0

    def __new__(cls, *args, **kwargs):
        _Counted.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_unipoly_arithmetic_builds_no_fraction(monkeypatch):
    p = UniPoly([F(1, 2), -3, F(5, 7), 2, F(-4, 9)])
    q = UniPoly([F(-2, 3), 0, 4])
    x = _Counted(2, 5)
    monkeypatch.setattr(exactalg, "Fraction", _Counted)

    def made(f):
        _Counted.made = 0
        f()
        return _Counted.made
    for f in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: p.divmod(q),
              lambda: p % q, lambda: p.derivative(), lambda: p.primitive(),
              lambda: p ** 3, lambda: UniPoly([1, 2]) + 1):
        assert made(f) == 0
    assert made(lambda: p(3)) == made(lambda: p(x)) == 1
    assert made(lambda: p.sign_at(x)) == 0


@pytest.mark.parametrize("value", [3, F(3, 4), F(-2), 0])
def test_a_constant_unipoly_hashes_as_its_value(value):
    p = UniPoly.const(value)
    assert p == value and hash(p) == hash(value)
    assert len({p, value}) == 1
    assert len({UniPoly([value, 1]), UniPoly([value, 1])}) == 1


def test_rational_serialization():
    assert plain(F(3)) == "3"
    assert plain(F(-16, 27)) == "-16/27"
    assert rat("-16/27") == F(-16, 27)


def test_rat_rejects_zero_denominator_and_non_numbers():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rat("1/0")
    with pytest.raises(ValueError, match=r"not a rational number: \[1\]"):
        rat([1])


def test_json_true_is_no_rational():
    # True is an int, and Fraction(True) == 1
    for read in (rat, lambda x: UniPoly.from_json(["1", x])):
        with pytest.raises(ValueError, match=r"^not a rational number: True$"):
            read(True)


def test_unipoly_json_roundtrip():
    p = UniPoly([F(1, 2), 0, -3])
    assert UniPoly.from_json(p.to_json()) == p
