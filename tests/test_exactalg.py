import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diagonalis.exactalg import UniPoly, binomial, plain, rat

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
    p = UniPoly([6, 5, 1])   # (x+2)(x+3)
    q, r = p.divmod(UniPoly([2, 1]))
    assert q == UniPoly([3, 1]) and r.is_zero()


def test_primitive_normalization():
    p = UniPoly([F(2, 3), F(-4, 3)])
    prim = p.primitive()
    assert prim == UniPoly([-1, 2])


def test_rational_serialization():
    assert plain(F(3)) == "3"
    assert plain(F(-16, 27)) == "-16/27"
    assert rat("-16/27") == F(-16, 27)


def test_rat_rejects_zero_denominator_and_non_numbers():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rat("1/0")
    with pytest.raises(ValueError, match=r"not a rational number: \[1\]"):
        rat([1])


def test_unipoly_json_roundtrip():
    p = UniPoly([F(1, 2), 0, -3])
    assert UniPoly.from_json(p.to_json()) == p
