import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diagonalis.exactalg import UniPoly
from diagonalis.multipoly import (MultiPoly, elementary_symmetric,
                                  symmetric_denominator)
from oracles import scale_variables, substitute_zero


def test_e1_of_three():
    e1 = elementary_symmetric(3, 1)
    assert e1.terms == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_e2_of_four_has_six_terms():
    e2 = elementary_symmetric(4, 2)
    assert len(e2.terms) == 6
    assert all(c == 1 for c in e2.terms.values())
    assert (1, 1, 0, 0) in e2.terms


def test_e4_of_four():
    assert elementary_symmetric(4, 4).terms == {(1, 1, 1, 1): 1}


def test_e0_is_one():
    assert elementary_symmetric(3, 0) == MultiPoly.constant(3, 1)


def test_ek_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(3, 4)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(d + 1)])
def test_ek_term_count(d, k):
    assert len(elementary_symmetric(d, k).terms) == math.comb(d, k)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=20),
       st.integers(min_value=1, max_value=4))
def test_generating_identity(t, d):
    # prod (x + x_j) at x_j = t equals (x + t)^d
    lhs = UniPoly()
    for k in range(d + 1):
        ek = sum(elementary_symmetric(d, k).terms.values()) * t ** k
        lhs = lhs + ek * UniPoly([0, 1]) ** (d - k)
    assert lhs == UniPoly([t, 1]) ** d


def test_substitute_zero_on_ek():
    for d in range(2, 5):
        for k in range(d):
            assert substitute_zero(elementary_symmetric(d, k), d - 1) == \
                elementary_symmetric(d - 1, k)
        assert substitute_zero(elementary_symmetric(d, d), 0).is_zero()


def test_symmetric_denominator_ag3():
    p = symmetric_denominator([1, -1, 0, 4])
    assert p.terms == {
        (0, 0, 0): 1,
        (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1,
        (1, 1, 1): 4,
    }


def test_symmetric_denominator_kzd():
    # 1 - e1 + 2 e3 + 4 e4 in four variables
    p = symmetric_denominator([1, -1, 0, 2, 4])
    assert p.terms.get((1, 1, 1, 0), 0) == 2
    assert p.terms.get((1, 1, 1, 1), 0) == 4
    assert p.terms.get((1, 1, 0, 0), 0) == 0
    assert len(p.terms) == 1 + 4 + 4 + 1


def test_symmetric_denominator_constant():
    assert symmetric_denominator([1, 0, 0]) == MultiPoly.constant(2, 1)


def test_scale_identity():
    p = symmetric_denominator([1, -1, F(1, 2)])
    assert scale_variables(p, (1, 1)) == p


def test_scale_szego_by_two():
    # oracle: direct monomial substitution x -> 2x in 1 - e1 + (3/4) e2
    p = symmetric_denominator([1, -1, F(3, 4), 0])
    scaled = scale_variables(p, (2, 2, 2))
    expected = symmetric_denominator([1, -2, 3, 0])
    assert scaled == expected


def test_scale_realizes_canonical_form():
    # 1 + c1(x+y) + c2 xy under x -> -x/c1 gives 1 - (x+y) + (c2/c1^2) xy
    c1, c2 = F(-3), F(5)
    p = MultiPoly(2, {(0, 0): F(1), (1, 0): c1, (0, 1): c1, (1, 1): c2})
    s = -1 / c1
    scaled = scale_variables(p, (s, s))
    assert scaled.terms.get((1, 0), 0) == -1
    assert scaled.terms.get((1, 1), 0) == c2 / c1 ** 2


def test_substitute_zero_ag3():
    p = symmetric_denominator([1, -1, 0, 4])
    q = substitute_zero(p, 2)
    assert q == MultiPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})


def test_substitute_zero_hab():
    a, b = F(1, 3), F(7)
    p = symmetric_denominator([1, -1, a, b])
    q = substitute_zero(p, 2)
    assert q == MultiPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): a})


def test_substitute_zero_index_check():
    with pytest.raises(IndexError):
        substitute_zero(MultiPoly.constant(2, 1), 2)


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("p", [
    symmetric_denominator([1, -1, F(1, 2), 4]),
    MultiPoly(2, {(0, 0): UniPoly.const(1), (1, 1): UniPoly([0, 1, 1])}),
    MultiPoly(2),
])
def test_power_is_the_product_of_k_copies(p, k):
    want = MultiPoly.constant(p.dim, 1)
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative power"):
        elementary_symmetric(2, 1) ** -1


@pytest.mark.parametrize("dim, exp", [(2.0, (0, 0)), (True, (0,)), (2, (1.0, 0)),
                                      (2, (True, 0)), (2, (-1, 0))])
def test_dimension_and_exponents_are_integers(dim, exp):
    # JSON's 2.0 and true compare equal to 2 and 1, but are no dimension or exponent
    with pytest.raises(ValueError, match="integer"):
        MultiPoly(dim, {exp: F(1)})


def test_json_roundtrip_with_lambda_coefficients():
    lam = UniPoly.x()
    p = MultiPoly(2, {(0, 0): UniPoly.const(1), (1, 1): lam * (lam + 2)})
    assert MultiPoly.from_json(p.to_json()) == p


def test_json_deterministic_order():
    p = symmetric_denominator([1, -1, 0, 4])
    exps = [tuple(t["exp"]) for t in p.to_json()["terms"]]
    assert exps[0] == (0, 0, 0)
    assert exps == sorted(exps, key=lambda e: (sum(e), tuple(-x for x in e)))
