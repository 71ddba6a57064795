"""A denominator sum_k c_k e_k(x_1, ..., x_d) is its coefficient vector
c_0, ..., c_d.  These tests hold the vector to its monomial expansion, the
route in `oracles` that the kernel's differential tests read, and check the
vector maps there (scaling the variables, setting the last one to 0) and
the c= spelling of a cache header."""

import io
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from diagonalis.exactalg import UniPoly, plain
from diagonalis.family import canonicalize, make_family, named_instance
from diagonalis.seriesbox import (_coefficient_vector, expand_layers, save_cache,
                                  tap_diagonal)
from oracles import (elementary_symmetric, scale_variables, substitute_zero,
                     symmetric_denominator)


def _unit(d: int, k: int) -> list:
    """The coefficient vector of e_k(x_1, ..., x_d)."""
    return [int(j == k) for j in range(d + 1)]


def test_e1_of_three():
    assert elementary_symmetric(3, 1) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_e2_of_four_has_six_terms():
    e2 = elementary_symmetric(4, 2)
    assert len(e2) == 6
    assert all(c == 1 for c in e2.values())
    assert (1, 1, 0, 0) in e2


def test_e4_of_four():
    assert elementary_symmetric(4, 4) == {(1, 1, 1, 1): 1}


def test_e0_is_one():
    assert elementary_symmetric(3, 0) == {(0, 0, 0): 1}
    assert symmetric_denominator(_unit(3, 0)) == {(0, 0, 0): 1}


def test_ek_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric(3, 4)


@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(d + 1)])
def test_ek_term_count(d, k):
    assert len(elementary_symmetric(d, k)) == math.comb(d, k)
    assert symmetric_denominator(_unit(d, k)) == elementary_symmetric(d, k)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=20),
       st.integers(min_value=1, max_value=4))
def test_generating_identity(t, d):
    # prod (x + x_j) at x_j = t equals (x + t)^d
    lhs = UniPoly()
    for k in range(d + 1):
        ek = sum(elementary_symmetric(d, k).values()) * t ** k
        lhs = lhs + ek * UniPoly([0, 1]) ** (d - k)
    assert lhs == UniPoly([t, 1]) ** d


def _dropped(terms: dict) -> dict:
    """The monomial dict of p(x_1, ..., x_{d-1}, 0)."""
    return {exp[:-1]: c for exp, c in terms.items() if exp[-1] == 0}


def test_substitute_zero_on_ek():
    for d in range(2, 5):
        for k in range(d):
            assert substitute_zero(_unit(d, k)) == _unit(d - 1, k)
            assert _dropped(elementary_symmetric(d, k)) == elementary_symmetric(d - 1, k)
        assert not any(substitute_zero(_unit(d, d)))
        assert _dropped(elementary_symmetric(d, d)) == {}


def test_symmetric_denominator_ag3():
    assert symmetric_denominator([1, -1, 0, 4]) == {
        (0, 0, 0): 1,
        (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1,
        (1, 1, 1): 4,
    }


def test_symmetric_denominator_kzd():
    # 1 - e1 + 2 e3 + 4 e4 in four variables
    p = symmetric_denominator([1, -1, 0, 2, 4])
    assert p.get((1, 1, 1, 0), 0) == 2
    assert p.get((1, 1, 1, 1), 0) == 4
    assert p.get((1, 1, 0, 0), 0) == 0
    assert len(p) == 1 + 4 + 4 + 1


def test_symmetric_denominator_constant():
    assert symmetric_denominator([1, 0, 0]) == {(0, 0): 1}


def test_scale_identity():
    c = [1, -1, F(1, 2)]
    assert scale_variables(c, 1) == c


def test_scale_szego_by_two():
    # oracle: direct monomial substitution x -> 2x in 1 - e1 + (3/4) e2
    c = [1, -1, F(3, 4), 0]
    scaled = scale_variables(c, 2)
    assert scaled == [1, -2, 3, 0]
    assert symmetric_denominator(scaled) == {
        exp: v * 2 ** sum(exp) for exp, v in symmetric_denominator(c).items()}


def test_scale_realizes_canonical_form():
    # 1 + c1(x+y) + c2 xy under x -> -x/c1 gives 1 - (x+y) + (c2/c1^2) xy
    c1, c2 = F(-3), F(5)
    scaled = scale_variables([1, c1, c2], -1 / c1)
    assert scaled == [1, -1, c2 / c1 ** 2]
    assert tuple(scaled) == canonicalize(make_family(2, [1, c1, c2]))[0].coeffs


def test_substitute_zero_ag3():
    c = [1, -1, 0, 4]
    assert substitute_zero(c) == [1, -1, 0]
    assert symmetric_denominator(substitute_zero(c)) == \
        _dropped(symmetric_denominator(c)) == {(0, 0): 1, (1, 0): -1, (0, 1): -1}


def test_substitute_zero_hab():
    a, b = F(1, 3), F(7)
    c = [1, -1, a, b]
    assert substitute_zero(c) == [1, -1, a]
    assert symmetric_denominator(substitute_zero(c)) == \
        _dropped(symmetric_denominator(c)) == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): a}


def test_substitute_zero_keeps_one_variable():
    with pytest.raises(ValueError, match="cannot drop below one variable"):
        substitute_zero([1, -1])


def test_json_roundtrip_with_lambda_coefficients():
    c = named_instance("StraubLambda").coeffs
    assert tuple(_coefficient_vector(json.dumps(plain(list(c))))) == c


def test_json_deterministic_order():
    # the c= of a cache header lists c_0, ..., c_d in order, each spelled
    # one way, whether the vector holds Fractions or ints
    for c in (named_instance("AG3").coeffs, [1, -1, 0, 4]):
        layers = expand_layers(c, 1, 10 ** 8)
        scale, diagonal = next(layers), []
        for _ in tap_diagonal(layers, 3, 1, diagonal):
            pass
        buf = io.StringIO()
        save_cache(c, 1, scale, diagonal, buf)
        assert buf.getvalue().split("\n", 1)[0].endswith('; c=["1","-1","0","4"]')
