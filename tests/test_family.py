from fractions import Fraction as F

import pytest

from diagonalis.exactalg import UniPoly, plain
from diagonalis.family import (_FAMILIES, FamilySpec, canonicalize,
                               make_family, named_instance)
from diagonalis.sequences import extract_diagonal
from diagonalis.seriesbox import expand_reciprocal
from oracles import symmetric_denominator


@pytest.mark.parametrize("k, c", [(0, 1), (1, -1), (2, F(3, 4)), (3, 0)])
def test_a_constant_unipoly_coefficient_keeps_the_family_hash(k, c):
    cs = [1, -1, F(3, 4), 0]
    plain_spec = make_family(3, cs)
    cs[k] = UniPoly.const(c)
    spec = make_family(3, cs)
    assert spec == plain_spec and hash(spec) == hash(plain_spec)
    assert len({spec, plain_spec}) == 1


@pytest.mark.parametrize("k, c", [(0, 1), (1, -1), (2, F(3, 4)), (3, 0)])
def test_a_constant_unipoly_coefficient_keeps_the_rational_box(k, c):
    # equal families expand alike: a constant UniPoly is no lambda
    cs = [1, -1, F(3, 4), 0]
    plain_box = expand_reciprocal(make_family(3, cs).coeffs, 4)
    cs[k] = UniPoly.const(c)
    box = expand_reciprocal(make_family(3, cs).coeffs, 4)
    assert box.ring == plain_box.ring == "Q"
    assert box.scale == plain_box.scale and box.layers == plain_box.layers
    assert extract_diagonal(box) == extract_diagonal(plain_box)


def test_catalog_literals():
    assert named_instance("AG3").coeffs == (1, -1, 0, 4)
    assert named_instance("Szego3").coeffs == (1, -1, F(3, 4), 0)
    assert named_instance("LewyAskey").coeffs == (1, -1, F(2, 3), 0, 0)
    assert named_instance("KZ-D").coeffs == (1, -1, 0, 2, 4)
    assert named_instance("Kauers").coeffs == (1, -1, 0, F(64, 27), 0)
    assert named_instance("Koornwinder").coeffs == (1, -1, 0, 4, -16)
    assert named_instance("Szego4").coeffs == (1, -1, F(8, 9), F(-16, 27), 0)


def test_grz_defaults_to_factorial():
    fam = named_instance("GRZ", d=4)
    assert fam.coeffs == (1, -1, 0, 0, 24)
    fam3 = named_instance("GRZ", d=3, c=7)
    assert fam3.coeffs == (1, -1, 0, 7)


def test_parameterized_families():
    assert named_instance("hab", a=F(1, 2), b=2).coeffs == (1, -1, F(1, 2), 2)
    assert named_instance("habc", a=0, b=2, c=4).coeffs == (1, -1, 0, 2, 4)
    assert named_instance("h0b", b=5).coeffs == (1, -1, 0, 5, -25)
    assert named_instance("h2var", a=F(3, 2)).coeffs == (1, -1, F(3, 2))


def test_straub_lambda_generic():
    fam = named_instance("StraubLambda")
    assert fam.has_lambda()
    lam = UniPoly.x()
    assert fam.coeffs[1] == -(lam + 1)
    assert fam.coeffs[2] == lam * (lam + 2)
    assert fam.coeffs[3] == -((lam - 1) * (lam + 2) ** 2)


def test_straub_lambda_at_one_is_scaled_szego():
    # specializing lambda = 1 gives 1 - 2 e1 + 3 e2, the Szego family at
    # doubled variables
    fam = named_instance("StraubLambda", lam=1)
    assert not fam.has_lambda()
    assert fam.coeffs == (1, -2, 3, 0)
    norm, s = canonicalize(fam)
    assert s == F(1, 2)
    assert norm.coeffs == (1, -1, F(3, 4), 0)


def test_koornwinder_is_habc_point():
    assert named_instance("Koornwinder").coeffs == \
        named_instance("habc", a=0, b=4, c=-16).coeffs


def test_denominator_matches_coefficients():
    # KZ-D is 1 - e_1 + 2 e_3 + 4 e_4, spelled out monomial by monomial
    terms = symmetric_denominator(named_instance("KZ-D").coeffs)
    assert terms.get((1, 1, 1, 0), 0) == 2
    assert terms.get((1, 1, 1, 1), 0) == 4
    assert len(terms) == 1 + 4 + 4 + 1


def test_catalog_names_resolve():
    for name in _FAMILIES:
        params = {}
        if name == "hab":
            params = {"a": 0, "b": 1}
        elif name == "habc":
            params = {"a": 0, "b": 1, "c": 1}
        elif name == "h0b":
            params = {"b": 1}
        elif name == "h2var":
            params = {"a": 1}
        fam = named_instance(name, **params)
        assert fam.dim + 1 == len(fam.coeffs)


def test_make_family_validation():
    with pytest.raises(ValueError):
        make_family(3, [1, -1, 0])        # wrong length
    with pytest.raises(ValueError):
        make_family(2, [0, 1, 1])         # zero c_0


def test_canonicalize_idempotent():
    fam = make_family(3, [2, -4, 1, 3])
    norm, s = canonicalize(fam)
    assert norm.coeffs[0] == 1 and norm.coeffs[1] == -1
    assert s == F(1, 2)
    again, s2 = canonicalize(norm)
    assert again.coeffs == norm.coeffs and s2 == 1


def test_canonicalize_tracks_scale_powers():
    fam = make_family(2, [1, -2, 12])
    norm, s = canonicalize(fam)
    assert s == F(1, 2)
    assert norm.coeffs == (1, -1, 3)


def test_canonicalize_rejects_nonnegative_c1():
    with pytest.raises(ValueError, match="c_1/c_0 >= 0"):
        canonicalize(make_family(2, [1, 1, 1]))
    with pytest.raises(ValueError):
        canonicalize(named_instance("StraubLambda"))


def test_json_and_describe():
    fam = named_instance("Szego3")
    data = plain(fam)
    assert data["coeffs"] == ["1", "-1", "3/4", "0"]


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        named_instance("nope")
