"""Every catalog spelling resolves to the same family, oracle and recurrence.

The expected tables are literals, so a registry that drops a spelling or
changes an entry fails here rather than only in an end-to-end check.
"""
from fractions import Fraction as F

import pytest

from diagonalis.exactalg import plain
from diagonalis.family import _FAMILIES, named_instance
from diagonalis.sequences import binomial_oracle, builtin_recurrence
from diagonalis.seriesbox import expand_reciprocal, extract_diagonal

# catalog name -> (parameters, spec name, dim, coefficients as JSON)
FAMILIES = {
    "AG3": ({}, "AG3", 3, ["1", "-1", "0", "4"]),
    "Szego3": ({}, "Szego3", 3, ["1", "-1", "3/4", "0"]),
    "LewyAskey": ({}, "LewyAskey", 4, ["1", "-1", "2/3", "0", "0"]),
    "KZ-D": ({}, "KZ-D", 4, ["1", "-1", "0", "2", "4"]),
    "Kauers": ({}, "Kauers", 4, ["1", "-1", "0", "64/27", "0"]),
    "GRZ": ({}, "GRZ-4", 4, ["1", "-1", "0", "0", "24"]),
    "Koornwinder": ({}, "Koornwinder", 4, ["1", "-1", "0", "4", "-16"]),
    "Szego4": ({}, "Szego4", 4, ["1", "-1", "8/9", "-16/27", "0"]),
    "hab": ({"a": "1/2", "b": 3}, "hab", 3, ["1", "-1", "1/2", "3"]),
    "habc": ({"a": 1, "b": 2, "c": 3}, "habc", 4, ["1", "-1", "1", "2", "3"]),
    "h0b": ({"b": 2}, "h0b", 4, ["1", "-1", "0", "2", "-4"]),
    "h2var": ({"a": "1/3"}, "h2var", 2, ["1", "-1", "1/3"]),
    "StraubLambda": ({}, "StraubLambda", 3,
                     [["1"], ["-1", "-1"], ["0", "2", "1"], ["4", "0", "-3", "-1"]]),
}
FAMILY_ALIASES = {"h0bb2": "h0b"}

# oracle name -> (parameter a, values for n = 0..6)
ORACLES = {
    "franel": (None, [1, 2, 10, 56, 346, 2252, 15184]),
    "kzd": (None, [1, 4, 40, 544, 8536, 145504, 2618176]),
    "koornwinder": (None, [1, 8, 88, 1088, 14296, 195008, 2728384]),
    "szego3": (None, [1, 12, 198, 3720, 75690, 1626912, 36376704]),
    "2var": ("1/2", [1, F(3, 2), F(13, 4), F(63, 8), F(321, 16), F(1683, 32),
                     F(8989, 64)]),
    "lewy-askey": (None, [1, 24, 1080, 58560, 3490200, 220739904,
                          14557346496]),
}
ORACLE_ALIASES = {"szego3binomial": "szego3"}

# recurrence name -> (parameter a, coefficient JSON)
RECURRENCES = {
    "franel": (None, [["-8", "-16", "-8"], ["-16", "-21", "-7"], ["4", "4", "1"]]),
    "szego3": (None, [["648", "1458", "729"], ["-186", "-243", "-81"],
                      ["8", "8", "2"]]),
    "lewyaskey": (None, [["960", "2048", "1024"], ["-260", "-336", "-112"],
                         ["12", "12", "3"]]),
    "kzd": (None, [["16", "48", "48", "16"], ["-84", "-164", "-108", "-24"],
                   ["8", "12", "6", "1"]]),
    "2var": ("1/2", [["1/4", "1/4"], ["-9/2", "-3"], ["2", "1"]]),
}
RECURRENCE_ALIASES = {"sd": "szego3", "lewyaskeyu": "lewyaskey"}


def spellings(name):
    """The name in upper and lower case, and with '-' and '_' inserted."""
    out = {name, name.upper(), name.lower(), name.replace("-", "_")}
    for sep in "-_":
        out.add(name[:1] + sep + name[1:])
        out.add(name.lower()[:-1] + sep + name[-1:])
    return sorted(out)


def with_aliases(table, aliases):
    return [(s, name) for name in table for s in spellings(name)] + [
        (s, name) for alias, name in aliases.items() for s in spellings(alias)]


def test_catalog_names_are_the_family_table():
    assert list(_FAMILIES) == list(FAMILIES)


@pytest.mark.parametrize("spelling,name", with_aliases(FAMILIES, FAMILY_ALIASES))
def test_family_spellings(spelling, name):
    params, spec_name, dim, coeffs = FAMILIES[name]
    fam = named_instance(spelling, **params)
    assert (fam.name, fam.dim, plain(fam)["coeffs"]) == (spec_name, dim, coeffs)


def test_parameterized_families():
    grz = named_instance("grz", d=3, c=5)
    assert (grz.name, plain(grz)["coeffs"]) == ("GRZ-3", ["1", "-1", "0", "5"])
    straub = named_instance("straub-lambda", lam="1/2")
    assert plain(straub)["coeffs"] == ["1", "-3/2", "5/4", "25/8"]


def test_missing_family_parameter_is_value_error():
    with pytest.raises(ValueError, match="needs parameter b"):
        named_instance("hab", a=1)


@pytest.mark.parametrize("build,kind", [
    (lambda name, a: binomial_oracle(name, 1, a), "oracle"),
    (builtin_recurrence, "recurrence")])
def test_oracle_and_recurrence_parameters_are_declared(build, kind):
    with pytest.raises(ValueError, match=f"{kind} 'franel' takes no parameter a"):
        build("franel", 7)
    with pytest.raises(ValueError, match=f"{kind} '2var' needs parameter a"):
        build("2var", None)


@pytest.mark.parametrize("spelling,name", with_aliases(ORACLES, ORACLE_ALIASES))
def test_oracle_spellings(spelling, name):
    a, values = ORACLES[name]
    assert list(binomial_oracle(spelling, 6, a)) == values


@pytest.mark.parametrize("spelling,name",
                         with_aliases(RECURRENCES, RECURRENCE_ALIASES))
def test_recurrence_spellings(spelling, name):
    a, coeffs = RECURRENCES[name]
    assert builtin_recurrence(spelling, a).to_json() == coeffs


@pytest.mark.parametrize("lookup,kind", [(named_instance, "family"),
                                         (lambda s: binomial_oracle(s, 0), "oracle"),
                                         (builtin_recurrence, "recurrence")])
def test_unknown_names_raise(lookup, kind):
    with pytest.raises(ValueError, match=f"unknown {kind} 'nosuch'"):
        lookup("nosuch")


def test_lewy_askey_oracle_is_scaled_box_diagonal():
    box = expand_reciprocal(named_instance("LewyAskey").coeffs, 8)
    diag = extract_diagonal(box)
    assert binomial_oracle("lewyaskey", 8).coeffs == [9 ** n * diag[n] for n in range(9)]
