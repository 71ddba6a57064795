import functools
import io
import itertools
import math
import re
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diagonalis import sequences
from diagonalis.exactalg import UniPoly
from diagonalis.family import named_instance
from diagonalis.sequences import (GUESS_SAFETY_MARGIN, PRecurrence,
                                  binomial_oracle,
                                  builtin_recurrence,
                                  characteristic_polynomial,
                                  recurrence_check, recurrence_extend,
                                  recurrence_guess, recurrence_seed)
from diagonalis.seriesbox import (expand_layers, expand_reciprocal, extract_diagonal,
                                  load_cache, save_cache, tap_diagonal)
from diagonalis.uniseries import UniSeries
from oracles import fraction_recurrence_check, list_nullspace_mod


def test_readme_quick_tour():
    # the README's python block runs as printed and gives what its comments say
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = {}
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), tour)
    assert tour["diag"].coeffs[:4] == [1, 2, 10, 56]
    assert tour["rec"] == builtin_recurrence("franel").normalized()


def test_franel_oracle_values():
    assert binomial_oracle("franel", 3).coeffs == [1, 2, 10, 56]


def test_kzd_oracle_values():
    assert binomial_oracle("kzd", 4).coeffs == [1, 4, 40, 544, 8536]


def test_szego3_oracle_values():
    assert binomial_oracle("szego3", 5).coeffs == [1, 12, 198, 3720, 75690, 1626912]


def test_koornwinder_oracle_values():
    # independent double-binomial sum at n = 2: 1*36 + 4*4 + 36*1
    assert binomial_oracle("koornwinder", 2)[2] == 36 + 16 + 36


def test_twovar_oracle_edges():
    assert binomial_oracle("2var", 0, a=F(1, 2)).coeffs == [1]
    assert binomial_oracle("2var", 1, a=1)[1] == 1   # 2(n+... ) at a=1: 2-1 = 1
    assert binomial_oracle("2var", 2, a=0)[2] == math.comb(4, 2)


def test_oracle_validation():
    with pytest.raises(ValueError):
        binomial_oracle("franel", -1)
    with pytest.raises(ValueError):
        binomial_oracle("2var", 3)
    with pytest.raises(ValueError):
        binomial_oracle("nope", 0)


def test_builtin_recurrences_verify_on_oracles():
    assert recurrence_check(builtin_recurrence("franel"),
                            binomial_oracle("franel", 25)) is None
    assert recurrence_check(builtin_recurrence("szego3"),
                            binomial_oracle("szego3", 25)) is None
    assert recurrence_check(builtin_recurrence("kzd"),
                            binomial_oracle("kzd", 25)) is None


def test_recurrence_check_flags_tampered_term():
    vals = binomial_oracle("franel", 9).coeffs
    vals[7] += 1
    bad = recurrence_check(builtin_recurrence("franel"), UniSeries(vals))
    assert bad is not None and bad[0] <= 7


def test_recurrence_check_window_too_short():
    with pytest.raises(ValueError, match="window too short"):
        recurrence_check(builtin_recurrence("franel"), UniSeries([1, 2]))


def test_extend_franel():
    ext = recurrence_extend(builtin_recurrence("franel"), UniSeries([1, 2]), 5)
    assert ext.coeffs == [1, 2, 10, 56, 346, 2252]


def test_seed_matches_extend_for_franel():
    rec = builtin_recurrence("franel")
    assert recurrence_seed(rec, 8).coeffs == recurrence_extend(rec, UniSeries([1, 2]), 8).coeffs


def test_twovar_recurrence_matches_oracle():
    for a in (F(1, 2), F(3, 2), F(-3)):
        rec = builtin_recurrence("2var", a=a)
        win = binomial_oracle("2var", 20, a=a)
        assert recurrence_check(rec, win) is None


def test_guess_recovers_franel():
    seq = binomial_oracle("franel", 29)
    rec = recurrence_guess(seq, 2, 2)
    assert rec == builtin_recurrence("franel").normalized()


def test_guess_recovers_kzd():
    seq = binomial_oracle("kzd", 29)
    rec = recurrence_guess(seq, 2, 3)
    assert rec == builtin_recurrence("kzd").normalized()


def test_guess_needs_enough_terms():
    with pytest.raises(ValueError, match="need >= "):
        recurrence_guess(UniSeries(range(1, 9)), 3, 3)


def test_guess_prefers_minimal_order():
    # geometric sequence: order 1 suffices even when order 2 is allowed
    seq = UniSeries([F(3) ** n for n in range(20)])
    rec = recurrence_guess(seq, 2, 1)
    assert rec.order == 1


def test_guess_labels_nothing_for_random_junk():
    seq = UniSeries([1, 1, 2, 3, 5, 8, 14, 21, 34, 55, 89, 144,
                     233, 378, 610, 987, 1597, 2584])
    assert recurrence_guess(seq, 1, 1) is None


def test_characteristic_polynomial_2var():
    # x^2 - 2(2-a)x + a^2
    for a in (F(1, 2), F(2), F(-3)):
        cp = characteristic_polynomial(builtin_recurrence("2var", a=a))
        want = UniPoly([a * a, -2 * (2 - a), 1]).primitive()
        assert cp == want


def test_characteristic_polynomial_2var_complex_for_a_above_one():
    for a in (F(3, 2), F(2), F(5)):
        cp = characteristic_polynomial(builtin_recurrence("2var", a=a))
        disc = cp[1] ** 2 - 4 * cp[2] * cp[0]
        assert disc < 0


def test_characteristic_polynomial_kzd():
    # manual leading-term oracle: top n-degree is 3 with coefficients
    # 16, -24, 1 from 16(n+1)^3, -4(2n+3)(3n^2+9n+7), (n+2)^3
    rec = builtin_recurrence("kzd")
    assert rec.degree == 3
    lead = [p[3] for p in rec.coeffs]
    assert lead == [16, -24, 1]
    assert characteristic_polynomial(rec) == UniPoly([16, -24, 1])


def test_characteristic_polynomial_franel():
    assert characteristic_polynomial(builtin_recurrence("franel")) == \
        UniPoly([-8, -7, 1])  # (x-8)(x+1)


def test_normalized_is_integer_primitive():
    rec = PRecurrence((UniPoly([F(2, 3), F(4, 3)]), UniPoly([F(-2)])))
    norm = rec.normalized()
    assert norm.coeffs == (UniPoly([-1, -2]), UniPoly([3]))


def test_sign_scan_on_mixed_two_var_diagonal():
    # 1/(1 - x - y + 2xy): diagonal changes sign
    fam = named_instance("h2var", a=2)
    seq = extract_diagonal(expand_reciprocal(fam.coeffs, 12))
    assert any(v <= 0 for v in seq.coeffs)


def test_diagonal_requires_rational_box():
    fam = named_instance("StraubLambda")
    with pytest.raises(ValueError, match=r"^diagonal extraction requires a rational box$"):
        expand_reciprocal(fam.coeffs, 2)


def test_recurrence_json_roundtrip():
    rec = builtin_recurrence("kzd")
    assert PRecurrence.from_json(rec.to_json()) == rec


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
def test_guess_then_extend_reproduces_data(u0):
    # order-1 data with polynomial coefficient: u_{n+1} = (n+2) u_n
    vals = [u0]
    for n in range(15):
        vals.append((n + 2) * vals[-1])
    seq = UniSeries(vals)
    rec = recurrence_guess(seq, 1, 1)
    assert rec is not None
    ext = recurrence_extend(rec, UniSeries(vals[:2]), len(vals) - 1)
    assert ext.coeffs == seq.coeffs


def test_recurrence_from_json_rejects_non_nested_lists():
    for bad in ([1, 2], {}, "x", [["1"], 2]):
        with pytest.raises(ValueError, match="list of coefficient lists"):
            PRecurrence.from_json(bad)


def test_guess_rejects_empty_search_ranges():
    seq = binomial_oracle("franel", 29)
    for max_order, max_degree in ((0, 2), (2, -1)):
        with pytest.raises(ValueError, match="max_order >= 1 and max_degree >= 0"):
            recurrence_guess(seq, max_order, max_degree)


def test_extension_rejects_negative_upto():
    rec = builtin_recurrence("franel")
    with pytest.raises(ValueError, match="negative index -3"):
        recurrence_seed(rec, -3)
    with pytest.raises(ValueError, match="negative index -1"):
        recurrence_extend(rec, UniSeries([1, 2, 10]), -1)


def test_extend_keeps_initial_terms_past_upto():
    assert recurrence_extend(builtin_recurrence("franel"), UniSeries([1, 2, 10, 7]),
                             1).coeffs == [1, 2, 10, 7]


_small_ints = st.integers(-3, 3)
_small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def _recurrence_and_upto(draw):
    """An integer recurrence of order 1 or 2 with coefficients of degree
    <= 2, and upto <= 15, whose leading polynomial has no root at the
    instances n = 1-r .. upto-r that seeding and extension solve."""
    r = draw(st.integers(1, 2))
    upto = draw(st.integers(r, 15))
    coeffs = [UniPoly(draw(st.lists(_small_ints, max_size=3)))
              for _ in range(r + 1)]
    assume(all(coeffs[r](n) for n in range(1 - r, upto - r + 1)))
    return PRecurrence(tuple(coeffs)), upto


@settings(max_examples=60, deadline=None)
@given(_recurrence_and_upto(), st.lists(_small_fracs, min_size=2, max_size=2),
       st.data())
def test_one_runner_extends_and_resumes_the_seed(rec_upto, init, data):
    rec, upto = rec_upto
    r = rec.order
    ext = recurrence_extend(rec, UniSeries(init[:r]), upto)
    assert ext.order == upto and ext.coeffs[:r] == init[:r]
    assert recurrence_check(rec, ext) is None
    # the seed starts from u_0 = 1; the recurrence is linear, so scale it to init[0]
    seed = [init[0] * u for u in recurrence_seed(rec, upto).coeffs]
    # the seed also solves the instances n < 0, read with u_k = 0 for k < 0
    assert all(sum(rec.coeffs[j](n) * seed[n + j] for j in range(-n, r + 1)) == 0
               for n in range(1 - r, 0))
    k = data.draw(st.integers(r, upto + 1))
    assert recurrence_extend(rec, UniSeries(seed[:k]), upto).coeffs == seed


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(0, 10),
       st.lists(_small_ints, min_size=2, max_size=2))
def test_vanishing_leading_coefficient_names_the_blocked_index(r, m, lower):
    # p_r(n) = n - m vanishes only at the instance n = m, which solves for
    # u_(m+r); seeding starts at n = 1-r and extension at n = 0
    rec = PRecurrence(tuple(UniPoly([c]) for c in lower[:r]) + (UniPoly([-m, 1]),))
    blocked = rf"at n={m}; extension blocked at index {m + r}$"
    with pytest.raises(ValueError, match=blocked):
        recurrence_seed(rec, m + r + 2)
    with pytest.raises(ValueError, match=blocked):
        recurrence_extend(rec, UniSeries([1] * r), m + r + 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-6, max_value=6,
                                      max_denominator=5), max_size=3),
                min_size=2, max_size=3).filter(lambda ps: any(ps[-1])))
def test_normalized_is_primitive_and_proportional(ps):
    rec = PRecurrence(tuple(UniPoly(p) for p in ps))
    norm = rec.normalized()
    cs = [c for p in norm.coeffs for c in p.coeffs]
    assert all(c.denominator == 1 for c in cs)
    assert math.gcd(*(c.numerator for c in cs)) == 1
    assert norm.coeffs[-1].leading_coefficient() > 0
    ratio = (norm.coeffs[-1].leading_coefficient()
             / rec.coeffs[-1].leading_coefficient())
    assert norm.coeffs == tuple(p * ratio for p in rec.coeffs)


@st.composite
def _recurrence_and_terms(draw):
    """A recurrence of order r = 1 to 3 with small rational coefficients of
    degree <= 2, and r + 1 to r + 12 terms on which it holds, run from
    random initial terms."""
    r = draw(st.integers(1, 3))
    coeffs = [UniPoly(draw(st.lists(_small_fracs, max_size=3))) for _ in range(r + 1)]
    length = draw(st.integers(r + 1, r + 12))
    assume(all(coeffs[r](n) for n in range(length - r)))
    rec = PRecurrence(tuple(coeffs))
    init = draw(st.lists(_small_fracs, min_size=r, max_size=r))
    return rec, recurrence_extend(rec, UniSeries(init), length - 1).coeffs


@settings(max_examples=100, deadline=None)
@given(_recurrence_and_terms(),
       st.lists(st.tuples(st.integers(0, 14), _small_fracs.filter(bool)), max_size=2))
@example((builtin_recurrence("franel"), [1, 2, 10, 56, 346]), [(4, F(1, 3))])
@example((builtin_recurrence("kzd"), [1, 4, 40, 544]), [(0, F(-1)), (3, F(1, 2))])
def test_integer_check_matches_the_fraction_loop(case, tampers):
    # the check on one denominator gives the (n, residual) of the Fraction
    # loop it replaced, with tampered terms too
    rec, terms = case
    for index, delta in tampers:
        terms[index % len(terms)] += delta
    want = fraction_recurrence_check(rec, terms)
    assert recurrence_check(rec, UniSeries(terms)) == want
    assert tampers or want is None


@pytest.mark.parametrize("n", [0, 1, 6])
def test_every_producer_returns_the_order_asked_for(n):
    # a UniSeries compares equal to its truncations, so each length is
    # checked here by its order
    c = named_instance("AG3").coeffs
    assert extract_diagonal(expand_reciprocal(c, n)).order == n
    layers = expand_layers(c, n, 10 ** 8)
    scale, diagonal = next(layers), []
    for _ in tap_diagonal(layers, 3, n, diagonal):
        pass
    cache = io.StringIO()
    save_cache(c, n, scale, diagonal, cache)
    cache.seek(0)
    assert load_cache(cache)[1].order == n
    for name, a in (("franel", None), ("szego3", None), ("2var", 2), ("lewy-askey", None)):
        assert binomial_oracle(name, n, a).order == n
    rec = builtin_recurrence("franel")
    assert recurrence_seed(rec, n).order == n
    for terms in ([1, 2], [1, 2, 10, 56]):
        assert recurrence_extend(rec, UniSeries(terms), n).order == max(n, len(terms) - 1)


# Test-only oracles: the Fraction route that recurrence_guess took before it
# screened and solved each ansatz mod primes, with Gauss-Jordan elimination
# over Q on every ansatz.

def nullspace_oracle(matrix):
    """The reduced row-echelon nullspace basis over Q of a matrix of
    rationals, by Gauss-Jordan elimination over Q."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(map(F, r)) for r in matrix]
    pivots = {}  # col -> row
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        for c in range(col, ncols):
            pr[c] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                for c in range(col, ncols):
                    rows[r][c] -= f * pr[c]
        pivots[col] = rank
        rank += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


def guess_oracle(seq, max_order, max_degree):
    seq = seq.coeffs
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            unknowns = (order + 1) * (degree + 1)
            rows = len(seq) - order
            if rows < unknowns + GUESS_SAFETY_MARGIN:
                continue
            # degree-major, as `sequences._ansatz_matrix`: column
            # k(order+1) + j is n^k u_(n+j), so that the first basis vector of
            # a nullspace of dimension >= 2 is the one `recurrence_guess` takes
            matrix = [[F(n) ** k * seq[n + j] for k in range(degree + 1)
                       for j in range(order + 1)] for n in range(len(seq) - order)]
            for vec in nullspace_oracle(matrix):
                ps = tuple(UniPoly(vec[j::order + 1]) for j in range(order + 1))
                if ps[-1].is_zero():
                    continue
                cand = PRecurrence(ps).normalized()
                if fraction_recurrence_check(cand, seq) is None:
                    return cand
    return None


_GUESS_TERMS = 20


@st.composite
def _guessable_sequence(draw, terms=_GUESS_TERMS, degree=1):
    """u_0 .. u_(terms-1) of a recurrence of order 1 or 2 with coefficients
    of degree <= `degree` in n, small rationals, and a leading polynomial
    with no root at the instances that extension solves."""
    r = draw(st.integers(1, 2))
    coeffs = [UniPoly(draw(st.lists(_small_fracs, max_size=degree + 1)))
              for _ in range(r + 1)]
    assume(all(coeffs[r](n) for n in range(terms - r)))
    init = draw(st.lists(_small_fracs, min_size=r, max_size=r))
    return recurrence_extend(PRecurrence(tuple(coeffs)), UniSeries(init), terms - 1)


@settings(max_examples=40, deadline=None)
@given(_guessable_sequence())
def test_guess_matches_fraction_oracle(seq):
    assert recurrence_guess(seq, 2, 2) == guess_oracle(seq, 2, 2)


@settings(max_examples=40, deadline=None)
@given(_guessable_sequence(), st.integers(0, _GUESS_TERMS - 1),
       _small_fracs.filter(bool))
# (-1)^n n! with u_18 + 1: the (2, 2) ansatz has a nullspace of dimension 2,
# whose first basis vector depends on the column order
@example(UniSeries([(-1) ** n * math.factorial(n) for n in range(_GUESS_TERMS)]), 18, F(1))
def test_guess_matches_fraction_oracle_on_a_perturbed_term(seq, index, delta):
    terms = seq.coeffs
    terms[index] += delta
    seq = UniSeries(terms)
    assert recurrence_guess(seq, 2, 2) == guess_oracle(seq, 2, 2)


def _count_solves(monkeypatch):
    calls = []
    solve = sequences._nullspace

    def counted(matrix, first):
        calls.append(len(matrix))
        return solve(matrix, first)
    monkeypatch.setattr(sequences, "_nullspace", counted)
    return calls


def _solve(matrix):
    """`_nullspace` from the matrix's own first elimination, mod
    `_SCREEN_PRIME`, where the guess passes it the screen's cut."""
    return sequences._nullspace(
        matrix, sequences._nullspace_mod(matrix, sequences._SCREEN_PRIME))


def _count_modular_solves(monkeypatch):
    primes = []
    solve = sequences._nullspace_mod

    def counted(matrix, p):
        primes.append(p)
        return solve(matrix, p)
    monkeypatch.setattr(sequences, "_nullspace_mod", counted)
    return primes


def _first_primes(k):
    return list(itertools.islice(sequences._primes(), k))


def test_modular_route_needs_no_fraction_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    primes = _count_modular_solves(monkeypatch)
    seq = binomial_oracle("kzd", 29)
    assert recurrence_guess(seq, 2, 3) == builtin_recurrence("kzd").normalized()
    # the screen skips every ansatz but (2, 3), the one solve
    assert calls == [seq.order - 1]
    # one screen per order; the (2, 3) solve takes the screen's elimination
    # as its first prime and checks exactly there: 2 eliminations, where
    # solving every ansatz and waiting for two equal lifts took 9
    assert primes == [sequences._SCREEN_PRIME] * 2


def test_each_order_eliminates_once_mod_the_screen_prime(monkeypatch):
    primes = _count_modular_solves(monkeypatch)
    seq = binomial_oracle("kzd", 44)
    assert recurrence_guess(seq, 4, 6) == builtin_recurrence("kzd").normalized()
    # the (2, 3) solve lies below max_degree 6, and it starts from the cut
    # of order 2's screen rather than eliminating its 12 columns again mod
    # the screen's prime, so its lift at that prime costs no elimination
    assert primes == [sequences._SCREEN_PRIME] * 2


def test_lift_goes_on_past_a_wrong_reconstruction(monkeypatch):
    # a lift that fails the exact check is not final: the next prime
    # corrects it
    reconstruct = sequences._rational_reconstruction
    first = [True]

    def wrong_once(a, m):
        q = reconstruct(a, m)
        if first[0]:
            first[0] = False
            return q + 1
        return q
    monkeypatch.setattr(sequences, "_rational_reconstruction", wrong_once)
    calls = _count_solves(monkeypatch)
    primes = _count_modular_solves(monkeypatch)
    seq = binomial_oracle("kzd", 29)
    assert recurrence_guess(seq, 2, 3) == builtin_recurrence("kzd").normalized()
    assert not first[0] and len(calls) == 1
    # the screen's elimination is the first prime of the lift, so the lift
    # eliminates at one prime of its own, the next one
    assert primes == [sequences._SCREEN_PRIME] * 2 + _first_primes(2)[1:]


@settings(max_examples=40, deadline=None)
@given(_guessable_sequence(terms=25, degree=2))
@example(binomial_oracle("kzd", 24))
def test_screened_guess_matches_fraction_oracle(seq):
    assert recurrence_guess(seq, 2, 3) == guess_oracle(seq, 2, 3)
    # every degree whose cut of the screen has no basis vector has a
    # trivial nullspace over Q
    for order in (1, 2):
        screen = sequences._nullspace_mod(sequences._ansatz_matrix(seq, order, 3),
                                          sequences._SCREEN_PRIME)
        for degree in range(4):
            cut, _ = sequences._echelon_prefix(screen, (order + 1) * (degree + 1))
            if not cut:
                matrix = sequences._ansatz_matrix(seq, order, degree)
                assert nullspace_oracle(matrix) == []


@settings(max_examples=40, deadline=None)
@given(st.lists(_small_fracs, min_size=5, max_size=16), st.integers(1, 3),
       st.integers(0, 4))
def test_each_lower_ansatz_is_a_column_slice_of_the_top_one(terms, order, top):
    # degree-major columns: column k(order+1) + j of row n is n^k u_(n+j),
    # read on the numerators, so the ansatz of degree d is the first
    # (order+1)(d+1) columns of any higher one
    seq = UniSeries(terms)
    matrix = sequences._ansatz_matrix(seq, order, top)
    assert matrix == [[n ** k * seq.nums[n + j] for k in range(top + 1)
                       for j in range(order + 1)] for n in range(len(terms) - order)]
    for d in range(top + 1):
        width = (order + 1) * (d + 1)
        assert sequences._ansatz_matrix(seq, order, d) == [row[:width] for row in matrix]


def _cut_sizes(seq, order, top):
    """The number of basis vectors in each degree's cut of the screen."""
    screen = sequences._nullspace_mod(sequences._ansatz_matrix(seq, order, top),
                                      sequences._SCREEN_PRIME)
    return [len(sequences._echelon_prefix(screen, (order + 1) * (d + 1))[0])
            for d in range(top + 1)]


def test_screen_flags_the_first_degree_with_a_nullspace():
    seq = binomial_oracle("kzd", 24)
    # no degree up to 3 at order 1; at order 2, degree 3 first, with kzd's
    # one recurrence
    assert _cut_sizes(seq, 1, 3) == [0, 0, 0, 0]
    assert _cut_sizes(seq, 2, 3) == [0, 0, 0, 1]


def _perturbed_franel():
    seq = binomial_oracle("franel", 29).coeffs
    seq[20] += 1
    return UniSeries(seq)


@pytest.mark.parametrize("seq, max_order, max_degree", [
    (binomial_oracle("franel", 29), 2, 2),
    (binomial_oracle("kzd", 29), 2, 3),
    (_perturbed_franel(), 2, 2),
    (UniSeries([F(3) ** n for n in range(20)]), 2, 1),
    (UniSeries([F(n + 1, 3 ** n) for n in range(20)]), 2, 2),
])
def test_unlucky_screen_prime_gives_the_same_answer(monkeypatch, seq,
                                                    max_order, max_degree):
    want = guess_oracle(seq, max_order, max_degree)
    assert recurrence_guess(seq, max_order, max_degree) == want
    # mod 3 most ansätze lose rank, and 3^n vanishes from n = 1
    monkeypatch.setattr(sequences, "_SCREEN_PRIME", 3)
    assert recurrence_guess(seq, max_order, max_degree) == want


def test_no_recurrence_takes_one_elimination_per_order(monkeypatch):
    primes = _count_modular_solves(monkeypatch)
    seq = _perturbed_franel()
    assert recurrence_guess(seq, 2, 2) is None
    assert primes == [sequences._SCREEN_PRIME] * 2


def _unlucky_primes():
    """2, 3, 5 and 7, then the real supply: too small to lift most
    entries, and unlucky for many matrices."""
    real = sequences._primes
    return lambda: itertools.chain((2, 3, 5, 7), real())


def test_unlucky_primes_give_the_same_recurrence(monkeypatch):
    # every solve starts from the screen's cut, so the screen is mod 2 too:
    # its lifts start there and go on through 3, 5 and 7
    monkeypatch.setattr(sequences, "_SCREEN_PRIME", 2)
    monkeypatch.setattr(sequences, "_primes", _unlucky_primes())
    primes = _count_modular_solves(monkeypatch)
    seq = binomial_oracle("franel", 29)
    assert recurrence_guess(seq, 2, 3) == builtin_recurrence("franel").normalized()
    assert {2, 3, 5, 7} <= set(primes)
    assert primes.count(2) == 2  # one screen per order, never a lift


@functools.cache
def _kauers_diagonal():
    """The 36 diagonal terms of the Kauers box at N=35, as box-guess reads them."""
    box = expand_reciprocal(named_instance("Kauers").coeffs, 35)
    return extract_diagonal(box)


def test_each_ansatz_is_built_once(monkeypatch):
    built = []
    build = sequences._ansatz_matrix

    def counted(seq, order, degree):
        built.append((order, degree))
        return build(seq, order, degree)
    monkeypatch.setattr(sequences, "_ansatz_matrix", counted)
    rec = recurrence_guess(_kauers_diagonal(), 3, 6)
    assert (rec.order, rec.degree) == (3, 6)
    # each order's screen finds no lower degree, so its one ansatz at
    # max_degree is screened and then, for order 3, solved
    assert built == [(1, 6), (2, 6), (3, 6)]


def test_hadamard_bound_waits_for_a_failed_lift(monkeypatch):
    bounds = []
    bound = sequences._hadamard_bound

    def counted(matrix):
        bounds.append(len(matrix))
        return bound(matrix)
    monkeypatch.setattr(sequences, "_hadamard_bound", counted)
    primes = _count_modular_solves(monkeypatch)
    # the kzd (2, 3) lift passes at its first prime: no bound
    kzd = sequences._ansatz_matrix(binomial_oracle("kzd", 29), 2, 3)
    assert len(_solve(kzd)) == 1
    assert (bounds, primes) == ([], _first_primes(1))
    # the Kauers (3, 6) lift needs a third prime: one bound, after the
    # first lift fails
    kauers = sequences._ansatz_matrix(_kauers_diagonal(), 3, 6)
    del primes[:]
    assert len(_solve(kauers)) == 1
    assert (bounds, primes) == ([33], _first_primes(3))
    # a lift that never passes computes it once per solve, not per prime
    del bounds[:], primes[:]
    monkeypatch.setattr(sequences, "_rational_reconstruction", lambda a, m: None)
    with pytest.raises(ArithmeticError, match="no exact nullspace lift"):
        _solve(kzd)
    assert bounds == [len(kzd)] and len(primes) > 1


def test_broken_reconstruction_raises_and_does_not_hang(monkeypatch):
    monkeypatch.setattr(sequences, "_rational_reconstruction",
                        lambda a, m: None)
    primes = _count_modular_solves(monkeypatch)
    matrix = sequences._ansatz_matrix(binomial_oracle("franel", 29), 2, 2)
    with pytest.raises(ArithmeticError, match="no exact nullspace lift"):
        _solve(matrix)
    # the stop is twice the square of a Hadamard bound on the minors
    norms = sorted(math.isqrt(sum(a * a for a in row)) + 1 for row in matrix)
    stop = 2 * math.prod(norms[-len(matrix[0]):]) ** 2
    assert math.prod(primes[:-1]) <= stop < math.prod(primes)


@pytest.mark.parametrize("seq", [
    UniSeries([1, 1] + [0] * 23),
    UniSeries([0] * 25),
])
def test_degenerate_windows_match_the_oracle_at_nullity_2(seq):
    # both have an ansatz of nullity 2 below the recurrence they give
    assert any(len(_solve(sequences._ansatz_matrix(seq, 1, d))) == 2
               for d in range(3))
    assert recurrence_guess(seq, 2, 2) == guess_oracle(seq, 2, 2)


@st.composite
def _matrix_of_prescribed_rank(draw):
    """A rows x cols integer matrix B C, with B rows x rank and C rank x
    cols: its rank is at most `rank`, from 0 to cols."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.integers(cols, cols + 3))
    rank = draw(st.integers(0, cols))
    entries = st.integers(-9, 9)
    b = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                      min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rank, max_size=rank))
    return [[sum(b[i][k] * c[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


@pytest.mark.parametrize("unlucky", [False, True])
@settings(max_examples=100, deadline=None)
@given(_matrix_of_prescribed_rank())
@example([[2, 1]])  # pivot 0 over Q, pivot 1 mod 2
@example([[6, 35, 1], [0, 0, 0]])  # 6 vanishes mod 2 and 3, 35 mod 5 and 7
def test_nullspace_matches_the_fraction_oracle(unlucky, matrix):
    # unlucky: the first solve is mod 2, then 3, 5 and 7
    with mock.patch.object(sequences, "_primes",
                           _unlucky_primes() if unlucky else sequences._primes), \
         mock.patch.object(sequences, "_SCREEN_PRIME",
                           2 if unlucky else sequences._SCREEN_PRIME):
        assert _solve(matrix) == nullspace_oracle(matrix)


@st.composite
def _matrix_mod_a_prime(draw):
    """(B C, p) for B rows x rank and C rank x cols with random entries of
    one size, small, residue-sized or wide: rank 0 gives the zero matrix,
    a rank below min(rows, cols) a rank-deficient one, and a small p
    drops more rank."""
    p = draw(st.sampled_from([2, 3, 5, 7, sequences._SCREEN_PRIME]))
    cols = draw(st.integers(1, 30))
    rows = draw(st.integers(1, cols + 4))
    rank = draw(st.integers(0, min(rows, cols)))
    size = draw(st.sampled_from([9, p, 2 ** 64]))
    rnd = draw(st.randoms(use_true_random=False))
    b = [[rnd.randint(-size, size) for _ in range(rank)] for _ in range(rows)]
    c = [[rnd.randint(-size, size) for _ in range(cols)] for _ in range(rank)]
    return [[sum(b[i][k] * c[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)], p


def _slot_near_its_bound():
    """At p = 3 on 15 columns a slot is 6 bits, for values up to
    2 + 15 * 2^2 = 62.  Rows e_k + e_14 (k < 13) are the pivots of columns
    0 to 12, and each adds 2 * 2 to column 14 of the last row, which is 2
    in those columns: that slot reaches 2 + 13 * 4 = 54 before the row
    becomes the pivot of column 13 and column 14 is read for the basis."""
    return ([[int(c == k) + int(c == 14) for c in range(15)] for k in range(13)]
            + [[2] * 13 + [1, 2]], 3)


@settings(max_examples=150, deadline=None)
@given(_matrix_mod_a_prime())
@example(_slot_near_its_bound())
@example(([[0, 0, 0]] * 2, 2))
def test_packed_elimination_matches_the_list_oracle(case):
    matrix, p = case
    assert sequences._nullspace_mod(matrix, p) == list_nullspace_mod(matrix, p)


@st.composite
def _matrix_with_multiples_of_p(draw):
    """(M, p) for a small integer M whose entries are often multiples of p,
    so that it loses rank mod p where it keeps it over Q."""
    p = draw(st.sampled_from([2, 3, 5, 7, sequences._SCREEN_PRIME]))
    cols = draw(st.integers(1, 8))
    rows = draw(st.integers(1, cols + 3))
    entry = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * p))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), p


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrix_mod_a_prime(), _matrix_with_multiples_of_p()))
@example(_slot_near_its_bound())
@example(([[0, 0, 0]] * 2, 2))
@example(([[2, 1, 1], [4, 2, 3]], 2))  # pivot 1 mod 2 where Q has pivot 0
def test_echelon_prefix_matches_the_prefix_elimination(case):
    # the guess reads each degree's elimination mod p off the screen's; the
    # cut to every column prefix must be that prefix's own elimination
    matrix, p = case
    whole = sequences._nullspace_mod(matrix, p)
    for ncols in range(1, len(matrix[0]) + 1):
        prefix = [row[:ncols] for row in matrix]
        assert (sequences._echelon_prefix(whole, ncols)
                == sequences._nullspace_mod(prefix, p)
                == list_nullspace_mod(prefix, p))


def test_is_prime_agrees_with_trial_division():
    for n in range(10 ** 4):
        want = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert sequences._is_prime(n) == want, n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not sequences._is_prime(3215031751)
    # strong pseudoprime to every prime base up to 31; 37 catches it
    assert not sequences._is_prime(3825123056546413051)


def test_screen_prime_is_the_largest_prime_below_2_30():
    p = sequences._SCREEN_PRIME
    assert p < 2 ** 30 and sequences._is_prime(p)
    assert not any(sequences._is_prime(k) for k in range(p + 1, 2 ** 30))


def test_moduli_are_distinct_primes_below_2_30():
    # the ten largest primes below 2^30, the first of them the screen's
    assert _first_primes(10) == [2 ** 30 - k for k in (
        35, 41, 83, 101, 105, 107, 135, 153, 161, 173)]
    assert _first_primes(1) == [sequences._SCREEN_PRIME]


@settings(max_examples=100, deadline=None)
@given(st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 40))
def test_rational_reconstruction_inverts_reduction(num, den):
    q = F(num, den)
    m = math.prod(_first_primes(3))  # past 2 * (2^40)^2
    residue = q.numerator * pow(q.denominator, -1, m) % m
    assert sequences._rational_reconstruction(residue, m) == q
