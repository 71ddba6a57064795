from fractions import Fraction as F

import pytest

from diagonalis import identities
from diagonalis.cli import main
from diagonalis.identities import IDENTITIES, verify_identity
from diagonalis.sequences import builtin_recurrence, recurrence_seed
from diagonalis.uniseries import (UniSeries, recurrence_to_frobenius, theta_hexagonal,
                                  verify_series_identity)


FAST_ORDERS = {
    "fran": 15,
    "sd-gf": 15,
    "duco": 15,
    "ducox": 15,
    "ramanujan-cubic": 15,
    "szego-binomial": 15,
    "theta-modular": 8,
}


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_passes(name):
    assert verify_identity(name, FAST_ORDERS[name]) is None


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_passes_at_order_zero(name):
    assert verify_identity(name, 0) is None


def test_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("nope", 5)


def test_lewy_askey_binomial_is_the_diag_route(capsys):
    # the scaled LewyAskey box diagonal against C(2n,n) u_n is `diag`'s
    # lewy-askey oracle; the identity that duplicated it is no more
    assert main(["diag", "--family", "LewyAskey", "--N", "6", "--scale", "9-power",
                 "--oracle", "lewy-askey"]) == 0
    assert capsys.readouterr().out.endswith("oracle: match (lewy-askey, n <= 6)\n")
    with pytest.raises(SystemExit) as exc:
        main(["identity", "lewy-askey-binomial", "--M", "6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'lewy-askey-binomial'" in err
    assert all(name in err for name in IDENTITIES) and err.count("\n") == 1


def test_seed_normalization_feeds_identities():
    # the recurrence-seeded series behind sd-gf starts with the scaled values
    seq = recurrence_seed(builtin_recurrence("szego3"), 5)
    assert seq.coeffs == [1, 12, 198, 3720, 75690, 1626912]


def test_lewy_askey_seed_literal():
    from math import comb
    seq = recurrence_seed(builtin_recurrence("lewyaskey"), 5)
    assert seq.coeffs == [1, 12, 180, 2928, 49860, 875952]
    assert [comb(2 * n, n) * seq[n] for n in range(6)] == \
        [1, 24, 1080, 58560, 3490200, 220739904]


def test_mismatch_reported_with_location():
    # perturb one side of a tiny identity by hand
    lhs = UniSeries([1, 2, 3], 2)
    rhs = UniSeries([1, 2, 3], 2)
    assert verify_series_identity(lhs, rhs) is None
    bad = verify_series_identity(lhs, UniSeries([1, 2, F(7, 2)], 2))
    assert bad == (2, 3, F(7, 2))


# theta-modular checks y0(z) = theta(2q(z)); the modular form it stands for,
# y0(z(q/2)) = theta(q) through the reversion z(q), is kept here as the oracle
def _theta_through_reversion(M):
    sol = recurrence_to_frobenius(builtin_recurrence("szego3"), M)
    return sol.y0.compose(sol.q_series().reversion()).scale_argument(F(1, 2))


@pytest.mark.parametrize("M", [0, 1, 2, 5, 12, 25, 40])
def test_theta_modular_form_holds_through_reversion(M):
    assert _theta_through_reversion(M) == theta_hexagonal(M)


@pytest.mark.parametrize("M, k", [(12, 1), (12, 3), (12, 7), (12, 12), (40, 7), (40, 40)])
def test_theta_modular_flags_a_bumped_theta_where_the_oracle_does(monkeypatch, M, k):
    theta = theta_hexagonal(M)
    bumped = UniSeries([c + (n == k) for n, c in enumerate(theta.coeffs)], M)
    monkeypatch.setattr(identities, "theta_hexagonal", lambda order: bumped)
    assert verify_identity("theta-modular", M)[0] == k
    assert verify_series_identity(_theta_through_reversion(M), bumped)[0] == k


def test_theta_modular_needs_no_reversion(monkeypatch):
    def retired(*args):
        raise AssertionError("theta-modular reverted or rescaled a series")
    monkeypatch.setattr(UniSeries, "reversion", retired)
    monkeypatch.setattr(UniSeries, "scale_argument", retired)
    assert verify_identity("theta-modular", 12) is None
