from fractions import Fraction as F

import pytest

from diagonalis.identities import IDENTITIES, verify_identity
from diagonalis.sequences import builtin_recurrence, recurrence_seed
from diagonalis.uniseries import UniSeries, verify_series_identity


FAST_ORDERS = {
    "fran": 15,
    "sd-gf": 15,
    "duco": 15,
    "ducox": 15,
    "ramanujan-cubic": 15,
    "szego-binomial": 15,
    "theta-modular": 8,
    "lewy-askey-binomial": 6,
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


def test_seed_normalization_feeds_identities():
    # the recurrence-seeded series behind sd-gf starts with the scaled values
    seq = recurrence_seed(builtin_recurrence("szego3"), 5)
    assert list(seq) == [1, 12, 198, 3720, 75690, 1626912]


def test_lewy_askey_seed_literal():
    from diagonalis.exactalg import binomial
    seq = recurrence_seed(builtin_recurrence("lewyaskey"), 5)
    assert list(seq) == [1, 12, 180, 2928, 49860, 875952]
    assert [binomial(2 * n, n) * seq[n] for n in range(6)] == \
        [1, 24, 1080, 58560, 3490200, 220739904]


def test_mismatch_reported_with_location():
    # perturb one side of a tiny identity by hand
    lhs = UniSeries([1, 2, 3], 2)
    rhs = UniSeries([1, 2, 3], 2)
    assert verify_series_identity(lhs, rhs) is None
    bad = verify_series_identity(lhs, UniSeries([1, 2, F(7, 2)], 2))
    assert bad == (2, 3, F(7, 2))
