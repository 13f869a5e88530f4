from fractions import Fraction

import pytest

from partact.gridtowers import (
    BadDelta,
    GridTooCoarse,
    NumericTowers,
    OddGrid,
    check_admissible,
    embed_certificate,
    interval_half_shift,
    punctured_circle_pair,
    punctured_circle_pair_global,
    residual,
    search_towers,
    witness_bound,
)
from partact.rokhlin import towers_exist

F = Fraction


def test_interval_towers_are_two_level_and_admissible():
    ga, towers, family = interval_half_shift(F(1, 8), 64)
    assert towers.d == 1
    check_admissible(ga, towers)
    assert len(ga.pa.carrier) == 64
    assert ga.pa.domain(1) == frozenset(k for k in range(1, 65) if k not in (32, 64))


def test_interval_residual_below_recomputed_bound():
    ga, towers, family = interval_half_shift(F(1, 8), 64)
    res = residual(ga, towers, family)
    bound = witness_bound(ga, family, F(1, 8))
    assert res <= bound
    assert bound == F(1, 4)


def test_interval_bad_parameters():
    with pytest.raises(BadDelta):
        interval_half_shift(F(1, 2), 64)
    with pytest.raises(OddGrid):
        interval_half_shift(F(1, 8), 63)


def test_interval_partition_holds_at_cut():
    ga, towers, _ = interval_half_shift(F(1, 8), 64)
    cut = 32
    total = sum(
        towers.value(g, j, cut) for g in (0, 1) for j in (0, 1)
    )
    assert total == 1


def test_circle_pair_witnesses():
    ga, family, eps = punctured_circle_pair(128)
    assert eps == F(3, 16)
    a, b = family
    h = F(2, 128)
    inner = [k for k in ga.pa.carrier if F(3, 16) <= ga.coords[k] <= 2 - F(3, 16)]
    assert all(a[k] == 1 for k in inner)
    assert b[64] == 0 and b[128 + 64] == 0
    assert len(ga.pa.carrier) == 2 * 127


def test_circle_pair_too_coarse():
    with pytest.raises(GridTooCoarse):
        punctured_circle_pair(8)


def test_circle_pair_global_projections_residual_zero():
    ga, towers = punctured_circle_pair_global(32)
    family = [{k: F(1) for k in ga.pa.carrier}]
    assert residual(ga, towers, family) == 0


def test_all_zero_towers_fail_partition():
    ga, _, family = interval_half_shift(F(1, 8), 16)
    zero = NumericTowers(0, {(0, 0): {}, (1, 0): {}})
    one = {k: F(1) for k in ga.pa.carrier}
    assert residual(ga, zero, [one]) == 1


def test_shape_mismatch_for_unknown_points():
    from partact.gridtowers import ShapeMismatch

    ga, _, family = interval_half_shift(F(1, 8), 16)
    bad = NumericTowers(0, {(0, 0): {999: F(1)}})
    with pytest.raises(ShapeMismatch):
        residual(ga, bad, family)


def test_embedded_exact_certificate_residual_zero(swap_pair):
    cert = towers_exist(swap_pair, 0)
    ga, towers, family = embed_certificate(swap_pair, cert.levels)
    assert residual(ga, towers, family) == 0


def test_truncating_a_level_hurts():
    ga, towers, family = interval_half_shift(F(1, 8), 32)
    truncated = NumericTowers(
        0, {(g, 0): towers.values[(g, 0)] for g in (0, 1)}
    )
    assert residual(ga, truncated, family) >= residual(ga, towers, family)


def test_search_reproducible_small():
    ga, _, family = interval_half_shift(F(1, 8), 16)
    t1, r1 = search_towers(ga, family, F(1, 100), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150)
    t2, r2 = search_towers(ga, family, F(1, 100), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150)
    assert r1 == r2
    assert t1.values == t2.values


def test_search_interval_d1_reaches_low_residual():
    ga, _, family = interval_half_shift(F(1, 8), 64)
    towers, res = search_towers(ga, family, F(1, 1000), 1, seed=1, restarts=200)
    assert res <= F(1, 1000)


def test_search_embeds_exact_cover_instance(swap_pair):
    cert = towers_exist(swap_pair, 0)
    ga, _, family = embed_certificate(swap_pair, cert.levels)
    towers, res = search_towers(ga, family, F(0), 0, seed=2, restarts=20)
    assert res == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"restarts": 0}, "restarts must be >= 1"),
        ({"restarts": -1}, "restarts must be >= 1"),
        ({"lipschitz": -3}, "lipschitz must be >= 0"),
    ],
)
def test_search_rejects_no_restarts_and_negative_band(kwargs, message):
    ga, family, _ = punctured_circle_pair(32)
    with pytest.raises(ValueError, match=message):
        search_towers(ga, family, F(0), 0, **kwargs)


def test_search_rejects_negative_model_band_and_accepts_zero():
    ga, family, _ = punctured_circle_pair(32, lipschitz=-3)
    with pytest.raises(ValueError, match="lipschitz must be >= 0"):
        search_towers(ga, family, F(0), 0, restarts=1)
    ga, family, _ = punctured_circle_pair(32)
    towers, res = search_towers(ga, family, F(0), 0, lipschitz=0, restarts=1, sweeps=5, polish_sweeps=5)
    assert res == residual(ga, towers, family)
