import hashlib
import random
from fractions import Fraction

import pytest
from fraction_reference import reference_residual

from partact.gridtowers import (
    BadDelta,
    GridError,
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


# ---------------------------------------------------------------------------
# The integer residual against the Fraction reference.
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """The value fn returns, or the class and message of the GridError it raises."""
    try:
        return fn(*args)
    except GridError as exc:
        return type(exc), str(exc)


def _random_fraction(rng, lo, hi, denominators=(3, 5, 7, 9, 11, 12, 13, 25)):
    q = rng.choice(denominators)
    return F(rng.randint(lo * q, hi * q), q)


def _random_towers(ga, d, rng, top=F(1)):
    """Values k/q in [0, top] on each domain, q non-dyadic; a value may be 0."""
    pa = ga.pa
    values = {}
    for g in pa.group.elements():
        for j in range(d + 1):
            values[(g, j)] = {
                x: min(_random_fraction(rng, 0, 1), top) for x in sorted(pa.domain(g))
            }
    return NumericTowers(d, values)


def _random_witnesses(ga, rng, count=2):
    return [
        {x: _random_fraction(rng, -2, 2) for x in sorted(ga.pa.carrier) if rng.random() < 0.8}
        for _ in range(count)
    ]


def test_residual_matches_reference_on_the_models(swap_pair):
    for delta, m in ((F(1, 10), 64), (F(1, 8), 32), (F(3, 16), 16)):
        ga, towers, family = interval_half_shift(delta, m)
        assert residual(ga, towers, family) == reference_residual(ga, towers, family)
    assert residual(*interval_half_shift(F(1, 10), 64)) == F(15, 64)
    ga, towers = punctured_circle_pair_global(32)
    for family in ([{k: F(1) for k in ga.pa.carrier}], [{k: F(k % 7, 3) for k in ga.pa.carrier}]):
        assert residual(ga, towers, family) == reference_residual(ga, towers, family)
    for d in (0, 1):
        cert = towers_exist(swap_pair, d)
        ga, towers, family = embed_certificate(swap_pair, cert.levels)
        assert residual(ga, towers, family) == reference_residual(ga, towers, family) == 0


def test_residual_matches_reference_on_random_towers():
    rng = random.Random(11)
    circle, _, _ = punctured_circle_pair(32)
    interval, _, _ = interval_half_shift(F(1, 8), 16)
    nonzero = 0
    for trial in range(24):
        d = trial % 3
        if trial % 2:
            ga, towers = circle, _random_towers(circle, d, rng, top=circle.band)
        else:
            ga, towers = interval, _random_towers(interval, d, rng)
        witnesses = _random_witnesses(ga, rng, count=1 + trial % 3)
        got = residual(ga, towers, witnesses)
        assert got == reference_residual(ga, towers, witnesses)
        nonzero += got > 0
    assert nonzero == 24


def test_residual_matches_reference_on_the_object_path():
    # Denominators 3^25 and 7^20 put D_t^2 above 2^62, so the products are
    # taken on Python ints.
    ga, _, family = interval_half_shift(F(1, 8), 16)
    rng = random.Random(5)
    towers = _random_towers(ga, 1, rng)
    towers.values[(0, 0)][1] = F(3**24 + 1, 3**25)
    towers.values[(1, 1)][2] = F(7**19 + 2, 7**20)
    _, scale = check_admissible(ga, towers)
    assert scale * scale >= 2**62
    assert residual(ga, towers, family) == reference_residual(ga, towers, family)


def _tampered(ga, towers, key, x, value):
    values = {k: dict(v) for k, v in towers.values.items()}
    values.setdefault(key, {})[x] = value
    return NumericTowers(towers.d, values)


def test_tampered_towers_fail_like_the_reference():
    ga, towers, family = interval_half_shift(F(1, 8), 32)
    circle, circle_family, _ = punctured_circle_pair(32)
    flat = NumericTowers(0, {(0, 0): {x: F(1, 4) for x in circle.pa.carrier}})
    cases = [
        (ga, _tampered(ga, towers, (1, 0), 16, F(1, 3)), family, "has mass off its domain at 16"),
        (ga, _tampered(ga, towers, (0, 1), 5, F(4, 3)), family, "leaves [0, 1] at 5"),
        (ga, _tampered(ga, towers, (0, 0), 7, F(-1, 5)), family, "leaves [0, 1] at 7"),
        (ga, _tampered(ga, towers, (1, 1), 999, F(1, 2)), family, "unknown grid point 999"),
        (ga, _tampered(ga, towers, (2, 0), 3, F(1, 2)), family, "tower index (2, 0)"),
        (circle, _tampered(circle, flat, (0, 0), 5, F(7, 8)), circle_family,
         "tower (0, 0) violates the Lipschitz band on edge (4, 5)"),
        (circle, _tampered(circle, flat, (1, 0), 20, F(7, 8)), circle_family,
         "tower (1, 0) violates the Lipschitz band on edge (19, 20)"),
    ]
    for ga_, bad, fam, message in cases:
        got = _outcome(residual, ga_, bad, fam)
        assert got == _outcome(reference_residual, ga_, bad, fam)
        assert message in got[1]
        assert _outcome(check_admissible, ga_, bad) == got
    # Many violations at once: the first one found is the reference's.
    rng = random.Random(3)
    for d in (0, 1):
        noisy = _random_towers(circle, d, rng)
        got = _outcome(residual, circle, noisy, circle_family)
        assert got == _outcome(reference_residual, circle, noisy, circle_family)
        assert "violates the Lipschitz band" in got[1]


# ---------------------------------------------------------------------------
# Pinned searches: best residual, full trace and a digest of the towers.
# ---------------------------------------------------------------------------


def _digest(towers):
    items = sorted((k, sorted(v.items())) for k, v in towers.values.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


_SMALL_SWEEPS = {"restarts": 3, "sweeps": 60, "polish_sweeps": 300}
_LEVEL_ONE = F(1, 1048576)
_LEVEL_ONE_TRACE = [(r, 9.5367431640625e-07, 9.5367431640625e-07, 175) for r in range(3)]
PINNED_SEARCHES = [
    (0, 0, F(90007735971, 274877906944), [
        (0, 0.4090495349601042, 0.4090495349601042, 200),
        (1, 0.3745326802600175, 0.3745326802600175, 175),
        (2, 0.32744623593680444, 0.32744623593680444, 175),
    ], "8019091f4dde2518"),
    (0, 1, F(88603615725, 274877906944), [
        (0, 0.32233807623924804, 0.32233807623924804, 175),
        (1, 0.3382609225682245, 0.32233807623924804, 175),
        (2, 0.3813856056685836, 0.32233807623924804, 175),
    ], "9a8a757893b37000"),
    (0, 2, F(355357077189, 1099511627776), [
        (0, 0.44858484270298504, 0.44858484270298504, 175),
        (1, 0.3315782249428594, 0.3315782249428594, 175),
        (2, 0.323195378940909, 0.323195378940909, 175),
    ], "c3f8c77c1f6f627c"),
    (1, 0, _LEVEL_ONE, _LEVEL_ONE_TRACE, "f264c7d1fd7ff9ae"),
    (1, 1, _LEVEL_ONE, _LEVEL_ONE_TRACE, "f338c746c4b2cd36"),
    (1, 2, _LEVEL_ONE, _LEVEL_ONE_TRACE, "4b0d761c5bd0efbb"),
]


@pytest.mark.parametrize("d, seed, best, trace, digest", PINNED_SEARCHES)
def test_search_is_pinned_on_the_circle_pair(d, seed, best, trace, digest):
    ga, family, _ = punctured_circle_pair(32)
    got: list = []
    towers, res = search_towers(ga, family, F(0), d, seed=seed, trace=got, **_SMALL_SWEEPS)
    assert (res, got, _digest(towers)) == (best, trace, digest)


def test_search_is_pinned_on_cycles_and_the_interval():
    # The global model's chains are cycles; the interval's band is vacuous.
    ga, _ = punctured_circle_pair_global(32)
    family = [{k: F(1) for k in ga.pa.carrier}, {k: F(1, 3) for k in range(40)}]
    got: list = []
    towers, res = search_towers(ga, family, F(0), 0, seed=3, restarts=2, sweeps=30, polish_sweeps=60, trace=got)
    assert res == F(147245985351, 549755813888) and _digest(towers) == "40d9041b255cb23d"
    assert got == [(0, 0.34058475494384766, 0.34058475494384766, 90),
                   (1, 0.2678388870681374, 0.2678388870681374, 90)]
    got = []
    towers, res = search_towers(ga, family, F(0), 1, seed=3, restarts=2, sweeps=30, polish_sweeps=60, trace=got)
    assert (res, _digest(towers)) == (_LEVEL_ONE, "ca75c688e6670ccc")
    assert [row[3] for row in got] == [90, 90]
    ga, _, family = interval_half_shift(F(1, 8), 16)
    got = []
    towers, res = search_towers(ga, family, F(0), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150, trace=got)
    assert (res, _digest(towers)) == (_LEVEL_ONE, "d8063de93e512f54")
    assert [row[3] for row in got] == [150, 150, 150]


def test_search_is_pinned_with_a_band_on_python_ints():
    # A band over 3^40 puts the floor-cap-repair step on Python ints.
    ga, family, _ = punctured_circle_pair(32, lipschitz=F(3**40 - 1, 3**40))
    got: list = []
    towers, res = search_towers(ga, family, F(0), 0, seed=4, restarts=2, sweeps=20, polish_sweeps=30, trace=got)
    assert res == F(36952207353586480822941969822067360000, 147808829414345923316083210206383297601)
    assert got == [(0, 0.25, 0.25, 50), (1, 0.25, 0.25, 50)]
    assert _digest(towers) == "d5da8d306043ffba"
