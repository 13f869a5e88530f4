import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from embed_reference import embed_certificate
from fraction_reference import (
    DictTowers,
    as_dicts,
    as_family,
    as_table,
    as_witness_dicts,
    coords,
    derived_towers,
    edge_indices,
    edge_labels,
    piecewise_e_delta,
    piecewise_f_delta,
    reference_adjacency_failure,
    reference_circle_witnesses,
    reference_plateau,
    reference_residual,
    reference_witness_bound,
    value,
)

from partact import cli, gridtowers, pactions
from partact.gridtowers import (
    BadDelta,
    GridAction,
    GridError,
    GridTooCoarse,
    OddGrid,
    ResidualFormula,
    ShapeMismatch,
    WitnessFamily,
    check_admissible,
    interval_half_shift,
    punctured_circle_pair,
    punctured_circle_pair_global,
    residual,
    search_towers,
    witness_bound,
)
from partact.groups import build_group
from partact.pactions import PartialAction, global_action, trivial_partial_action
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
    # 0 and -2 are even, but no grid: too coarse before the parity check.
    for m in (0, -2, -3):
        with pytest.raises(GridTooCoarse, match=f"m = {m} is too coarse; need m >= 2"):
            interval_half_shift(F(1, 8), m)
        with pytest.raises(GridTooCoarse, match=f"m = {m} is too coarse; need m >= 2"):
            punctured_circle_pair_global(m)


def test_interval_partition_holds_at_cut():
    ga, towers, _ = interval_half_shift(F(1, 8), 64)
    cut = 32
    total = sum(
        value(ga, towers, g, j, cut) for g in (0, 1) for j in (0, 1)
    )
    assert total == 1


def test_circle_pair_witnesses():
    ga, family, eps = punctured_circle_pair(128)
    assert eps == F(3, 16)
    a, b = as_witness_dicts(ga, family)
    at = coords(ga)
    inner = [k for k in ga.pa.carrier if F(3, 16) <= at[k] <= 2 - F(3, 16)]
    assert all(a[k] == 1 for k in inner)
    assert b[64] == 0 and b[128 + 64] == 0
    assert len(ga.pa.carrier) == 2 * 127


@pytest.mark.parametrize("m", [16, 32, 128, 1024])
def test_circle_pair_is_its_closed_form(m):
    """The restriction of the global model off its punctures 0 and m: the
    carrier, X_1 without the two cut points, the swap-shift, the chains and
    the coordinates, read off the table."""
    ga, _, _ = punctured_circle_pair(m)
    half = m // 2
    carrier = [k for k in range(1, 2 * m) if k != m]
    shift = {k: m + (k + half) % m if k < m else (k - m + half) % m for k in carrier}
    points, table = ga.pa.points.tolist(), ga.pa.table.tolist()
    assert points == carrier
    assert table[0] == list(range(len(carrier)))
    assert [x for x, i in zip(points, table[1]) if i >= 0] == [k for k in carrier if k not in (half, m + half)]
    assert {x: points[i] for x, i in zip(points, table[1]) if i >= 0} == {
        k: shift[k] for k in carrier if k not in (half, m + half)
    }
    assert edge_labels(ga) == [(k, k + 1) for k in range(1, m - 1)] + [(m + k, m + k + 1) for k in range(1, m - 1)]
    assert ga.edges.dtype == np.int64 and not ga.edges.flags.writeable
    assert ga.positions.tolist() == [k % m for k in carrier] and not ga.positions.flags.writeable
    assert coords(ga) == {k: F(2 * (k % m), m) for k in carrier}
    assert (ga.spacing, ga.lipschitz) == (F(2, m), 8)


@pytest.mark.parametrize("m", [2, 16, 128])
def test_circle_pair_global_table_is_the_validated_swap_shift(m, monkeypatch):
    """The arithmetic table is the one ``validate`` reads off the dict form
    (the identity and the swap-shift by m/2), read-only, and it is checked
    as a global action on the way."""
    ga, _ = punctured_circle_pair_global(m)
    points = list(range(2 * m))
    shift = {k: (k + m // 2) % m + (m if k < m else 0) for k in points}
    want = pactions.validate(build_group(("cyclic", 2)), points, {0: set(points), 1: set(points)},
                             {0: {k: k for k in points}, 1: shift})
    assert ga.pa.points.tolist() == want.points.tolist() and ga.pa.table.tolist() == want.table.tolist()
    assert ga.pa.table.dtype == ga.pa.points.dtype == np.intp and not ga.pa.table.flags.writeable
    checked = []
    monkeypatch.setattr(gridtowers, "_check_global_table", lambda group, table: checked.append(table.copy()))
    punctured_circle_pair_global(m)
    assert len(checked) == 1 and np.array_equal(checked[0], want.table)


@pytest.mark.parametrize("m", [2, 4, 64, 8192])
def test_interval_table_is_the_validated_half_shift(m):
    """The arithmetic table is the one ``validate`` reads off the dict form:
    k moves by m/2 between the halves, undefined at the cut m/2 and at m."""
    ga, _, _ = interval_half_shift(F(1, 8), m)
    points, cut = list(range(1, m + 1)), m // 2
    U = [k for k in points if k not in (cut, m)]
    theta = {k: (k + cut if k < cut else k - cut) for k in U}
    want = pactions.validate(build_group(("cyclic", 2)), points, {0: set(points), 1: set(U)},
                             {0: {k: k for k in points}, 1: theta})
    assert ga.pa.points.tolist() == want.points.tolist() and ga.pa.table.tolist() == want.table.tolist()
    assert ga.pa.table.dtype == ga.pa.points.dtype == np.intp and not ga.pa.table.flags.writeable


def _fractions(row, scale):
    return [F(int(v), scale) for v in row]


def test_plateau_is_the_piecewise_witnesses():
    """Every witness table, at every grid point, is the piecewise formula the
    dict form was built from: f and e of the interval model, with its towers
    e and f - e over the same scale, and a and b of the circle pair; and the
    Fraction plateau of ``reference_witness_bound`` is the same formula."""
    deltas = (F(1, 8), F(1, 7), F(3, 13), F(1, 5), F(2, 9))
    for m in [*range(2, 402, 2), 8192]:
        grid = [F(2 * k, m) for k in range(1, m + 1)]
        for delta in deltas:
            ga, towers, family = interval_half_shift(delta, m)
            f, e = family.table
            assert _fractions(f, family.scale) == [piecewise_f_delta(t, delta) for t in grid]
            assert _fractions(e, family.scale) == [piecewise_e_delta(t, delta) for t in grid]
            assert towers.scale == family.scale
            assert towers.table.sum(axis=0).tolist() == [e.tolist(), (f - e).tolist()]
            if m in (64, 400, 8192):
                assert [reference_plateau(t, (0,), delta) for t in grid] == _fractions(f, family.scale)
                assert [reference_plateau(t, (0, 1, 2), delta) for t in grid] == _fractions(e, family.scale)
        if m >= 16:
            ga, family, eps = punctured_circle_pair(m)
            a, b = (_fractions(row, family.scale) for row in family.table)
            assert list(zip(a, b)) == [reference_circle_witnesses(t, eps) for t in coords(ga).values()]
            assert not family.table.flags.writeable


def test_circle_pair_witnesses_at_m_32():
    """Within eps of each zero the witnesses are 1 - plateau, and b is 0 at the cut."""
    ga, family, _ = punctured_circle_pair(32)
    a, b = as_witness_dicts(ga, family)
    at = {t: k for k, t in coords(ga).items() if k < 32}
    assert [a[at[t]] for t in (F(1, 16), F(1, 8), F(3, 16))] == [F(2, 3), F(1, 3), 1]
    assert (b[at[F(15, 16)]], b[at[F(1)]]) == (F(2, 3), 0)


def _rotation_cycle(edges):
    """C8 rotating an 8-point cycle, with the given edges."""
    group = build_group(("cyclic", 8))
    pa = global_action(group, range(8), {g: {x: (x + g) % 8 for x in range(8)} for g in range(8)})
    return pa, tuple(edges)


def test_adjacency_check_names_the_first_element_then_edge():
    """Least g first, then edge order, as the per-edge loop on the dict views
    found it: with (0, 1) missing, theta_1 breaks only the last edge (0, 7),
    while theta_7 already breaks the first edge (1, 2)."""
    cycle = [(k, k + 1) for k in range(7)] + [(0, 7)]
    for missing, message in (
        ([(0, 1)], "theta_1 does not preserve adjacency at edge (0, 7)"),
        ([(0, 1), (3, 4)], "theta_1 does not preserve adjacency at edge (2, 3)"),
        ([(5, 6)], "theta_1 does not preserve adjacency at edge (4, 5)"),
    ):
        pa, edges = _rotation_cycle(e for e in cycle if e not in missing)
        with pytest.raises(GridError) as exc:
            GridAction(pa, range(8), edge_indices(pa, edges), F(1), F(1))
        assert str(exc.value) == message == reference_adjacency_failure(pa, edges)
    pa, edges = _rotation_cycle(cycle)
    GridAction(pa, range(8), edge_indices(pa, edges), F(1), F(1))
    assert reference_adjacency_failure(pa, edges) is None


def test_adjacency_check_agrees_with_the_reference_on_tampered_chains():
    """Dropping or adding edges on the global circle model: the check
    fails exactly when the per-edge loop does, with its message."""
    whole, _ = punctured_circle_pair_global(16)
    rng = random.Random(7)
    failures = 0
    for trial in range(40):
        edges = [e for e in edge_labels(whole) if rng.random() > 0.03 * (trial % 3)]
        edges += [(x, y) for x, y in ((rng.randrange(32), rng.randrange(32)) for _ in range(trial % 3)) if x < y]
        want = reference_adjacency_failure(whole.pa, edges)
        try:
            GridAction(whole.pa, whole.positions, edge_indices(whole.pa, edges), whole.spacing, whole.lipschitz)
            got = None
        except GridError as exc:
            got = str(exc)
        assert got == want
        failures += want is not None
    assert 0 < failures < 40


def test_a_branching_point_fails_at_construction():
    """The edges must form chains and cycles: the least point with a third
    distinct neighbour is named by its label, after the adjacency check."""
    pa = trivial_partial_action(build_group(("cyclic", 2)), [10, 11, 12, 13, 14])
    chain = [(1, 2), (0, 1), (2, 1), (3, 4), (4, 3), (3, 2)]  # repeats and reversals are one edge
    GridAction(pa, range(5), np.array(chain).T, F(1), F(1))
    with pytest.raises(GridError, match=r"^point 11 has more than two neighbours: the edges must form chains and cycles$"):
        GridAction(pa, range(5), np.array(chain + [(3, 1)]).T, F(1), F(1))
    # On the circle model an extra chord breaks adjacency before it branches.
    whole, _ = punctured_circle_pair_global(16)
    with pytest.raises(GridError, match="does not preserve adjacency"):
        GridAction(whole.pa, whole.positions, np.insert(whole.edges, 0, [0, 2], axis=1), whole.spacing, whole.lipschitz)


def test_a_self_loop_bounds_no_step():
    """A self-loop is no neighbour: an open chain with one at its end keeps
    its plans, rather than being walked as a cycle."""
    pa = trivial_partial_action(build_group(("cyclic", 2)), range(4))
    chain = [[0, 1, 2], [1, 2, 3]]
    plans = GridAction(pa, range(4), chain, F(1), F(1))._plans
    for loop in ([0], [3], [1]):
        looped = GridAction(pa, range(4), np.concatenate([chain, [loop, loop]], axis=1), F(1), F(1))._plans
        assert all(np.array_equal(a, b) for a, b in zip(looped, plans))


def test_an_edge_off_the_carrier_fails_at_construction():
    ga, _, _ = punctured_circle_pair(16)
    for x, y in ((14, 30), (-1, 0)):
        edges = np.insert(ga.edges, 3, [x, y], axis=1)
        with pytest.raises(GridError, match=rf"edge 3, \({x}, {y}\), has a point off the carrier: need indices in \[0, 30\)"):
            GridAction(ga.pa, ga.positions, edges, ga.spacing, ga.lipschitz)


class _ViewRead(Exception):
    pass


def test_the_grid_layer_reads_only_the_table(monkeypatch, capsys):
    """With the maps and domains views made to raise, the three models build,
    and residual, witness_bound, a short search and `partact grid` run."""

    def view(self):
        raise _ViewRead

    for name in ("maps", "domains"):
        monkeypatch.setattr(PartialAction, name, property(view))
    interval, towers, family = interval_half_shift(F(1, 8), 32)
    circle, circle_family, _ = punctured_circle_pair(32)
    whole, whole_towers = punctured_circle_pair_global(32)
    whole_family = WitnessFamily(np.ones((1, len(whole.pa.points)), dtype=np.int64), 1)
    assert residual(interval, towers, family) == residual(*interval_half_shift(F(1, 8), 32))
    assert residual(whole, whole_towers, whole_family) == 0
    for ga, fam in ((interval, family), (circle, circle_family), (whole, whole_family)):
        witness_bound(ga, fam, F(1, 8))
        found, res = search_towers(ga, fam, F(0), 0, restarts=1, sweeps=5, polish_sweeps=5)
        assert residual(ga, found, fam) == res
    for model in ("interval", "circle-pair", "circle-pair-global"):
        assert cli.main(["grid", model, "--m", "32", "--restarts", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(_ViewRead):
        circle.pa.domain(1)


def test_circle_pair_too_coarse():
    with pytest.raises(GridTooCoarse):
        punctured_circle_pair(8)


def test_circle_pair_global_projections_residual_zero():
    ga, towers = punctured_circle_pair_global(32)
    family = as_family(ga, [{k: F(1) for k in ga.pa.carrier}])
    assert residual(ga, towers, family) == 0


def test_all_zero_towers_fail_partition():
    ga, _, family = interval_half_shift(F(1, 8), 16)
    zero = as_table(ga, DictTowers(0, {(0, 0): {}, (1, 0): {}}))
    one = {k: F(1) for k in ga.pa.carrier}
    assert residual(ga, zero, as_family(ga, [one])) == 1


def test_shape_mismatch_for_unknown_points():
    from partact.gridtowers import ShapeMismatch

    ga, _, family = interval_half_shift(F(1, 8), 16)
    with pytest.raises(ShapeMismatch, match="unknown grid point 999"):
        as_table(ga, DictTowers(0, {(0, 0): {999: F(1)}}))
    with pytest.raises(ShapeMismatch, match=r"shape \(2, 2, 32\) does not fit the action: need \(2, levels, 16\)"):
        residual(ga, interval_half_shift(F(1, 8), 32)[1], family)


def test_embedded_exact_certificate_residual_zero(swap_pair):
    cert = towers_exist(swap_pair, 0)
    ga, towers, family = embed_certificate(swap_pair, cert.levels)
    assert residual(ga, towers, family) == 0


def test_truncating_a_level_hurts():
    ga, towers, family = interval_half_shift(F(1, 8), 32)
    truncated = as_table(ga, DictTowers(
        0, {(g, 0): as_dicts(ga, towers).values[(g, 0)] for g in (0, 1)}
    ))
    assert residual(ga, truncated, family) >= residual(ga, towers, family)


def test_src_and_edges_are_built_once_read_only_and_without_a_back_reference():
    """src[g, z] is the index of theta_{g^-1}(z), -1 off X_g; it and the
    edges stay the same arrays through a search."""
    import gc

    ga, family, _ = punctured_circle_pair(32)
    src, edges = ga.src, ga.edges
    towers, res = search_towers(ga, family, F(0), 0, restarts=1, sweeps=5, polish_sweeps=5)
    assert residual(ga, towers, family) == res
    assert ga.src is src and ga.edges is edges
    assert not src.flags.writeable and not edges.flags.writeable
    assert not any(ref is ga for part in (src, edges) for ref in gc.get_referents(part))
    pa = ga.pa
    points = pa.points.tolist()
    assert src.tolist() == [
        [pa.index[pa.theta(pa.group.inv(g), z)] if z in pa.domain(g) else -1 for z in points]
        for g in pa.group.elements()
    ]


def test_plans_are_built_once_and_repeat_the_search():
    """The search's chain and cap plans are built once per action, read-only
    and without a back reference; a second search on the same action and one
    on a fresh model give the same towers, best residual and trace."""
    import gc

    ga, family, _ = punctured_circle_pair(32)
    runs = []
    for model in (ga, ga, punctured_circle_pair(32)[0]):
        got: list = []
        towers, res = search_towers(model, family, F(0), 1, seed=9, trace=got, **_SMALL_SWEEPS)
        runs.append((res, got, towers.scale, towers.table.tolist()))
    assert runs[0] == runs[1] == runs[2]
    plans = ga._plans
    search_towers(ga, family, F(0), 0, restarts=1, sweeps=5, polish_sweeps=5)
    assert ga._plans is plans
    assert not any(part.flags.writeable for part in plans)
    assert not any(ref is ga for part in plans for ref in gc.get_referents(part))


def test_search_reproducible_small():
    ga, _, family = interval_half_shift(F(1, 8), 16)
    t1, r1 = search_towers(ga, family, F(1, 100), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150)
    t2, r2 = search_towers(ga, family, F(1, 100), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150)
    assert r1 == r2
    assert t1.scale == t2.scale and np.array_equal(t1.table, t2.table)


def test_search_interval_d1_reaches_low_residual():
    ga, _, family = interval_half_shift(F(1, 8), 64)
    towers, res = search_towers(ga, family, F(1, 1000), 1, seed=1, restarts=200)
    assert res <= F(1, 1000)


def test_search_embeds_exact_cover_instance(swap_pair):
    cert = towers_exist(swap_pair, 0)
    ga, _, family = embed_certificate(swap_pair, cert.levels)
    towers, res = search_towers(ga, family, F(0), 0, seed=2, restarts=20)
    assert res == 0


def test_search_on_an_empty_carrier():
    """No points: the float residual has no axis to maximise over."""
    empty = trivial_partial_action(build_group(("cyclic", 2)), [])
    ga, _, witnesses = embed_certificate(empty, [{}])
    towers, res = search_towers(ga, witnesses, 0, 0, restarts=1, sweeps=30, polish_sweeps=0)
    assert res == 0
    assert towers.d == 0


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"restarts": 0}, "restarts must be >= 1"),
        ({"restarts": -1}, "restarts must be >= 1"),
        ({"lipschitz": -3}, "lipschitz must be >= 0"),
        ({"seed": -1}, "seed must be >= 0"),
        # d = -1 gave a zero-level table as the best towers, and d = -2 a
        # numpy error about negative dimensions.
        ({"d": -1}, "d must be >= 0, got -1"),
        ({"d": -2}, "d must be >= 0, got -2"),
        # Every state a sweep leaves is projected; with no sweeps the start
        # would be scored unprojected.
        ({"sweeps": 0, "polish_sweeps": 0}, r"sweeps \+ polish_sweeps must be >= 1, got 0"),
        ({"sweeps": 3, "polish_sweeps": -4}, r"sweeps \+ polish_sweeps must be >= 1, got -1"),
    ],
)
def test_search_rejects_no_restarts_and_negative_band(kwargs, message):
    ga, family, _ = punctured_circle_pair(32)
    with pytest.raises(ValueError, match=message):
        search_towers(ga, family, F(0), **{"d": 0, **kwargs})


def test_search_rejects_a_slope_above_the_model():
    """A wider band than the model's cannot give admissible towers, so the
    search refuses it up front and names the model's slope."""
    ga, family, _ = punctured_circle_pair(32)
    with pytest.raises(ValueError, match=r"at most the model's slope 8, got 16"):
        search_towers(ga, family, F(0), 0, lipschitz=16, restarts=3, sweeps=20, polish_sweeps=20)


def test_search_at_or_below_the_model_slope_still_searches():
    ga, family, _ = punctured_circle_pair(32)
    for slope in (8, 4):
        towers, res = search_towers(ga, family, F(0), 0, lipschitz=slope, restarts=2, sweeps=20, polish_sweeps=20)
        assert res == residual(ga, towers, family)


def test_search_rejects_negative_model_band_and_accepts_zero():
    ga, family, _ = punctured_circle_pair(32, lipschitz=-3)
    with pytest.raises(ValueError, match="lipschitz must be >= 0"):
        search_towers(ga, family, F(0), 0, restarts=1)
    ga, family, _ = punctured_circle_pair(32)
    towers, res = search_towers(ga, family, F(0), 0, lipschitz=0, restarts=1, sweeps=5, polish_sweeps=5)
    assert res == residual(ga, towers, family)


# ---------------------------------------------------------------------------
# The tower table against the Fraction dict form.
# ---------------------------------------------------------------------------


def _assert_is_the_derived_dict_form(ga, towers):
    """The table of a search is the dict form its identity levels induce,
    f_g = f_1 . theta_{g^-1}, value for value; it is read-only."""
    got = as_dicts(ga, towers)
    want = derived_towers(ga, [got.values[(0, j)] for j in range(towers.d + 1)])
    assert got == want
    assert not towers.table.flags.writeable


def _assert_values(ga, towers, values):
    assert as_dicts(ga, towers).values == values
    assert all(
        value(ga, towers, g, j, x) == values.get((g, j), {}).get(x, 0)
        for g in ga.pa.group.elements() for j in range(towers.d + 1) for x in ga.pa.carrier
    )


def test_model_tables_match_the_dict_form():
    for delta, m in ((F(1, 10), 64), (F(1, 8), 32)):
        ga, towers, family = interval_half_shift(delta, m)
        f_d, e_d = as_witness_dicts(ga, family)
        cut, U = m // 2, ga.pa.domain(1)
        values = {
            (0, 0): {k: e_d[k] for k in ga.pa.carrier if k > cut and e_d[k]},
            (0, 1): {k: f_d[k] - e_d[k] for k in ga.pa.carrier if k >= cut and f_d[k] != e_d[k]},
            (1, 0): {k: e_d[k] for k in U if k < cut and e_d[k]},
            (1, 1): {k: f_d[k] - e_d[k] for k in U if k < cut and f_d[k] != e_d[k]},
        }
        _assert_values(ga, towers, values)
        assert residual(ga, towers, family) == residual(ga, as_table(ga, DictTowers(1, values)), family)
    ga, towers = punctured_circle_pair_global(32)
    values = {(0, 0): {k: F(1) for k in range(32, 64)}, (1, 0): {k: F(1) for k in range(32)}}
    _assert_values(ga, towers, values)
    circle, family, _ = punctured_circle_pair(32)
    for d in (0, 1):
        towers, res = search_towers(circle, family, F(0), d, seed=d, restarts=2, sweeps=30, polish_sweeps=60)
        _assert_is_the_derived_dict_form(circle, towers)
        assert res == reference_residual(circle, towers, family)


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
    return DictTowers(d, values)


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
        assert residual(ga, towers, as_family(ga, family)) == reference_residual(ga, towers, family)
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
        got = residual(ga, as_table(ga, towers), as_family(ga, witnesses))
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
    _, scale = check_admissible(ga, as_table(ga, towers))
    assert scale * scale >= 2**62
    assert residual(ga, as_table(ga, towers), family) == reference_residual(ga, towers, family)


# ---------------------------------------------------------------------------
# Positions and witness tables against the Fraction dict form.
# ---------------------------------------------------------------------------


def test_positions_of_the_wrong_length_are_refused():
    ga, _, _ = punctured_circle_pair(16)
    for positions in (ga.positions[:-1], np.zeros((2, len(ga.positions)), dtype=np.int64)):
        with pytest.raises(ShapeMismatch, match=r"positions of shape .* do not fit the action: need \(30,\)"):
            GridAction(ga.pa, positions, ga.edges, ga.spacing, ga.lipschitz)
    # The action keeps its own read-only copy.
    positions = ga.positions.copy()
    copy = GridAction(ga.pa, positions, ga.edges, ga.spacing, ga.lipschitz)
    positions[0] = 99
    assert copy.positions.tolist() == ga.positions.tolist() and not copy.positions.flags.writeable


def test_edge_arrays_of_the_wrong_shape_are_refused():
    """(E, 2), 1-D and 3-D arrays are refused, not reshaped."""
    ga, _, _ = punctured_circle_pair(16)
    E = ga.edges.shape[1]
    for edges in (ga.edges.T, ga.edges[0], ga.edges.ravel(), ga.edges[None]):
        with pytest.raises(ShapeMismatch, match=r"edges of shape .* do not fit the action: need \(2, edges\)"):
            GridAction(ga.pa, ga.positions, edges, ga.spacing, ga.lipschitz)
    # The action keeps its own read-only copy.
    edges = ga.edges.copy()
    copy = GridAction(ga.pa, ga.positions, edges, ga.spacing, ga.lipschitz)
    edges[:, 0] = 5, 6
    assert copy.edges.tolist() == ga.edges.tolist() and not copy.edges.flags.writeable
    assert copy.edges.dtype == np.int64 and copy.edges.shape == (2, E)


def test_a_witness_table_of_the_wrong_shape_is_refused():
    ga, towers, family = interval_half_shift(F(1, 8), 16)
    for table in (family.table[:, :-1], family.table[0]):
        bad = WitnessFamily(table.copy(), family.scale)
        calls = (
            lambda: residual(ga, towers, bad),
            lambda: witness_bound(ga, bad, F(1, 8)),
            lambda: search_towers(ga, bad, F(0), 0, restarts=1),
        )
        for call in calls:
            with pytest.raises(ShapeMismatch, match=r"a witness table of shape .* need \(members, 16\)"):
                call()


def test_witness_bound_matches_the_reference():
    """On the three models, on random families (some members vanishing off
    X_1, some keys off the carrier) and on a grid whose spacing is 2/3."""
    rng = random.Random(13)
    models = [interval_half_shift(delta, m)[::2] for delta, m in ((F(1, 8), 64), (F(2, 9), 30), (F(1, 5), 2))]
    circle, circle_family, _ = punctured_circle_pair(32)
    whole, _ = punctured_circle_pair_global(32)
    models += [(circle, circle_family), (whole, as_family(whole, [{k: F(1) for k in whole.pa.carrier}]))]
    no_edges = np.empty((2, 0), dtype=np.int64)
    skewed = GridAction(models[0][0].pa, [rng.randint(-5, 10) for _ in range(64)], no_edges, F(2, 3), F(1))
    wide = GridAction(models[0][0].pa, [rng.randint(-2**40, 2**40) for _ in range(64)], no_edges, F(3**30, 7), F(1))
    models += [(skewed, models[0][1]), (wide, models[0][1])]
    positive = 0
    for ga, family in models:
        dicts = [_random_witnesses(ga, rng, count=2) for _ in range(3)]
        dicts[1] = [{x: v for x, v in a.items() if x in ga.pa.domain(1)} for a in dicts[1]]
        dicts[2] = [{**a, -7: F(5), 10**6: F(1, 3)} for a in dicts[2]]
        for fam in (family, *dicts):
            for delta in (F(1, 8), F(1, 7), F(3, 13)):
                got = witness_bound(ga, as_family(ga, fam), delta)
                assert got == reference_witness_bound(ga, fam, delta)
                positive += got > 0
    assert positive >= 40


@pytest.mark.parametrize("order", [1, 3])
def test_witness_bound_needs_a_group_of_order_2(order):
    """On C1 the bound read a shift domain that is not there (an IndexError),
    and on C3 it took element 1's domain for the shift's."""
    group = build_group(("cyclic", order))
    pa = global_action(group, range(6), {g: {x: (x + 2 * g) % 6 for x in range(6)} for g in range(order)})
    ga = GridAction(pa, range(6), np.empty((2, 0), dtype=np.int64), F(1, 3), F(1))
    family = WitnessFamily(np.ones((1, 6), dtype=np.int64), 1)
    with pytest.raises(GridError, match=f"needs a group of order 2, got order {order}"):
        witness_bound(ga, family, F(1, 8))


def test_dict_keys_off_the_carrier_are_ignored():
    ga, towers, family = interval_half_shift(F(1, 8), 64)
    dicts = as_witness_dicts(ga, family)
    assert as_witness_dicts(ga, as_family(ga, dicts)) == dicts
    extra = [{**a, 999: F(7), -4: F(1, 3), 0: F(2)} for a in dicts]
    table = as_family(ga, extra)
    assert table.scale == family.scale and np.array_equal(table.table, family.table)
    assert residual(ga, towers, table) == reference_residual(ga, towers, extra) == residual(ga, towers, family)
    assert witness_bound(ga, table, F(1, 8)) == reference_witness_bound(ga, extra, F(1, 8)) == F(1, 4)


def test_float_wmax_rounds_correctly_past_2_53():
    """The search's wmax is max_a |float(a(z))| at every scale; past 2^53 a
    float64 cast of the integers would round twice."""
    ga, _, _ = punctured_circle_pair(16)
    rng = random.Random(17)
    for scale in (12, 3**35, 3**45):
        rows = [[rng.randrange(-scale, scale + 1) for _ in ga.pa.points] for _ in range(2)]
        table = np.array(rows, dtype=object if scale > 2**62 else np.int64)
        got = ResidualFormula(ga, WitnessFamily(table, scale)).float_wmax()
        assert got.tolist() == [max(abs(float(F(v, scale))) for v in column) for column in zip(*rows)]
        if scale == 3**35:
            assert (np.abs(table).max(axis=0).astype(np.float64) / scale != got).any()
        # The exact residual reads the same table, on Python ints past 2^62.
        flat = as_table(ga, DictTowers(0, {(0, 0): {x: F(1, 4) for x in ga.pa.carrier}}))
        family = WitnessFamily(table, scale)
        assert residual(ga, flat, family) == reference_residual(ga, flat, family) > 0


def _tampered(ga, towers, key, x, value):
    values = {k: dict(v) for k, v in as_dicts(ga, towers).values.items()}
    values.setdefault(key, {})[x] = value
    return DictTowers(towers.d, values)


def _on_table(fn, ga, towers, *args):
    """fn on the table of dict towers; a shape the table cannot hold fails
    in the conversion."""
    return fn(ga, as_table(ga, towers), *args)


def test_tampered_towers_fail_like_the_reference():
    ga, towers, family = interval_half_shift(F(1, 8), 32)
    circle, circle_family, _ = punctured_circle_pair(32)
    flat = DictTowers(0, {(0, 0): {x: F(1, 4) for x in circle.pa.carrier}})
    cases = [
        (ga, _tampered(ga, towers, (1, 0), 16, F(1, 3)), family, "has mass off its domain at 16"),
        (ga, _tampered(ga, towers, (1, 1), 32, F(3, 2)), family, "has mass off its domain at 32"),
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
        got = _outcome(_on_table, residual, ga_, bad, fam)
        assert got == _outcome(reference_residual, ga_, bad, fam)
        assert message in got[1]
        assert _outcome(_on_table, check_admissible, ga_, bad) == got
    # Many violations at once: the first one found is the reference's.
    rng = random.Random(3)
    for d in (0, 1):
        noisy = _random_towers(circle, d, rng)
        got = _outcome(_on_table, residual, circle, noisy, circle_family)
        assert got == _outcome(reference_residual, circle, noisy, circle_family)
        assert "violates the Lipschitz band" in got[1]


# ---------------------------------------------------------------------------
# Pinned searches: best residual, full trace and a digest of the towers.
# ---------------------------------------------------------------------------


def _digest(ga, towers):
    items = sorted((k, sorted(v.items())) for k, v in as_dicts(ga, towers).values.items())
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
    assert (res, got, _digest(ga, towers)) == (best, trace, digest)
    _assert_is_the_derived_dict_form(ga, towers)


_CHUNK_EDGE_SWEEPS = {"sweeps": 60, "polish_sweeps": 300}
# Restarts run in chunks of 16: an early stop inside the first chunk, and a
# run that crosses one chunk boundary.
PINNED_CHUNK_EDGES = [
    (0, 20, F(33, 100), F(90007735971, 274877906944), PINNED_SEARCHES[0][3], "8019091f4dde2518"),
    (1, 17, F(0), F(162201791041, 549755813888), PINNED_SEARCHES[1][3] + [
        (3, 0.3759140358533841, 0.32233807623924804, 175),
        (4, 0.3515187469529337, 0.32233807623924804, 175),
        (5, 0.3520165739701042, 0.32233807623924804, 175),
        (6, 0.45866454652241373, 0.32233807623924804, 175),
        (7, 0.3511069029591454, 0.32233807623924804, 175),
        (8, 0.38182366094042663, 0.32233807623924804, 175),
        (9, 0.4356238299878896, 0.32233807623924804, 175),
        (10, 0.40234526688072947, 0.32233807623924804, 175),
        (11, 0.3564677137273975, 0.32233807623924804, 175),
        (12, 0.38705377614314784, 0.32233807623924804, 175),
        (13, 0.29504333913973824, 0.29504333913973824, 200),
        (14, 0.4168806028128529, 0.29504333913973824, 175),
        (15, 0.38384101719748287, 0.29504333913973824, 200),
        (16, 0.3940181085381482, 0.29504333913973824, 175),
    ], "2bb83aae970c65c0"),
]


@pytest.mark.parametrize("seed, restarts, eps, best, trace, digest", PINNED_CHUNK_EDGES)
def test_search_is_pinned_at_the_chunk_edges(seed, restarts, eps, best, trace, digest):
    ga, family, _ = punctured_circle_pair(32)
    got: list = []
    towers, res = search_towers(ga, family, eps, 0, seed=seed, restarts=restarts, trace=got, **_CHUNK_EDGE_SWEEPS)
    assert (res, got, _digest(ga, towers)) == (best, trace, digest)
    _assert_is_the_derived_dict_form(ga, towers)


def test_search_is_pinned_on_cycles_and_the_interval():
    # The global model's chains are cycles; the interval's band is vacuous.
    ga, _ = punctured_circle_pair_global(32)
    family = as_family(ga, [{k: F(1) for k in ga.pa.carrier}, {k: F(1, 3) for k in range(40)}])
    got: list = []
    towers, res = search_towers(ga, family, F(0), 0, seed=3, restarts=2, sweeps=30, polish_sweeps=60, trace=got)
    assert res == F(147245985351, 549755813888) and _digest(ga, towers) == "40d9041b255cb23d"
    _assert_is_the_derived_dict_form(ga, towers)
    assert got == [(0, 0.34058475494384766, 0.34058475494384766, 90),
                   (1, 0.2678388870681374, 0.2678388870681374, 90)]
    got = []
    towers, res = search_towers(ga, family, F(0), 1, seed=3, restarts=2, sweeps=30, polish_sweeps=60, trace=got)
    assert (res, _digest(ga, towers)) == (_LEVEL_ONE, "ca75c688e6670ccc")
    _assert_is_the_derived_dict_form(ga, towers)
    assert [row[3] for row in got] == [90, 90]
    ga, _, family = interval_half_shift(F(1, 8), 16)
    got = []
    towers, res = search_towers(ga, family, F(0), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150, trace=got)
    assert (res, _digest(ga, towers)) == (_LEVEL_ONE, "d8063de93e512f54")
    _assert_is_the_derived_dict_form(ga, towers)
    assert [row[3] for row in got] == [150, 150, 150]


def test_search_is_pinned_with_a_band_on_python_ints():
    # A band over 3^40 puts the exact candidate's envelope on Python ints.
    ga, family, _ = punctured_circle_pair(32, lipschitz=F(3**40 - 1, 3**40))
    got: list = []
    towers, res = search_towers(ga, family, F(0), 0, seed=4, restarts=2, sweeps=20, polish_sweeps=30, trace=got)
    assert res == F(36952207353586480822941969822067360000, 147808829414345923316083210206383297601)
    assert got == [(0, 0.25, 0.25, 50), (1, 0.25, 0.25, 50)]
    assert _digest(ga, towers) == "d5da8d306043ffba"
    _assert_is_the_derived_dict_form(ga, towers)
