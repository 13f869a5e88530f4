"""The buffer-and-plan sweep of ``search_towers`` against the elementwise one.

``sweep_reference.reference_search_towers`` is the sweep with fancy-index
gathers, ``np.where`` masks and an ``np.argmax`` winner; both must give the
same best residual, the same trace and the same towers, value for value.
"""

from fractions import Fraction

import numpy as np
import pytest
from embed_reference import embed_certificate
from fraction_reference import as_dicts, as_family
from sweep_reference import reference_chains, reference_search_towers

from partact import gridtowers
from partact.gridtowers import (
    RESTART_CHUNK,
    interval_half_shift,
    punctured_circle_pair,
    punctured_circle_pair_global,
    search_towers,
)
from partact.pactions import random_partial_action

F = Fraction
_SHORT = {"sweeps": 60, "polish_sweeps": 300}


def _assert_agree(ga, family, eps, d, **kwargs):
    got, want = [], []
    towers, res = search_towers(ga, family, eps, d, trace=got, **kwargs)
    ref_towers, ref_res = reference_search_towers(ga, family, eps, d, trace=want, **kwargs)
    assert (res, got) == (ref_res, want)
    assert towers.d == ref_towers.d and as_dicts(ga, towers).values == ref_towers.values
    return got


@pytest.fixture
def swept(monkeypatch):
    """The sweeps ``search_towers`` computes, one entry each: a sweep makes
    the module's one ``np.bincount`` call, and a swap of the two states of a
    polish cycle makes none."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, *args, **kwargs):
            calls.append(None)
            return np.bincount(*args, **kwargs)

    monkeypatch.setattr(gridtowers, "np", CountingNumpy())
    return calls


@pytest.mark.parametrize("m", [32, 128])
@pytest.mark.parametrize("d", [0, 1, 2])
def test_sweep_agrees_on_the_circle_pair(m, d):
    ga, family, _ = punctured_circle_pair(m)
    trace = _assert_agree(ga, family, F(0), d, seed=7 + d, restarts=3, **_SHORT)
    assert len(trace) == 3


def test_sweep_agrees_at_the_default_sweeps():
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(0), 0, seed=20261007, lipschitz=8, restarts=4)
    # The first and last restarts leave the chunk at its 275th sweep, the
    # middle two at the 300th (the polish early stop).
    assert [row[3] for row in trace] == [275, 300, 300, 275]


@pytest.mark.parametrize("restarts", [1, RESTART_CHUNK, RESTART_CHUNK + 1, RESTART_CHUNK + 2])
def test_sweep_agrees_across_chunk_edges(restarts):
    ga, family, _ = punctured_circle_pair(32)
    trace = _assert_agree(ga, family, F(0), 0, seed=restarts, restarts=restarts, sweeps=30, polish_sweeps=150)
    assert [row[0] for row in trace] == list(range(restarts))


def test_sweep_agrees_with_an_early_stop_inside_a_chunk():
    ga, family, _ = punctured_circle_pair(32)
    trace = _assert_agree(ga, family, F(33, 100), 0, seed=0, restarts=20, **_SHORT)
    assert len(trace) < RESTART_CHUNK
    trace = _assert_agree(ga, family, F(1, 1000), 1, seed=1, restarts=RESTART_CHUNK + 2, **_SHORT)
    assert len(trace) == 1


def test_sweep_agrees_on_cycles_and_the_interval():
    ga, _ = punctured_circle_pair_global(32)
    family = as_family(ga, [{k: F(1) for k in ga.pa.carrier}, {k: F(1, 3) for k in range(40)}])
    for d in (0, 1):
        _assert_agree(ga, family, F(0), d, seed=3, restarts=2, sweeps=30, polish_sweeps=60)
    ga, _, family = interval_half_shift(F(1, 8), 16)
    _assert_agree(ga, family, F(0), 1, seed=5, restarts=3, sweeps=40, polish_sweeps=150)


@pytest.mark.parametrize("m", [6, 66])
@pytest.mark.parametrize("d", [0, 1])
def test_sweep_agrees_where_the_set_walk_runs_a_cycle_backwards(m, d):
    # The reference walks the global model's second circle backwards at
    # m = 6 and its first circle backwards at m = 66.
    ga, _ = punctured_circle_pair_global(m)
    family = as_family(ga, [{k: F(1) for k in ga.pa.carrier}, {k: F(1, 3) for k in range(m + m // 4)}])
    _assert_agree(ga, family, F(0), d, seed=3, restarts=2, sweeps=30, polish_sweeps=60)


@pytest.mark.parametrize("m", [6, 66])
def test_cycles_start_at_their_least_point_and_step_to_the_smaller_neighbour(m):
    """Each cycle row of the plans is its cycle three times over, from its
    least point towards the smaller of its neighbours; the set walk of the
    reference covers the same points, one cycle of them the other way."""
    ga, _ = punctured_circle_pair_global(m)
    P = len(ga.pa.points)
    neighbours = {p: set() for p in range(P)}
    for x, y in ga.edges.T.tolist():
        neighbours[x].add(y)
        neighbours[y].add(x)
    windows = ga._plans[0]
    backwards = 0
    for row, (walked, cyclic) in zip(windows[0], reference_chains(ga), strict=True):
        cycle = row[row < P].tolist()
        ci = cycle[: len(cycle) // 3]
        assert cyclic and cycle == ci * 3 and len(ci) == m
        assert ci[0] == min(ci) and ci[1] == min(neighbours[ci[0]])
        assert all(b in neighbours[a] for a, b in zip(ci, ci[1:] + ci[:1]))
        assert sorted(walked.tolist()) == sorted(ci) and walked[0] == ci[0]
        backwards += walked.tolist() != ci
    assert backwards == 1


def test_open_chains_are_walked_from_their_least_end():
    # The circle pair's two copies, each an open chain of 31 points.
    ga, _, _ = punctured_circle_pair(32)
    windows = ga._plans[0]
    P = len(ga.pa.points)
    rows = [row[row < P].tolist() for row in windows[0]]
    assert rows == [list(range(31)), list(range(31, 62))]
    assert [(chain.tolist(), cyclic) for chain, cyclic in reference_chains(ga)] == [(row, False) for row in rows]


@pytest.mark.parametrize("spec", [("symmetric", 3), ("dihedral", 4), ("cyclic", 3)])
def test_sweep_agrees_on_embedded_partial_actions(spec):
    # |G| >= 3 exercises the first-max tie rule past two candidates, and
    # d >= 1 puts several levels into each sum-to-one row.
    for seed in range(3):
        pa = random_partial_action(seed, spec, ambient_size=9, keep_probability=0.7)
        ga, _, family = embed_certificate(pa, [{}])
        for d in (0, 1):
            _assert_agree(ga, family, F(0), d, seed=seed, restarts=2, sweeps=30, polish_sweeps=150)


def test_sweep_agrees_with_a_band_on_python_ints():
    ga, family, _ = punctured_circle_pair(32, lipschitz=F(3**40 - 1, 3**40))
    _assert_agree(ga, family, F(0), 0, seed=4, restarts=2, sweeps=20, polish_sweeps=30)


def test_sweep_agrees_when_restarts_leave_a_cycling_chunk(swept):
    # All sixteen restarts cycle long before the first early-stop check, then
    # leave at two checks: the rows that stay are reloaded in both states.
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(0), 0, seed=20260808, lipschitz=8, restarts=RESTART_CHUNK)
    assert {row[3] for row in trace} == {275, 300}
    assert len(swept) < 275


def test_sweep_agrees_when_a_chunk_cycles_after_restarts_left(swept):
    # The second chunk does not cycle until fifteen of its restarts have left
    # at sweep 275; the values two sweeps back are cut to the last one.
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(0), 1, seed=20260809, lipschitz=8, restarts=2 * RESTART_CHUNK)
    assert [row[3] for row in trace[RESTART_CHUNK:]].count(300) == 1
    # The first chunk cycles at sweep 219 and the second at sweep 276, past
    # the leave at 275 but before its last restart leaves at 300.
    assert len(swept) == 219 + 276


def test_sweep_agrees_when_the_polish_never_cycles(swept):
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(1, 1000), 1, seed=20260808, lipschitz=8, restarts=RESTART_CHUNK)
    assert len(trace) < RESTART_CHUNK  # stopped at eps
    assert len(swept) == 275  # every sweep up to the early stop was computed


@pytest.mark.parametrize("polish_sweeps, computed", [(2, 162), (3, 163), (4, 163), (5, 163)])
def test_sweep_agrees_when_the_cycle_meets_the_last_sweeps(swept, polish_sweeps, computed):
    # The cycle shows at the third polish sweep: after the last sweep, at the
    # last sweep, or with the final check on the swapped state.
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(0), 0, seed=20261007, lipschitz=8, restarts=4, polish_sweeps=polish_sweeps)
    assert {row[3] for row in trace} == {160 + polish_sweeps}
    assert len(swept) == computed


def test_sweep_agrees_when_the_polish_starts_at_once(swept):
    ga, family, _ = punctured_circle_pair(128)
    trace = _assert_agree(ga, family, F(0), 0, seed=3, lipschitz=8, restarts=2, sweeps=0, polish_sweeps=150)
    assert {row[3] for row in trace} == {125, 150}
    assert len(swept) < 125
