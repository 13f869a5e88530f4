import math

import pytest

from partact.groups import build_group
from partact.pactions import translation_groupoid
from tuple_reference import (
    NOutOfRange,
    TupleNotInSpace,
    orbit_of,
    stabilizer_and_section,
    translate,
    tuple_space,
)

GROUPS = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), "klein4", ("symmetric", 3)]


def test_n_1_single_trivial_tuple():
    g = build_group(("cyclic", 3))
    ts = tuple_space(g, 1)
    assert ts.tuples == (frozenset({0}),)
    assert ts.lt.domain(1) == frozenset()
    assert ts.orbits == (frozenset({0}),)


def test_cyclic3_n2():
    g = build_group(("cyclic", 3))
    ts = tuple_space(g, 2)
    assert ts.tuples == (frozenset({0, 1}), frozenset({0, 2}))
    # Lt_1 maps {1, g^2} = {0, 2} to {0, 1}.
    i_02 = ts.index_of({0, 2})
    i_01 = ts.index_of({0, 1})
    assert ts.lt.theta(1, i_02) == i_01
    assert len(ts.orbits) == 1


def test_cyclic4_n3_count():
    g = build_group(("cyclic", 4))
    ts = tuple_space(g, 3)
    assert len(ts.tuples) == math.comb(3, 2) == 3


def test_binomial_count_everywhere():
    for spec in GROUPS:
        g = build_group(spec)
        for n in range(1, g.order + 1):
            ts = tuple_space(g, n)
            assert len(ts.tuples) == math.comb(g.order - 1, n - 1)


def test_n_out_of_range():
    g = build_group(("cyclic", 3))
    with pytest.raises(NOutOfRange):
        tuple_space(g, 0)
    with pytest.raises(NOutOfRange):
        tuple_space(g, 4)


def test_stabilizer_cyclic2_full_tuple():
    g = build_group(("cyclic", 2))
    H, m, section = stabilizer_and_section(g, {0, 1})
    assert H.members == frozenset({0, 1})
    assert m == 0 and section == (0,)


def test_stabilizer_cyclic3_n2():
    g = build_group(("cyclic", 3))
    H, m, section = stabilizer_and_section(g, {0, 1})
    assert H.members == frozenset({0})
    assert m == 1 and section == (0, 1)


def test_full_tuple_stabilized_by_everything():
    for spec in GROUPS:
        g = build_group(spec)
        H, m, _ = stabilizer_and_section(g, frozenset(range(g.order)))
        assert H.members == frozenset(range(g.order))
        assert m == 0
        assert orbit_of(g, frozenset(range(g.order))) == [frozenset(range(g.order))]


def test_orbit_cyclic3_n2_is_everything():
    g = build_group(("cyclic", 3))
    assert orbit_of(g, {0, 1}) == [frozenset({0, 1}), frozenset({0, 2})]


def test_orbit_cyclic4_half_tuple_is_fixed():
    g = build_group(("cyclic", 4))
    assert orbit_of(g, {0, 2}) == [frozenset({0, 2})]


def test_tuple_not_in_space():
    g = build_group(("cyclic", 4))
    with pytest.raises(TupleNotInSpace):
        stabilizer_and_section(g, {1, 2})
    with pytest.raises(TupleNotInSpace):
        stabilizer_and_section(g, {0, 4})
    with pytest.raises(TupleNotInSpace):
        orbit_of(g, {1, 2})
    with pytest.raises(TupleNotInSpace):
        orbit_of(g, {0, 4})
    with pytest.raises(TupleNotInSpace):
        tuple_space(g, 2).index_of({0, 1, 2})


def test_section_tiles_tuple_by_cosets():
    for spec in GROUPS:
        g = build_group(spec)
        for n in range(1, g.order + 1):
            ts = tuple_space(g, n)
            for tau in ts.tuples:
                H, m, xs = stabilizer_and_section(g, tau)
                assert xs[0] == 0
                cosets = [frozenset(g.mul(h, x) for h in H.members) for x in xs]
                assert len(cosets) == m + 1
                union = set()
                for c in cosets:
                    assert not (c & union)
                    union |= c
                assert union == tau


def test_section_is_orbitwise_consistent():
    for spec in GROUPS:
        g = build_group(spec)
        for n in range(1, g.order + 1):
            ts = tuple_space(g, n)
            assert len(ts.section) == len(ts.orbits)
            for z, orbit in enumerate(ts.orbits):
                assert ts.section[z] == min(orbit)
                assert ts.orbit_index_of(ts.representative(z)) == z


def test_groupoid_stabilizer_equals_tuple_stabilizer():
    for spec in GROUPS:
        g = build_group(spec)
        for n in range(1, g.order + 1):
            ts = tuple_space(g, n)
            gr = translation_groupoid(ts.lt)
            for tau in ts.tuples:
                i = ts.index_of(tau)
                H, _, _ = stabilizer_and_section(g, tau)
                iso = frozenset(
                    a for a in g.elements() if ts.lt.maps[a].get(i) == i
                )
                assert iso == H.members


def test_lt_translation_matches_set_translation():
    g = build_group(("symmetric", 3))
    ts = tuple_space(g, 3)
    for tau in ts.tuples:
        for a in g.elements():
            if g.inv(a) in tau:
                assert ts.tuples[ts.lt.theta(a, ts.index_of(tau))] == translate(g, a, tau)


def test_orbit_size_times_stabilizer_order_is_tuple_size():
    for spec in GROUPS:
        g = build_group(spec)
        for n in range(1, g.order + 1):
            for tau in tuple_space(g, n).tuples:
                orbit = orbit_of(g, tau)
                assert orbit == sorted(orbit, key=sorted) and tau in orbit
                assert len(orbit) * stabilizer_and_section(g, tau)[0].order == n


def test_tuple_space_checks_closed_form_orbits(monkeypatch):
    import tuple_reference

    monkeypatch.setattr(tuple_reference, "orbit_of", lambda group, tau: [frozenset(tau)])
    with pytest.raises(AssertionError, match="closed-form orbit"):
        tuple_space(build_group(("cyclic", 3)), 2)
