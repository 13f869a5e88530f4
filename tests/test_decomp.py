import random
import time

import numpy as np
import pytest

from partact import decomp, pactions
from partact.decomp import (
    DecompositionError,
    EmptyStratum,
    NotDecomposable,
    PointOutOfRange,
    domain_tuple,
    global_subsystem,
    is_n_decomposable,
    orbit_type_decomposition,
    stratification,
)
from partact.groups import build_group
from partact.pactions import (
    global_action,
    is_free,
    random_partial_action,
    restricted_to,
    validate,
)
from partact.tuples import tuple_space


def test_domain_tuple_swap_pair(swap_pair):
    assert domain_tuple(swap_pair, 0) == frozenset({0, 1})
    assert domain_tuple(swap_pair, 2) == frozenset({0})
    with pytest.raises(PointOutOfRange):
        domain_tuple(swap_pair, 9)


def test_domain_tuple_global():
    c3 = build_group(("cyclic", 3))
    rot = global_action(c3, {0, 1, 2}, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2, 2: 0}, 2: {0: 2, 1: 0, 2: 1}})
    assert all(domain_tuple(rot, x) == frozenset({0, 1, 2}) for x in rot.carrier)


def test_is_n_decomposable_swap_pair(swap_pair):
    assert not is_n_decomposable(swap_pair, 1)
    assert not is_n_decomposable(swap_pair, 2)


def test_swap_pair_restriction_is_2_decomposable(swap_pair):
    part = restricted_to(swap_pair, {0, 1})
    assert is_n_decomposable(part, 2)


def test_trivial_is_1_decomposable(idle_triple):
    assert is_n_decomposable(idle_triple, 1)


def test_stratification_swap_pair(swap_pair):
    s = stratification(swap_pair)
    assert s.stratum(2) == frozenset({0, 1})
    assert s.stratum(1) == frozenset({2})
    ideal, total, quotient = s.extension(2)
    assert ideal.carrier == frozenset({0, 1})
    assert total.carrier == swap_pair.carrier
    assert quotient.carrier == frozenset({2})
    # Reassembly: the top of the chain is the input.
    assert total.domains == swap_pair.domains and total.maps == swap_pair.maps
    for k in (1, 3):
        with pytest.raises(DecompositionError, match="k must be in 2..2"):
            s.extension(k)


def test_stratification_single_stratum():
    c2 = build_group(("cyclic", 2))
    swap = global_action(c2, {0, 1}, {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})
    s = stratification(swap)
    assert s.stratum(2) == frozenset({0, 1})
    assert s.stratum(1) == frozenset()


def test_stratification_idle_triple(idle_triple):
    s = stratification(idle_triple)
    assert s.stratum(1) == idle_triple.carrier
    assert s.stratum(2) == frozenset()


def test_strata_restrictions_are_k_decomposable():
    for seed in range(12):
        pa = random_partial_action(seed, ("cyclic", 4), 8, 0.55)
        s = stratification(pa)
        for k in range(1, pa.group.order + 1):
            if s.stratum(k):
                assert is_n_decomposable(restricted_to(pa, s.stratum(k)), k)


def test_orbit_type_decomposition_swap_pair_restriction(swap_pair):
    part = restricted_to(swap_pair, {0, 1})
    parts = orbit_type_decomposition(part, 2)
    assert len(parts) == 1
    p = parts[0]
    assert p.representative == frozenset({0, 1})
    assert p.carrier_X_tau == frozenset({0, 1})
    assert p.stabilizer.members == frozenset({0, 1})
    assert p.subsystem.is_global()


def test_orbit_type_decomposition_trivial(idle_triple):
    parts = orbit_type_decomposition(idle_triple, 1)
    assert len(parts) == 1
    assert parts[0].part == idle_triple.carrier
    assert parts[0].stabilizer.members == frozenset({0})


def test_orbit_type_decomposition_disjoint_union():
    c2 = build_group(("cyclic", 2))
    two_swaps = global_action(
        c2,
        {0, 1, 10, 11},
        {0: {x: x for x in (0, 1, 10, 11)}, 1: {0: 1, 1: 0, 10: 11, 11: 10}},
    )
    parts = orbit_type_decomposition(two_swaps, 2)
    assert len(parts) == 1  # single orbit class {1, g}; one part covering everything
    assert parts[0].part == frozenset({0, 1, 10, 11})
    assert sorted(len(o) for o in (parts[0].carrier_X_tau,)) == [4]


def test_orbit_type_decomposition_two_classes():
    c4 = build_group(("cyclic", 4))
    # Two points swapped by g^2 only: every point lies in exactly the domains {1, g^2}.
    pa = validate(
        c4,
        {0, 1},
        {0: {0, 1}, 1: set(), 2: {0, 1}, 3: set()},
        {0: {0: 0, 1: 1}, 1: {}, 2: {0: 1, 1: 0}, 3: {}},
    )
    parts = orbit_type_decomposition(pa, 2)
    assert len(parts) == 1
    assert parts[0].representative == frozenset({0, 2})
    assert parts[0].stabilizer.members == frozenset({0, 2})


def test_global_subsystem_fixed_single_is_cyclic2(fixed_single):
    H, sub = global_subsystem(fixed_single, {0, 1})
    assert H.members == frozenset({0, 1})
    assert sub.carrier == frozenset({0})
    assert not is_free(sub)


def test_global_subsystem_errors(swap_pair, idle_triple):
    with pytest.raises(NotDecomposable):
        global_subsystem(swap_pair, {0, 1})
    with pytest.raises(EmptyStratum):
        # Trivial action is 1-decomposable but has no {1}-stratum gaps; use a
        # 2-tuple on a 2-decomposable action with the wrong class instead.
        c4 = build_group(("cyclic", 4))
        pa = validate(
            c4,
            {0, 1},
            {0: {0, 1}, 1: set(), 2: {0, 1}, 3: set()},
            {0: {0: 0, 1: 1}, 1: {}, 2: {0: 1, 1: 0}, 3: {}},
        )
        global_subsystem(pa, {0, 1})


def test_freeness_transfers_to_subsystems():
    for seed in range(20):
        pa = random_partial_action(seed, "klein4", 8, 0.6)
        s = stratification(pa)
        for k in range(1, 5):
            stratum = s.stratum(k)
            if not stratum:
                continue
            layer = restricted_to(pa, stratum)
            parts = orbit_type_decomposition(layer, k)
            assert is_free(layer) == all(is_free(p.subsystem) for p in parts)


def _reference_parts(pa, n):
    """The orbit-type parts rebuilt from the enumerated tuple space.

    Every orbit of the n-tuple space is visited in order; its representative
    is the section member and its stabilizer the isotropy of the translation
    partial action there.
    """
    ts = tuple_space(pa.group, n)
    parts = []
    for z, orbit in enumerate(ts.orbits):
        members = {ts.tuples[i] for i in orbit}
        points = frozenset(x for x in pa.carrier if pa.domain_tuple(x) in members)
        if not points:
            continue
        rep = ts.section[z]
        stabilizer = frozenset(a for a in pa.group.elements() if ts.lt.maps[a].get(rep) == rep)
        X_tau = frozenset(x for x in points if pa.domain_tuple(x) == ts.tuples[rep])
        parts.append((ts.tuples[rep], points, stabilizer, X_tau))
    return parts


@pytest.mark.parametrize(
    "spec", [("cyclic", 4), "klein4", ("symmetric", 3), ("cyclic", 6), ("dihedral", 4)]
)
def test_decomposition_matches_tuple_space_reference(spec):
    compared = nontrivial = 0
    for seed in range(12):
        pa = random_partial_action(seed, spec, 14, 0.5)
        s = stratification(pa)
        for k in range(1, pa.group.order + 1):
            if not s.stratum(k):
                continue
            layer = restricted_to(pa, s.stratum(k))
            parts = orbit_type_decomposition(layer, k)
            got = [
                (p.representative, p.part, p.stabilizer.members, p.carrier_X_tau)
                for p in parts
            ]
            assert got == _reference_parts(layer, k)
            assert all(p.subsystem.carrier == p.carrier_X_tau for p in parts)
            compared += len(parts)
            nontrivial += sum(p.stabilizer.order > 1 for p in parts)
    assert compared >= 20 and nontrivial >= 1


def test_regular_s4_on_twelve_points_decomposes_at_n12_quickly():
    """Every point of a 12-point restriction of the regular S4 action lies in
    exactly 12 domains; the 12-tuple space (1,352,078 tuples) is never built."""
    s4 = build_group(("symmetric", 4))
    regular = global_action(
        s4, s4.elements(), {a: {g: s4.mul(a, g) for g in s4.elements()} for a in s4.elements()}
    )
    pa = restricted_to(regular, random.Random(4).sample(range(24), 12))
    assert {len(pa.domain_tuple(x)) for x in pa.carrier} == {12}
    start = time.perf_counter()
    assert is_n_decomposable(pa, 12)
    parts = orbit_type_decomposition(pa, 12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert frozenset().union(*(p.part for p in parts)) == pa.carrier
    # tau(x) = x S^-1 for the kept set S, so each stabilizer is a subgroup of
    # order dividing 12 and the subsystems are free global actions.
    assert all(12 % p.stabilizer.order == 0 and is_free(p.subsystem) for p in parts)


def test_decomposition_never_validates_what_it_derives(monkeypatch):
    """Strata, restrictions and stabilizer subsystems are read off the
    parent's table: on an order-24 action like the benchmark's decompose
    ops, validate is never called."""
    draws = (random_partial_action(seed, ("symmetric", 4), 48, 0.15) for seed in range(100))
    pa = next(p for p in draws if any(len(p.domain_tuple(x)) == 4 for x in p.carrier))
    real, calls = pactions.validate, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pactions, "validate", counting)
    strata = stratification(pa)
    strata.extension(4)
    parts = orbit_type_decomposition(restricted_to(pa, strata.stratum(4)), 4)
    assert parts and calls == []
    pactions.trivial_partial_action(pa.group, {0})  # the wrapper does count a call
    assert len(calls) == 1


def test_table_checks_reject_what_equivariance_rules_out(monkeypatch):
    """The internal checks read the table: an arrow between strata, a
    subsystem that leaves X_tau and parts that split an orbit all fail."""
    c2, c4 = build_group(("cyclic", 2)), build_group(("cyclic", 4))
    # theta_1(0) = 1 but theta_1 is undefined at 1: |tau(0)| = 2, |tau(1)| = 1.
    broken = pactions._from_table(c2, np.array([[0, 1, 2], [1, -1, -1]], dtype=np.intp), np.arange(3))
    with pytest.raises(AssertionError, match="an arrow crosses strata"):
        stratification(broken)
    swap = global_action(c2, {0, 1}, {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})
    with pytest.raises(AssertionError, match="stabilizer subsystem is not global"):
        decomp._stabilizer_subsystem(swap, frozenset({0, 1}), frozenset({0}))
    # The regular C4 action on {0, 1}: tau(0) = {0, 3} and tau(1) = {0, 1}
    # lie in one orbit, so one part holds both points.
    regular = global_action(c4, range(4), {a: {g: c4.mul(a, g) for g in range(4)} for a in range(4)})
    pair = restricted_to(regular, {0, 1})
    assert [p.part for p in orbit_type_decomposition(pair, 2)] == [frozenset({0, 1})]
    monkeypatch.setattr(decomp, "orbit_of", lambda group, tau: [tau])
    with pytest.raises(AssertionError, match="orbit-type part is not invariant"):
        orbit_type_decomposition(pair, 2)
