import functools
import itertools
import random
import time

import numpy as np
import pytest

from partact import decomp, pactions
from partact.decomp import (
    DecompositionError,
    EmptyStratum,
    NotDecomposable,
    global_subsystem,
    is_n_decomposable,
    orbit_type_decomposition,
    stratification,
)
from partact.groups import build_group
from partact.harness import corpus
from partact.pactions import (
    global_action,
    is_free,
    random_partial_action,
    restricted_to,
    trivial_partial_action,
    validate,
)
from tuple_reference import orbit_of, stabilizer_and_section, tuple_space


def test_domain_tuple_swap_pair(swap_pair):
    assert swap_pair.domain_tuple(0) == frozenset({0, 1})
    assert swap_pair.domain_tuple(2) == frozenset({0})


def test_domain_tuple_global():
    c3 = build_group(("cyclic", 3))
    rot = global_action(c3, {0, 1, 2}, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2, 2: 0}, 2: {0: 2, 1: 0, 2: 1}})
    assert all(rot.domain_tuple(x) == frozenset({0, 1, 2}) for x in rot.carrier)


def test_is_n_decomposable_swap_pair(swap_pair):
    assert not is_n_decomposable(swap_pair, 1)
    assert not is_n_decomposable(swap_pair, 2)


def test_swap_pair_restriction_is_2_decomposable(swap_pair):
    part = restricted_to(swap_pair, {0, 1})
    assert is_n_decomposable(part, 2)


def test_trivial_is_1_decomposable(idle_triple):
    assert is_n_decomposable(idle_triple, 1)


def test_not_decomposable_names_the_least_point():
    """The witness is the least point whose column count is not n, whatever
    order a frozenset of the carrier iterates in."""
    pa = trivial_partial_action(build_group(("cyclic", 2)), {1, 8})
    for call, arg in ((orbit_type_decomposition, 2), (global_subsystem, {0, 1})):
        with pytest.raises(NotDecomposable, match="point 1 lies in 1 domains") as info:
            call(pa, arg)
        assert info.value.witness == 1


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
    # Trivial action is 1-decomposable but has no {1}-stratum gaps; use
    # 2-tuples on a 2-decomposable action that are no point's tuple instead:
    # the wrong class, one without the identity, one outside the group.
    c4 = build_group(("cyclic", 4))
    pa = validate(
        c4,
        {0, 1},
        {0: {0, 1}, 1: set(), 2: {0, 1}, 3: set()},
        {0: {0: 0, 1: 1}, 1: {}, 2: {0: 1, 1: 0}, 3: {}},
    )
    for tau in ({0, 1}, {1, 2}, {0, 4}, {0, -1}):
        with pytest.raises(EmptyStratum, match="no carrier point has domain tuple"):
            global_subsystem(pa, tau)


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


_tuple_space = functools.cache(tuple_space)


def _reference_parts(pa, n):
    """The orbit-type parts rebuilt from the enumerated tuple space.

    Every orbit of the n-tuple space is visited in order; its representative
    is the section member and its stabilizer the isotropy of the translation
    partial action there.
    """
    ts = _tuple_space(pa.group, n)
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


def _solve_caps_draws(spec, bench_seed, count):
    """Order-24 draws like the benchmark's decompose ops, that op's own draw
    first: 48 points, keep 0.15, with some point in 4 domains; their
    4-stratum at n = 4."""
    seeds = itertools.chain([bench_seed], range(100))
    draws = (random_partial_action(seed, spec, 48, 0.15) for seed in seeds)
    accepted = (p for p in draws if any(len(p.domain_tuple(x)) == 4 for x in p.carrier))
    for _, pa in zip(range(count), accepted):
        yield restricted_to(pa, stratification(pa).stratum(4)), 4


def _strata_layers(actions):
    for pa in actions:
        s = stratification(pa)
        for k in range(1, pa.group.order + 1):
            if s.stratum(k):
                yield restricted_to(pa, s.stratum(k)), k


# Order-24 groups with the seed of the benchmark's decompose op for each.
_DRAWS = {
    "c24-draws": (("cyclic", 24), 441792921),
    "d12-draws": (("dihedral", 12), 771246926),
    "s4-draws": (("symmetric", 4), 270688172),
}


@pytest.mark.parametrize(
    "spec",
    [("cyclic", 4), "klein4", ("symmetric", 3), ("cyclic", 6), ("dihedral", 4), *_DRAWS, "corpus"],
)
def test_decomposition_matches_tuple_space_reference(spec):
    if spec == "corpus":
        inputs = _strata_layers(corpus(20260808, 100))
    elif spec in _DRAWS:
        inputs = _solve_caps_draws(*_DRAWS[spec], 20)
    else:
        inputs = _strata_layers(random_partial_action(seed, spec, 14, 0.5) for seed in range(12))
    compared = nontrivial = 0
    for layer, k in inputs:
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


def _closed_form_parts(pa, n):
    """The orbit-type parts from each point's own tuple, with no tuple space:
    the representative is the least tuple of the closed-form orbit and the
    stabilizer is read off it, so this reaches group orders where the
    n-tuple space cannot be enumerated."""
    by_rep = {}
    for x in sorted(pa.carrier):
        tau = pa.domain_tuple(x)
        assert len(tau) == n
        by_rep.setdefault(orbit_of(pa.group, tau)[0], []).append(x)
    parts = []
    for rep in sorted(by_rep, key=sorted):
        points = frozenset(by_rep[rep])
        stabilizer = stabilizer_and_section(pa.group, rep)[0].members
        X_tau = frozenset(x for x in points if pa.domain_tuple(x) == rep)
        parts.append((rep, points, stabilizer, X_tau))
    return parts


@pytest.mark.parametrize("order", [64, 70])
def test_decomposition_matches_the_closed_form_reference_above_order_63(order):
    """Domain tuples of more than 63 elements do not fit one machine word."""
    group = build_group(("cyclic", order), max_order=order)
    regular = pactions.PartialAction(group, np.arange(order), group.arrays[0].copy())
    half = restricted_to(regular, range(0, order, 2))
    # Kept on all points but 0, tau(x) is every element but x: the tuples
    # without 62 and without 63 differ only past the first 62 elements.
    all_but_one = restricted_to(regular, range(1, order))
    draws = [random_partial_action(seed, ("cyclic", order), 40, 0.5, max_order=order) for seed in (46, 47)]
    compared = 0
    for layer, k in [(half, order // 2), (all_but_one, order - 1), *_strata_layers(draws)]:
        parts = orbit_type_decomposition(layer, k)
        got = [(p.representative, p.part, p.stabilizer.members, p.carrier_X_tau) for p in parts]
        assert got == _closed_form_parts(layer, k)
        for rep, _, stabilizer, X_tau in got:
            H, sub = global_subsystem(layer, rep)
            assert H.members == stabilizer and sub.carrier == X_tau
        compared += len(parts)
    assert compared >= 4


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
    global_action(pa.group, {0}, {g: {0: 0} for g in pa.group.elements()})  # the wrapper does count a call
    assert len(calls) == 1


def test_table_checks_reject_what_equivariance_rules_out(monkeypatch):
    """The internal checks read the table: an arrow between strata, a
    subsystem that leaves X_tau and parts that split an orbit all fail."""
    c2, c4 = build_group(("cyclic", 2)), build_group(("cyclic", 4))
    # theta_1(0) = 1 but theta_1 is undefined at 1: |tau(0)| = 2, |tau(1)| = 1.
    broken = pactions.PartialAction(c2, np.arange(3), np.array([[0, 1, 2], [1, -1, -1]], dtype=np.intp))
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
    # Labelled by its own tuple, each point is its own part, which splits the orbit.
    monkeypatch.setattr(decomp, "_part_labels", lambda theta, key: key)
    with pytest.raises(AssertionError, match="orbit-type part is not invariant"):
        orbit_type_decomposition(pair, 2)
    # One label for everything is invariant, but the two orbit classes of
    # 2-tuples in C4 ({1, g} ~ {1, g^3} and {1, g^2}) then share a part
    # holding three tuples, with a trivial stabilizer.
    two_classes = validate(
        c4,
        {0, 1, 2, 3},
        {0: {0, 1, 2, 3}, 1: {2}, 2: {0, 1}, 3: {3}},
        {0: {x: x for x in range(4)}, 1: {3: 2}, 2: {0: 1, 1: 0}, 3: {2: 3}},
    )
    monkeypatch.setattr(decomp, "_part_labels", lambda theta, key: np.full_like(key, key.max()))
    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        orbit_type_decomposition(two_classes, 2)
