import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partact.decomp import orbit_type_decomposition, stratification
from partact.groups import build_group
from partact.pactions import (
    CompositionViolation,
    IdentityDomainNotFull,
    NotBijective,
    NotInvariant,
    PartialAction,
    PartialActionError,
    central_splitting,
    freeness_witness,
    global_action,
    globalize,
    is_free,
    minimal_partial_unitization,
    random_partial_action,
    restrict_and_quotient,
    restricted_to,
    translation_groupoid,
    trivial_partial_action,
    validate,
)
from partact.rokhlin import rokhlin_dimension
from scan_reference import groupoid_arrows

GROUP_SPECS = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), "klein4", ("cyclic", 6), ("symmetric", 3)]


def corpus(count=30, specs=GROUP_SPECS, base_seed=0):
    out = []
    for i in range(count):
        spec = specs[i % len(specs)]
        keep = (0.0, 0.3, 0.5, 0.8, 1.0)[i % 5]
        out.append(random_partial_action(base_seed + i, spec, ambient_size=4 + i % 7, keep_probability=keep))
    return out


def test_validate_swap_pair(swap_pair):
    assert swap_pair.domain(1) == frozenset({0, 1})
    assert swap_pair.theta(1, 0) == 1


def test_validate_rejects_non_bijection(c2):
    with pytest.raises(NotBijective) as err:
        validate(
            c2,
            {0, 1, 2},
            {0: {0, 1, 2}, 1: {0, 1}},
            {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 1}},
        )
    assert err.value.g == 1


def test_validate_rejects_composition_violation():
    c4 = build_group(("cyclic", 4))
    X = {0, 1}
    swap = {0: 1, 1: 0}
    with pytest.raises(CompositionViolation) as err:
        validate(
            c4,
            X,
            {g: X for g in range(4)},
            {0: {0: 0, 1: 1}, 1: dict(swap), 2: dict(swap), 3: dict(swap)},
        )
    assert (err.value.g, err.value.h) == (1, 1)


@pytest.mark.parametrize(
    "domains_extra, maps_extra, named",
    [
        ({5: [0]}, {7: {0: 1}}, "domains key 5"),
        ({}, {7: {0: 1}}, "maps key 7"),
        ({}, {-1: {0: 1}}, "maps key -1"),
        ({-1: [0], 2: [1]}, {}, "domains key -1"),
    ],
)
def test_validate_rejects_keys_that_are_not_group_elements(c2, domains_extra, maps_extra, named):
    domains = {0: [0, 1], 1: [0, 1], **domains_extra}
    maps = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}, **maps_extra}
    with pytest.raises(PartialActionError, match=f"^{named} is not a group element$"):
        validate(c2, [0, 1], domains, maps)


def test_validate_requires_full_identity_domain(c2):
    with pytest.raises(IdentityDomainNotFull):
        validate(c2, {0, 1}, {0: {0}, 1: set()}, {0: {0: 0}, 1: {}})


def test_validate_reads_each_domain_once(c2):
    """Domains may be one-shot iterators, also when one holds points off the carrier."""
    pa = validate(c2, {0, 1}, {g: iter((0, 1)) for g in (0, 1)}, {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})
    assert pa.domains == {0: {0, 1}, 1: {0, 1}}
    with pytest.raises(PartialActionError, match="^domain of g=1 contains non-carrier point 7$"):
        validate(c2, {0, 1}, {0: iter((0, 1)), 1: iter((9, 0, 7))}, {0: {0: 0, 1: 1}, 1: {}})


def test_validate_rejects_an_identity_entry_off_the_carrier(c2):
    with pytest.raises(PartialActionError, match="^theta_1 must be the identity map$"):
        validate(c2, {0, 1}, {0: {0, 1}, 1: set()}, {0: {0: 0, 1: 1, 5: 7}, 1: {}})


def test_freeness(swap_pair, fixed_single, idle_triple):
    assert is_free(swap_pair)
    assert freeness_witness(fixed_single) == (1, 0)
    assert is_free(idle_triple)


def test_translation_groupoid_swap_pair(swap_pair):
    gr = translation_groupoid(swap_pair)
    assert len(groupoid_arrows(swap_pair)) == 5
    assert gr.orbits == (frozenset({0, 1}), frozenset({2}))
    assert all(sub.order == 1 for sub in gr.stabilizers.values())


def test_translation_groupoid_fixed_single(fixed_single):
    gr = translation_groupoid(fixed_single)
    assert len(groupoid_arrows(fixed_single)) == 2
    assert gr.orbits == (frozenset({0}),)
    assert gr.stabilizers[0].order == 2


def test_analyze_builds_one_shared_read_only_groupoid(swap_pair, monkeypatch):
    from partact import cli, pactions

    builds = []
    build = pactions._translation_groupoid_parts
    monkeypatch.setattr(pactions, "_translation_groupoid_parts", lambda pa: builds.append(pa) or build(pa))
    cli.analyze(swap_pair)
    assert builds == [swap_pair]
    gr, again = translation_groupoid(swap_pair), translation_groupoid(swap_pair)
    assert (again.orbits, again.stabilizers) == (gr.orbits, gr.stabilizers)
    assert again.orbits is gr.orbits and again.stabilizers is gr.stabilizers
    assert groupoid_arrows(swap_pair) == ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 0))
    with pytest.raises(TypeError):
        gr.stabilizers[0] = gr.stabilizers[2]


def test_translation_groupoid_idle_triple(idle_triple):
    gr = translation_groupoid(idle_triple)
    assert len(groupoid_arrows(idle_triple)) == 3
    assert len(gr.orbits) == 3
    assert all(sub.order == 1 for sub in gr.stabilizers.values())


def test_restrict_and_quotient_swap_pair(swap_pair):
    part, rest = restrict_and_quotient(swap_pair, {0, 1})
    assert part.is_global() and part.carrier == frozenset({0, 1})
    assert rest.carrier == frozenset({2}) and rest.domain(1) == frozenset()


def test_restrict_not_invariant(swap_pair):
    with pytest.raises(NotInvariant) as err:
        restrict_and_quotient(swap_pair, {0})
    g, x, y = err.value.arrow
    assert g == 1 and {x, y} == {0, 1}


def test_restrict_whole_carrier(swap_pair):
    part, rest = restrict_and_quotient(swap_pair, swap_pair.carrier)
    assert part.carrier == swap_pair.carrier
    assert rest.carrier == frozenset()


def test_restricted_to_a_point_off_the_carrier_names_the_least_one(swap_pair):
    with pytest.raises(IdentityDomainNotFull) as err:
        restricted_to(swap_pair, {1, 9, 7})
    assert err.value.missing == 7


def test_restricted_to_the_empty_subset_and_the_whole_carrier(swap_pair):
    empty = restricted_to(swap_pair, ())
    assert empty.carrier == frozenset()
    assert all(empty.maps[g] == {} and empty.domain(g) == frozenset() for g in (0, 1))
    whole = restricted_to(swap_pair, swap_pair.carrier)
    assert (whole.carrier, whole.domains, whole.maps) == (swap_pair.carrier, swap_pair.domains, swap_pair.maps)


def test_globalize_swap_pair(swap_pair):
    res = globalize(swap_pair)
    assert res.envelope.size() == 4
    assert res.envelope.is_global()
    # The envelope is a free involution: two 2-cycles.
    assert is_free(res.envelope)
    orbits = translation_groupoid(res.envelope).orbits
    assert sorted(len(o) for o in orbits) == [2, 2]


def test_globalize_idle_triple(idle_triple):
    res = globalize(idle_triple)
    assert res.envelope.size() == 6
    orbits = translation_groupoid(res.envelope).orbits
    assert sorted(len(o) for o in orbits) == [2, 2, 2]


def test_globalize_global_input_is_bijective(fixed_single):
    res = globalize(fixed_single)
    assert res.envelope.size() == 1
    assert set(res.embedding.values()) == set(res.envelope.carrier)


def test_globalize_restricts_back(swap_pair):
    res = globalize(swap_pair)
    emb = res.embedding
    image = frozenset(emb.values())
    back = restricted_to(res.envelope, image)
    for g in swap_pair.group.elements():
        assert frozenset(emb[x] for x in swap_pair.domain(g)) == back.domain(g)
        for x in swap_pair.domain(swap_pair.group.inv(g)):
            assert back.theta(g, emb[x]) == emb[swap_pair.theta(g, x)]


def test_central_splitting_swap_pair(swap_pair):
    res = globalize(swap_pair)
    split = central_splitting(res)
    emb = res.embedding
    # Canonical order (1, g): the identity translate claims iota(X) first, so
    # the g-translate only keeps the class of (g, 2), pulled back to iota(2).
    assert split[0] == frozenset(emb.values())
    assert split[1] == frozenset({emb[2]})


def test_central_splitting_global_input(fixed_single):
    split = central_splitting(globalize(fixed_single))
    assert split[0] == frozenset({0})
    assert split[1] == frozenset()


def test_central_splitting_idle_triple(idle_triple):
    res = globalize(idle_triple)
    split = central_splitting(res)
    assert split[0] == split[1] == frozenset(res.embedding.values())


def test_minimal_partial_unitization(swap_pair):
    plus = minimal_partial_unitization(swap_pair)
    assert plus.size() == 4
    assert plus.domain(1) == frozenset({0, 1})
    assert is_free(plus)


def test_minimal_partial_unitization_preserves_freeness_iff(fixed_single):
    plus = minimal_partial_unitization(fixed_single)
    assert not is_free(plus)


def test_minimal_partial_unitization_never_global(c2):
    swap = global_action(c2, {0, 1}, {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})
    plus = minimal_partial_unitization(swap)
    assert not plus.is_global()
    assert is_free(swap) and is_free(plus)


def test_random_keep_probability_extremes():
    pa1 = random_partial_action(7, ("cyclic", 3), 6, 1.0)
    assert pa1.is_global() and pa1.size() == 6
    pa0 = random_partial_action(7, ("cyclic", 3), 6, 0.0)
    assert pa0.size() == 0


def test_random_is_deterministic():
    a = random_partial_action(42, ("symmetric", 3), 9, 0.6)
    b = random_partial_action(42, ("symmetric", 3), 9, 0.6)
    assert a.carrier == b.carrier and a.domains == b.domains and a.maps == b.maps


def test_random_corpus_validates_and_derived_identities_hold():
    for pa in corpus(24):
        G = pa.group
        for g in G.elements():
            for h in G.elements():
                lhs = frozenset(pa.theta(g, x) for x in pa.domain(G.inv(g)) & pa.domain(h))
                assert lhs == pa.domain(g) & pa.domain(G.mul(g, h))
                # Unit identity in indicator form: 1_{gh} 1_g = alpha_g(1_h 1_{g^-1}).
                for z in pa.domain(g):
                    lhs_val = int(z in pa.domain(G.mul(g, h)))
                    rhs_val = int(pa.theta(G.inv(g), z) in pa.domain(h))
                    assert lhs_val == rhs_val


def test_tuple_map_equivariance_on_corpus():
    for pa in corpus(18):
        G = pa.group
        for g in G.elements():
            for x in pa.domain(G.inv(g)):
                tau_x = pa.domain_tuple(x)
                image = frozenset(G.mul(g, h) for h in tau_x)
                assert pa.domain_tuple(pa.theta(g, x)) == image


def test_domain_tuples_are_read_off_the_theta_table():
    """tau(x) from the defined entries of theta_{g^-1} equals the scan of
    every domain; a point off the carrier has the empty tuple."""
    import gc

    for pa in corpus(30):
        for x in pa.carrier:
            tau = pa.domain_tuple(x)
            assert tau == frozenset(g for g in pa.group.elements() if x in pa.domain(g))
            assert all(type(g) is int for g in tau)
        assert pa.domain_tuple(max(pa.carrier, default=0) + 1) == frozenset()
        assert pa.domain_tuple(-1) == frozenset()
        assert pa._domain_tuples is pa._domain_tuples
        assert not any(ref is pa for ref in gc.get_referents(pa._domain_tuples))


def test_globalize_round_trip_on_corpus():
    """The envelope has one G-orbit G/Stab(x) per groupoid orbit, x in it.

    The size is read from the translation groupoid, not from the quotient
    construction that globalize runs.
    """
    for pa in corpus(12, base_seed=100):
        res = globalize(pa)
        gr = translation_groupoid(pa)
        expected = sum(pa.group.order // gr.stabilizers[min(o)].order for o in gr.orbits)
        assert res.envelope.size() == expected
        emb = res.embedding
        back = restricted_to(res.envelope, frozenset(emb.values()))
        assert back.size() == pa.size()
        for g in pa.group.elements():
            assert frozenset(emb[x] for x in pa.domain(g)) == back.domain(g)


def test_central_splitting_partitions_on_corpus():
    for pa in corpus(12, base_seed=200):
        res = globalize(pa)
        split = central_splitting(res)  # partition asserted internally
        assert all(p <= frozenset(res.embedding.values()) for p in split.values())


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_partial_action_always_validates(seed):
    pa = random_partial_action(seed, ("cyclic", 4), 8, 0.5)
    assert isinstance(pa, PartialAction)
    _assert_same_table(validate(pa.group, pa.carrier, pa.domains, pa.maps), pa)


def _assert_same_table(a: PartialAction, b: PartialAction) -> None:
    assert a.group == b.group
    assert np.array_equal(a.points, b.points) and np.array_equal(a.table, b.table)


def test_actions_built_as_tables_are_the_validated_ones(c2):
    """Draws, trivial actions and unitizations are built as tables without
    validate; validating their dict views gives the same table."""
    for pa in corpus(30) + [validate(c2, set(), {0: set()}, {0: {}})]:
        for built in (pa, trivial_partial_action(pa.group, pa.carrier), minimal_partial_unitization(pa)):
            assert built.points.dtype == built.table.dtype == np.intp
            assert not built.points.flags.writeable and not built.table.flags.writeable
            _assert_same_table(validate(built.group, built.carrier, built.domains, built.maps), built)


def test_freeness_witness_is_the_least_fixed_point(c2):
    """The least g, then the least point, whatever order the maps list."""
    both = {1: 1, 0: 0, 2: 2}
    pa = validate(c2, {0, 1, 2}, {0: {0, 1, 2}, 1: {0, 1, 2}}, {0: both, 1: both})
    assert freeness_witness(pa) == (1, 0)
    c4 = build_group(("cyclic", 4))
    # C4 on its two cosets of {0, 2}, labelled 5 and 3: the elements 0 and 2
    # fix both, 1 and 3 swap them.
    cosets = global_action(c4, {5, 3}, {g: ({5: 5, 3: 3} if g % 2 == 0 else {5: 3, 3: 5}) for g in range(4)})
    assert freeness_witness(cosets) == (2, 3)


def test_restrict_and_quotient_names_the_first_crossing_arrow():
    """The witness of a non-invariant subset is the first crossing arrow with
    g ascending, then the source point ascending."""
    rng = random.Random(15)
    seen = 0
    for pa in corpus(30):
        points = sorted(pa.carrier)
        S = frozenset(rng.sample(points, len(points) // 2))
        crossing = [(g, x, y) for g in pa.group.elements() for x, y in sorted(pa.maps[g].items())
                    if (x in S) != (y in S)]
        if not crossing:
            assert restrict_and_quotient(pa, S)[0].carrier == S
            continue
        with pytest.raises(NotInvariant) as err:
            restrict_and_quotient(pa, S)
        assert err.value.arrow == crossing[0] and all(type(v) is int for v in err.value.arrow)
        seen += 1
    assert seen > 10


def test_workload_ops_never_build_the_dict_views():
    """A globalize op (envelope, central splitting, the envelope's Rokhlin
    dimension) and a decompose op (strata, one layer, its orbit-type parts)
    on order-24 actions read tables only: no envelope, layer or subsystem
    builds ``maps``."""
    rng = random.Random(24)
    for spec in (("cyclic", 24), ("symmetric", 4)):
        G = build_group(spec)
        # Two regular orbits, restricted to a random subset: free.
        perms = {a: {c * 24 + g: c * 24 + G.mul(a, g) for c in (0, 1) for g in range(24)} for a in range(24)}
        pa = restricted_to(global_action(G, range(48), perms), rng.sample(range(48), 20))
        glob = globalize(pa)
        central_splitting(glob)
        assert rokhlin_dimension(glob.envelope).finite
        assert "maps" not in vars(glob.envelope) and "maps" not in vars(pa)
    draws = (random_partial_action(seed, ("symmetric", 4), 48, 0.15) for seed in range(100))
    pa = next(p for p in draws if any(len(p.domain_tuple(x)) == 4 for x in p.carrier))
    layer = restricted_to(pa, stratification(pa).stratum(4))
    parts = orbit_type_decomposition(layer, 4)
    assert parts and "maps" not in vars(layer)
    assert not any("maps" in vars(p.subsystem) for p in parts)


def test_stabilizers_constant_along_orbits():
    for pa in corpus(20, base_seed=300):
        gr = translation_groupoid(pa)
        for orbit in gr.orbits:
            orders = {
                len([g for g in pa.group.elements() if pa.maps[g].get(x) == x])
                for x in orbit
            }
            assert len(orders) == 1


def test_empty_carrier_and_trivial_group_are_valid():
    g1 = build_group(("cyclic", 1))
    empty = validate(g1, set(), {0: set()}, {0: {}})
    assert empty.size() == 0
    single = trivial_partial_action(g1, {5})
    assert single.is_global()
