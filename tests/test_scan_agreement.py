"""The integer-table checks against the plain scans in scan_reference.py.

Exception types, witness strings and envelopes must be identical: every
failure names the first witness of the old scan order.
"""

import gc
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from block_reference import center_rows
from fraction_reference import is_fixed_element

from partact import fdcstar, harness, pactions
from partact.decomp import is_n_decomposable, orbit_type_decomposition, stratification
from partact.fdcstar import (
    AlgebraError,
    StructureConstantStarAlgebra,
    check_arrow_identities,
    crossed_product,
    imprimitivity_bimodule_verify,
)
from partact.groups import build_group
from partact.pactions import (
    PartialAction,
    central_splitting,
    global_action,
    globalize,
    random_partial_action,
    restricted_to,
    validate,
)
from partact.rokhlin import TowerCertificate, towers_exist, verify_certificate
from scan_reference import (
    dense_product,
    from_dense,
    groupoid_arrows,
    reference_center_basis,
    reference_central_splitting,
    reference_check_invariants,
    reference_crossed_product,
    reference_globalize,
    reference_is_n_decomposable,
    reference_restricted_to,
    reference_stabilizer_subsystem,
    reference_stratification,
    reference_validate,
    reference_verify_certificate,
    table_of,
    unvalidated,
)

F = Fraction


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, AssertionError) as exc:
        return (type(exc), str(exc))


def _regular(spec, copies=1):
    group = build_group(spec)
    m = group.order
    perms = {
        a: {c * m + g: c * m + group.mul(a, g) for c in range(copies) for g in group.elements()}
        for a in group.elements()
    }
    return global_action(group, range(copies * m), perms)


@pytest.fixture(scope="module")
def instances():
    regular = [_regular(spec) for spec in (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))]
    return harness.corpus(20260808, 100) + regular


def _same_action(a: PartialAction, b: PartialAction) -> bool:
    return (
        a.carrier == b.carrier
        and dict(a.domains) == dict(b.domains)
        and all(list(a.maps[g].items()) == list(b.maps[g].items()) for g in a.group.elements())
    )


def _tampered_maps(pa: PartialAction, rng: random.Random):
    """Swap two images of one theta_g and rebuild theta_(g^-1) as its inverse."""
    G = pa.group
    choices = [g for g in G.elements() if g and len(pa.maps[g]) >= 2]
    if not choices:
        return None
    g = rng.choice(choices)
    maps = {k: dict(pa.maps[k]) for k in G.elements()}
    x1, x2 = rng.sample(sorted(maps[g]), 2)
    maps[g][x1], maps[g][x2] = maps[g][x2], maps[g][x1]
    if G.inv(g) != g:
        maps[G.inv(g)] = {y: x for x, y in maps[g].items()}
    return pa.carrier, pa.domains, maps


def _broken_inputs(pa: PartialAction, rng: random.Random):
    """Copies of pa's domains and maps, each broken in one way: domain points
    off the carrier, points missing from X_1, theta_1 moving a point or
    defined off the carrier, a theta_g with a missing or non-carrier source,
    a repeated or non-carrier image, and a key that is no group element."""
    G, points = pa.group, sorted(pa.carrier)
    if not points:
        return
    off, x = points[-1] + 1, rng.choice(points)

    def copies():
        return {g: set(pa.domains[g]) for g in G.elements()}, {g: dict(pa.maps[g]) for g in G.elements()}

    domains, maps = copies()
    for g in rng.sample(range(G.order), min(2, G.order)):
        domains[g] |= {off + 1, off}
    yield domains, maps
    domains, maps = copies()
    domains[0] -= set(rng.sample(points, min(2, len(points))))
    yield domains, maps
    for y in (rng.choice([p for p in points if p != x] or [off]), off):
        domains, maps = copies()
        maps[0][x] = y
        yield domains, maps
    domains, maps = copies()
    maps[0][off] = off
    yield domains, maps
    for g in [g for g in G.elements() if g and pa.maps[g]]:
        sources = sorted(pa.maps[g])
        domains, maps = copies()
        del maps[g][rng.choice(sources)]
        yield domains, maps
        domains, maps = copies()
        maps[g][off] = rng.choice(points)
        yield domains, maps
        domains, maps = copies()
        maps[g][rng.choice(sources)] = off
        yield domains, maps
        if len(sources) >= 2:
            domains, maps = copies()
            x1, x2 = rng.sample(sources, 2)
            maps[g][x1] = maps[g][x2]
            yield domains, maps
    domains, maps = copies()
    domains[G.order] = set()
    yield domains, maps
    domains, maps = copies()
    maps[-1] = {}
    yield domains, maps


def test_validate_agrees_with_scan_reference(instances):
    rng = random.Random(8)
    seen = set()
    for pa in instances:
        assert _same_action(validate(pa.group, pa.carrier, pa.domains, pa.maps),
                            reference_validate(pa.group, pa.carrier, pa.domains, pa.maps))
        tampered = [_tampered_maps(pa, rng) for _ in range(4)]
        tampered += [(pa.carrier, *data) for data in _broken_inputs(pa, rng)]
        for data in tampered:
            if data is None:
                continue
            new, ref = _outcome(validate, pa.group, *data), _outcome(reference_validate, pa.group, *data)
            assert new[0] == ref[0]
            if new[0] == "ok":
                assert _same_action(new[1], ref[1])
                seen.add("ok")
            else:
                assert new[1] == ref[1]
                seen.add(re.sub(r"\d+", "#", new[1]))
    bijection = "theta_# is not a bijection X_(g^-#) -> X_g: "
    assert seen >= {
        "ok",
        "domain of g=# contains non-carrier point #",
        "identity domain must be the whole carrier; missing point #",
        "theta_# must be the identity map",
        bijection + "source set is not X_(g^-#)",
        bijection + "image is not X_g or map is not injective",
        "theta_(inv #) is not the inverse of theta_# at point #",
        "composition axiom fails for (g=#, h=#) at point #: theta_g(theta_h(x)) is defined but disagrees with theta_(gh)",
        "domains key # is not a group element",
        "maps key -# is not a group element",
    }


def test_dict_views_are_read_only_ascending_and_equal_the_dicts_given(instances):
    """maps and domains are read off the table on first use: read-only, points
    ascending, equal to the plain dicts validate was given in shuffled order,
    and, on restrictions, to the route that filters the dicts and validates."""
    rng = random.Random(15)
    for pa in instances:
        G = pa.group
        maps = {g: dict(rng.sample(sorted(pa.maps[g].items()), len(pa.maps[g]))) for g in G.elements()}
        domains = {g: frozenset(m.values()) for g, m in maps.items()}
        given = validate(G, pa.carrier, domains, maps)
        assert {g: dict(m) for g, m in given.maps.items()} == maps and dict(given.domains) == domains
        subset = rng.sample(sorted(pa.carrier), len(pa.carrier) // 2)
        restriction = restricted_to(given, subset)
        assert _same_action(restriction, reference_restricted_to(given, subset))
        for action in (given, restriction, globalize(given).envelope):
            assert list(action.maps) == list(action.domains) == list(G.elements())
            assert all(list(m) == sorted(m) for m in action.maps.values())
            assert all(type(d) is frozenset for d in action.domains.values())
            for view, key, value in ((action.maps, 0, {}), (action.maps[0], -1, -1), (action.domains, 0, frozenset())):
                with pytest.raises(TypeError):
                    view[key] = value


def test_validate_names_the_first_composition_witness():
    # theta_1 = theta_2 = the swap (0 1) of C3: theta_1 theta_1 = 1 != theta_2.
    c3 = build_group(("cyclic", 3))
    swap = {0: 1, 1: 0, 2: 2}
    data = ({0, 1, 2}, {g: {0, 1, 2} for g in range(3)}, {0: {0: 0, 1: 1, 2: 2}, 1: swap, 2: swap})
    new, ref = _outcome(validate, c3, *data), _outcome(reference_validate, c3, *data)
    assert new == ref
    assert new[1].startswith("composition axiom fails for (g=1, h=1) at point 0")


def _random_certificate(pa: PartialAction, rng: random.Random) -> TowerCertificate:
    values = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(1), F(-1, 2), F(3, 2)]
    d = rng.choice((0, 0, 1))
    points = sorted(pa.carrier)
    if not points:
        return TowerCertificate(d, ({},) * (d + 1))
    levels = []
    for _ in range(d + 1):
        chosen = rng.sample(points, rng.randint(0, min(3, len(points))))
        level = {x: rng.choice(values[:6]) for x in chosen}
        if rng.random() < 0.05:
            level[rng.choice(points)] = rng.choice(values[6:])
        if rng.random() < 0.03:
            level[max(points) + 1] = F(1)
        levels.append(level)
    return TowerCertificate(d, tuple(levels))


def _solver_variants(pa: PartialAction, rng: random.Random):
    """The solver's certificate, padded, with a second tower, and with half mass."""
    cert = towers_exist(pa, 0)
    if not isinstance(cert, TowerCertificate):
        return []
    level = dict(cert.levels[0])
    out = [cert, TowerCertificate(1, ({}, level))]
    rest = sorted(pa.carrier - set(level))
    if rest:
        out.append(TowerCertificate(0, ({**level, rng.choice(rest): F(1)},)))
    if level:
        out.append(TowerCertificate(0, ({**level, min(level): F(1, 2)},)))
    return out


def _witness_kinds_agreeing(instances) -> set:
    rng = random.Random(20260808)
    seen = set()
    for pa in instances:
        certs = _solver_variants(pa, rng) + [_random_certificate(pa, rng) for _ in range(6)]
        for cert in certs:
            new, ref = verify_certificate(pa, cert), reference_verify_certificate(pa, cert)
            assert (new.ok, new.witness) == (ref.ok, ref.witness), cert
            seen.add(new.witness.split(" ")[0] if new.witness else "ok")
    return seen


def test_verify_certificate_agrees_with_scan_reference(instances):
    assert {"ok", "orthogonality", "tower", "level"} <= _witness_kinds_agreeing(instances)


def test_verify_certificate_agrees_on_the_unvalidated_broken_action():
    c3 = build_group(("cyclic", 3))
    everything = frozenset({0, 1, 2})
    broken = unvalidated(c3, everything, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2, 2: 0}, 2: {0: 1, 1: 0, 2: 2}})
    for cert in (TowerCertificate(0, ({0: F(1)},)), TowerCertificate(1, ({}, {0: F(1)}))):
        new, ref = verify_certificate(broken, cert), reference_verify_certificate(broken, cert)
        assert (new.ok, new.witness) == (ref.ok, ref.witness)
        assert new.witness.startswith("raw condition (1) fails at (g=2, h=0, y=0")


def _swapped_images(pa: PartialAction, support, rng: random.Random):
    """An unvalidated copy of pa whose theta_g swaps two images outside the
    certificate's support: the tower table is unchanged, so (C2) and (C3)
    still pass and only raw condition (1) can see the break."""
    for g in rng.sample(range(1, pa.group.order), pa.group.order - 1):
        outside = sorted(x for x, y in pa.maps[g].items() if y not in support)
        if len(outside) >= 2:
            x1, x2 = rng.sample(outside, 2)
            maps = {k: dict(pa.maps[k]) for k in pa.group.elements()}
            maps[g][x1], maps[g][x2] = maps[g][x2], maps[g][x1]
            return unvalidated(pa.group, pa.carrier, maps)
    return None


def test_verify_certificate_agrees_when_only_equivariance_breaks(instances):
    """Orbits alternate between two levels in one certificate, so the first
    witness of raw condition (1) depends on taking h before the level, and
    sparse labels make it depend on each domain's iteration order."""
    assert _raw_witnesses_agreeing(instances) >= 20


def test_verify_certificate_agrees_with_one_level_and_one_g_per_block(instances, monkeypatch):
    """With a single table entry per block every level and every g is a
    block of its own, so (C2) and (C3) run across level blocks and the
    witness of raw condition (1) is the least of the blocks' witnesses."""
    monkeypatch.setattr(pactions, "BLOCK_ELEMENTS", 1)
    assert {"ok", "orthogonality", "tower", "level"} <= _witness_kinds_agreeing(instances)
    assert _raw_witnesses_agreeing(instances) >= 20


def _raw_witnesses_agreeing(instances) -> int:
    rng = random.Random(24)
    raw = 0
    specs = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))
    several = [_regular(spec, 2) for spec in specs]
    # Sparse labels: domains then iterate in an order other than sorted.
    several += [restricted_to(_regular(spec, 3), rng.sample(range(72), 10)) for spec in specs]
    for pa in instances + several:
        cert = towers_exist(pa, 0)
        if not isinstance(cert, TowerCertificate):
            continue
        level = sorted(cert.levels[0].items())
        alternate = TowerCertificate(1, (dict(level[::2]), dict(level[1::2])))
        for _ in range(3):
            broken = _swapped_images(pa, cert.levels[0], rng)
            if broken is None:
                continue
            for c in (cert, alternate):
                new, ref = verify_certificate(broken, c), reference_verify_certificate(broken, c)
                assert (new.ok, new.witness) == (ref.ok, ref.witness)
                raw += (new.witness or "").startswith("raw condition (1)")
    return raw


def _assert_owns_its_table(action: PartialAction, parent=None) -> None:
    """The table an action was built from is the one its maps would give,
    intp and read-only, with no reference back to the action or its parent."""
    points, rebuilt = table_of(action.group, action.carrier, action.maps)
    assert action.table.dtype == np.intp and np.array_equal(action.table, rebuilt)
    assert dict(action.index) == {x: i for i, x in enumerate(points.tolist())}
    assert not action.table.flags.writeable
    referents = gc.get_referents(action.table, action.points, action.index)
    assert not any(r is action or r is parent for r in referents)
    if parent is not None:
        assert not np.shares_memory(action.table, parent.table)


def test_globalize_agrees_with_union_find_label_for_label(instances):
    rng = random.Random(9001)
    specs = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))
    at_the_cap = [restricted_to(_regular(spec, 3), rng.sample(range(72), 30)) for spec in specs]
    at_the_cap += [random_partial_action(seed, spec, 48, 0.5) for seed, spec in enumerate(specs)]
    for pa in instances + at_the_cap:
        new, ref = globalize(pa), reference_globalize(pa)
        assert _same_action(new.envelope, ref.envelope)
        assert list(new.embedding.items()) == list(ref.embedding.items())
        # The envelope keeps the table it was built from.
        env = new.envelope
        _assert_owns_its_table(env)
        assert all(list(env.maps[g]) == sorted(env.maps[g]) for g in env.group.elements())
        assert central_splitting(new) == reference_central_splitting(new)
        for action in (pa, env):
            arrows = tuple((g, x, y) for g in action.group.elements() for x, y in sorted(action.maps[g].items()))
            assert groupoid_arrows(action) == arrows


def _same_dicts(a: PartialAction, b: PartialAction) -> bool:
    return (
        a.group.table == b.group.table
        and a.carrier == b.carrier
        and dict(a.domains) == dict(b.domains)
        and {g: dict(m) for g, m in a.maps.items()} == {g: dict(m) for g, m in b.maps.items()}
    )


def test_restrictions_strata_and_subsystems_agree_with_validated_routes(instances):
    """Restrictions, strata and stabilizer subsystems read off the parent's
    table equal the routes through validate: on the corpus and the regular
    actions, on random order-24 actions, and on random non-invariant subsets
    of the regular actions.  Each derived action owns a table that matches
    its maps (the maps iterate in ascending order, so they are compared as
    dicts)."""
    rng = random.Random(14)
    specs = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))
    at_the_cap = [random_partial_action(seed, spec, 48, keep)
                  for seed, spec in enumerate(specs) for keep in (0.15, 0.5)]
    at_the_cap += [_regular(spec, 3) for spec in specs]
    seen = {"non-invariant": 0, "subsystems": 0}
    for pa in instances + at_the_cap:
        strata = stratification(pa)
        assert strata.strata == reference_stratification(pa)
        points = sorted(pa.carrier)
        subsets = [rng.sample(points, rng.randint(0, len(points))) for _ in range(2)]
        for subset in subsets + [s for s in strata.strata.values() if s]:
            new, ref = restricted_to(pa, subset), reference_restricted_to(pa, subset)
            assert _same_dicts(new, ref)
            _assert_owns_its_table(new, pa)
            seen["non-invariant"] += any(
                (x in new.carrier) != (y in new.carrier) for _, x, y in groupoid_arrows(pa)
            )
        for k, stratum in strata.strata.items():
            if not stratum:
                continue
            layer = restricted_to(pa, stratum)
            for part in orbit_type_decomposition(layer, k):
                H, sub = reference_stabilizer_subsystem(layer, part.representative, part.carrier_X_tau)
                assert part.stabilizer == H and _same_dicts(part.subsystem, sub)
                _assert_owns_its_table(part.subsystem, layer)
                seen["subsystems"] += 1
    assert seen["non-invariant"] > 50 and seen["subsystems"] > 100


def test_decomposability_by_column_counts_agrees_with_the_set_form(instances):
    """is_n_decomposable reads the column counts of the table; the set form
    intersects the domains of each occurring tuple.  They agree at every n on
    the corpus, the regular actions and the three decompose draws of the
    solve-caps benchmark pool, and on every stratum of each."""
    solve_caps = [random_partial_action(seed, spec, 48, 0.15) for seed, spec in (
        (441792921, ("cyclic", 24)), (771246926, ("dihedral", 12)), (270688172, ("symmetric", 4)))]
    outcomes = []
    for pa in instances + solve_caps:
        strata = [restricted_to(pa, s) for s in stratification(pa).strata.values() if s]
        for layer in [pa] + strata:
            for n in range(1, pa.group.order + 1):
                decided = is_n_decomposable(layer, n)
                assert decided == reference_is_n_decomposable(layer, n)
                outcomes.append(decided)
    assert sum(outcomes) > 200 and not all(outcomes)


def test_envelope_table_with_two_entries_swapped_is_rejected(monkeypatch):
    """globalize checks the axioms on the envelope's table: with two entries
    of the row of some g other than the identity swapped in the table it
    builds, theta_g theta_h = theta_gh fails for some h (the other rows fix
    that row once |G| >= 3), and globalize fails with an internal error."""
    rng = random.Random(13)
    real = pactions._check_global_table

    def swapping(group, table):
        g = rng.randrange(1, group.order)
        a, b = rng.sample(range(table.shape[1]), 2)
        table[g, [a, b]] = table[g, [b, a]]
        real(group, table)

    specs = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4), ("cyclic", 3))
    for seed, spec in enumerate(specs):
        pa = random_partial_action(seed, spec, 12, 0.5)
        env = globalize(pa).envelope
        with monkeypatch.context() as patched:
            patched.setattr(pactions, "_check_global_table", swapping)
            with pytest.raises(AssertionError, match=r"composition at \(g=\d+, h=\d+\)"):
                globalize(pa)


def test_axiom_and_certificate_checks_stay_small_at_scale():
    """A global C24 action on 4,800 points: validate, verify_certificate and
    globalize take g in row blocks, so no (|G|, |G|, |X|) temporary (22 MB a
    table here) is built.  Peaks measured with tracemalloc: 14 MB for
    validate (60 MB with one block), 3 MB for verify_certificate on top of
    the action (28 MB with one block), and 6.4 MB for globalize of its
    restriction to the 4,600 points off the first of each orbit, on top of
    that restriction (22 MB with the (g, k, x) least-pair min in one block)."""
    group = build_group(("cyclic", 24))
    copies = 200
    n = group.order * copies
    perms = {
        a: {c * 24 + g: c * 24 + group.mul(a, g) for c in range(copies) for g in range(24)}
        for a in group.elements()
    }
    tracemalloc.start()
    try:
        pa = validate(group, range(n), {g: range(n) for g in group.elements()}, perms)
        validate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        check = verify_certificate(pa, TowerCertificate(0, ({c * 24: F(1) for c in range(copies)},)))
        verify_peak = tracemalloc.get_traced_memory()[1] - held
        part = restricted_to(pa, [x for x in range(n) if x % 24])
        part.index  # the point index is kept on the restriction, outside the peak
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        envelope = globalize(part).envelope
        globalize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert check.ok
    assert envelope.size() == n
    assert validate_peak < 32 * 2**20
    assert verify_peak < 12 * 2**20
    assert globalize_peak < 12 * 2**20


def test_certificate_check_memory_does_not_grow_with_levels():
    """verify_certificate takes the live levels in blocks: on a global C24
    action on 4,800 points, spreading the 200 orbit masses over 20 levels
    peaks within 1.5x of holding them all on one level (tracemalloc)."""
    group = build_group(("cyclic", 24))
    copies = 200
    n = group.order * copies
    perms = {
        a: {c * 24 + g: c * 24 + group.mul(a, g) for c in range(copies) for g in range(24)}
        for a in group.elements()
    }
    pa = global_action(group, range(n), perms)

    def certificate(levels: int) -> TowerCertificate:
        return TowerCertificate(levels - 1, tuple(
            {c * 24: F(1) for c in range(copies) if c % levels == j} for j in range(levels)
        ))

    assert verify_certificate(pa, certificate(1)).ok  # builds the tables kept on pa
    peaks = {}
    for levels in (1, 20):
        cert = certificate(levels)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert verify_certificate(pa, cert).ok
            peaks[levels] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert peaks[20] <= 1.5 * peaks[1], peaks


def test_center_basis_agrees_with_union_find():
    """Classes named by their least conjugate, row for row the union-find's."""
    instances = harness.corpus(20260808, 60) + [
        random_partial_action(seed, spec, ambient_size=10, keep_probability=0.6)
        for seed in range(6)
        for spec in (("symmetric", 3), ("dihedral", 4), "klein4", ("symmetric", 4))
    ]
    nontrivial = 0
    for pa in instances:
        alg = crossed_product(pa)
        if alg.dimension:
            Z = center_rows(alg)
            assert np.array_equal(Z, reference_center_basis(alg))
            nontrivial += (Z.sum(axis=1) > 1).any()
    assert nontrivial > 10


def _conjugation(spec):
    group = build_group(spec)
    return global_action(group, group.elements(), {g: {x: group.conjugate(g, x) for x in group.elements()}
                                                    for g in group.elements()})


def test_crossed_product_agrees_with_nested_loop_builder(instances):
    """Basis, product rows and star equal the nested loop's, and the rows
    spread into an n x n table give the nested loop's table, on the corpus,
    the regular and conjugation actions at the group cap, random order-24
    restrictions and the empty carrier; the reference scan accepts every
    table."""
    rng = random.Random(11)
    specs = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))
    restrictions = [
        restricted_to(_regular(spec), rng.sample(range(24), rng.randint(1, 24))) for spec in specs for _ in range(3)
    ]
    empty = validate(build_group(("symmetric", 3)), set(), {}, {})
    for pa in instances + [_conjugation(spec) for spec in specs] + restrictions + [empty]:
        alg, ref = crossed_product(pa), reference_crossed_product(pa)
        assert alg.basis == ref.basis
        assert np.array_equal(alg.product, ref.product) and np.array_equal(alg.star, ref.star)
        assert np.array_equal(dense_product(alg), dense_product(ref))
        assert not alg.product.flags.writeable and not alg.star.flags.writeable
        assert alg.product.dtype == alg.star.dtype == np.intp
        if alg.dimension <= 100:
            reference_check_invariants(alg)
    assert crossed_product(empty).product.shape == (0, 3)


def test_product_rows_reject_every_tampering(instances):
    """A dropped row, a duplicated row, two rows out of order, an extra row
    whose factors do not compose, and a product index outside [0, n): the
    constructor or the arrow identities raise on each."""
    pa = next(pa for pa in instances if crossed_product(pa).dimension >= 8)
    alg = crossed_product(pa)
    rows, n = alg.product, alg.dimension
    _, tgt, src = fdcstar._arrow_ends(alg, pa)
    i, j = next((i, j) for i in range(n) for j in range(n) if src[i] != tgt[j])
    after = np.searchsorted(rows[:, 0] * n + rows[:, 1], i * n + j)
    extra = np.insert(rows, after, [i, j, 0], axis=0)
    outside = rows.copy()
    outside[len(rows) // 2, 2] = n
    swapped = rows.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    for tampered in (rows[1:], np.insert(rows, 3, rows[3], axis=0), swapped, extra, outside):
        with pytest.raises(AlgebraError):
            check_arrow_identities(StructureConstantStarAlgebra(alg.basis, tampered, alg.star), pa)
    check_arrow_identities(StructureConstantStarAlgebra(alg.basis, rows.copy(), alg.star), pa)


def test_arrow_identities_reject_every_table_the_scan_rejects(instances):
    """Every one-entry corruption of the dense product table and of the star
    table of small crossed products: the identities reject each table the
    scan rejects.  A star entry of -1 is rejected on construction."""
    rejected = 0
    for pa in [pa for pa in instances if 0 < crossed_product(pa).dimension <= 9][:4]:
        alg = crossed_product(pa)
        n = alg.dimension
        with pytest.raises(AlgebraError, match=r"star has an index outside \[0, "):
            replace(alg, star=np.r_[-1, alg.star[1:]])
        for table, values in (("product", dense_product(alg)), ("star", alg.star)):
            for at in np.ndindex(values.shape):
                for value in range(-1 if table == "product" else 0, n):
                    corrupted = values.copy()
                    if corrupted[at] == value:
                        continue
                    corrupted[at] = value
                    if table == "product":
                        tampered = from_dense(alg.basis, corrupted, alg.star)
                    else:
                        tampered = replace(alg, star=corrupted)
                    if _outcome(reference_check_invariants, tampered)[0] != "ok":
                        rejected += 1
                        with pytest.raises(AlgebraError):
                            check_arrow_identities(tampered, pa)
    assert rejected > 100


def _c3_path() -> PartialAction:
    """Built without validate: theta_1 and theta_2 link 0 - 1 - 2 in a path,
    but no arrow joins 0 and 2, as the composition law would force."""
    return unvalidated(build_group(("cyclic", 3)), {0, 1, 2}, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2}, 2: {1: 0, 2: 1}})


def test_broken_composition_is_rejected_by_both_routes():
    """Built without validate.  On the C3 path the composed arrow is missing,
    so the nested loop fails to build; with theta_1 = theta_2 a swap every
    arrow exists and the scan finds a non-associative triple."""
    path = _c3_path()
    with pytest.raises(KeyError):
        reference_crossed_product(path)
    with pytest.raises(AlgebraError, match="not defined exactly when"):
        crossed_product(path)
    swap = {0: 1, 1: 0, 2: 2}
    full = frozenset({0, 1, 2})
    doubled = unvalidated(path.group, full, {0: {0: 0, 1: 1, 2: 2}, 1: swap, 2: swap})
    with pytest.raises(AlgebraError, match="not associative"):
        reference_check_invariants(reference_crossed_product(doubled))
    with pytest.raises(AlgebraError):
        crossed_product(doubled)


def test_unit_fixed_agrees_with_fraction_reference():
    """On the corpus x_alpha is always fixed; on the C3 path, built without
    validate, the arrow 0 -> 1 joins points in 2 and 3 domains.  The verdict
    reads only the basis arrows, so the path gets an unchecked algebra."""
    path = _c3_path()
    basis = tuple((g, x) for g in range(3) for x in sorted(path.domain(g)))
    unchecked = StructureConstantStarAlgebra(basis, (), np.arange(7))
    cases = [(pa, crossed_product(pa)) for pa in harness.corpus(20260808, 100)] + [(path, unchecked)]
    verdicts = set()
    for pa, alg in cases:
        x_alpha = {p: F(len(pa.domain_tuple(p))) for p in pa.carrier}
        fixed = imprimitivity_bimodule_verify(pa, crossed=alg).unit_sum_fixed
        assert fixed == is_fixed_element(pa, x_alpha)
        verdicts.add(fixed)
    assert verdicts == {True, False}
