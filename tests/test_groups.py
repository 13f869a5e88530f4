import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partact import groups
from partact.groups import (
    ElementOutOfRange,
    NoIdentity,
    NonAssociative,
    NotASubgroup,
    Subgroup,
    build_group,
    coset_decomposition,
    subgroup_closure,
)


def test_cyclic_2_is_addition_mod_2():
    g = build_group(("cyclic", 2))
    assert g.order == 2
    assert g.table == ((0, 1), (1, 0))
    assert g.inverse == (0, 1)


def test_explicit_klein_four_table_all_self_inverse():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = build_group(table)
    assert g.order == 4
    assert all(g.inv(a) == a for a in g.elements())


def test_non_associative_table_names_triple():
    # 0 is an identity and every element is self-inverse, but the rest of the
    # table is not associative.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NonAssociative) as err:
        build_group(table)
    a, b, c = err.value.triple
    row = table[a]
    assert table[row[b]][c] != table[a][table[b][c]]


def test_missing_identity_reported():
    with pytest.raises(NoIdentity):
        build_group([[1, 0], [0, 1]])


def test_group_order_cap():
    with pytest.raises(groups.GroupError):
        build_group(("symmetric", 5))
    g = build_group(("symmetric", 4))
    assert g.order == 24


@pytest.mark.parametrize(
    "spec,order",
    [(("cyclic", 6), 6), (("dihedral", 3), 6), (("symmetric", 3), 6), ("klein4", 4)],
)
def test_named_families_pass_axioms(spec, order):
    g = build_group(spec)
    assert g.order == order
    # identity, inverses, associativity are re-checked by construction; spot
    # check inverse involutivity here.
    assert all(g.inv(g.inv(a)) == a for a in g.elements())


def test_dihedral_symmetric_agree_on_order_6():
    d3 = build_group(("dihedral", 3))
    s3 = build_group(("symmetric", 3))
    orders_d3 = sorted(_element_order(d3, a) for a in d3.elements())
    orders_s3 = sorted(_element_order(s3, a) for a in s3.elements())
    assert orders_d3 == orders_s3 == [1, 2, 2, 2, 3, 3]


def _element_order(g, a):
    k, x = 1, a
    while x != 0:
        x = g.mul(x, a)
        k += 1
    return k


def test_subgroup_closure_empty_seed_is_trivial():
    g = build_group(("cyclic", 4))
    assert subgroup_closure(g, []).members == frozenset({0})


def test_subgroup_closure_cyclic4_even_part():
    g = build_group(("cyclic", 4))
    assert subgroup_closure(g, {2}).members == frozenset({0, 2})
    # Independent oracle: {0, 2} is the unique proper subgroup containing 2.
    closed = [
        s
        for r in range(1, 5)
        for s in map(frozenset, itertools.combinations(range(4), r))
        if 2 in s and 0 in s and groups.is_subgroup(g, s)
    ]
    assert min(closed, key=len) == frozenset({0, 2})


def test_subgroup_closure_full_seed():
    g = build_group(("symmetric", 3))
    assert subgroup_closure(g, range(6)).members == frozenset(range(6))


def test_subgroup_closure_rejects_out_of_range():
    g = build_group(("cyclic", 3))
    with pytest.raises(ElementOutOfRange):
        subgroup_closure(g, {5})


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_subgroup_closure_monotone_and_idempotent(n, data):
    g = groups.cyclic_group(n)
    seed1 = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    extra = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
    h1 = subgroup_closure(g, seed1).members
    h2 = subgroup_closure(g, seed1 | extra).members
    assert h1 <= h2
    assert subgroup_closure(g, h1).members == h1


def test_coset_decomposition_cyclic4():
    g = build_group(("cyclic", 4))
    h = subgroup_closure(g, {2})
    blocks = coset_decomposition(g, h)
    assert blocks == [frozenset({0, 2}), frozenset({1, 3})]


def test_coset_decomposition_s3_two_element_subgroup():
    g = build_group(("symmetric", 3))
    transposition = next(
        a for a in range(1, 6) if g.mul(a, a) == 0
    )
    h = subgroup_closure(g, {transposition})
    assert h.order == 2
    for side in ("left", "right"):
        blocks = coset_decomposition(g, h, side)
        assert len(blocks) == 3
        assert all(len(b) == 2 for b in blocks)
        assert frozenset().union(*blocks) == frozenset(range(6))
        assert blocks[0] == h.members


def test_coset_decomposition_whole_group():
    g = build_group(("cyclic", 3))
    h = subgroup_closure(g, {1})
    assert coset_decomposition(g, h) == [frozenset({0, 1, 2})]


def test_coset_decomposition_rejects_non_subgroup():
    g = build_group(("cyclic", 4))
    bad = Subgroup(g, frozenset({0, 1}))
    with pytest.raises(NotASubgroup):
        coset_decomposition(g, bad)


@pytest.mark.parametrize("spec", [("cyclic", 6), ("dihedral", 4), ("symmetric", 3)])
def test_lagrange_on_all_subgroups(spec):
    g = build_group(spec)
    for sub in groups.all_subgroups(g):
        blocks = coset_decomposition(g, sub)
        assert len(blocks) * sub.order == g.order


def test_subgroup_as_group_reindexes():
    g = build_group(("cyclic", 6))
    h = subgroup_closure(g, {2}).as_group()
    assert h.order == 3
    assert h.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_all_subgroups_is_computed_once_per_group():
    """The lattice is cached by the group's value: an equal group built
    again gets the same tuple (S4 has 30 subgroups)."""
    subs = groups.all_subgroups(build_group(("symmetric", 4)))
    assert type(subs) is tuple and len(subs) == 30
    assert groups.all_subgroups(build_group(("symmetric", 4))) is subs


def test_subgroup_as_group_is_built_once_per_parent_and_members():
    """Equal subgroups of equal groups share one reindexed group, with the
    same name, table and element order as a fresh reindexing."""
    s4 = build_group(("symmetric", 4))
    for sub in groups.all_subgroups(s4):
        h = sub.as_group()
        again = groups.Subgroup(build_group(("symmetric", 4)), frozenset(sub.members)).as_group()
        assert again is h
        elems = sorted(sub.members)
        assert h.name == "symmetric(4)-sub" and h.order == len(elems)
        assert h.table == tuple(tuple(elems.index(s4.mul(a, b)) for b in elems) for a in elems)
        assert h.inverse == tuple(elems.index(s4.inv(a)) for a in elems)


NAMED = (
    [("cyclic", n) for n in range(1, 25)]
    + [("dihedral", n) for n in range(1, 13)]
    + [("symmetric", n) for n in range(1, 5)]
    + ["klein4"]
)
ABOVE_THE_CAP = (("cyclic", 48), ("dihedral", 24), ("cyclic", 60), ("dihedral", 30),
                 ("symmetric", 5), ("dihedral", 60), ("cyclic", 120))


@pytest.mark.parametrize("spec", NAMED + list(ABOVE_THE_CAP))
def test_generators_are_greedy_and_generate(spec):
    """Each generator is the least element outside the subgroup the earlier
    ones generate, so each at least doubles it: at most log2 |G| of them,
    and together they generate the group."""
    g = build_group(spec, max_order=120)
    gens = g.generators
    assert subgroup_closure(g, gens).order == g.order
    for k, s in enumerate(gens):
        before = subgroup_closure(g, gens[:k]).members
        assert s == min(set(g.elements()) - before)
    assert 2 ** len(gens) <= g.order
    assert g.generators is gens  # built once per group


def test_generators_of_the_groups_at_the_cap():
    assert build_group(("cyclic", 24)).generators == (1,)
    assert build_group(("dihedral", 12)).generators == (1, 12)
    assert build_group(("symmetric", 4)).generators == (1, 2, 6)
    assert build_group(("cyclic", 1)).generators == ()


def test_generators_are_read_only():
    g = build_group(("symmetric", 4))
    assert isinstance(g.generators, tuple)
    with pytest.raises(AttributeError):
        g.generators = (1,)
    assert g.generators == (1, 2, 6)
