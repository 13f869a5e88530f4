"""The array routes of the group layer against the loops in group_reference.py.

The lattice, the cosets and every axiom error must be identical: the same
subgroup tuple in the same order, the same coset blocks, the same exception
class naming the same witness, and the same random instances byte for byte.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partact import harness
from partact.cli import instance_digest
from partact.groups import (
    ElementOutOfRange,
    GroupError,
    NoIdentity,
    NoInverse,
    NonAssociative,
    all_subgroups,
    build_group,
    coset_decomposition,
    group_from_table,
    is_subgroup,
    subgroup_closure,
)
from partact.pactions import random_partial_action
from group_reference import (
    reference_all_subgroups,
    reference_check_axioms,
    reference_coset_decomposition,
    reference_is_subgroup,
    reference_random_partial_action,
    reference_subgroup_closure,
)

NAMED = (
    [("cyclic", n) for n in range(1, 25)]
    + [("dihedral", n) for n in range(1, 13)]
    + [("symmetric", n) for n in range(1, 5)]
    + ["klein4"]
)
TAMPERED = {"S4": ("symmetric", 4), "D12": ("dihedral", 12), "C6": ("cyclic", 6)}
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.json"


@pytest.mark.parametrize("spec", NAMED, ids=str)
def test_lattice_and_cosets_agree_with_reference(spec):
    """Every named family up to order 24: the identical subgroup tuple, and
    for each subgroup the identical left and right coset blocks."""
    group = build_group(spec)
    subs = all_subgroups(group)
    assert subs == reference_all_subgroups(group)
    for sub in subs:
        for side in ("left", "right"):
            assert coset_decomposition(group, sub, side) == reference_coset_decomposition(group, sub, side)


@given(st.sampled_from(sorted(TAMPERED)), st.data())
@settings(max_examples=60, deadline=None)
def test_closure_and_subgroup_test_agree_with_reference(name, data):
    group = build_group(TAMPERED[name])
    seed = data.draw(st.lists(st.integers(-2, group.order + 1), max_size=4))
    try:
        expected = reference_subgroup_closure(group, seed)
    except ElementOutOfRange as err:
        with pytest.raises(ElementOutOfRange) as got:
            subgroup_closure(group, seed)
        assert str(got.value) == str(err) and got.value.element == err.element
    else:
        assert subgroup_closure(group, seed) == expected
    members = frozenset(data.draw(st.sets(st.integers(0, group.order - 1), max_size=group.order)))
    assert is_subgroup(group, members) == reference_is_subgroup(group, members)


def _outcome(check, table):
    """The inverse table, or the group error raised, as (class, message, witness)."""
    try:
        return check(table)
    except GroupError as err:
        return type(err), str(err), getattr(err, "element", getattr(err, "triple", None))


@given(
    st.sampled_from(sorted(TAMPERED)),
    st.sampled_from([NoIdentity, NoInverse, NonAssociative]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_axiom_errors_agree_with_reference(name, kind, data):
    """One cell of the S4, D12 or C6 table changed: in row or column 0
    (identity), at a product a a^-1 = 0 with a != 0 (inverse), or elsewhere
    (associativity).  The array check raises the loop's class with its
    message and witness."""
    group = build_group(TAMPERED[name])
    n = group.order
    table = [list(row) for row in group.table]
    element = st.integers(1, n - 1)
    if kind is NoIdentity:
        a = data.draw(element)
        a, b = data.draw(st.sampled_from([(0, a), (a, 0)]))
    elif kind is NoInverse:
        a = data.draw(element)
        b = group.inv(a)
    else:
        a, b = data.draw(element), data.draw(element)
        while b == group.inv(a):
            b = b % (n - 1) + 1
    table[a][b] = data.draw(st.integers(0, n - 1).filter(lambda v: v != table[a][b]))
    expected = _outcome(lambda t: reference_check_axioms(n, t), table)
    assert expected[0] is kind
    assert _outcome(lambda t: group_from_table(t).inverse, table) == expected


def test_axiom_checks_agree_on_every_named_table():
    for spec in NAMED:
        group = build_group(spec)
        assert group.inverse == reference_check_axioms(group.order, group.table)


def _solve_caps_draws():
    """The (seed, spec, size, keep) of every solve-caps draw made by random_partial_action."""
    recipes = json.loads(ORACLE.read_text())["recipes"]["solve-caps"]
    keep = {"rokhlin-nonfree": 0.5, "decompose": 0.15}
    return [(seed, tuple(spec), 48, keep[kind]) for kind, spec, seed in recipes if kind in keep]


def test_random_instances_agree_with_reference(monkeypatch):
    """The C24, D12 and S4 draws of the solve-caps pool and corpus(20260808, 100)
    have the instance digests of the coset-scan construction."""
    draws = _solve_caps_draws()
    assert {spec for _, spec, _, _ in draws} == {("cyclic", 24), ("dihedral", 12), ("symmetric", 4)}
    for args in draws:
        assert instance_digest(random_partial_action(*args)) == instance_digest(reference_random_partial_action(*args))
    corpus = [instance_digest(pa) for pa in harness.corpus(20260808, 100)]
    monkeypatch.setattr(harness, "random_partial_action", reference_random_partial_action)
    assert corpus == [instance_digest(pa) for pa in harness.corpus(20260808, 100)]
