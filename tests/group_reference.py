"""Element-by-element loops for the group layer in ``partact.groups``.

These are the formulations that the array routes replaced: the n^3 axiom
loop, the subgroup closure by single products, the lattice that joins every
subgroup with every element outside it, the coset partition by translating
the subgroup, and the coset orbits of ``random_partial_action`` found by
scanning the cosets for each product.  Tests compare the two, subgroup for
subgroup, witness for witness and instance for instance.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Iterable, Sequence

from partact.groups import (
    ElementOutOfRange,
    FiniteGroup,
    GroupError,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotASubgroup,
    Subgroup,
    build_group,
)
from partact.pactions import PartialAction, PartialActionError, global_action, restricted_to


def reference_check_axioms(order: int, table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Validate group axioms and return the inverse table."""
    for a in range(order):
        if table[0][a] != a or table[a][0] != a:
            raise NoIdentity(a)
    inverse = []
    for a in range(order):
        inv_a = None
        for b in range(order):
            if table[a][b] == 0 and table[b][a] == 0:
                inv_a = b
                break
        if inv_a is None:
            raise NoInverse(a)
        inverse.append(inv_a)
    for a in range(order):
        for b in range(order):
            tab = table[a][b]
            for c in range(order):
                if table[tab][c] != table[a][table[b][c]]:
                    raise NonAssociative(a, b, c)
    return tuple(inverse)


def reference_subgroup_closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing ``seed``."""
    members = {0}
    for s in seed:
        if not (0 <= s < group.order):
            raise ElementOutOfRange(s, group.order)
        members.add(s)
    frontier = list(members)
    while frontier:
        new = []
        for a in frontier:
            for b in list(members):
                for c in (group.mul(a, b), group.mul(b, a), group.inv(a)):
                    if c not in members:
                        members.add(c)
                        new.append(c)
        frontier = new
    return Subgroup(group, frozenset(members))


def reference_is_subgroup(group: FiniteGroup, members: frozenset[int]) -> bool:
    if 0 not in members:
        return False
    for a in members:
        if group.inv(a) not in members:
            return False
        for b in members:
            if group.mul(a, b) not in members:
                return False
    return True


def reference_coset_decomposition(
    group: FiniteGroup, sub: Subgroup, side: str = "left"
) -> list[frozenset[int]]:
    """Partition of the group into left (gH) or right (Hg) cosets, by least element."""
    if sub.parent != group or not reference_is_subgroup(group, sub.members):
        raise NotASubgroup("given Subgroup does not belong to this group")
    if side not in ("left", "right"):
        raise GroupError(f"side must be 'left' or 'right', got {side!r}")
    seen: set[int] = set()
    blocks: list[frozenset[int]] = []
    for g in group.elements():
        if g in seen:
            continue
        if side == "left":
            block = frozenset(group.mul(g, h) for h in sub.members)
        else:
            block = frozenset(group.mul(h, g) for h in sub.members)
        seen |= block
        blocks.append(block)
    return sorted(blocks, key=min)


@cache
def reference_all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, found as closures of every found subgroup with every element outside it."""
    found: set[frozenset[int]] = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        new = []
        for members in frontier:
            for g in group.elements():
                if g in members:
                    continue
                bigger = reference_subgroup_closure(group, members | {g}).members
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return tuple(Subgroup(group, m) for m in sorted(found, key=lambda m: (len(m), sorted(m))))


def reference_random_partial_action(
    seed: int,
    group_spec=("cyclic", 2),
    ambient_size: int = 6,
    keep_probability: float = 0.5,
    max_order: int = 24,
) -> PartialAction:
    """``random_partial_action`` with each coset orbit built by scanning the
    cosets for the one holding g times each coset's least member, and the
    ambient action validated from its permutation dicts."""
    if not (0.0 <= keep_probability <= 1.0):
        raise PartialActionError(f"keep probability must be in [0, 1], got {keep_probability}")
    if ambient_size < 0:
        raise PartialActionError(f"ambient size must be >= 0, got {ambient_size}")
    rng = random.Random(seed)
    group = build_group(group_spec, max_order=max_order)
    subs = reference_all_subgroups(group)
    points: list[int] = []
    perms: dict[int, dict[int, int]] = {g: {} for g in group.elements()}
    next_label = 0
    while len(points) < ambient_size:
        room = ambient_size - len(points)
        candidates = [s for s in subs if group.order // s.order <= room]
        sub = rng.choice(candidates)
        cosets = reference_coset_decomposition(group, sub, "left")
        labels = {cos: next_label + i for i, cos in enumerate(cosets)}
        next_label += len(cosets)
        for g in group.elements():
            for cos, lab in labels.items():
                rep = min(cos)
                target = next(c for c in cosets if group.mul(g, rep) in c)
                perms[g][lab] = labels[target]
        points.extend(labels.values())
    ambient = global_action(group, points, perms)
    return restricted_to(ambient, [x for x in points if rng.random() < keep_probability])
