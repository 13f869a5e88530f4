"""Finite groups as multiplication tables, with subgroup and coset machinery.

Elements are dense indices ``0..order-1`` with ``0`` the identity.  Named
families fix a canonical ordering so that all downstream reports are
reproducible: cyclic groups list residues, dihedral groups list rotations
then reflections, symmetric groups list permutations lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 24


class GroupError(ValueError):
    """Base class for group construction failures."""


class NonAssociative(GroupError):
    def __init__(self, a: int, b: int, c: int):
        self.triple = (a, b, c)
        super().__init__(f"table is not associative at triple ({a}, {b}, {c})")


class NoIdentity(GroupError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element 0 is not a two-sided identity at element {element}")


class NoInverse(GroupError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class ElementOutOfRange(GroupError):
    def __init__(self, element: int, order: int):
        self.element = element
        super().__init__(f"element {element} out of range for group of order {order}")


class NotASubgroup(GroupError):
    def __init__(self, reason: str):
        super().__init__(f"not a subgroup: {reason}")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the index of the product ``i * j``; ``inverse[i]`` is
    the index of ``i**-1``.  Instances are immutable and safe to share.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    name: str = "group"

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.mul(self.mul(g, h), self.inverse[g])

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``table`` and ``inverse`` as read-only intp arrays, built once and shared."""
        mul, inv = np.array(self.table, dtype=np.intp), np.array(self.inverse, dtype=np.intp)
        mul.flags.writeable = inv.flags.writeable = False
        return mul, inv

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its member set (always contains 0)."""

    parent: FiniteGroup
    members: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def as_group(self) -> FiniteGroup:
        """Reindex the subgroup as a standalone FiniteGroup (0 stays identity);
        built once per parent group and member set, and shared."""
        return _reindexed(self.parent, self.members)


@cache
def _reindexed(parent: FiniteGroup, members: frozenset[int]) -> FiniteGroup:
    elems = sorted(members)
    index = {g: i for i, g in enumerate(elems)}
    table = tuple(tuple(index[parent.mul(a, b)] for b in elems) for a in elems)
    inverse = tuple(index[parent.inv(a)] for a in elems)
    return FiniteGroup(len(elems), table, inverse, name=f"{parent.name}-sub")


def _check_axioms(order: int, table: Sequence[Sequence[int]]) -> tuple[int, ...]:
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


def _check_order_cap(order: int, max_order: int, order_text: str = "") -> None:
    if order > max_order:
        raise GroupError(f"group order {order_text or order} exceeds the cap {max_order}")


def group_from_table(
    table: Sequence[Sequence[int]],
    name: str = "table",
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteGroup:
    """Build a group from an explicit multiplication table, checking all axioms."""
    order = len(table)
    if order == 0:
        raise NoIdentity(0)
    _check_order_cap(order, max_order)
    rows = []
    for i, row in enumerate(table):
        if len(row) != order:
            raise GroupError(f"table row {i} has length {len(row)}, expected {order}")
        for x in row:
            if not (0 <= int(x) < order):
                raise ElementOutOfRange(int(x), order)
        rows.append(tuple(int(x) for x in row))
    tab = tuple(rows)
    inverse = _check_axioms(order, tab)
    return FiniteGroup(order, tab, inverse, name=name)


def cyclic_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Cyclic group of order n; element i is the residue i."""
    if n < 1:
        raise GroupError(f"cyclic order must be >= 1, got {n}")
    _check_order_cap(n, max_order)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, name=f"cyclic({n})", max_order=max_order)


def klein_four_group(max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Klein four-group; all non-identity elements are self-inverse."""
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return group_from_table(table, name="klein4", max_order=max_order)


def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k first, then reflections s*r^k."""
    if n < 1:
        raise GroupError(f"dihedral parameter must be >= 1, got {n}")
    _check_order_cap(2 * n, max_order)

    def encode(flip: int, k: int) -> int:
        return flip * n + k % n

    def mul(a: int, b: int) -> int:
        fa, ka = divmod(a, n)
        fb, kb = divmod(b, n)
        # r^a r^b = r^{a+b};  r^a (s r^b) = s r^{b-a};  (s r^a) r^b = s r^{a+b};
        # (s r^a)(s r^b) = r^{b-a}.
        if fa == 0 and fb == 0:
            return encode(0, ka + kb)
        if fa == 0 and fb == 1:
            return encode(1, kb - ka)
        if fa == 1 and fb == 0:
            return encode(1, ka + kb)
        return encode(0, kb - ka)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return group_from_table(table, name=f"dihedral({n})", max_order=max_order)


def symmetric_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Symmetric group on n letters; permutations ordered lexicographically.

    The product p*q is the composition "apply q, then p".
    """
    if n < 1:
        raise GroupError(f"symmetric parameter must be >= 1, got {n}")
    order = 1
    for k in range(2, n + 1):  # n! one factor at a time, stopping past the cap
        order *= k
        _check_order_cap(order, max_order, f"{n}!")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))
            row.append(index[comp])
        table.append(row)
    return group_from_table(table, name=f"symmetric({n})", max_order=max_order)


_FAMILIES = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
}


def build_group(spec, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a group from a named-family spec or an explicit table.

    Accepted specs: ``("cyclic", n)``, ``("dihedral", n)``, ``("symmetric", n)``,
    ``"klein4"``, or a square multiplication table (list of rows).
    """
    if isinstance(spec, str):
        if spec == "klein4":
            return klein_four_group(max_order=max_order)
        raise GroupError(f"unknown group family {spec!r}")
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        family, n = spec
        if family == "klein4":
            return klein_four_group(max_order=max_order)
        if family not in _FAMILIES:
            raise GroupError(f"unknown group family {family!r}")
        return _FAMILIES[family](int(n), max_order=max_order)
    return group_from_table(spec, max_order=max_order)


def subgroup_closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing ``seed``."""
    members = {0}
    frontier = []
    for s in seed:
        if not (0 <= s < group.order):
            raise ElementOutOfRange(s, group.order)
        if s not in members:
            members.add(s)
            frontier.append(s)
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


def is_subgroup(group: FiniteGroup, members: frozenset[int]) -> bool:
    if 0 not in members:
        return False
    for a in members:
        if group.inv(a) not in members:
            return False
        for b in members:
            if group.mul(a, b) not in members:
                return False
    return True


def subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap a member set as a Subgroup, verifying closure."""
    mset = frozenset(members)
    for m in mset:
        if not (0 <= m < group.order):
            raise ElementOutOfRange(m, group.order)
    if not is_subgroup(group, mset | {0}):
        raise NotASubgroup(f"set {sorted(mset)} is not closed")
    return Subgroup(group, mset | {0})


def coset_decomposition(
    group: FiniteGroup, sub: Subgroup, side: str = "left"
) -> list[frozenset[int]]:
    """Partition of the group into left (gH) or right (Hg) cosets of ``sub``.

    Blocks are ordered by their least element, so the block containing 0
    (which is ``sub`` itself) comes first.
    """
    if sub.parent != group or not is_subgroup(group, sub.members):
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
def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, found as closures of generator sets (orders <= 24 only);
    computed once per group and shared."""
    found: set[frozenset[int]] = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        new = []
        for members in frontier:
            for g in group.elements():
                if g in members:
                    continue
                bigger = subgroup_closure(group, members | {g}).members
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return tuple(Subgroup(group, m) for m in sorted(found, key=lambda m: (len(m), sorted(m))))
