"""Finite groups as multiplication tables, with subgroup and coset machinery.

Elements are dense indices ``0..order-1`` with ``0`` the identity.  Named
families fix a canonical ordering so that all downstream reports are
reproducible: cyclic groups list residues, dihedral groups list rotations
then reflections, symmetric groups list permutations lexicographically.
The axioms, subgroup closures, a generating set, the subgroup lattice and
cosets are read off the ``mul`` array as whole-array operations; the
element-by-element loops they replaced are kept in
``tests/group_reference.py``.
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

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, built once: the least element outside the subgroup
        generated so far, until that is the group; each at least doubles it, so
        at most log2 |G|, ascending (C24: (1,), D12: (1, 12), S4: (1, 2, 6))."""
        gens, mask = [], np.eye(1, self.order, dtype=bool)  # the trivial subgroup
        while not mask.all():
            gens.append(int(mask[0].argmin()))
            mask[0, gens[-1]] = True
            mask = _close(self, mask)
        return tuple(gens)

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
    mul, inv = parent.arrays
    elems = np.array(sorted(members), dtype=np.intp)
    index = np.zeros(parent.order, dtype=np.intp)
    index[elems] = np.arange(len(elems))
    table = tuple(map(tuple, index[mul[np.ix_(elems, elems)]].tolist()))
    return FiniteGroup(len(elems), table, tuple(index[inv[elems]].tolist()), name=f"{parent.name}-sub")


def _check_axioms(order: int, table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Validate group axioms as whole-array comparisons on the table and return the inverse table.

    The checks run in the order identity, inverses, associativity, and each
    failure names its lexicographically first witness: the least element at
    which 0 is not a two-sided identity, the least element with no two-sided
    inverse, the least triple (a, b, c) with (ab)c != a(bc).  An element's
    inverse is its least two-sided inverse.  At the order cap the
    associativity check compares two arrays of 24^3 = 13,824 entries.
    """
    mul, every = np.array(table, dtype=np.intp), np.arange(order)
    bad = (mul[0] != every) | (mul[:, 0] != every)
    if bad.any():
        raise NoIdentity(int(bad.argmax()))
    two_sided = (mul == 0) & (mul.T == 0)  # [a, b]: b is a two-sided inverse of a
    if not (found := two_sided.any(axis=1)).all():
        raise NoInverse(int(found.argmin()))
    bad = mul[mul] != mul[:, mul]  # [a, b, c]: (ab)c != a(bc)
    if bad.any():
        raise NonAssociative(*map(int, np.unravel_index(bad.argmax(), bad.shape)))
    return tuple(two_sided.argmax(axis=1).tolist())


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


@cache
def cyclic_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Cyclic group of order n; element i is the residue i."""
    if n < 1:
        raise GroupError(f"cyclic order must be >= 1, got {n}")
    _check_order_cap(n, max_order)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_table(table, name=f"cyclic({n})", max_order=max_order)


@cache
def klein_four_group(max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Klein four-group; all non-identity elements are self-inverse."""
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return group_from_table(table, name="klein4", max_order=max_order)


@cache
def dihedral_group(n: int, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^k first, then reflections s*r^k."""
    if n < 1:
        raise GroupError(f"dihedral parameter must be >= 1, got {n}")
    _check_order_cap(2 * n, max_order)

    def mul(a: int, b: int) -> int:
        (fa, ka), (fb, kb) = divmod(a, n), divmod(b, n)
        # r^a r^b = r^{a+b};  r^a (s r^b) = s r^{b-a};  (s r^a) r^b = s r^{a+b};
        # (s r^a)(s r^b) = r^{b-a}.
        return (fa ^ fb) * n + (kb - ka if fb else kb + ka) % n

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return group_from_table(table, name=f"dihedral({n})", max_order=max_order)


@cache
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


def _close(group: FiniteGroup, masks: np.ndarray) -> np.ndarray:
    """Each row of the bool array ``masks`` (member sets holding 0) closed
    under products on the ``mul`` array, all rows at once.

    A round replaces S by S S: c is in S S iff a^-1 c is in S for some a in
    S.  S S contains S, and a finite set closed under products is a
    subgroup, so the rounds stop at the generated subgroup, after about
    log2 |G| + 1 of them (a word of length 2^k is a product in round k).
    """
    mul, inv = group.arrays
    quotient = mul[inv]  # [a, c]: a^-1 c
    while not np.array_equal(grown := (masks[:, :, None] & masks[:, quotient]).any(axis=1), masks):
        masks = grown
    return masks


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def subgroup_closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of ``group`` containing ``seed``; the first seed
    element outside the group raises ElementOutOfRange."""
    elems = np.array(list(seed))
    bad = (elems < 0) | (elems >= group.order)
    if bad.any():
        raise ElementOutOfRange(int(elems[bad.argmax()]), group.order)
    mask = np.zeros((1, group.order), dtype=bool)
    mask[0, 0] = True
    mask[0, elems.astype(np.intp)] = True
    return Subgroup(group, _members(_close(group, mask)[0]))


def is_subgroup(group: FiniteGroup, members: frozenset[int]) -> bool:
    """True iff ``members`` lies in the group, holds 0 and is closed under
    products, read off the ``mul`` array (closure gives the inverses)."""
    elems = np.array(sorted(members), dtype=np.intp)
    if not len(elems) or elems[0] != 0 or elems[-1] >= group.order:
        return False
    inside = np.zeros(group.order, dtype=bool)
    inside[elems] = True
    return bool(inside[group.arrays[0][np.ix_(elems, elems)]].all())


def subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap a member set as a Subgroup, verifying closure."""
    mset = frozenset(members)
    for m in mset:
        if not (0 <= m < group.order):
            raise ElementOutOfRange(m, group.order)
    if not is_subgroup(group, mset | {0}):
        raise NotASubgroup(f"set {sorted(mset)} is not closed")
    return Subgroup(group, mset | {0})


def _least_in_cosets(mul: np.ndarray, masks: np.ndarray, side: str = "left") -> np.ndarray:
    """[s, g]: the least member of the coset g H_s (left) or H_s g (right) of
    each member set ``masks[s]``, one min over the table."""
    products = mul if side == "left" else mul.T  # [g, h]: gh, or hg
    return np.where(masks[:, None, :], products, len(mul)).min(axis=2)


def coset_labels(group: FiniteGroup, sub: Subgroup, side: str = "left") -> np.ndarray:
    """The least member of each element's left (gH) or right (Hg) coset of
    ``sub``, one min over the table; two elements share a coset iff they
    share this label."""
    if sub.parent != group or not is_subgroup(group, sub.members):
        raise NotASubgroup("given Subgroup does not belong to this group")
    if side not in ("left", "right"):
        raise GroupError(f"side must be 'left' or 'right', got {side!r}")
    mask = np.zeros((1, group.order), dtype=bool)
    mask[0, sorted(sub.members)] = True
    return _least_in_cosets(group.arrays[0], mask, side)[0]


def coset_decomposition(
    group: FiniteGroup, sub: Subgroup, side: str = "left"
) -> list[frozenset[int]]:
    """Partition of the group into left (gH) or right (Hg) cosets of ``sub``.

    Each element's coset is named by its least member (``coset_labels``).
    Blocks are ordered by their least element, so the block containing 0
    (which is ``sub`` itself) comes first.
    """
    labels = coset_labels(group, sub, side)
    return [_members(labels == least) for least in np.flatnonzero(labels == np.arange(group.order))]


@cache
def all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups by coset joins, ordered by (order, sorted members);
    computed once per group and shared.

    Every subgroup is reached from the trivial one by joins <H, g>, and
    <H, g> = <H, gh> for every h in H, so each subgroup H found is joined
    once per left coset gH other than H, at the coset's least member.  The
    joins of one round are closed all at once on the ``mul`` array
    (``_close``); the rounds stop when a round finds no new subgroup.
    """
    mul, n = group.arrays[0], group.order
    frontier = np.zeros((1, n), dtype=bool)
    frontier[0, 0] = True
    found = {frontier[0].tobytes(): frontier[0]}
    while len(frontier):
        least = _least_in_cosets(mul, frontier)
        sub, rep = np.nonzero((least == np.arange(n)) & ~frontier)  # each coset's least member, off H
        joins = frontier[sub]
        joins[np.arange(len(rep)), rep] = True
        fresh = {}
        for mask in _close(group, joins):
            if (key := mask.tobytes()) not in found:
                found[key] = fresh[key] = mask
        frontier = np.array(list(fresh.values()), dtype=bool).reshape(-1, n)
    lattice = sorted(map(_members, found.values()), key=lambda m: (len(m), sorted(m)))
    return tuple(Subgroup(group, m) for m in lattice)
