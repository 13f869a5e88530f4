"""The space of n-element subsets of G containing the identity.

Left translation gives a canonical partial action on these tuples: g moves
the tuples containing g^-1 to the tuples containing g.  The orbit of tau is
{t^-1 tau : t in tau} and its stabilizer lies inside tau, so orbits,
stabilizers and coset sections are computed from tau alone; ``tuple_space``
enumerates the whole space only as a small explicit API.

This is the set route to orbit types that ``partact.decomp`` replaced with
integer keys read off the theta table; tests check the table route against
it, part for part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from partact.groups import FiniteGroup, Subgroup
from partact.pactions import PartialAction, translation_groupoid, validate


class TupleSpaceError(ValueError):
    pass


class NOutOfRange(TupleSpaceError):
    def __init__(self, n: int, order: int):
        super().__init__(f"tuple size {n} out of range 1..{order}")


class TupleNotInSpace(TupleSpaceError):
    def __init__(self, tau):
        super().__init__(f"tuple {sorted(tau)} does not belong to this tuple space")


def translate(group: FiniteGroup, g: int, tau: frozenset[int]) -> frozenset[int]:
    return frozenset(group.mul(g, t) for t in tau)


def _checked_tuple(group: FiniteGroup, tau) -> frozenset[int]:
    tau = frozenset(tau)
    if 0 not in tau or not tau <= frozenset(group.elements()):
        raise TupleNotInSpace(tau)
    return tau


@dataclass(frozen=True)
class TupleSpace:
    """All n-subsets of G containing 1, with the left-translation partial action.

    ``tuples`` is lexicographically ordered (as sorted index lists); ``lt`` is
    a validated partial action on tuple indices; ``orbits`` lists orbit index
    sets; ``section`` maps each orbit (by position) to the index of its
    lexicographically least member; ``index`` inverts ``tuples``.
    """

    group: FiniteGroup
    n: int
    tuples: tuple[frozenset[int], ...]
    lt: PartialAction
    orbits: tuple[frozenset[int], ...]
    section: tuple[int, ...]
    index: Mapping[frozenset[int], int] = field(repr=False, compare=False)

    def index_of(self, tau) -> int:
        tau = frozenset(tau)
        try:
            return self.index[tau]
        except KeyError:
            raise TupleNotInSpace(tau) from None

    def orbit_index_of(self, tau) -> int:
        i = self.index_of(tau)
        for z, orbit in enumerate(self.orbits):
            if i in orbit:
                return z
        raise TupleNotInSpace(tau)

    def representative(self, z: int) -> frozenset[int]:
        return self.tuples[self.section[z]]


def tuple_space(group: FiniteGroup, n: int) -> TupleSpace:
    """Build the n-tuple space with its translation partial action.

    The closed-form orbit of every tuple is checked against the groupoid
    orbit holding it.
    """
    if not (1 <= n <= group.order):
        raise NOutOfRange(n, group.order)
    tuples = tuple(
        frozenset((0,) + rest)
        for rest in itertools.combinations(range(1, group.order), n - 1)
    )
    index = {t: i for i, t in enumerate(tuples)}
    carrier = frozenset(range(len(tuples)))
    domains = {
        g: frozenset(i for i, t in enumerate(tuples) if g in t)
        for g in group.elements()
    }
    maps = {}
    for g in group.elements():
        ginv = group.inv(g)
        maps[g] = {index[t]: index[translate(group, g, t)] for t in tuples if ginv in t}
    lt = validate(group, carrier, domains, maps)
    orbits = translation_groupoid(lt).orbits
    for orbit in orbits:
        for i in orbit:
            if frozenset(index[t] for t in orbit_of(group, tuples[i])) != orbit:
                raise AssertionError("closed-form orbit disagrees with the groupoid orbit")
    section = tuple(min(orbit) for orbit in orbits)
    return TupleSpace(group, n, tuples, lt, orbits, section, index)


def stabilizer_and_section(
    group: FiniteGroup, tau
) -> tuple[Subgroup, int, tuple[int, ...]]:
    """Stabilizer H of tau under left translation, with a coset section.

    Returns (H, m, (x_0=1, x_1, ..., x_m)) where tau is the disjoint union of
    the right cosets H, H x_1, ..., H x_m.  H lies inside tau, since
    h = h 1 is in h tau.  The section is deterministic: each x_i is the least
    element of tau not yet covered.
    """
    tau = _checked_tuple(group, tau)
    members = frozenset(h for h in tau if translate(group, h, tau) == tau)
    H = Subgroup(group, members)
    section = [0]
    covered = set(members)
    while covered != tau:
        x = min(tau - covered)
        coset = {group.mul(h, x) for h in members}
        if not coset <= tau or coset & covered:
            raise AssertionError("coset section failed to tile the tuple")
        covered |= coset
        section.append(x)
    m = len(section) - 1
    return H, m, tuple(section)


def orbit_of(group: FiniteGroup, tau) -> list[frozenset[int]]:
    """The left-translation orbit {t^-1 tau : t in tau}, lexicographically sorted.

    t^-1 acts on tau because t is in tau, and a second step s^-1 with s = t^-1 u
    in t^-1 tau lands on u^-1 tau again, so the set is the whole orbit.
    """
    tau = _checked_tuple(group, tau)
    return sorted({translate(group, group.inv(t), tau) for t in tau}, key=sorted)
