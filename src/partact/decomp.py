"""Decomposition of finite-set partial actions by domain-membership tuples.

Each carrier point x determines the tuple tau(x) of group elements whose
domain contains it.  Points with |tau(x)| = n form invariant strata; an
action where every point has |tau(x)| = n splits into orbit-type parts, each
carrying a global action of the tuple stabilizer on the common intersection
of its domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .groups import Subgroup
from .pactions import PartialAction, _subtable, index_tables, restricted_to
from .tuples import orbit_of, stabilizer_and_section


class DecompositionError(ValueError):
    pass


class PointOutOfRange(DecompositionError):
    def __init__(self, x: int):
        super().__init__(f"point {x} is not in the carrier")


class NotDecomposable(DecompositionError):
    def __init__(self, n: int, witness: int, size: int):
        self.witness = witness
        super().__init__(
            f"action is not {n}-decomposable: point {witness} lies in {size} domains"
        )


class EmptyStratum(DecompositionError):
    def __init__(self, tau):
        super().__init__(f"no carrier point has domain tuple {sorted(tau)}")


def domain_tuple(pa: PartialAction, x: int) -> frozenset[int]:
    """tau(x) = {g : x in X_g}; always contains the identity."""
    if x not in pa.carrier:
        raise PointOutOfRange(x)
    return pa.domain_tuple(x)


def is_n_decomposable(pa: PartialAction, n: int) -> bool:
    """Every point lies in exactly n domains: every column count of the table is n.

    This is the pointwise form of the set conditions ((a) the domain-tuple
    intersections X_tau for n-tuples tau cover the carrier, and (b) X_tau
    meets no X_g with g outside tau): x lies in X_g exactly when
    theta_{g^-1} is defined at x, so |tau(x)| is the count of column x.
    """
    if not (1 <= n <= pa.group.order):
        raise DecompositionError(f"n must be in 1..{pa.group.order}, got {n}")
    return bool(((pa.table >= 0).sum(axis=0) == n).all())


@dataclass(frozen=True)
class Stratification:
    """Invariant strata X_{=k} = {x : |tau(x)| = k}, with their extension chain
    built on demand by :meth:`extension`."""

    pa: PartialAction
    strata: Mapping[int, frozenset[int]]

    def stratum(self, k: int) -> frozenset[int]:
        return self.strata.get(k, frozenset())

    def extension(self, k: int) -> tuple[PartialAction, PartialAction, PartialAction]:
        """(ideal, total, quotient): the restrictions to X_{=k}, X_{<=k} and
        X_{<=k-1}, for 2 <= k <= |G|; an empty stratum gives an empty ideal."""
        if not (2 <= k <= self.pa.group.order):
            raise DecompositionError(f"k must be in 2..{self.pa.group.order}, got {k}")
        below = frozenset().union(*(self.stratum(i) for i in range(1, k)))
        return (
            restricted_to(self.pa, self.stratum(k)),
            restricted_to(self.pa, below | self.stratum(k)),
            restricted_to(self.pa, below),
        )


def stratification(pa: PartialAction) -> Stratification:
    """Filtration of the carrier by the number of domains through each point:
    |tau(x)| counts the g with theta_g defined at x, a column count of the table."""
    t = index_tables(pa)
    defined = t.theta >= 0
    count = defined.sum(axis=0)
    if (defined & (count[t.theta] != count)).any():
        raise AssertionError("an arrow crosses strata; equivariance is broken")
    by_count: dict[int, list[int]] = {}
    for x, k in zip(t.index, count.tolist()):
        by_count.setdefault(k, []).append(x)
    strata = {k: frozenset(by_count.get(k, ())) for k in range(1, pa.group.order + 1)}
    if frozenset().union(*strata.values()) != pa.carrier:
        raise AssertionError("strata do not exhaust the carrier")
    return Stratification(pa, strata)


@dataclass(frozen=True)
class OrbitTypePart:
    """One orbit class of an n-decomposable action.

    ``part`` is the union of the strata X_{g tau} over g in tau^-1; the
    ``subsystem`` is the global action of the stabilizer H_tau on X_tau,
    reindexed so the stabilizer is a standalone group.
    """

    representative: frozenset[int]
    part: frozenset[int]
    stabilizer: Subgroup
    subsystem: PartialAction
    carrier_X_tau: frozenset[int]


def _require_decomposable(pa: PartialAction, n: int) -> None:
    if not is_n_decomposable(pa, n):
        witness = next(x for x in pa.carrier if len(pa.domain_tuple(x)) != n)
        raise NotDecomposable(n, witness, len(pa.domain_tuple(witness)))


def global_subsystem(pa: PartialAction, tau) -> tuple[Subgroup, PartialAction]:
    """The global action of the tuple stabilizer on X_tau = {x : tau(x) = tau}.

    The returned PartialAction has the stabilizer reindexed as its own group
    (identity first, then ascending parent index).
    """
    tau = frozenset(tau)
    _require_decomposable(pa, len(tau))
    return _stabilizer_subsystem(pa, tau, frozenset(x for x in pa.carrier if pa.domain_tuple(x) == tau))


def _stabilizer_subsystem(
    pa: PartialAction, tau: frozenset[int], X_tau: frozenset[int]
) -> tuple[Subgroup, PartialAction]:
    H, _, _ = stabilizer_and_section(pa.group, tau)
    if not X_tau:
        raise EmptyStratum(tau)
    # The rows of H at the columns of X_tau: global when no entry leaves X_tau.
    points, theta = _subtable(pa, X_tau, list(H.sorted_members()))
    if (theta < 0).any():
        raise AssertionError("stabilizer subsystem is not global")
    return H, PartialAction(H.as_group(), points, theta)


def orbit_type_decomposition(pa: PartialAction, n: int) -> list[OrbitTypePart]:
    """Split an n-decomposable action into its orbit-class parts.

    Only the tuples tau(x) that occur are visited.  Since
    tau(theta_g x) = g tau(x), each part is the union of the strata of the
    occurring tuples in one translation orbit; parts are keyed and ordered by
    the orbit's lexicographically least tuple, which also occurs.  The parts
    are disjoint, invariant, and cover the carrier.
    """
    _require_decomposable(pa, n)
    by_tuple: dict[frozenset[int], set[int]] = {}
    for x in pa.carrier:
        by_tuple.setdefault(pa.domain_tuple(x), set()).add(x)
    part_points: dict[frozenset[int], set[int]] = {}
    for tau, points in by_tuple.items():
        part_points.setdefault(orbit_of(pa.group, tau)[0], set()).update(points)
    parts: list[OrbitTypePart] = []
    for tau in sorted(part_points, key=sorted):
        # The least tuple is t^-1 tau(x) for some t in tau(x), and theta_t^-1
        # carries x to a point of it.
        X_tau = frozenset(by_tuple.get(tau, ()))
        H, subsystem = _stabilizer_subsystem(pa, tau, X_tau)
        parts.append(OrbitTypePart(tau, frozenset(part_points[tau]), H, subsystem, X_tau))
    # Each point gets the label of its part; the parts are invariant when
    # every defined entry of the table keeps the label.
    t = index_tables(pa)
    label = np.full(len(t.index), -1, dtype=np.intp)
    for i, p in enumerate(parts):
        at = np.fromiter(map(t.index.__getitem__, p.part), np.intp, len(p.part))
        if (label[at] >= 0).any():
            raise AssertionError("orbit-type parts overlap")
        label[at] = i
    if ((t.theta >= 0) & (label[t.theta] != label)).any():
        raise AssertionError("orbit-type part is not invariant")
    if (label < 0).any():
        raise AssertionError("orbit-type parts do not cover the carrier")
    return parts
