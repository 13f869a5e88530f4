"""Decomposition of finite-set partial actions by domain-membership tuples.

Each carrier point x determines the tuple tau(x) of group elements whose
domain contains it.  Points with |tau(x)| = n form invariant strata; an
action where every point has |tau(x)| = n splits into orbit-type parts, each
carrying a global action of the tuple stabilizer on the common intersection
of its domains.  Every tuple is read off the theta table as one integer key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .groups import Subgroup
from .pactions import PartialAction, _subtable, restricted_to


class DecompositionError(ValueError):
    pass


class NotDecomposable(DecompositionError):
    def __init__(self, n: int, witness: int, size: int):
        self.witness = witness
        super().__init__(
            f"action is not {n}-decomposable: point {witness} lies in {size} domains"
        )


class EmptyStratum(DecompositionError):
    def __init__(self, tau):
        super().__init__(f"no carrier point has domain tuple {sorted(tau)}")


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

    @property
    def decomposable_n(self) -> Optional[int]:
        """The n with every point in exactly n domains: the one nonempty stratum, if only one."""
        occupied = [k for k, points in self.strata.items() if points]
        return occupied[0] if len(occupied) == 1 else None

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
    |tau(x)| counts the g with theta_g defined at x, a column count of the table.

    Row 0 is the identity, so every count lies in 1..|G| and the strata
    exhaust the carrier by construction (not asserted); the one cross-check
    is that no arrow crosses strata."""
    defined = pa.table >= 0
    count = defined.sum(axis=0)
    if (defined & (count[pa.table] != count)).any():
        raise AssertionError("an arrow crosses strata; equivariance is broken")
    by_count: dict[int, list[int]] = {}
    for x, k in zip(pa.points.tolist(), count.tolist()):
        by_count.setdefault(k, []).append(x)
    strata = {k: frozenset(by_count.get(k, ())) for k in range(1, pa.group.order + 1)}
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
    """Raise NotDecomposable naming the least point whose column count is not n."""
    if not is_n_decomposable(pa, n):
        count = (pa.table >= 0).sum(axis=0)
        i = int(np.argmax(count != n))
        raise NotDecomposable(n, int(pa.points[i]), int(count[i]))


def _tuple_keys(pa: PartialAction) -> tuple[np.ndarray, np.ndarray]:
    """Each point's domain tuple tau(x) as a row of the domain matrix
    rows[i, g] (x_i is in X_g where theta_{g^-1} is defined), and as one
    integer key that orders the rows as they compare from g = 0 on.

    The key is a word of bits, g as bit 61 - g, for g < 62; each further
    block of 62 elements is a word of its own, and the key becomes the rank
    of the pair (key, word), so no shift leaves 64 bits at any group order.
    n-sets compare (as sorted lists) in the reverse order of their keys,
    since the least element where two differ is in the larger row: the least
    has the largest key.
    """
    member = pa.table[pa.group.arrays[1]] >= 0
    blocks = [member[start : start + 62] for start in range(0, len(member), 62)]
    weights = 1 << np.arange(61, -1, -1, dtype=np.intp)
    key = weights[: len(blocks[0])] @ blocks[0]
    for block in blocks[1:]:
        word = weights[: len(block)] @ block
        order = np.lexsort((word, key))
        pairs = np.stack([key, word])[:, order]
        key[order] = np.r_[0, (pairs[:, 1:] != pairs[:, :-1]).any(axis=0).cumsum()]
    return member.T, key


def _part_labels(theta: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The largest key on each point's groupoid orbit, the defined entries of
    its column (orbits are cliques).  As tau(theta_g x) = g tau(x), that is
    the key of the least tuple of the translation orbit of tau(x)."""
    return np.where(theta >= 0, key[theta], -1).max(axis=0)


def _stabilizer_members(theta: np.ndarray, key: np.ndarray, i: int) -> np.ndarray:
    """H_tau at the point with index i of X_tau: the h with tau(theta_h x) =
    h tau = tau.  Each such h has theta_h defined at x, as h^-1 is in H_tau,
    inside tau."""
    return np.flatnonzero((theta[:, i] >= 0) & (key[theta[:, i]] == key[i]))


def global_subsystem(pa: PartialAction, tau) -> tuple[Subgroup, PartialAction]:
    """The global action of the tuple stabilizer on X_tau = {x : tau(x) = tau}.

    The returned PartialAction has the stabilizer reindexed as its own group
    (identity first, then ascending parent index).  A tau that is no point's
    domain tuple, including one that is no set of group elements with the
    identity, raises EmptyStratum.
    """
    tau = frozenset(tau)
    _require_decomposable(pa, len(tau))
    if not tau <= frozenset(pa.group.elements()):  # no shift by a non-element below
        raise EmptyStratum(tau)
    rows, key = _tuple_keys(pa)
    at = np.flatnonzero((rows == np.isin(np.arange(pa.group.order), list(tau))).all(axis=1))
    if not at.size:
        raise EmptyStratum(tau)
    members = _stabilizer_members(pa.table, key, int(at[0]))
    return _stabilizer_subsystem(pa, members.tolist(), frozenset(pa.points[at].tolist()))


def _stabilizer_subsystem(pa: PartialAction, members: Iterable[int], X_tau: frozenset[int]) -> tuple[Subgroup, PartialAction]:
    H = Subgroup(pa.group, frozenset(members))
    # The rows of H at the columns of X_tau: global when no entry leaves X_tau.
    points, theta = _subtable(pa, X_tau, list(H.sorted_members()))
    if (theta < 0).any():
        raise AssertionError("stabilizer subsystem is not global")
    return H, PartialAction(H.as_group(), points, theta)


def orbit_type_decomposition(pa: PartialAction, n: int) -> list[OrbitTypePart]:
    """Split an n-decomposable action into its orbit-class parts.

    Every point's tuple is an integer key (``_tuple_keys``) and its part
    label is the largest key on its groupoid orbit (``_part_labels``): the
    key of the lexicographically least tuple of the translation orbit of
    tau(x).  Parts come in descending label order, so by least tuple, which
    is the representative tau; X_tau is where the key equals the label.  The
    parts are disjoint and cover the carrier by construction; they are
    checked invariant, and each against orbit-stabilizer: the orbit of tau
    has n / |H_tau| tuples, and every one of them occurs in the part.
    """
    _require_decomposable(pa, n)
    rows, key = _tuple_keys(pa)
    label = _part_labels(pa.table, key)
    if ((pa.table >= 0) & (label[pa.table] != label)).any():
        raise AssertionError("orbit-type part is not invariant")
    parts: list[OrbitTypePart] = []
    for rep in sorted(set(label.tolist()), reverse=True):
        at = np.flatnonzero(label == rep)
        in_tau = at[key[at] == rep]
        members = _stabilizer_members(pa.table, key, int(in_tau[0]))
        if len(set(key[at].tolist())) * len(members) != n:
            raise AssertionError("orbit-type part breaks orbit-stabilizer: |orbit of tau| * |H_tau| != n")
        X_tau = frozenset(pa.points[in_tau].tolist())
        H, subsystem = _stabilizer_subsystem(pa, members.tolist(), X_tau)
        tau = frozenset(np.flatnonzero(rows[in_tau[0]]).tolist())
        parts.append(OrbitTypePart(tau, frozenset(pa.points[at].tolist()), H, subsystem, X_tau))
    return parts
