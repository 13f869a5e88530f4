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

from .groups import Subgroup
from .pactions import PartialAction, restricted_to, translation_groupoid, validate
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
    """Both set-form conditions and the pointwise criterion, asserted to agree.

    Set form: (a) the domain-tuple intersections X_tau for n-tuples tau cover
    the carrier, and (b) X_tau meets no X_g with g outside tau.  Pointwise:
    every point lies in exactly n domains.
    """
    if not (1 <= n <= pa.group.order):
        raise DecompositionError(f"n must be in 1..{pa.group.order}, got {n}")
    pointwise = all(len(pa.domain_tuple(x)) == n for x in pa.carrier)
    # Only the n-tuples that occur as some tau(x) need checking: a point in
    # fewer than n domains lies in no X_tau, and a point in more than n either
    # stays uncovered or lies in an occurring X_tau together with an outside
    # domain.  So the restricted check fails exactly when the full one does.
    occurring = {tau for tau in map(pa.domain_tuple, pa.carrier) if len(tau) == n}
    covered: set[int] = set()
    intersections_clean = True
    for tau in occurring:
        X_tau = _domain_intersection(pa, tau)
        covered |= X_tau
        for g in pa.group.elements():
            if g not in tau and X_tau & pa.domain(g):
                intersections_clean = False
    set_form = covered == set(pa.carrier) and intersections_clean
    if set_form != pointwise:
        raise AssertionError("set-form and pointwise decomposability disagree")
    return set_form


def _domain_intersection(pa: PartialAction, tau) -> frozenset[int]:
    X_tau = pa.carrier
    for g in tau:
        X_tau &= pa.domain(g)
    return X_tau


@dataclass(frozen=True)
class Stratification:
    """Invariant strata X_{=k} = {x : |tau(x)| = k} and the extension chain.

    ``chain[k]`` (k >= 2, only for nonempty X_{=k} unless padded) holds the
    triple (ideal, total, quotient) = restrictions to X_{=k}, X_{<=k},
    X_{<=k-1}.  Empty strata are retained as empty extensions.
    """

    pa: PartialAction
    strata: Mapping[int, frozenset[int]]
    chain: Mapping[int, tuple[PartialAction, PartialAction, PartialAction]]

    def stratum(self, k: int) -> frozenset[int]:
        return self.strata.get(k, frozenset())


def stratification(pa: PartialAction) -> Stratification:
    """Filtration of the carrier by the number of domains through each point."""
    order = pa.group.order
    strata = {k: frozenset(x for x in pa.carrier if len(pa.domain_tuple(x)) == k)
              for k in range(1, order + 1)}
    gr = translation_groupoid(pa)
    for g, x, y in gr.arrows:
        if len(pa.domain_tuple(x)) != len(pa.domain_tuple(y)):
            raise AssertionError("an arrow crosses strata; equivariance is broken")
    below: frozenset[int] = strata[1]
    chain = {}
    for k in range(2, order + 1):
        current = below | strata[k]
        chain[k] = (
            restricted_to(pa, strata[k]),
            restricted_to(pa, current),
            restricted_to(pa, below),
        )
        below = current
    if below != pa.carrier:
        raise AssertionError("strata do not exhaust the carrier")
    return Stratification(pa, strata, chain)


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


def _points_with_tuple(pa: PartialAction, tau) -> frozenset[int]:
    tau = frozenset(tau)
    return frozenset(x for x in pa.carrier if pa.domain_tuple(x) == tau)


def global_subsystem(pa: PartialAction, tau) -> tuple[Subgroup, PartialAction]:
    """The global action of the tuple stabilizer on X_tau = {x : tau(x) = tau}.

    The returned PartialAction has the stabilizer reindexed as its own group
    (identity first, then ascending parent index).
    """
    tau = frozenset(tau)
    _require_decomposable(pa, len(tau))
    return _stabilizer_subsystem(pa, tau, _points_with_tuple(pa, tau))


def _stabilizer_subsystem(
    pa: PartialAction, tau: frozenset[int], X_tau: frozenset[int]
) -> tuple[Subgroup, PartialAction]:
    H, _, _ = stabilizer_and_section(pa.group, tau)
    if not X_tau:
        raise EmptyStratum(tau)
    sub_group = H.as_group()
    members = H.sorted_members()
    domains = {i: X_tau for i in range(len(members))}
    maps = {
        i: {x: pa.theta(members[i], x) for x in X_tau} for i in range(len(members))
    }
    subsystem = validate(sub_group, X_tau, domains, maps)
    if not subsystem.is_global():
        raise AssertionError("stabilizer subsystem is not global")
    return H, subsystem


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
        parts.append(
            OrbitTypePart(
                representative=tau,
                part=frozenset(part_points[tau]),
                stabilizer=H,
                subsystem=subsystem,
                carrier_X_tau=X_tau,
            )
        )
    arrows = tuple(pa.arrows())
    union: set[int] = set()
    for p in parts:
        if p.part & union:
            raise AssertionError("orbit-type parts overlap")
        union |= p.part
        for g, x, y in arrows:
            if (x in p.part) != (y in p.part):
                raise AssertionError("orbit-type part is not invariant")
    if union != set(pa.carrier):
        raise AssertionError("orbit-type parts do not cover the carrier")
    return parts
