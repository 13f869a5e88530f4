"""Partial actions of finite groups on finite sets.

A partial action assigns to each group element ``g`` a domain ``X_g`` inside
the carrier and a bijection ``theta_g: X_{g^-1} -> X_g``, with ``theta_1`` the
identity on the whole carrier and ``theta_g . theta_h`` contained in
``theta_{gh}`` wherever defined.  The function-algebra side uses the
dictionary ``alpha_g(f) = f . theta_{g^-1}`` on ``X_g``.

Carrier points are integers but need not be contiguous, so restrictions keep
their original labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    build_group,
    coset_decomposition,
)


class PartialActionError(ValueError):
    """Base class for partial-action validation failures."""


class IdentityDomainNotFull(PartialActionError):
    def __init__(self, missing: int):
        self.missing = missing
        super().__init__(f"identity domain must be the whole carrier; missing point {missing}")


class NotBijective(PartialActionError):
    def __init__(self, g: int, detail: str = ""):
        self.g = g
        super().__init__(f"theta_{g} is not a bijection X_(g^-1) -> X_g{': ' + detail if detail else ''}")


class InverseMismatch(PartialActionError):
    def __init__(self, g: int, x: int):
        self.g = g
        self.x = x
        super().__init__(f"theta_(inv {g}) is not the inverse of theta_{g} at point {x}")


class CompositionViolation(PartialActionError):
    def __init__(self, g: int, h: int, x: int):
        self.g = g
        self.h = h
        self.x = x
        super().__init__(
            f"composition axiom fails for (g={g}, h={h}) at point {x}: "
            f"theta_g(theta_h(x)) is defined but disagrees with theta_(gh)"
        )


class NotInvariant(PartialActionError):
    def __init__(self, subset: frozenset[int], arrow: tuple[int, int, int]):
        self.subset = subset
        self.arrow = arrow
        g, x, y = arrow
        super().__init__(f"subset is not invariant: arrow (g={g}, {x} -> {y}) crosses its boundary")


# The vectorised checks over (g, h, x) triples take g in row blocks of at most
# this many table entries (one row when a row is larger), so no temporary
# over all triples is ever held: at |G| = 24 and 4,800 points one would take
# 22 MB a table.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class IndexTables:
    """A partial action as integer arrays over its sorted carrier.

    ``index[x]`` is the rank of the point x in the sorted carrier.
    ``theta[g, i]`` is the index of theta_g of the point with index i, or -1
    where theta_g is undefined; a column of -1 appended to a table makes an
    undefined index read as undefined again.  ``mul`` and ``inv`` are the
    group's read-only tables, shared by every action of the group.
    """

    index: Mapping[int, int]
    theta: np.ndarray
    mul: np.ndarray
    inv: np.ndarray


def _index_tables(group: FiniteGroup, carrier: Iterable[int], maps: Mapping[int, Mapping[int, int]]) -> IndexTables:
    index = {x: i for i, x in enumerate(sorted(carrier))}
    at = index.__getitem__
    elements = group.elements()
    sizes = [len(maps[g]) for g in elements]
    total = sum(sizes)
    src = np.fromiter(map(at, chain.from_iterable(maps[g].keys() for g in elements)), np.intp, total)
    dst = np.fromiter(map(at, chain.from_iterable(maps[g].values() for g in elements)), np.intp, total)
    theta = np.full((group.order, len(index)), -1, dtype=np.intp)
    theta[np.repeat(np.arange(group.order), sizes), src] = dst
    return IndexTables(MappingProxyType(index), theta, *group.arrays)


def index_tables(pa: PartialAction) -> IndexTables:
    """The integer tables of ``pa``, built on the first call and kept on it."""
    return pa._tables


def row_blocks(order: int, width: int) -> Iterable[slice]:
    """Consecutive slices of range(order) (group elements or tower levels),
    BLOCK_ELEMENTS // width rows each (at least one)."""
    rows = max(1, BLOCK_ELEMENTS // max(1, width))
    return (slice(lo, min(lo + rows, order)) for lo in range(0, order, rows))


def _composition_failure(theta: np.ndarray, mul: np.ndarray) -> Optional[tuple[int, int, np.ndarray]]:
    """First (g, h), in row blocks of g, with theta_g(theta_h(x)) defined but not
    theta_gh(x), and its mask of such x; None when composition holds."""
    order, n = theta.shape
    ext = np.full((order, n + 1), -1, dtype=np.intp)  # column n: undefined stays undefined
    ext[:, :n] = theta
    for rows in row_blocks(order, order * n):
        ghx = ext[rows][:, theta]  # (g, h, x) -> theta_g(theta_h(x))
        bad = (ghx >= 0) & (ghx != theta[mul[rows]])
        if bad.any():
            g, h = divmod(int(np.argmax(bad.any(axis=2))), order)
            return rows.start + g, h, bad[g, h]
    return None


@dataclass(frozen=True)
class PartialAction:
    """A partial action whose axioms hold: built by :func:`validate`, or read
    off the integer table of one (restrictions, envelopes, subsystems)."""

    group: FiniteGroup
    carrier: frozenset[int]
    domains: Mapping[int, frozenset[int]]
    maps: Mapping[int, Mapping[int, int]]

    def domain(self, g: int) -> frozenset[int]:
        return self.domains[g]

    def theta(self, g: int, x: int) -> int:
        """theta_g(x) for x in X_{g^-1}."""
        return self.maps[g][x]

    def alpha(self, g: int, f: Mapping[int, object]) -> dict[int, object]:
        """alpha_g(f) = f . theta_{g^-1}, a function supported on X_g."""
        back = self.maps[self.group.inv(g)]
        return {z: f[back[z]] for z in self.domains[g] if back[z] in f}

    def domain_tuple(self, x: int) -> frozenset[int]:
        """tau(x) = set of g with x in X_g."""
        return self._domain_tuples.get(x, frozenset())

    def arrows(self):
        """Yield all arrows (g, x, theta_g(x)) with x in X_{g^-1}."""
        for g in self.group.elements():
            for x, y in sorted(self.maps[g].items()):
                yield (g, x, y)

    def is_global(self) -> bool:
        return all(self.domains[g] == self.carrier for g in self.group.elements())

    @cached_property
    def _tables(self) -> IndexTables:
        # Like _groupoid_parts: outside the fields, with no reference to self.
        return _index_tables(self.group, self.carrier, self.maps)

    @cached_property
    def _domain_tuples(self) -> Mapping[int, frozenset[int]]:
        # x is in X_g where theta_{g^-1}(x) is defined; no reference to self.
        t = self._tables
        defined = (t.theta[t.inv] >= 0).T
        return {x: frozenset(np.flatnonzero(defined[i]).tolist()) for x, i in t.index.items()}

    @cached_property
    def _groupoid_parts(self) -> tuple:
        # Kept outside the dataclass fields, so equality and repr ignore it.
        # The parts hold no reference back to self: a cycle would keep a
        # dropped action alive until the cyclic garbage collector runs.
        return _translation_groupoid_parts(self)

    def size(self) -> int:
        return len(self.carrier)

    def __repr__(self) -> str:
        return (
            f"PartialAction({self.group.name}, |X|={len(self.carrier)}, "
            f"domains={[len(self.domains[g]) for g in self.group.elements()]})"
        )


def validate(
    group: FiniteGroup,
    carrier: Iterable[int],
    domains: Mapping[int, Iterable[int]],
    maps: Mapping[int, Mapping[int, int]],
) -> PartialAction:
    """Check all partial-action axioms and return the validated value.

    Raises the first violated axiom with a witness: IdentityDomainNotFull,
    NotBijective(g), InverseMismatch(g), or CompositionViolation(g, h, x).

    Domains, bijections and inverses are checked map by map.  Composition
    and the derived domain identity are then whole-array comparisons on the
    integer table ``theta[g, i]`` (see IndexTables), taken in row blocks of
    g; the witness is the first failing (g, h), and for composition the first
    failing x in the order of ``maps[h]``.  A key of ``domains`` or ``maps``
    that is not a group element is an error, not ignored.
    """
    for name, keyed in (("domains", domains), ("maps", maps)):
        if stray := set(keyed).difference(group.elements()):
            raise PartialActionError(f"{name} key {next(k for k in keyed if k in stray)!r} is not a group element")
    X = frozenset(carrier)
    doms: dict[int, frozenset[int]] = {}
    thetas: dict[int, dict[int, int]] = {}
    for g in group.elements():
        dom = frozenset(domains.get(g, ()))
        if not dom <= X:
            raise PartialActionError(f"domain of g={g} contains non-carrier point {min(dom - X)}")
        doms[g] = dom
        thetas[g] = {int(x): int(y) for x, y in maps.get(g, {}).items()}

    if doms[0] != X:
        raise IdentityDomainNotFull(min(X - doms[0]))
    if any(thetas[0].get(x, x) != x for x in X):
        raise PartialActionError("theta_1 must be the identity map")
    thetas[0] = {x: x for x in X}

    for g in group.elements():
        if thetas[g].keys() != doms[group.inv(g)]:
            raise NotBijective(g, "source set is not X_(g^-1)")
        values = list(thetas[g].values())
        if set(values) != doms[g] or len(set(values)) != len(values):
            raise NotBijective(g, "image is not X_g or map is not injective")

    for g in group.elements():
        ginv = group.inv(g)
        for x, y in thetas[g].items():
            if thetas[ginv].get(y) != x:
                raise InverseMismatch(g, x)

    pa = PartialAction(group, X, doms, thetas)
    t = index_tables(pa)
    order, n = group.order, len(t.index)
    if (failure := _composition_failure(t.theta, t.mul)) is not None:
        g, h, bad = failure
        raise CompositionViolation(g, h, next(x for x in thetas[h] if bad[t.index[x]]))

    # Standard consequence, read pointwise: z lies in theta_g(X_{g^-1} & X_h)
    # iff z is in X_g and theta_{g^-1}(z) is in X_h.  It must equal
    # X_g & X_{gh}; a violation here would indicate an internal bug.
    dom = np.zeros((order, n + 1), dtype=bool)  # dom[g, i]: point i lies in X_g; column n is False
    dom[:, :n] = t.theta[t.inv] >= 0
    for rows in row_blocks(order, order * n):
        lhs = dom[:, t.theta[t.inv[rows]]].swapaxes(0, 1)  # (g, h, z)
        bad = dom[rows, None, :n] & (lhs != dom[t.mul[rows], :n])
        if bad.any():
            g, h = divmod(int(np.argmax(bad.any(axis=2))), order)
            raise AssertionError(f"derived domain identity fails at (g={rows.start + g}, h={h})")
    return pa


def global_action(group: FiniteGroup, carrier: Iterable[int], perms: Mapping[int, Mapping[int, int]]) -> PartialAction:
    """Convenience constructor for a global action given point permutations."""
    X = frozenset(carrier)
    domains = {g: X for g in group.elements()}
    return validate(group, X, domains, perms)


def _check_global_table(group: FiniteGroup, theta: np.ndarray) -> None:
    """Raise AssertionError unless ``theta`` is total on range(size) with the identity
    at row 0 and theta_g theta_h = theta_gh, which make it a global action."""
    size = theta.shape[1]
    if not (((theta >= 0) & (theta < size)).all() and np.array_equal(theta[0], np.arange(size))):
        raise AssertionError("table is not total on its points with the identity at row 0")
    if (failure := _composition_failure(theta, group.arrays[0])) is not None:
        raise AssertionError(f"table fails composition at (g={failure[0]}, h={failure[1]})")


def _from_table(group: FiniteGroup, theta: np.ndarray, points: np.ndarray) -> PartialAction:
    """The partial action with intp table ``theta`` (-1 where undefined) over the
    ascending labels ``points``, the table kept read-only as its IndexTables.
    Unchecked: each caller's table is valid by construction."""
    size = theta.shape[1]
    labels = points.tolist()
    images = points[theta].tolist()  # -1 reads a label, dropped below
    defined = theta >= 0
    theta.flags.writeable = False
    # Total tables (envelopes) skip the mask and share X: globalize ops run measurably faster.
    if defined.all():
        maps = {g: dict(zip(labels, row)) for g, row in enumerate(images)}
    else:
        maps = {g: dict(compress(zip(labels, row), ok)) for g, (row, ok) in enumerate(zip(images, defined.tolist()))}
    X = frozenset(labels)
    domains = {g: X if len(m) == size else frozenset(m.values()) for g, m in maps.items()}
    pa = PartialAction(group, X, domains, maps)
    pa.__dict__["_tables"] = IndexTables(MappingProxyType(dict(zip(labels, range(size)))), theta, *group.arrays)
    return pa


def trivial_partial_action(group: FiniteGroup, carrier: Iterable[int]) -> PartialAction:
    """The trivial partial action: empty domains off the identity."""
    X = frozenset(carrier)
    domains = {g: (X if g == 0 else frozenset()) for g in group.elements()}
    maps = {g: ({x: x for x in X} if g == 0 else {}) for g in group.elements()}
    return validate(group, X, domains, maps)


def is_free(pa: PartialAction) -> bool:
    """True iff no g != 1 fixes a point of X_{g^-1}."""
    return freeness_witness(pa) is None


def freeness_witness(pa: PartialAction) -> Optional[tuple[int, int]]:
    """A pair (g, x) with g != 1 and theta_g(x) = x, or None if free."""
    for g in range(1, pa.group.order):  # the identity is element 0
        for x, y in pa.maps[g].items():
            if x == y:
                return (g, x)
    return None


@dataclass(frozen=True)
class TranslationGroupoid:
    """Arrows (g, x -> theta_g(x)) of a partial action, with orbits and isotropy."""

    arrows: tuple[tuple[int, int, int], ...]
    orbits: tuple[frozenset[int], ...]
    stabilizers: Mapping[int, Subgroup]


def translation_groupoid(pa: PartialAction) -> TranslationGroupoid:
    """Arrows, connected components, and orbit-representative stabilizers.

    Built on the first call for ``pa`` and kept on it: a PartialAction is
    frozen, so every later caller shares the same read-only parts.
    """
    return TranslationGroupoid(*pa._groupoid_parts)


def _translation_groupoid_parts(pa: PartialAction) -> tuple:
    # theta_h theta_g lies inside theta_hg, so every orbit is a clique: the
    # orbit of x is the defined column x of the theta table, and its least
    # index names the orbit.  Orbits come out sorted by their least points.
    t = index_tables(pa)
    points = sorted(pa.carrier)
    least = np.where(t.theta >= 0, t.theta, len(points)).min(axis=0).tolist()
    members: dict[int, list[int]] = {}
    for x, r in zip(points, least):
        members.setdefault(r, []).append(x)
    orbits = tuple(frozenset(m) for m in members.values())
    stabilizers = {
        points[r]: Subgroup(pa.group, frozenset(np.flatnonzero(t.theta[:, r] == r).tolist()))
        for r in members
    }
    gs, src = np.nonzero(t.theta >= 0)  # g-major, points ascending: as pa.arrows()
    at = points.__getitem__
    arrows = tuple(zip(gs.tolist(), map(at, src.tolist()), map(at, t.theta[gs, src].tolist())))
    return arrows, orbits, MappingProxyType(stabilizers)


def _subtable(pa: PartialAction, subset: Iterable[int], rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` of pa's table at the columns of the carrier points in
    ``subset``, relabelled as indices into those points in ascending order
    (-1 where undefined or outside them), and those points as an array."""
    t = index_tables(pa)
    points = sorted(subset)
    cols = np.fromiter(map(t.index.__getitem__, points), np.intp, len(points))
    relabel = np.full(len(t.index) + 1, -1, dtype=np.intp)  # the entry -1 reads -1
    relabel[cols] = np.arange(len(cols))
    return relabel[t.theta[rows][:, cols]], np.array(points, dtype=np.intp)


def restricted_to(pa: PartialAction, subset: Iterable[int]) -> PartialAction:
    """Restriction of the partial action to a subset S of the carrier.

    Domains become S intersect theta_g(X_{g^-1} intersect S); for an invariant
    S this is just X_g intersect S.  The subset need not be invariant: the
    restriction of a global action to any subset is how globalizable partial
    actions arise in the first place.  Any restriction of a partial action is
    one, so it is read off the parent's table without re-validation.  A point
    of S outside the carrier raises IdentityDomainNotFull naming the least one.
    """
    S = frozenset(subset)
    if stray := S - pa.carrier:
        raise IdentityDomainNotFull(min(stray))
    return _from_table(pa.group, *_subtable(pa, S))


def restrict_and_quotient(pa: PartialAction, subset: Iterable[int]) -> tuple[PartialAction, PartialAction]:
    """Split along an invariant subset S into (restriction to S, restriction to X - S).

    On a finite discrete carrier the equivariant quotient by the ideal of
    functions supported on S is the restriction to the complement, so both
    halves are plain restrictions.
    """
    S = frozenset(subset)
    if not S <= pa.carrier:
        raise PartialActionError("subset is not contained in the carrier")
    for g, x, y in pa.arrows():
        if (x in S) != (y in S):
            raise NotInvariant(S, (g, x, y))
    return restricted_to(pa, S), restricted_to(pa, pa.carrier - S)


@dataclass(frozen=True)
class GlobalizationResult:
    """Envelope (a global action), the embedding of X, and a central splitting."""

    envelope: PartialAction
    embedding: Mapping[int, int]
    pa: PartialAction


def globalize(pa: PartialAction) -> GlobalizationResult:
    """Enveloping global action via the quotient of G x X.

    (g, x) ~ (h, y) iff x lies in X_{g^-1 h} and theta_{h^-1 g}(x) = y, so
    the class of (g, x) is {(g k^-1, theta_k(x)) : k with x in X_{k^-1}} in closed
    form (Abadie, J. Funct. Anal. 197 (2003)).  On the integer tables each
    pair (g, x) gets the least pair of its class, taking x in sorted order,
    and the classes are numbered in the order of their least pairs.  The
    envelope acts by a.[g, x] = [a g, x] and the embedding is x -> [1, x];
    it is built from that integer table, with the global-action axioms
    checked on the table.  Construction invariants are asserted on it: the
    embedding is injective, domains match intersections, the envelope
    extends the action, and translates of X cover.  They fix the envelope up
    to equivariant isomorphism (uniqueness of the globalization).
    """
    G = pa.group
    t = index_tables(pa)
    order, n = G.order, len(t.index)
    least = np.arange(order * n).reshape(order, n)  # pair (g, x) as g * n + index(x)
    for k in range(1, order):
        member = t.mul[:, t.inv[k], None] * n + t.theta[k]  # (g k^-1, theta_k(x))
        np.minimum(least, member, out=least, where=t.theta[k] >= 0)
    firsts, point = np.unique(least, return_inverse=True)
    point = point.reshape(order, n)
    size = len(firsts)
    # a.[g0, x0] = [a g0, x0] on the least pair (g0, x0) of each class.
    moved = point[t.mul[:, firsts // n], firsts % n]
    _check_global_table(G, moved)
    envelope = _from_table(G, moved, np.arange(size, dtype=np.intp))
    embed = point[0]
    at = embed.tolist()
    embedding = {x: at[t.index[x]] for x in pa.carrier}

    in_emb = np.zeros(size, dtype=bool)
    in_emb[embed] = True
    if in_emb.sum() != n:
        raise AssertionError("globalization embedding is not injective")
    translated = moved[:, embed]  # [g, i]: sigma_g of the embedded point i
    # emb(X_g) = emb & sigma_g(emb) holds iff sigma_{g^-1} takes emb(z) into emb
    # exactly for z in X_g.  Extension is read where theta_g is defined.
    domain_bad = (in_emb[translated[t.inv]] != (t.theta[t.inv] >= 0)).any(axis=1)
    defined = t.theta >= 0
    extend_bad = (defined & (translated != embed[t.theta])).any(axis=1)
    for g in np.flatnonzero(domain_bad | extend_bad)[:1].tolist():
        if domain_bad[g]:
            raise AssertionError(f"envelope domain condition fails at g={g}")
        raise AssertionError(f"envelope does not extend theta_{g}")
    covered = np.zeros(size, dtype=bool)
    covered[translated] = True
    if not covered.all():
        raise AssertionError("translates of the embedded carrier do not cover the envelope")
    return GlobalizationResult(envelope, embedding, pa)


def central_splitting(gr: GlobalizationResult) -> dict[int, frozenset[int]]:
    """Subsets p_g of the embedded carrier whose translates partition the envelope.

    Greedy over the group's canonical enumeration, on the envelope's table:
    each envelope point is claimed by the least g with the point in sigma_g(X),
    and p_g holds the embedded points e with sigma_g(e) claimed by g.  The
    partition depends on the enumeration order; existence does not.
    """
    theta = index_tables(gr.envelope).theta
    order, size = theta.shape
    emb = np.fromiter(gr.embedding.values(), np.intp, len(gr.embedding))
    translated = theta[:, emb]  # [g, i]: sigma_g of the embedded point i
    owner = np.full(size, order, dtype=np.intp)
    np.minimum.at(owner, translated, np.arange(order)[:, None])
    mine = owner[translated] == np.arange(order)[:, None]
    # Each row of theta is injective, so the pieces partition the envelope
    # exactly when every point is claimed once.
    if not np.array_equal(np.sort(translated[mine]), np.arange(size)):
        raise AssertionError("central splitting pieces do not partition the envelope")
    return {g: frozenset(emb[row].tolist()) for g, row in enumerate(mine)}


def minimal_partial_unitization(pa: PartialAction) -> PartialAction:
    """Adjoin a point to the identity domain only (never global when |G| > 1)."""
    new_point = max(pa.carrier) + 1 if pa.carrier else 0
    X = pa.carrier | {new_point}
    domains = {g: (X if g == 0 else pa.domains[g]) for g in pa.group.elements()}
    maps = {g: dict(pa.maps[g]) for g in pa.group.elements()}
    maps[0][new_point] = new_point
    return validate(pa.group, X, domains, maps)


def random_partial_action(
    seed: int,
    group_spec=("cyclic", 2),
    ambient_size: int = 6,
    keep_probability: float = 0.5,
    max_order: int = 24,
) -> PartialAction:
    """Restriction of a random global G-set to a random subset.

    Builds a global G-set of the requested size out of coset orbits G/H for
    random subgroups H, keeps each point independently with the given
    probability, and restricts: domains become X and sigma_g(X) intersected.
    Deterministic in the seed.
    """
    if not (0.0 <= keep_probability <= 1.0):
        raise PartialActionError(f"keep probability must be in [0, 1], got {keep_probability}")
    if ambient_size < 0:
        raise PartialActionError(f"ambient size must be >= 0, got {ambient_size}")
    rng = random.Random(seed)
    group = build_group(group_spec, max_order=max_order)
    subs = all_subgroups(group)
    points: list[int] = []
    perms: dict[int, dict[int, int]] = {g: {} for g in group.elements()}
    next_label = 0
    while len(points) < ambient_size:
        room = ambient_size - len(points)
        candidates = [s for s in subs if group.order // s.order <= room]
        sub = rng.choice(candidates)
        cosets = coset_decomposition(group, sub, "left")
        labels = {cos: next_label + i for i, cos in enumerate(cosets)}
        next_label += len(cosets)
        for g in group.elements():
            for cos, lab in labels.items():
                rep = min(cos)
                target = next(c for c in cosets if group.mul(g, rep) in c)
                perms[g][lab] = labels[target]
        points.extend(labels.values())
    global_action(group, points, perms)  # sanity: perms really is a G-action
    kept = frozenset(x for x in points if rng.random() < keep_probability)
    maps = {
        g: {x: perms[g][x] for x in kept if perms[g][x] in kept}
        for g in group.elements()
    }
    domains = {g: frozenset(maps[g].values()) for g in group.elements()}
    return validate(group, kept, domains, maps)
