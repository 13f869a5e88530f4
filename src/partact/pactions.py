"""Partial actions of finite groups on finite sets.

A partial action assigns to each group element ``g`` a domain ``X_g`` inside
the carrier and a bijection ``theta_g: X_{g^-1} -> X_g``, with ``theta_1`` the
identity on the whole carrier and ``theta_g . theta_h`` contained in
``theta_{gh}`` wherever defined.  The function-algebra side uses the
dictionary ``alpha_g(f) = f . theta_{g^-1}`` on ``X_g``.

Carrier points are integers but need not be contiguous, so restrictions keep
their original labels.  Each action is stored once, as its integer table
over the sorted carrier; every module reads that table, the carrier array,
the label index and the group's arrays directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Optional

import numpy as np

from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    build_group,
    coset_labels,
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


@dataclass(frozen=True, eq=False)
class PartialAction:
    """A partial action whose axioms hold, stored once as its integer table:
    built by :func:`validate`, or read off the table of one (restrictions,
    envelopes, subsystems), unchecked.

    ``points`` holds the carrier labels in ascending order and ``table[g, i]``
    the index of theta_g of ``points[i]``, -1 where theta_g is undefined; both
    are read-only intp arrays.  ``carrier``, ``domains``, ``maps`` and
    ``index`` (label -> column) are read-only views built from them on first
    use, points in ascending order.
    Equality is identity, as arrays do not compare as one bool.
    """

    group: FiniteGroup
    points: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = self.table.flags.writeable = False

    @cached_property
    def carrier(self) -> frozenset[int]:
        return frozenset(self.points.tolist())

    @cached_property
    def maps(self) -> Mapping[int, Mapping[int, int]]:
        labels = self.points.tolist()
        images = self.points[self.table].tolist()  # -1 reads a label, dropped below
        defined = (self.table >= 0).tolist()
        return MappingProxyType({
            g: MappingProxyType(dict(compress(zip(labels, row), ok)))
            for g, (row, ok) in enumerate(zip(images, defined))
        })

    @cached_property
    def domains(self) -> Mapping[int, frozenset[int]]:
        # X_g is where theta_{g^-1} is defined.
        labels = self.points.tolist()
        defined = (self.table[self.group.arrays[1]] >= 0).tolist()
        return MappingProxyType({g: frozenset(compress(labels, ok)) for g, ok in enumerate(defined)})

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

    def is_global(self) -> bool:
        return bool((self.table >= 0).all())

    @cached_property
    def index(self) -> Mapping[int, int]:
        """The column of each carrier label in ``points`` and ``table``, read-only."""
        return MappingProxyType(dict(zip(self.points.tolist(), range(len(self.points)))))

    @cached_property
    def _domain_tuples(self) -> Mapping[int, frozenset[int]]:
        # x is in X_g where theta_{g^-1}(x) is defined; no reference to self.
        defined = (self.table[self.group.arrays[1]] >= 0).T
        return {x: frozenset(np.flatnonzero(row).tolist()) for x, row in zip(self.points.tolist(), defined)}

    @cached_property
    def _groupoid_parts(self) -> tuple:
        # The parts hold no reference back to self: a cycle would keep a
        # dropped action alive until the cyclic garbage collector runs.
        return _translation_groupoid_parts(self)

    def size(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (
            f"PartialAction({self.group.name}, |X|={len(self.points)}, "
            f"domains={(self.table >= 0).sum(axis=1).tolist()})"
        )


def validate(
    group: FiniteGroup,
    carrier: Iterable[int],
    domains: Mapping[int, Iterable[int]],
    maps: Mapping[int, Mapping[int, int]],
) -> PartialAction:
    """Check all partial-action axioms and return the validated value.

    Raises the first violated axiom with a witness: a non-carrier domain
    point, IdentityDomainNotFull, theta_1 not the identity, NotBijective(g),
    InverseMismatch(g, x), or CompositionViolation(g, h, x).

    The caller's dicts are converted once into arrays over the sorted
    carrier: the domain mask ``dom[g, i]``, where a domain point off the
    carrier is an error as it is read, and the table ``theta[g, i]``, with a
    column n for sources outside the carrier, where a non-carrier target
    reads n.  Every axiom is checked on those arrays: the sources and images
    of each theta_g against the mask (one bincount for all images),
    theta_(g^-1) theta_g = 1 as one gather, and composition and the derived
    domain identity as whole-array comparisons in row blocks of g.  The
    witness is the first failing g (then h), and the first failing x in the
    order of ``maps[g]`` (``maps[h]`` for composition).  A key of
    ``domains`` or ``maps`` that is not a group element is an error, not
    ignored.
    """
    for name, keyed in (("domains", domains), ("maps", maps)):
        if stray := set(keyed).difference(group.elements()):
            raise PartialActionError(f"{name} key {next(k for k in keyed if k in stray)!r} is not a group element")
    points = np.array(sorted(frozenset(carrier)), dtype=np.intp)
    order, n = group.order, len(points)
    mul, inv = group.arrays
    index = dict(zip(points.tolist(), range(n)))

    def entries(rows: list) -> tuple[np.ndarray, np.ndarray]:
        """The g and the column of each label in rows[g], g ascending; column n
        for a label that is not a carrier point."""
        sizes = list(map(len, rows))
        cols = np.fromiter(map(index.get, chain.from_iterable(rows), repeat(n)), np.intp, sum(sizes))
        return np.repeat(np.arange(order), sizes), cols

    dom = np.zeros((order, n + 1), dtype=bool)  # dom[g, i]: point i lies in X_g; column n stays False
    listed = [domains.get(g, ()) for g in group.elements()]
    listed = [d if isinstance(d, Collection) else list(d) for d in listed]  # read a one-shot iterable once
    g_of, cols = entries(listed)
    if (cols == n).any():
        g = int(g_of[np.argmax(cols == n)])
        stray = min(x for x in listed[g] if x not in index)
        raise PartialActionError(f"domain of g={g} contains non-carrier point {stray}")
    dom[g_of, cols] = True
    given = [maps.get(g, {}) for g in group.elements()]
    g_of, src = entries(given)
    theta = np.full((order, n + 1), -1, dtype=np.intp)
    theta[g_of, src] = entries([m.values() for m in given])[1]

    if not dom[0, :n].all():
        raise IdentityDomainNotFull(int(points[np.argmin(dom[0, :n])]))
    if theta[0, n] >= 0 or ((theta[0, :n] >= 0) & (theta[0, :n] != np.arange(n))).any():
        raise PartialActionError("theta_1 must be the identity map")
    theta[0, :n] = np.arange(n)

    # theta_g is a bijection X_(g^-1) -> X_g: it is defined exactly on
    # X_(g^-1), at no point off the carrier, and hits each point of X_g once
    # and no other point.
    defined = theta[:, :n] >= 0
    hits = np.bincount((np.arange(order)[:, None] * (n + 1) + theta[:, :n])[defined], minlength=order * (n + 1))
    bad_source = (theta[:, n] >= 0) | (defined != dom[inv, :n]).any(axis=1)
    bad = bad_source | (hits.reshape(order, n + 1) != dom).any(axis=1)
    if bad.any():
        g = int(np.argmax(bad))
        if bad_source[g]:
            raise NotBijective(g, "source set is not X_(g^-1)")
        raise NotBijective(g, "image is not X_g or map is not injective")

    table = theta[:, :n].copy()
    bad = defined & (theta[inv[:, None], table] != np.arange(n))  # theta_(g^-1)(theta_g(x)) = x
    if bad.any():
        g = int(np.argmax(bad.any(axis=1)))
        raise InverseMismatch(g, int(next(x for x in maps[g] if bad[g, index[x]])))

    if (failure := _composition_failure(table, mul)) is not None:
        g, h, bad = failure
        raise CompositionViolation(g, h, int(next(x for x in maps[h] if bad[index[x]])))

    # Standard consequence, read pointwise: z lies in theta_g(X_{g^-1} & X_h)
    # iff z is in X_g and theta_{g^-1}(z) is in X_h.  It must equal
    # X_g & X_{gh}; a violation here would indicate an internal bug.  dom is
    # where theta_(g^-1) is defined.
    for rows in row_blocks(order, order * n):
        lhs = dom[:, table[inv[rows]]].swapaxes(0, 1)  # (g, h, z)
        bad = dom[rows, None, :n] & (lhs != dom[mul[rows], :n])
        if bad.any():
            g, h = divmod(int(np.argmax(bad.any(axis=2))), order)
            raise AssertionError(f"derived domain identity fails at (g={rows.start + g}, h={h})")
    return PartialAction(group, points, table)


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


def trivial_partial_action(group: FiniteGroup, carrier: Iterable[int]) -> PartialAction:
    """The trivial partial action: empty domains off the identity."""
    points = np.array(sorted(carrier), dtype=np.intp)
    table = np.full((group.order, len(points)), -1, dtype=np.intp)
    table[0] = np.arange(len(points))
    return PartialAction(group, points, table)


def is_free(pa: PartialAction) -> bool:
    """True iff no g != 1 fixes a point of X_{g^-1}."""
    return freeness_witness(pa) is None


def freeness_witness(pa: PartialAction) -> Optional[tuple[int, int]]:
    """The least g != 1, then the least x, with theta_g(x) = x; None if free."""
    fixed = pa.table[1:] == np.arange(pa.size())  # the identity is element 0
    if not fixed.any():
        return None
    g, i = divmod(int(np.argmax(fixed)), pa.size())
    return (g + 1, int(pa.points[i]))


@dataclass(frozen=True)
class TranslationGroupoid:
    """The orbits of the arrows (g, x -> theta_g(x)) of a partial action, and
    the isotropy group at the least point of each."""

    orbits: tuple[frozenset[int], ...]
    stabilizers: Mapping[int, Subgroup]


def translation_groupoid(pa: PartialAction) -> TranslationGroupoid:
    """Connected components and orbit-representative stabilizers.

    Built on the first call for ``pa`` and kept on it: a PartialAction is
    frozen, so every later caller shares the same read-only parts.
    """
    return TranslationGroupoid(*pa._groupoid_parts)


def _translation_groupoid_parts(pa: PartialAction) -> tuple:
    # theta_h theta_g lies inside theta_hg, so every orbit is a clique: the
    # orbit of x is the defined column x of the theta table, and its least
    # index names the orbit.  Orbits come out sorted by their least points.
    points = pa.points.tolist()
    least = np.where(pa.table >= 0, pa.table, len(points)).min(axis=0).tolist()
    members: dict[int, list[int]] = {}
    for x, r in zip(points, least):
        members.setdefault(r, []).append(x)
    orbits = tuple(frozenset(m) for m in members.values())
    stabilizers = {
        points[r]: Subgroup(pa.group, frozenset(np.flatnonzero(pa.table[:, r] == r).tolist()))
        for r in members
    }
    return orbits, MappingProxyType(stabilizers)


def _subtable(pa: PartialAction, subset: Iterable[int], rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``subset``, carrier points all, as an ascending array,
    and the rows ``rows`` of pa's table at their columns, relabelled as
    indices into those points (-1 where undefined or outside them)."""
    points = np.array(sorted(subset), dtype=np.intp)
    cols = pa.points.searchsorted(points)
    relabel = np.full(pa.size() + 1, -1, dtype=np.intp)  # the entry -1 reads -1
    relabel[cols] = np.arange(len(cols))
    return points, relabel[pa.table[rows][:, cols]]


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
    return PartialAction(pa.group, *_subtable(pa, S))


def restrict_and_quotient(pa: PartialAction, subset: Iterable[int]) -> tuple[PartialAction, PartialAction]:
    """Split along an invariant subset S into (restriction to S, restriction to X - S).

    On a finite discrete carrier the equivariant quotient by the ideal of
    functions supported on S is the restriction to the complement, so both
    halves are plain restrictions.
    """
    S = frozenset(subset)
    if not S <= pa.carrier:
        raise PartialActionError("subset is not contained in the carrier")
    # Each point is labelled by membership; the first arrow that changes the
    # label, g-major with points ascending, crosses the boundary.
    inside = np.fromiter(map(S.__contains__, pa.points.tolist()), bool, pa.size())
    crossing = (pa.table >= 0) & (inside[pa.table] != inside)
    if crossing.any():
        g, i = divmod(int(np.argmax(crossing)), pa.size())
        raise NotInvariant(S, (g, int(pa.points[i]), int(pa.points[pa.table[g, i]])))
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
    pair (g, x) gets the least pair of its class, taking x in sorted order:
    one min over k of a (g, k, x) array, with g in row blocks, where an
    undefined theta_k(x) reads past every pair.  The classes are numbered
    in the order of their least pairs.  The envelope acts by
    a.[g, x] = [a g, x] and the embedding is x -> [1, x]; it is built
    from that integer table, with the global-action axioms
    checked on the table.  Construction invariants are asserted on it: the
    embedding is injective, domains match intersections, the envelope
    extends the action, and translates of X cover.  They fix the envelope up
    to equivariant isomorphism (uniqueness of the globalization).
    """
    G = pa.group
    mul, inv = G.arrays
    order, n = G.order, pa.size()
    # Pair (g, x) is g * n + index(x); k = 1 gives (g, x) itself.
    image = np.where(pa.table >= 0, pa.table, order * n)  # (k, x) -> theta_k(x)
    least = np.empty((order, n), dtype=np.intp)
    for rows in row_blocks(order, order * n):
        # (g, k, x) -> (g k^-1, theta_k(x))
        (mul[rows][:, inv, None] * n + image).min(axis=1, out=least[rows])
    firsts, point = np.unique(least, return_inverse=True)
    point = point.reshape(order, n)
    size = len(firsts)
    # a.[g0, x0] = [a g0, x0] on the least pair (g0, x0) of each class.
    moved = point[mul[:, firsts // n], firsts % n]
    _check_global_table(G, moved)
    envelope = PartialAction(G, np.arange(size, dtype=np.intp), moved)
    embed = point[0]
    at, index = embed.tolist(), pa.index
    embedding = {x: at[index[x]] for x in pa.carrier}

    in_emb = np.zeros(size, dtype=bool)
    in_emb[embed] = True
    if in_emb.sum() != n:
        raise AssertionError("globalization embedding is not injective")
    translated = moved[:, embed]  # [g, i]: sigma_g of the embedded point i
    # emb(X_g) = emb & sigma_g(emb) holds iff sigma_{g^-1} takes emb(z) into emb
    # exactly for z in X_g.  Extension is read where theta_g is defined.
    defined = pa.table >= 0
    domain_bad = (in_emb[translated[inv]] != defined[inv]).any(axis=1)
    extend_bad = (defined & (translated != embed[pa.table])).any(axis=1)
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
    theta = gr.envelope.table
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
    n = pa.size()
    table = np.pad(pa.table, ((0, 0), (0, 1)), constant_values=-1)  # the new point's column n
    table[0, n] = n
    return PartialAction(pa.group, np.append(pa.points, pa.points[-1] + 1 if n else 0), table)


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
    Deterministic in the seed.  Each coset gH is named by its least member
    (``coset_labels``), and the orbit's points are its cosets in the order
    of those labels, so g sends the point of coset i to the coset holding
    g times its least member, read off the ``mul`` array at once.  The
    ambient table is checked to be a global action before restriction.
    """
    if not (0.0 <= keep_probability <= 1.0):
        raise PartialActionError(f"keep probability must be in [0, 1], got {keep_probability}")
    if ambient_size < 0:
        raise PartialActionError(f"ambient size must be >= 0, got {ambient_size}")
    rng = random.Random(seed)
    group = build_group(group_spec, max_order=max_order)
    mul, subs = group.arrays[0], all_subgroups(group)
    orbits = [np.empty((group.order, 0), dtype=np.intp)]  # each coset orbit's columns of the table
    size = 0
    while size < ambient_size:
        room = ambient_size - size
        candidates = [s for s in subs if group.order // s.order <= room]
        least = coset_labels(group, rng.choice(candidates))
        reps = np.flatnonzero(least == np.arange(group.order))  # the cosets gH, by least member
        orbits.append(size + reps.searchsorted(least)[mul[:, reps]])  # [g, i]: the coset holding g reps[i]
        size += len(reps)
    table = np.hstack(orbits)
    _check_global_table(group, table)  # the cosets carry a G-action
    ambient = PartialAction(group, np.arange(size), table)
    return restricted_to(ambient, [x for x in range(size) if rng.random() < keep_probability])
