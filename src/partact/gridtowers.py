"""Numeric Rokhlin-tower feasibility on 1-D grid discretizations.

Two families of instances are built here: the punctured-circle pair system
(two interval copies swapped with a half-shift, where continuity obstructs
dimension zero) and the half-open interval system (whose explicit two-level
towers certify dimension one).  Tower functions live on grid points, are
confined to the action's domains, and respect a Lipschitz band between
adjacent points; the residual measures the worst witnessed violation of the
tower conditions in exact rational arithmetic.

The search is an alternating projection over the constraint families
(domain support, Lipschitz band, per-level orthogonalization, sum-to-one)
in the identity-level parametrization, so the equivariance condition holds
by construction.  It reports the best residual found and never claims
nonexistence.  Sweeps run in place on one padded buffer per chunk of
restarts and gather through flat index plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .groups import build_group
from .pactions import PartialAction, _check_global_table, restricted_to, validate

F1 = Fraction


class GridError(ValueError):
    pass


class ShapeMismatch(GridError):
    pass


class BadDelta(GridError):
    def __init__(self, delta):
        super().__init__(f"delta must lie strictly between 0 and 1/4, got {delta}")


class OddGrid(GridError):
    def __init__(self, m):
        super().__init__(f"the half-shift needs an even grid, got m = {m}")


class GridTooCoarse(GridError):
    def __init__(self, m, minimum):
        super().__init__(f"grid with m = {m} is too coarse; need m >= {minimum}")


def _arcs(edges: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) of the distinct arcs both ways round each edge, ascending
    by tail and then head; a self-loop bounds no step, so it is no arc."""
    ex, ey = edges[:, edges[0] != edges[1]]
    arcs = np.sort(np.concatenate([ex * P + ey, ey * P + ex]))
    return np.divmod(arcs[np.diff(arcs, prepend=-1) != 0], P)


@dataclass(frozen=True, eq=False)
class GridAction:
    """A partial action on grid points with 1-D geometry.

    ``positions`` holds each point's coordinate in units of ``spacing``, in
    ``pa.points`` order (a read-only int64 array); ``edges`` holds the
    adjacency pairs as a read-only (2, E) int64 array of indices into
    ``pa.points``, forming chains and cycles only (a point with a third
    distinct neighbour is a GridError; a self-loop is no neighbour and
    bounds no step); ``spacing`` is the uniform grid step and ``lipschitz``
    the slope bound for admissible tower functions (values may change by at
    most lipschitz * spacing per edge).  ``src[g, z]``,
    derived and read-only, is the index of theta_{g^-1}(z) for z in X_g and
    -1 off the domain.
    """

    pa: PartialAction
    positions: np.ndarray
    edges: np.ndarray
    spacing: Fraction
    lipschitz: Fraction

    def __post_init__(self):
        P = len(self.pa.points)
        positions = np.array(self.positions, dtype=np.int64)
        if positions.shape != self.pa.points.shape:
            raise ShapeMismatch(f"positions of shape {positions.shape} do not fit the action: need {self.pa.points.shape}")
        edges = np.array(self.edges, dtype=np.int64)
        if edges.ndim != 2 or len(edges) != 2:
            raise ShapeMismatch(f"edges of shape {edges.shape} do not fit the action: need (2, edges)")
        off = ((edges < 0) | (edges >= P)).any(axis=0)
        if off.any():
            e = int(np.argmax(off))
            x, y = edges[:, e].tolist()
            raise GridError(f"edge {e}, ({x}, {y}), has a point off the carrier: need indices in [0, {P})")
        src = self.pa.table[self.pa.group.arrays[1]]
        for name, array in (("positions", positions), ("edges", edges), ("src", src)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        # theta_g takes an edge inside X_{g^-1} to an edge (or to one point);
        # the first failure is named, g-major, then in edge order.  Edges are
        # looked up by a sorted key (np.isin would import numpy.ma).
        table, (ex, ey) = self.pa.table, edges
        keys = np.sort(np.minimum(ex, ey) * P + np.maximum(ex, ey))
        lo, hi = np.minimum(table[:, ex], table[:, ey]), np.maximum(table[:, ex], table[:, ey])
        image = lo * P + hi
        found = keys[np.minimum(keys.searchsorted(image), len(keys) - 1)] == image
        bad = (lo >= 0) & (lo != hi) & ~found
        if bad.any():
            g, e = divmod(int(np.argmax(bad)), edges.shape[1])
            x, y = self.pa.points[edges[:, e]].tolist()
            raise GridError(f"theta_{g} does not preserve adjacency at edge ({x}, {y})")
        # Chains and cycles only: the least point thrice a tail is named.
        tail = _arcs(edges, P)[0]
        branch = tail[2:][tail[2:] == tail[:-2]]
        if len(branch):
            raise GridError(f"point {self.pa.points[branch[0]]} has more than two neighbours: the edges must form chains and cycles")

    @property
    def band(self) -> Fraction:
        return self.lipschitz * self.spacing

    @cached_property
    def _plans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the search reads of the chain geometry, built once, read-only
        and holding no reference back to the action: the chain windows, the
        ends of each point in them, and the capped sources.

        Chains and cycles are maximal runs of adjacent points (construction
        allows no other shape), walked from a point to its least unvisited
        neighbour: an open chain from its end of least index, a cycle from
        its least point towards the smaller of its two neighbours.  Each gets one row of ``windows[0]`` (a cycle
        tripled, so its middle third sees both ways round), padded with P;
        ``windows[1]`` holds the rows reversed.  Point p sits at flat position
        ends[0, p] of the forward rows and ends[1, p] of the reversed ones.  A
        capped source is the index src[g, z] of a domain point z adjacent to
        a point off X_g: the band caps the identity-level value there.
        """
        src, (ex, ey), P = self.src, self.edges, len(self.pa.points)
        # Neighbours of p, distinct and ascending: nbr[first[p] : first[p + 1]].
        tail, head = _arcs(self.edges, P)
        first, nbr = tail.searchsorted(np.arange(P + 1)).tolist(), head.tolist()
        seen = [False] * P

        def walk(p: int) -> np.ndarray:
            # Each step appends at most one point, so the loop reads the
            # chain's last point until a step appends none.
            chain = [p]
            seen[p] = True
            for p in chain:
                for q in nbr[first[p] : first[p + 1]]:
                    if not seen[q]:
                        chain.append(q)
                        seen[q] = True
                        break
            return np.array(chain, dtype=np.int64)

        chains = [(walk(p), False) for p in range(P) if not seen[p] and first[p + 1] - first[p] <= 1]
        chains += [(walk(p), True) for p in range(P) if not seen[p]]
        width = max(((3 if cyclic else 1) * len(ci) for ci, cyclic in chains), default=0)
        windows = np.full((2, len(chains), width), P, dtype=np.int64)
        ends = np.empty((2, P), dtype=np.int64)
        for r, (ci, cyclic) in enumerate(chains):
            window = np.concatenate([ci, ci, ci]) if cyclic else ci
            windows[0, r, : len(window)] = window
            at = (len(ci) if cyclic else 0) + np.arange(len(ci))
            ends[:, ci] = r * width + at, (len(chains) + r + 1) * width - 1 - at
        windows[1] = windows[0, :, ::-1]

        inside = src >= 0
        gs, es = np.nonzero(inside[:, ex] != inside[:, ey])
        capped = src[gs, np.where(inside[gs, ex[es]], ex[es], ey[es])]
        windows.flags.writeable = ends.flags.writeable = capped.flags.writeable = False
        return windows, ends, capped


@dataclass(frozen=True, eq=False)
class NumericTowers:
    """Tower values as one read-only integer table over a scale.

    f_{g,j} takes the value table[g, j, i] / scale at the grid point
    ``pa.points[i]``.  The dtype is the one ``_int_dtype`` picks: int64, or
    Python ints past 2^62.  The search returns the table it scored; the
    models build theirs directly.
    """

    table: np.ndarray
    scale: int

    def __post_init__(self):
        self.table.flags.writeable = False

    @property
    def d(self) -> int:
        return self.table.shape[1] - 1


@dataclass(frozen=True, eq=False)
class WitnessFamily:
    """A witness family as one read-only integer table over a scale.

    Member a takes the value table[a, i] / scale at the grid point
    ``pa.points[i]``.  The dtype is int64, or Python ints past 2^62.
    """

    table: np.ndarray
    scale: int

    def __post_init__(self):
        self.table.flags.writeable = False

    def fit(self, ga: GridAction) -> np.ndarray:
        """The table, once its shape is checked against the action's points."""
        W, P = self.table, len(ga.pa.points)
        if W.ndim != 2 or W.shape[1] != P:
            raise ShapeMismatch(f"a witness table of shape {W.shape} does not fit the action: need (members, {P})")
        return W


def _int_dtype(bound: int):
    """int64 while every intermediate stays below the bound < 2^62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _over_band(T: np.ndarray, scale: int, band: Fraction, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Where the table T[g, j, i] over scale steps by more than band: (G, levels, |edges|)."""
    return np.abs(T[:, :, ex] - T[:, :, ey]) * band.denominator > band.numerator * scale


def check_admissible(ga: GridAction, towers: NumericTowers) -> tuple[np.ndarray, int]:
    """Domains, [0, 1] bounds, and the Lipschitz band; raises on violation.

    Domain and bound violations come first, the first in (g, j, i) order
    named (mass off the domain before leaving [0, 1]); then the first band
    violation in (g, j, edge) order.  Returns the table T[g, j, i] = D_t *
    f_{g,j}(x_i), in a dtype wide enough for the band check, and D_t.
    """
    points, src = ga.pa.points, ga.src
    T, scale = towers.table, towers.scale
    if T.ndim != 3 or T.shape[0] != len(src) or T.shape[2] != len(points):
        raise ShapeMismatch(
            f"a tower table of shape {T.shape} does not fit the action: need ({len(src)}, levels, {len(points)})"
        )
    band = ga.band
    T = T.astype(_int_dtype(scale * max(abs(band.numerator), band.denominator)), copy=False)
    off = (T != 0) & (src < 0)[:, None, :]
    bad = off | (T < 0) | (T > scale)
    if bad.any():
        g, j, i = np.unravel_index(np.argmax(bad), bad.shape)
        if off[g, j, i]:
            raise GridError(f"tower ({g}, {j}) has mass off its domain at {points[i]}")
        raise GridError(f"tower ({g}, {j}) leaves [0, 1] at {points[i]}")
    over = _over_band(T, scale, band, *ga.edges)
    if over.any():
        g, j, e = np.unravel_index(np.argmax(over), over.shape)
        x, y = points[ga.edges[:, e]].tolist()
        raise GridError(f"tower ({g}, {j}) violates the Lipschitz band on edge ({x}, {y})")
    return T, scale


def residual(ga: GridAction, towers: NumericTowers, witnesses: WitnessFamily) -> Fraction:
    """Worst witnessed violation of the tower conditions, exactly.

    Conditions: (1) equivariance against witnesses x in the domain
    restrictions of the family and a in the family; (2) per-level
    orthogonality against a; (3) the witnessed partition of unity.  The
    commutator condition vanishes identically on commutative carriers.

    Every term is a product of nonnegative factors that vary independently,
    so the family enters only through wmax(z) = max_a |a(z)|: condition (1)
    is |f_h(y) - f_gh(z)| wmax(y) wmax(z) at z = theta_g(y), (2) the product
    of the two largest f_g(z) at one level times wmax(z), and (3)
    |sum f(z) - 1| wmax(z).  All three are evaluated on integers over the
    scales D_t of the towers and D_w of the family.
    """
    return ResidualFormula(ga, witnesses)(*check_admissible(ga, towers))


class ResidualFormula:
    """The residual of an admissible table T[g, j, i] over its scale D_t, as a
    function of (T, D_t).  What depends only on the action and the family is
    built once, on construction: wmax as integers over D_w, and the arrows
    z = theta_g(y) with the products g h."""

    def __init__(self, ga: GridAction, witnesses: WitnessFamily):
        self.wscale = witnesses.scale
        self.wmax = np.abs(witnesses.fit(ga)).max(axis=0, initial=0)
        self.top = max(int(self.wmax.max(initial=0)), 1)
        gs, self.zs = np.nonzero(ga.src >= 0)
        self.ys = ga.src[gs, self.zs]
        self.ghs = ga.pa.group.arrays[0][gs].T  # (h, arrow): the element g h

    def float_wmax(self) -> np.ndarray:
        """max_a |float(a(z))|, each an int / int division, which rounds correctly."""
        return (self.wmax.astype(object) / self.wscale).astype(np.float64)

    def __call__(self, T: np.ndarray, scale: int) -> Fraction:
        wscale, ys, zs = self.wscale, self.ys, self.zs
        dtype = _int_dtype(scale * self.top * max(scale, self.top, T.shape[0] * T.shape[1] + 1))
        T, W = T.astype(dtype, copy=False), self.wmax.astype(dtype)
        partition = (np.abs(T.sum(axis=(0, 1)) - scale) * W).max(initial=0)
        orthogonality = 0
        if T.shape[0] >= 2:
            pair = np.sort(T, axis=0)[-2:]
            orthogonality = (pair[0] * pair[1] * W).max(initial=0)
        Tl = T.transpose(1, 0, 2)  # (level, h, point)
        gap = np.abs(Tl[:, :, ys] - Tl[:, self.ghs, zs])
        equivariance = (gap * (W[ys] * W[zs])).max(initial=0)
        return max(
            F1(int(equivariance), scale * wscale * wscale),
            F1(int(orthogonality), scale * scale * wscale),
            F1(int(partition), scale * wscale),
        )


# ---------------------------------------------------------------------------
# Model systems.
# ---------------------------------------------------------------------------


def _plateau(at: np.ndarray, zero_sets: Sequence[Sequence[int]], unit: Fraction, width: Fraction):
    """min(1, distance from at to the nearest zero * unit / width), one row per
    set of zeros, at integer points at and zeros, as integers over the
    denominator of unit / width: 0 at every zero, linear within width of one,
    1 everywhere else.  Returns the (sets, points) table and its scale."""
    dist = np.stack([np.abs(np.subtract.outer(np.array(z, dtype=at.dtype), at)).min(axis=0) for z in zero_sets])
    ratio = unit / width
    a, b = ratio.numerator, ratio.denominator
    dist = dist.astype(_int_dtype(max(b, a * int(dist.max(initial=0)))))
    return np.minimum(dist * a, b).astype(_int_dtype(b)), b


def interval_half_shift(delta, m: int):
    """The half-open interval system with its explicit two-level towers.

    Grid points k = 1..m at coordinates 2k/m model the half-open interval
    (0, 2]; the non-identity element shifts by one between the two open
    halves.  Returns (GridAction, NumericTowers, WitnessFamily) where the
    towers follow the displayed plateau construction: level zero carries the
    plateau function on each half, level one the remainder, with the cut
    point's unit mass assigned to the identity tower (both halves vanish
    there, and the partition of unity must still hold at the cut).  The
    Lipschitz bound is vacuous (1/spacing): the displayed towers jump at the
    cut by construction.  The family is the plateau pair f (zero at 0) and
    e (zeros at 0, 1 and 2), both of width delta.
    """
    delta = F1(delta)
    if not (0 < delta < F1(1, 4)):
        raise BadDelta(delta)
    if m < 2:
        raise GridTooCoarse(m, 2)
    if m % 2 != 0:
        raise OddGrid(m)
    group = build_group(("cyclic", 2))
    h = F1(2, m)
    points = list(range(1, m + 1))
    cut, end = m // 2, m
    U = [k for k in points if k not in (cut, end)]
    theta = {k: (k + cut if k < cut else k - cut) for k in U}
    pa = validate(group, points, {0: set(points), 1: set(U)}, {0: {k: k for k in points}, 1: theta})
    ga = GridAction(pa, np.arange(1, m + 1), np.stack([np.arange(m - 1), np.arange(1, m)]), h, F1(1, 1) / h)

    family, scale = _plateau(ga.positions, [(0,), (0, cut, end)], h, delta)
    f, e = family
    # Levels e and f - e over the points in order; the lower half (k < cut)
    # goes to the shift's tower, the rest, the cut included, to the identity's.
    levels = np.stack([e, f - e])
    lower = ga.positions < cut
    towers = NumericTowers(np.stack([levels * ~lower, levels * lower]), scale)
    return ga, towers, WitnessFamily(family, scale)


def witness_bound(ga: GridAction, family: WitnessFamily, delta) -> Fraction:
    """The tolerance the plateau pair implies on this grid.

    Recomputes max of ||e a - a|| over the family members supported in the
    shift domain X_1 and ||f a - a|| over the whole family, with f and e the
    plateau pair at the given delta (as in ``interval_half_shift``).  With
    spacing p/q, the coordinates are the positions times p in units of 1/q,
    so the zeros 0, 1 and 2 are whole too.  The shift domain is that of the
    non-identity element of a two-element group; any other group is a
    GridError.
    """
    if ga.pa.group.order != 2:
        raise GridError(f"the plateau-pair bound needs a group of order 2, got order {ga.pa.group.order}")
    p, q = ga.spacing.numerator, ga.spacing.denominator
    at = ga.positions.astype(_int_dtype(p * int(np.abs(ga.positions).max(initial=0)) + 2 * q)) * p
    (f, e), scale = _plateau(at, [(0,), (0, q, 2 * q)], F1(1, q), F1(delta))
    W = np.abs(family.fit(ga))
    W = W.astype(_int_dtype(int(W.max(initial=0)) * scale), copy=False)
    # |f a - a| = |a| (1 - f) for every member, |e a - a| for those vanishing off X_1.
    ideal = ~W[:, ga.src[1] < 0].any(axis=1)
    worst = max((W * (scale - f)).max(initial=0), (W[ideal] * (scale - e)).max(initial=0))
    return F1(int(worst), scale * family.scale)


def punctured_circle_pair_global(m: int):
    """The globalized model: two full circles, swap-and-shift.

    Points k = 0..m-1 and m..2m-1 are the two copies, at coordinates
    2 (k mod m)/m; the non-identity element shifts by one (mod 2) and swaps
    the copies.  Returns (GridAction, NumericTowers) where the towers are the
    two copy indicators; they witness dimension zero with residual 0.
    """
    if m < 2:
        raise GridTooCoarse(m, 2)
    if m % 2 != 0:
        raise OddGrid(m)
    group = build_group(("cyclic", 2))
    k = np.arange(2 * m)
    # The shift moves k by m/2 round its circle and swaps the circles.
    table = np.array([k, (k + m // 2) % m + m - k // m * m])
    _check_global_table(group, table)
    pa = PartialAction(group, k, table)
    # Each point is joined to the next one round its circle, the lesser first.
    ga = GridAction(pa, k % m, np.sort([k, k - k % m + (k + 1) % m], axis=0), F1(2, m), F1(8))
    towers = np.zeros((2, 1, 2 * m), dtype=np.int64)
    towers[1, 0, :m] = towers[0, 0, m:] = 1
    return ga, NumericTowers(towers, 1)


def punctured_circle_pair(m: int, lipschitz=8):
    """Two interval copies swapped with a half-shift: the obstruction model.

    The restriction of ``punctured_circle_pair_global(m)`` to its points off
    the two punctures 0 and m, with the global positions and the edges
    between kept points: each copy is an open chain of m - 1 points at
    coordinates 2k/m, and the shift is undefined at the two cut points m/2
    and 3m/2, whose images are the punctures.  Returns (GridAction,
    WitnessFamily, 3/16).

    The witnesses a (zeros 0 and 2) and b (zeros 0, 1 and 2) are 1 at least
    eps = 3/16 from every zero and 1 - plateau within eps of one: 1 at the
    zero, falling linearly towards 0 as the distance nears eps, and 1 again
    from there on.  So at m = 32, a(1/16) = 2/3, a(1/8) = 1/3 and
    a(3/16) = 1.  b is 0 at the cut points t = 1, where b(15/16) = 2/3, so
    b jumps at the cut.
    """
    if m < 16:
        raise GridTooCoarse(m, 16)
    whole, _ = punctured_circle_pair_global(m)  # an odd m is an OddGrid here
    keep = whole.pa.points % m != 0
    edges = (np.cumsum(keep) - 1)[whole.edges[:, keep[whole.edges].all(axis=0)]]
    pa = restricted_to(whole.pa, whole.pa.points[keep].tolist())
    ga = GridAction(pa, whole.positions[keep], edges, whole.spacing, F1(lipschitz))
    eps = F1(3, 16)
    W, scale = _plateau(ga.positions, [(0, m), (0, m // 2, m)], ga.spacing, eps)
    W = np.where(W < scale, scale - W, W)
    W[1, ga.positions == m // 2] = 0
    return ga, WitnessFamily(W, scale), eps


# ---------------------------------------------------------------------------
# Alternating-projection search.
# ---------------------------------------------------------------------------


# Restarts run together in chunks of this many, one (chunk, levels, P) array
# through one sweep loop.  Larger chunks waste more sweeps past an early stop
# at eps; smaller ones pay numpy's per-call cost more often.
RESTART_CHUNK = 16


def search_towers(
    ga: GridAction,
    witnesses: WitnessFamily,
    eps,
    d: int,
    lipschitz=None,
    seed: int = 0,
    restarts: int = 100,
    sweeps: int = 160,
    polish_sweeps: int = 1400,
    trace: Optional[list] = None,
) -> tuple[NumericTowers, Fraction]:
    """Best admissible towers found by alternating projections.

    Unknowns are the identity-level functions (equivariance then holds by
    construction); the projection families are the domain-support caps, the
    Lipschitz band, per-level orthogonalization (softly at first, frozen in
    a polish phase), and the sum-to-one rows.  Deterministic in the seed;
    stops early when the exact residual reaches eps.  Never claims
    nonexistence.  Each restart appends (restart, residual, best residual,
    sweeps run) to ``trace``.  ``lipschitz`` may narrow the model's band but
    not widen it: towers within a wider band fail the model's admissibility,
    so a slope above the model's is refused up front.  So is a search with
    no sweeps: each restart's final state must be a projected one, which is
    then floored, capped and projected again, in integers, as its candidate.

    Restarts run in chunks of ``RESTART_CHUNK`` along a leading array axis.
    Each restart keeps its own seed, its own polish early stop and the float
    operations of a run on its own, and restarts are scored in order, so the
    towers, best residual and trace are those of running them one after
    another.

    A chunk's values sit in one flat buffer after three pads: +inf ends the
    envelope's chain windows, 0.0 and -1.0 stand for off-domain values in
    the sum-to-one rows and in the winner scan.  Updates run in place, and
    flat index plans, cut to the chunk's rows whenever restarts leave it,
    read each gather with one ``take``.  Winners are first largest values,
    found without ``argmax``; every float sum keeps its operands and order.

    Sweeps stop once the frozen polish phase returns a chunk, bit for bit, to
    its values from two sweeps back: from then on the chunk swaps its two
    states, and the residual checks, early stops and results are unchanged.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if sweeps + polish_sweeps < 1:
        raise ValueError(f"sweeps + polish_sweeps must be >= 1, got {sweeps + polish_sweeps}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    slope = F1(lipschitz) if lipschitz is not None else ga.lipschitz
    if slope < 0:
        raise ValueError(f"lipschitz must be >= 0, got {slope}")
    if slope > ga.lipschitz:
        raise ValueError(
            f"lipschitz must be at most the model's slope {ga.lipschitz}, got {slope}: "
            f"admissible towers keep the model's band"
        )
    eps = F1(eps)
    exact_band = slope * ga.spacing
    band = float(exact_band)
    G = ga.pa.group
    src, P = ga.src, len(ga.pa.points)
    levels = d + 1
    in_mask = src >= 0
    src_clip = np.clip(src, 0, None)
    row_size = np.maximum(in_mask.sum(axis=0) * levels, 1)
    # The sum-to-one update is the same at every level: point src[g, z]
    # collects the row step at z.  The sum runs g-major, in the order of
    # np.nonzero, and that order fixes the float result.  Restart r of a
    # chunk reads row steps and adds into bins offset by r P, which keeps
    # each bin's order.
    row_g, row_z = np.nonzero(in_mask)
    C = min(restarts, RESTART_CHUNK)
    delta_plan = (np.arange(C)[:, None] * P + row_z).ravel()
    chunk_rows = (np.arange(C)[:, None] * P + src[row_g, row_z]).ravel()

    windows, ends, capped = ga._plans
    cap = np.ones(P)
    cap[capped] = min(1.0, band)

    exact_residual = ResidualFormula(ga, witnesses)
    wmax = exact_residual.float_wmax()

    # Exact candidates are integers over denom = lcm(2^20, band denominator),
    # capped at the band wherever the float cap binds.  In place of +inf
    # their pad lies above every value plus the widest step.
    denom = math.lcm(1 << 20, exact_band.denominator)
    exact_step = exact_band.numerator * (denom // exact_band.denominator)
    pad = denom + exact_step * windows.shape[2] + 1
    int_dtype = _int_dtype(2 * pad)
    exact_cap = np.full(P, denom, dtype=int_dtype)
    exact_cap[cap < 1.0] = exact_step

    # The lower envelope's forward pass is a prefix minimum of vals - steps
    # on the rows, its backward pass one of vals + steps on the reversed rows:
    # k band in floats for the sweeps, k exact_step in integers for the candidates.
    k = np.arange(windows.shape[2])
    signed_steps, exact_signed_steps = (
        np.stack([-steps, steps[::-1]])[:, None, :] for steps in (band * k, k.astype(int_dtype) * exact_step)
    )

    # Plans into the buffer [+inf, 0.0, -1.0, v]: incoming values per (level,
    # point) as (R, levels, G, P), the same laid out (G, P, R, levels) with
    # 0.0 off the domains, and the chain windows with their reverses.
    INF, ZERO, NEG = 0, 1, 2
    base = 3 + np.arange(C * levels).reshape(C, levels, 1) * P
    winner_plan = np.where(in_mask, base[:, :, None] + src_clip, NEG)
    tower_plan = np.where(in_mask, base[:, :, None] + src_clip, ZERO).transpose(2, 3, 0, 1)
    window_plan = np.where(windows == P, INF, base[..., None, None] + windows)
    envelope_take = np.arange(C * levels).reshape(C, levels, 1, 1) * windows.size + ends

    def load(v: np.ndarray, pad=np.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A new buffer of v's dtype holding the (R, levels, P) values v, its view
        of them, and the tower plan for R rows (contiguous, so its take is cheap)."""
        buf = np.empty(3 + v.size, dtype=v.dtype)
        buf[:3] = pad, 0, -1
        buf[3:] = v.ravel()
        return buf, buf[3:].reshape(v.shape), np.ascontiguousarray(tower_plan[:, :, : len(v)])

    def towers(buf: np.ndarray, plan: np.ndarray) -> np.ndarray:
        """f_g(z) as (R, G, levels, P), laid out in memory as a fancy-index
        gather lays it out: the layout fixes the order of the sum over (g, j)."""
        return buf.take(plan).transpose(2, 0, 3, 1)

    def lipschitz_project(buf: np.ndarray, v: np.ndarray, signed: np.ndarray) -> None:
        """Largest function below v within the band ``signed`` steps by (float
        or exact), in v's dtype: the lower envelope on each chain, and so on
        the grid, whose edges form only chains and cycles."""
        vals = buf.take(window_plan[: len(v)]) + signed
        np.fmin.accumulate(vals, axis=-1, out=vals)
        vals -= signed
        np.fmin.reduce(vals.take(envelope_take[: len(v)]), axis=2, out=v)

    def float_residual(buf: np.ndarray, plan: np.ndarray) -> np.ndarray:
        """Per restart: the partition and orthogonality terms in floats."""
        t = towers(buf, plan)
        res = (np.abs(t.sum(axis=(1, 2)) - 1.0) * wmax).max(axis=-1, initial=0.0)
        # The two largest f_g(z) >= 0 at each (level, point), ties counted
        # twice; the second is 0 when G is trivial.
        top, second = t[:, 0], np.zeros(t[:, 0].shape)
        for g in range(1, G.order):
            second = np.maximum(second, np.minimum(top, t[:, g]))
            top = np.maximum(top, t[:, g])
        return np.maximum(res, (top * second * wmax).max(axis=(1, 2), initial=0.0))

    def damping(buf: np.ndarray, R: int, shrink: float) -> np.ndarray:
        """shrink at every source of a non-winning incoming value, 1 elsewhere:
        lost arrows write at their sources, off-domain ones (-1.0) at a pad."""
        vals = buf.take(winner_plan[:R])
        eq = vals == vals.max(axis=2, keepdims=True)
        lost = ~eq
        taken = eq[:, :, 0]
        for g in range(1, G.order):
            lost[:, :, g] |= taken
            taken = taken | eq[:, :, g]
        damp = np.ones(buf.shape)
        damp[winner_plan[:R][lost]] = shrink
        return damp[3:].reshape(R, levels, P)

    def sweep_chunk(v: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
        """Sweep a (R, levels, P) chunk; each restart's final values and sweeps run.

        Orthogonalization: per (level, point) damp all but the largest
        incoming value; the polish phase freezes the winners it starts with
        and zeroes the rest.  A polishing restart whose float residual stops
        falling leaves the chunk with its values at that sweep.

        With the winners frozen, a polish sweep is one fixed map F on the
        values.  Once a polish sweep returns the chunk, bit for bit, to its
        values two sweeps back, F swaps that state and the one between, so
        the chunk swaps two buffers instead of sweeping (``twin`` holds the
        other state).
        """
        total_sweeps = sweeps + polish_sweeps
        final: list = [None] * len(v)
        ran = [total_sweeps] * len(v)
        active = np.arange(len(v))
        last = np.full(len(v), np.inf)
        polish_damp = back = twin = None
        buf, v, plan = load(v)
        for it in range(total_sweeps):
            R = len(v)
            polishing = it >= sweeps
            if twin is not None:
                (buf, v), twin = twin, (buf, v)
            else:
                damp = polish_damp
                if damp is None:
                    damp = damping(buf, R, 0.0 if polishing else 0.35)
                    if polishing:
                        polish_damp = damp
                if polishing:
                    before = v.copy()
                v *= damp
                # Sum-to-one rows (simultaneous Kaczmarz step).
                delta = (1.0 - towers(buf, plan).sum(axis=(1, 2))) / row_size
                step = np.bincount(chunk_rows[: R * len(row_z)], weights=delta.take(delta_plan[: R * len(row_z)]), minlength=R * P)
                v += step.reshape(R, 1, P)
                # Hard constraints: box and caps (cap <= 1), Lipschitz band.
                np.maximum(v, 0.0, out=v)
                np.minimum(v, cap, out=v)
                lipschitz_project(buf, v, signed_steps)
                if polishing:
                    # back is the state before the previous polish sweep, so
                    # v == back means F(F(back)) == back.
                    if back is not None and np.array_equal(v, back):
                        twin = load(before)[:2]
                    back = before
            # Every 25th sweep a polishing restart whose float residual did
            # not fall leaves; a check is read only by the next one.
            if it % 25 == 24 and it > sweeps + 75:
                fr = float_residual(buf, plan)
                done = fr >= last - 1e-14
                if it > sweeps + 100 and done.any():
                    for k, v_k in zip(active[done], v[done]):
                        final[k], ran[k] = v_k, it + 1
                    keep = ~done
                    active, fr, polish_damp = active[keep], fr[keep], polish_damp[keep]
                    if not len(active):
                        break
                    buf, v, plan = load(v[keep])
                    if twin is not None:
                        twin = load(twin[1][keep])[:2]
                    elif back is not None:
                        back = back[keep]
                last = fr
        for k, v_k in zip(active, v):
            final[k] = v_k
        return final, ran

    best_res: Optional[Fraction] = None
    best: Optional[NumericTowers] = None
    rng_master = np.random.default_rng(seed)
    anchor_step = max(1, P // 16)
    xs = np.linspace(0, 1, P)
    for first in range(0, restarts, RESTART_CHUNK):
        chunk = range(first, min(first + RESTART_CHUNK, restarts))
        v = np.empty((len(chunk), levels, P))
        for v_r in v:
            rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
            for j in range(levels):
                anchors = rng.random(P // anchor_step + 2)
                v_r[j] = np.interp(xs, np.linspace(0, 1, len(anchors)), anchors)
        final, ran = sweep_chunk(np.clip(v, 0.0, 1.0))
        for restart, v_r, sweeps_run in zip(chunk, final, ran):
            # The candidate f: v_r floored to the 2^-20 grid (which keeps the
            # box), capped, then enveloped in the exact band (values only fall).
            # Its towers f_g = f . theta_{g^-1} make a table over denom.
            floor = (v_r * (1 << 20)).astype(np.int64).astype(int_dtype) * (denom >> 20)
            buf, f, _ = load(np.minimum(floor, exact_cap)[None], pad)
            lipschitz_project(buf, f, exact_signed_steps)
            candidate = NumericTowers(np.where(in_mask[:, None, :], f[0][:, src_clip].swapaxes(0, 1), 0), denom)
            res = exact_residual(*check_admissible(ga, candidate))
            if best_res is None or res < best_res:
                best_res, best = res, candidate
            if trace is not None:
                trace.append((restart, float(res), float(best_res), sweeps_run))
            if best_res <= eps:
                break
        if best_res <= eps:
            break
    assert best is not None and best_res is not None
    assert exact_residual(*check_admissible(ga, best)) == best_res
    return best, best_res
