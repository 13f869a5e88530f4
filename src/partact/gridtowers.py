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
from typing import Mapping, Optional, Sequence

import numpy as np

from .groups import build_group
from .pactions import PartialAction, validate

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


@dataclass(frozen=True)
class GridAction:
    """A partial action on grid points with 1-D geometry.

    ``edges`` are adjacency pairs within chain components; ``spacing`` is the
    uniform grid step and ``lipschitz`` the slope bound for admissible tower
    functions (values may change by at most lipschitz * spacing per edge).
    """

    pa: PartialAction
    coords: Mapping[int, Fraction]
    edges: tuple[tuple[int, int], ...]
    spacing: Fraction
    lipschitz: Fraction

    def __post_init__(self):
        for g in self.pa.group.elements():
            dom = self.pa.domain(self.pa.group.inv(g))
            for x, y in self.edges:
                if x in dom and y in dom:
                    fx, fy = self.pa.theta(g, x), self.pa.theta(g, y)
                    if fx != fy and (fx, fy) not in self.edges and (fy, fx) not in self.edges:
                        raise GridError(
                            f"theta_{g} does not preserve adjacency at edge ({x}, {y})"
                        )

    @property
    def band(self) -> Fraction:
        return self.lipschitz * self.spacing

    @cached_property
    def _layout(self) -> tuple[list[int], Mapping[int, int], np.ndarray, np.ndarray]:
        """Sorted grid points, their positions, src[g, z], the position of
        theta_{g^-1}(z) for z in X_g (-1 off the domain), and the edges as a
        (2, |edges|) array of positions; built once, read-only, and holding no
        reference back to the action."""
        pa = self.pa
        index = pa.index
        src = pa.table[pa.group.arrays[1]]
        edges = np.array([[index[x] for x, _ in self.edges], [index[y] for _, y in self.edges]], dtype=np.int64)
        src.flags.writeable = edges.flags.writeable = False
        return pa.points.tolist(), index, src, edges


@dataclass(frozen=True)
class NumericTowers:
    """Tower values per (group element, level) at every grid point."""

    d: int
    values: Mapping[tuple[int, int], Mapping[int, Fraction]]

    def value(self, g: int, j: int, x: int) -> Fraction:
        return self.values.get((g, j), {}).get(x, F1(0))


def derived_numeric_towers(ga: GridAction, levels: Sequence[Mapping[int, Fraction]]) -> NumericTowers:
    """Towers induced by identity-level functions: f_g = f_1 . theta_{g^-1}."""
    pa = ga.pa
    values: dict[tuple[int, int], dict[int, Fraction]] = {}
    for g in pa.group.elements():
        ginv = pa.group.inv(g)
        for j, level in enumerate(levels):
            tower = {}
            for z in pa.domain(g):
                v = level.get(pa.theta(ginv, z), F1(0))
                if v:
                    tower[z] = v
            values[(g, j)] = tower
    return NumericTowers(len(levels) - 1, values)


def _int_dtype(bound: int):
    """int64 while every intermediate stays below the bound < 2^62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def _over_band(T: np.ndarray, scale: int, band: Fraction, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Where the table T[g, j, i] over scale steps by more than band: (G, levels, |edges|)."""
    return np.abs(T[:, :, ex] - T[:, :, ey]) * band.denominator > band.numerator * scale


def check_admissible(ga: GridAction, towers: NumericTowers) -> tuple[np.ndarray, int]:
    """Domains, [0, 1] bounds, and the Lipschitz band; raises on violation.

    Returns the values as integers over their common denominator D_t: the
    array T[g, j, i] = D_t * f_{g,j}(x_i) over the sorted grid points x_i,
    and D_t.
    """
    pa = ga.pa
    _, index, _, (ex, ey) = ga._layout
    entries = []
    for (g, j), tower in towers.values.items():
        if g not in pa.group.elements() or not (0 <= j <= towers.d):
            raise ShapeMismatch(f"tower index ({g}, {j}) does not fit the action")
        dom = pa.domain(g)
        for x, v in tower.items():
            if x not in pa.carrier:
                raise ShapeMismatch(f"tower ({g}, {j}) uses unknown grid point {x}")
            num, den = v.numerator, v.denominator
            if x not in dom and num:
                raise GridError(f"tower ({g}, {j}) has mass off its domain at {x}")
            if not (0 <= num <= den):
                raise GridError(f"tower ({g}, {j}) leaves [0, 1] at {x}")
            if num:
                entries.append((g, j, index[x], num, den))
    scale = math.lcm(*{e[4] for e in entries})
    band = ga.band
    dtype = _int_dtype(scale * max(abs(band.numerator), band.denominator))
    T = np.zeros((pa.group.order, towers.d + 1, len(index)), dtype=dtype)
    if entries:
        gs, js, xs, nums, dens = zip(*entries)
        T[gs, js, xs] = [n * (scale // q) for n, q in zip(nums, dens)]
    over = _over_band(T, scale, band, ex, ey)
    if over.any():
        g, j, e = np.unravel_index(np.argmax(over), over.shape)
        x, y = ga.edges[e]
        raise GridError(f"tower ({g}, {j}) violates the Lipschitz band on edge ({x}, {y})")
    return T, scale


def residual(ga: GridAction, towers: NumericTowers, witnesses: Sequence[Mapping[int, Fraction]]) -> Fraction:
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
    common denominators D_t of the towers and D_w of the family.
    """
    return ResidualFormula(ga, witnesses)(*check_admissible(ga, towers))


class ResidualFormula:
    """The residual of an admissible table T[g, j, i] over its scale D_t, as a
    function of (T, D_t).  What depends only on the action and the family is
    built once, on construction: wmax as integers over D_w, and the arrows
    z = theta_g(y) with the products g h."""

    def __init__(self, ga: GridAction, witnesses: Sequence[Mapping[int, Fraction]]):
        _, index, src, _ = ga._layout
        self.wscale = math.lcm(*{v.denominator for a in witnesses for x, v in a.items() if x in index})
        wmax = [0] * len(index)
        for a in witnesses:
            for x, v in a.items():
                i = index.get(x)
                if i is not None:
                    wmax[i] = max(wmax[i], abs(v.numerator) * (self.wscale // v.denominator))
        self.wmax = wmax
        self.top = max(max(wmax, default=0), 1)
        gs, self.zs = np.nonzero(src >= 0)
        self.ys = src[gs, self.zs]
        self.ghs = np.array(ga.pa.group.table, dtype=np.int64)[gs].T  # (h, arrow): the element g h

    def __call__(self, T: np.ndarray, scale: int) -> Fraction:
        wscale, ys, zs = self.wscale, self.ys, self.zs
        dtype = _int_dtype(scale * self.top * max(scale, self.top, T.shape[0] * T.shape[1] + 1))
        T, W = T.astype(dtype, copy=False), np.array(self.wmax, dtype=dtype)
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


def _piecewise_f_delta(t: Fraction, delta: Fraction) -> Fraction:
    return F1(1) if t >= delta else t / delta


def _piecewise_e_delta(t: Fraction, delta: Fraction) -> Fraction:
    """The plateau function on the split interval, vanishing at 0, 1, 2."""
    if t <= 0 or t == 1 or t >= 2:
        return F1(0)
    if t < delta:
        return t / delta
    if t <= 1 - delta:
        return F1(1)
    if t < 1:
        return (1 - t) / delta
    if t < 1 + delta:
        return (t - 1) / delta
    if t <= 2 - delta:
        return F1(1)
    return (2 - t) / delta


def interval_half_shift(delta, m: int):
    """The half-open interval system with its explicit two-level towers.

    Grid points k = 1..m at coordinates 2k/m model the half-open interval
    (0, 2]; the non-identity element shifts by one between the two open
    halves.  Returns (GridAction, NumericTowers, witness family) where the
    towers follow the displayed plateau construction: level zero carries the
    plateau function on each half, level one the remainder, with the cut
    point's unit mass assigned to the identity tower (both halves vanish
    there, and the partition of unity must still hold at the cut).  The
    Lipschitz bound is vacuous (1/spacing): the displayed towers jump at the
    cut by construction.
    """
    delta = F1(delta)
    if not (0 < delta < F1(1, 4)):
        raise BadDelta(delta)
    if m % 2 != 0 or m <= 0:
        raise OddGrid(m)
    group = build_group(("cyclic", 2))
    h = F1(2, m)
    points = list(range(1, m + 1))
    coords = {k: k * h for k in points}
    cut, end = m // 2, m
    U = [k for k in points if k not in (cut, end)]
    theta = {k: (k + cut if k < cut else k - cut) for k in U}
    pa = validate(
        group,
        points,
        {0: set(points), 1: set(U)},
        {0: {k: k for k in points}, 1: theta},
    )
    edges = tuple((k, k + 1) for k in range(1, m))
    ga = GridAction(pa, coords, edges, h, F1(1, 1) / h)

    f_d = {k: _piecewise_f_delta(coords[k], delta) for k in points}
    e_d = {k: _piecewise_e_delta(coords[k], delta) for k in points}
    values = {
        (1, 0): {k: e_d[k] for k in U if k < cut and e_d[k]},
        (0, 0): {k: e_d[k] for k in points if k > cut and e_d[k]},
        (1, 1): {k: f_d[k] - e_d[k] for k in U if k < cut and f_d[k] != e_d[k]},
        (0, 1): {k: f_d[k] - e_d[k] for k in points if k >= cut and f_d[k] != e_d[k]},
    }
    towers = NumericTowers(1, values)
    witnesses = [f_d, e_d]
    return ga, towers, witnesses


def witness_bound(ga: GridAction, family: Sequence[Mapping[int, Fraction]], delta) -> Fraction:
    """The tolerance the plateau pair implies on this grid.

    Recomputes max of ||e a - a|| over the family members supported in the
    shift domain and ||f a - a|| over the whole family, with f and e the
    plateau pair at the given delta.
    """
    delta = F1(delta)
    pa = ga.pa
    f_d = {k: _piecewise_f_delta(ga.coords[k], delta) for k in pa.carrier}
    e_d = {k: _piecewise_e_delta(ga.coords[k], delta) for k in pa.carrier}
    bound = F1(0)
    dom = pa.domain(1)
    for a in family:
        in_domain_ideal = all(p in dom or a.get(p, F1(0)) == 0 for p in pa.carrier)
        for k in pa.carrier:
            av = a.get(k, F1(0))
            bound = max(bound, abs(f_d[k] * av - av))
            if in_domain_ideal:
                bound = max(bound, abs(e_d[k] * av - av))
    return bound


def _ramp(t: Fraction, eps: Fraction, flats: Sequence[tuple[Fraction, Fraction]], zeros: Sequence[Fraction]) -> Fraction:
    for lo, hi in flats:
        if lo <= t <= hi:
            return F1(1)
    best = F1(0)
    for z in zeros:
        v = 1 - abs(t - z) / eps
        if v > best:
            best = v
    return max(best, F1(0))


def punctured_circle_pair(m: int, lipschitz=8):
    """Two interval copies swapped with a half-shift: the obstruction model.

    The circle with one point removed is modelled as an open chain of m - 1
    points per copy at coordinates 2k/m; the non-identity element shifts by
    one (mod 2) and swaps the copies.  Returns (GridAction, witness family,
    3/16): the witnesses are the plateau functions that are 1 on the inner
    interval(s) and linear otherwise, duplicated on both copies.
    """
    if m < 16:
        raise GridTooCoarse(m, 16)
    if m % 2 != 0:
        raise OddGrid(m)
    group = build_group(("cyclic", 2))
    h = F1(2, m)
    eps = F1(3, 16)
    half = m // 2
    points = [k for k in range(1, m)] + [m + k for k in range(1, m)]
    coords = {k: (k if k < m else k - m) * h for k in points}
    copy_of = {k: (0 if k < m else 1) for k in points}
    cut0, cut1 = half, m + half
    U = [k for k in points if k not in (cut0, cut1)]

    def shift(k: int) -> int:
        base, offset = (k - m, m) if k >= m else (k, 0)
        target = base + half if base < half else base - half
        return target + (0 if offset else m)

    pa = validate(
        group,
        points,
        {0: set(points), 1: set(U)},
        {0: {k: k for k in points}, 1: {k: shift(k) for k in U}},
    )
    edges = tuple((k, k + 1) for k in range(1, m - 1)) + tuple(
        (m + k, m + k + 1) for k in range(1, m - 1)
    )
    ga = GridAction(pa, coords, edges, h, F1(lipschitz))

    def a_func(t: Fraction) -> Fraction:
        return _ramp(t, eps, [(eps, 2 - eps)], [F1(0), F1(2)]) if 0 < t < 2 else F1(0)

    def b_func(t: Fraction) -> Fraction:
        if not (0 < t < 2) or t == 1:
            return F1(0)
        return _ramp(t, eps, [(eps, 1 - eps), (1 + eps, 2 - eps)], [F1(0), F1(1), F1(2)])

    a = {k: a_func(coords[k]) for k in points}
    b = {k: b_func(coords[k]) for k in points}
    witnesses = [a, b]
    return ga, witnesses, eps


def punctured_circle_pair_global(m: int):
    """The globalized model: two full circles, swap-and-shift.

    Returns (GridAction, NumericTowers) where the towers are the two copy
    indicators; they witness dimension zero with residual 0.
    """
    if m % 2 != 0 or m <= 0:
        raise OddGrid(m)
    group = build_group(("cyclic", 2))
    h = F1(2, m)
    half = m // 2
    points = list(range(m)) + list(range(m, 2 * m))
    coords = {k: (k % m) * h for k in points}

    def shift(k: int) -> int:
        base, offset = k % m, (k // m) * m
        return (base + half) % m + (m - offset)

    perms = {0: {k: k for k in points}, 1: {k: shift(k) for k in points}}
    pa = validate(group, points, {0: set(points), 1: set(points)}, perms)
    edges = tuple((k, (k + 1) % m) for k in range(m)) + tuple(
        (m + k, m + (k + 1) % m) for k in range(m)
    )
    edges = tuple((min(x, y), max(x, y)) for x, y in edges)
    ga = GridAction(pa, coords, edges, h, F1(8))
    values = {
        (1, 0): {k: F1(1) for k in range(m)},
        (0, 0): {k: F1(1) for k in range(m, 2 * m)},
    }
    return ga, NumericTowers(0, values)


def embed_certificate(pa: PartialAction, levels: Sequence[Mapping[int, Fraction]]):
    """View a finite partial action as a geometry-free grid instance.

    Each point is its own chain component, so the Lipschitz band is vacuous;
    witnesses are the indicator basis together with the constant 1.
    """
    coords = {x: F1(i) for i, x in enumerate(sorted(pa.carrier))}
    ga = GridAction(pa, coords, (), F1(1), F1(1))
    towers = derived_numeric_towers(ga, levels)
    witnesses = [{x: F1(1)} for x in sorted(pa.carrier)]
    witnesses.append({x: F1(1) for x in pa.carrier})
    return ga, towers, witnesses


# ---------------------------------------------------------------------------
# Alternating-projection search.
# ---------------------------------------------------------------------------


# Restarts run together in chunks of this many, one (chunk, levels, P) array
# through one sweep loop.  Larger chunks waste more sweeps past an early stop
# at eps; smaller ones pay numpy's per-call cost more often.
RESTART_CHUNK = 16


def search_towers(
    ga: GridAction,
    witnesses: Sequence[Mapping[int, Fraction]],
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
    not widen it: towers repaired to a wider band fail the model's
    admissibility, so a slope above the model's is refused up front.

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
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
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
    pa = ga.pa
    G = pa.group
    points, index, src, (ex, ey) = ga._layout
    P = len(points)
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

    # Chains and cycles: maximal runs of adjacent points.
    adj = {x: set() for x in points}
    for x, y in ga.edges:
        adj[x].add(y)
        adj[y].add(x)
    chain_idx: list[tuple[np.ndarray, bool]] = []
    seen: set[int] = set()

    def walk(start: int) -> list[int]:
        chain = [start]
        seen.add(start)
        while True:
            nxt = [y for y in adj[chain[-1]] if y not in seen]
            if not nxt:
                return chain
            chain.append(nxt[0])
            seen.add(nxt[0])

    for x in points:
        if x not in seen and len(adj[x]) <= 1:
            chain_idx.append((np.array([index[p] for p in walk(x)], dtype=np.int64), False))
    for x in points:
        if x not in seen:
            chain_idx.append((np.array([index[p] for p in walk(x)], dtype=np.int64), True))
    # One padded row per chain (a cycle tripled, so its middle third sees
    # both ways round), then each row reversed; padding reads +inf.  Point p
    # sits at ends[0, p] in the forward rows and ends[1, p] in the reversed.
    width = max(((3 if cyclic else 1) * len(ci) for ci, cyclic in chain_idx), default=0)
    windows = np.full((2, len(chain_idx), width), P, dtype=np.int64)
    ends = np.empty((2, P), dtype=np.int64)
    for r, (ci, cyclic) in enumerate(chain_idx):
        window = np.concatenate([ci, ci, ci]) if cyclic else ci
        windows[0, r, : len(window)] = window
        at = (len(ci) if cyclic else 0) + np.arange(len(ci))
        ends[:, ci] = r * width + at, (len(chain_idx) + r + 1) * width - 1 - at
    windows[1] = windows[0, :, ::-1]

    # Derived-support caps: a domain point adjacent to an off-domain point
    # forces the corresponding identity-level value under the band.
    cap = np.ones(P)
    for g in G.elements():
        if g == 0:
            continue
        dom = pa.domain(g)
        for z in dom:
            if any(n not in dom for n in adj[z]):
                cap[src[g, index[z]]] = min(cap[src[g, index[z]]], band)

    # Integer over integer division rounds correctly, so this is max_a |float(a(z))|.
    exact_residual = ResidualFormula(ga, witnesses)
    wmax = np.array([w / exact_residual.wscale for w in exact_residual.wmax])

    # The lower envelope's forward pass is a prefix minimum of vals - steps
    # on the rows, its backward pass one of vals + steps on the reversed rows.
    steps = band * np.arange(width)
    signed_steps = np.stack([-steps, steps[::-1]])[:, None, :]

    # Plans into the buffer [+inf, 0.0, -1.0, v]: incoming values per (level,
    # point) as (R, levels, G, P), the same laid out (G, P, R, levels) with
    # 0.0 off the domains, and the chain windows with their reverses.
    INF, ZERO, NEG = 0, 1, 2
    base = 3 + np.arange(C * levels).reshape(C, levels, 1) * P
    winner_plan = np.where(in_mask, base[:, :, None] + src_clip, NEG)
    tower_plan = np.where(in_mask, base[:, :, None] + src_clip, ZERO).transpose(2, 3, 0, 1)
    window_plan = np.where(windows == P, INF, base[..., None, None] + windows)
    envelope_take = np.arange(C * levels).reshape(C, levels, 1, 1) * windows.size + ends

    def load(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A new buffer holding the (R, levels, P) values v, its view of them,
        and the tower plan for R rows (contiguous, so its take is cheap)."""
        buf = np.empty(3 + v.size)
        buf[:3] = np.inf, 0.0, -1.0
        buf[3:] = v.ravel()
        return buf, buf[3:].reshape(v.shape), np.ascontiguousarray(tower_plan[:, :, : len(v)])

    def towers(buf: np.ndarray, plan: np.ndarray) -> np.ndarray:
        """f_g(z) as (R, G, levels, P), laid out in memory as a fancy-index
        gather lays it out: the layout fixes the order of the sum over (g, j)."""
        return buf.take(plan).transpose(2, 0, 3, 1)

    def lipschitz_project(buf: np.ndarray, v: np.ndarray) -> None:
        """Largest band-Lipschitz function below v, per chain (lower envelope)."""
        vals = buf.take(window_plan[: len(v)]) + signed_steps
        np.fmin.accumulate(vals, axis=-1, out=vals)
        vals -= signed_steps
        np.fmin.reduce(vals.take(envelope_take[: len(v)]), axis=2, out=v)

    def lipschitz_ok(v: np.ndarray) -> bool:
        return not np.any(np.abs(v[:, ex] - v[:, ey]) > band + 1e-12)

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
        """
        total_sweeps = sweeps + polish_sweeps
        final: list = [None] * len(v)
        ran = [total_sweeps] * len(v)
        active = np.arange(len(v))
        last = np.full(len(v), np.inf)
        polish_damp = None
        buf, v, plan = load(v)
        for it in range(total_sweeps):
            R = len(v)
            polishing = it >= sweeps
            damp = polish_damp
            if damp is None:
                damp = damping(buf, R, 0.0 if polishing else 0.35)
                if polishing:
                    polish_damp = damp
            v *= damp
            # Sum-to-one rows (simultaneous Kaczmarz step).
            delta = (1.0 - towers(buf, plan).sum(axis=(1, 2))) / row_size
            step = np.bincount(chunk_rows[: R * len(row_z)], weights=delta.take(delta_plan[: R * len(row_z)]), minlength=R * P)
            v += step.reshape(R, 1, P)
            # Hard constraints: box and caps (cap <= 1), Lipschitz band.
            np.maximum(v, 0.0, out=v)
            np.minimum(v, cap, out=v)
            lipschitz_project(buf, v)
            if it % 25 == 24 or it == total_sweeps - 1:
                fr = float_residual(buf, plan)
                done = fr >= last - 1e-14
                if polishing and it > sweeps + 100 and done.any():
                    for k, v_k in zip(active[done], v[done]):
                        final[k], ran[k] = v_k, it + 1
                    keep = ~done
                    active, fr, polish_damp = active[keep], fr[keep], polish_damp[keep]
                    if not len(active):
                        break
                    buf, v, plan = load(v[keep])
                last = fr
        for k, v_k in zip(active, v):
            final[k] = v_k
        return final, ran

    # Exact candidates are integers over denom = lcm(2^20, band denominator);
    # the cap is the band wherever the float cap binds.
    denom = math.lcm(1 << 20, exact_band.denominator)
    exact_step = exact_band.numerator * (denom // exact_band.denominator)
    int_dtype = _int_dtype(denom + abs(exact_step))
    exact_cap = np.full(P, denom, dtype=int_dtype)
    exact_cap[cap < 1.0] = exact_step
    model_band = ga.band
    check_dtype = _int_dtype(denom * max(abs(model_band.numerator), model_band.denominator))

    def floor_cap_repair(v: np.ndarray) -> np.ndarray:
        """Exact-rational candidate over denom: floor to a dyadic grid, then repair.

        Flooring keeps box and cap constraints; a shortest-path style
        relaxation then restores the Lipschitz band exactly (values only
        decrease, so box and caps survive).  The relaxation's fixed point is
        the largest band-respecting function below the floor, whatever the
        order of the edge updates.
        """
        scaled = (v * (1 << 20)).astype(np.int64).astype(int_dtype) * (denom >> 20)
        f = np.minimum(scaled, exact_cap[None, :])
        while True:
            before = f.copy()
            np.minimum.at(f, (slice(None), ey), f[:, ex] + exact_step)
            np.minimum.at(f, (slice(None), ex), f[:, ey] + exact_step)
            if np.array_equal(f, before):
                return f

    def to_towers(f: np.ndarray) -> NumericTowers:
        level_maps = [
            {points[i]: F1(int(f[j, i]), denom) for i in np.flatnonzero(f[j] > 0)}
            for j in range(levels)
        ]
        return derived_numeric_towers(ga, level_maps)

    best_res: Optional[Fraction] = None
    best_f: Optional[np.ndarray] = None
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
            if not lipschitz_ok(v_r):
                buf, v_r, _ = load(np.clip(v_r, 0.0, 1.0)[None])
                lipschitz_project(buf, v_r)
                v_r = v_r[0]
            f = floor_cap_repair(np.clip(np.minimum(v_r, cap[None, :]), 0.0, 1.0))
            # The candidate's towers f_g = f . theta_{g^-1} as a table over denom.
            T = np.where(in_mask[:, None, :], f[:, src_clip].swapaxes(0, 1), 0).astype(check_dtype, copy=False)
            if (T < 0).any() or (T > denom).any() or _over_band(T, denom, model_band, ex, ey).any():
                check_admissible(ga, to_towers(f))  # raises, naming the violation
                raise AssertionError("integer and Fraction admissibility checks disagree")
            res = exact_residual(T, denom)
            if best_res is None or res < best_res:
                best_res, best_f = res, f
            if trace is not None:
                trace.append((restart, float(res), float(best_res), sweeps_run))
            if best_res <= eps:
                break
        if best_res <= eps:
            break
    assert best_f is not None and best_res is not None
    best_towers = to_towers(best_f)
    assert exact_residual(*check_admissible(ga, best_towers)) == best_res
    return best_towers, best_res
