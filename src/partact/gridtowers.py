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
nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _layout(ga: GridAction) -> tuple[list[int], dict[int, int], np.ndarray, np.ndarray]:
    """Sorted grid points, their positions, src[g, z], the position of
    theta_{g^-1}(z) for z in X_g (-1 off the domain), and the edges as a
    (2, |edges|) array of positions."""
    pa = ga.pa
    points = sorted(pa.carrier)
    index = {x: i for i, x in enumerate(points)}
    src = np.full((pa.group.order, len(points)), -1, dtype=np.int64)
    for g in pa.group.elements():
        ginv = pa.group.inv(g)
        for z in pa.domain(g):
            src[g, index[z]] = index[pa.theta(ginv, z)]
    edges = np.array([[index[x] for x, _ in ga.edges], [index[y] for _, y in ga.edges]], dtype=np.int64)
    return points, index, src, edges


def _int_dtype(bound: int):
    """int64 while every intermediate stays below the bound < 2^62, else Python ints."""
    return np.int64 if bound < 1 << 62 else object


def check_admissible(ga: GridAction, towers: NumericTowers) -> tuple[np.ndarray, int]:
    """Domains, [0, 1] bounds, and the Lipschitz band; raises on violation.

    Returns the values as integers over their common denominator D_t: the
    array T[g, j, i] = D_t * f_{g,j}(x_i) over the sorted grid points x_i,
    and D_t.
    """
    pa = ga.pa
    _, index, _, (ex, ey) = _layout(ga)
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
    over = np.abs(T[:, :, ex] - T[:, :, ey]) * band.denominator > band.numerator * scale
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
    T, scale = check_admissible(ga, towers)
    G = ga.pa.group
    _, index, src, _ = _layout(ga)
    wscale = math.lcm(*{v.denominator for a in witnesses for x, v in a.items() if x in index})
    wmax = [0] * len(index)
    for a in witnesses:
        for x, v in a.items():
            i = index.get(x)
            if i is not None:
                wmax[i] = max(wmax[i], abs(v.numerator) * (wscale // v.denominator))
    top = max(max(wmax, default=0), 1)
    dtype = _int_dtype(scale * top * max(scale, top, T.shape[0] * T.shape[1] + 1))
    T, W = T.astype(dtype), np.array(wmax, dtype=dtype)
    partition = (np.abs(T.sum(axis=(0, 1)) - scale) * W).max(initial=0)
    orthogonality = 0
    if G.order >= 2:
        pair = np.sort(T, axis=0)[-2:]
        orthogonality = (pair[0] * pair[1] * W).max(initial=0)
    gs, zs = np.nonzero(src >= 0)
    ys = src[gs, zs]
    Tl = T.transpose(1, 0, 2)  # (level, h, point)
    mul = np.array(G.table, dtype=np.int64)
    gap = np.abs(Tl[:, :, ys] - Tl[:, mul[gs].T, zs])
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
    sweeps run) to ``trace``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    slope = F1(lipschitz) if lipschitz is not None else ga.lipschitz
    if slope < 0:
        raise ValueError(f"lipschitz must be >= 0, got {slope}")
    eps = F1(eps)
    exact_band = slope * ga.spacing
    band = float(exact_band)
    pa = ga.pa
    G = pa.group
    points, index, src, (ex, ey) = _layout(ga)
    P = len(points)
    levels = d + 1
    in_mask = src >= 0
    src_clip = np.clip(src, 0, None)
    counts = in_mask.sum(axis=0) * levels  # row size per point
    # The sum-to-one update is the same at every level: point src[g, z]
    # collects the row step at z.  The sum runs g-major, in the order of
    # np.nonzero, and that order fixes the float result.
    row_src, row_z = src[in_mask], np.nonzero(in_mask)[1]

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
    # both ways round); padding reads column P, which holds +inf.
    width = max(((3 if cyclic else 1) * len(ci) for ci, cyclic in chain_idx), default=0)
    window_idx = np.full((len(chain_idx), width), P, dtype=np.int64)
    chain_dest: list[int] = []
    chain_take: list[int] = []
    for r, (ci, cyclic) in enumerate(chain_idx):
        window = np.concatenate([ci, ci, ci]) if cyclic else ci
        window_idx[r, : len(window)] = window
        start = r * width + (len(ci) if cyclic else 0)
        chain_dest.extend(ci)
        chain_take.extend(range(start, start + len(ci)))
    chain_dest, chain_take = np.array(chain_dest, dtype=np.int64), np.array(chain_take, dtype=np.int64)

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

    wmax = np.zeros(P)
    for w in witnesses:
        for x, v in w.items():
            wmax[index[x]] = max(wmax[index[x]], abs(float(v)))

    steps = band * np.arange(width)

    def _envelope(vals: np.ndarray) -> np.ndarray:
        fwd = np.minimum.accumulate(vals - steps, axis=-1) + steps
        bwd = np.minimum.accumulate((vals + steps)[..., ::-1], axis=-1)[..., ::-1] - steps
        return np.minimum(fwd, bwd)

    def lipschitz_project(v: np.ndarray) -> np.ndarray:
        """Largest band-Lipschitz function below v, per chain (lower envelope)."""
        padded = np.concatenate([v, np.full((levels, 1), np.inf)], axis=1)
        v[:, chain_dest] = _envelope(padded[:, window_idx]).reshape(levels, -1)[:, chain_take]
        return v

    def lipschitz_ok(v: np.ndarray) -> bool:
        return not np.any(np.abs(v[:, ex] - v[:, ey]) > band + 1e-12)

    def gather(v: np.ndarray) -> np.ndarray:
        # towers[g, j, z] = v[j, src[g, z]] masked to domains
        t = np.swapaxes(v[:, src_clip], 0, 1)  # (G, levels, P)
        return np.where(in_mask[:, None, :], t, 0.0)

    def float_residual(v: np.ndarray) -> float:
        t = gather(v)
        total = t.sum(axis=(0, 1))
        r3 = float(np.max(np.abs(total - 1.0) * wmax)) if P else 0.0
        flat = np.sort(t, axis=0)
        if flat.shape[0] >= 2:
            prod = flat[-1] * flat[-2]
            r2 = float(np.max(prod * wmax[None, :]))
        else:
            r2 = 0.0
        return max(r2, r3)

    def damping(winner: np.ndarray, shrink: float) -> np.ndarray:
        """shrink at every source of a non-winning incoming value, 1 elsewhere."""
        losers = (np.arange(G.order)[None, :, None] != winner[:, None, :]) & in_mask[None]
        js, gs, zs = np.nonzero(losers)
        damp = np.ones((levels, P))
        damp[js, src_clip[gs, zs]] = shrink
        return damp

    # Exact candidates are integers over denom = lcm(2^20, band denominator);
    # the cap is the band wherever the float cap binds.
    denom = math.lcm(1 << 20, exact_band.denominator)
    exact_step = exact_band.numerator * (denom // exact_band.denominator)
    int_dtype = _int_dtype(denom + abs(exact_step))
    exact_cap = np.full(P, denom, dtype=int_dtype)
    exact_cap[cap < 1.0] = exact_step

    def to_towers(v: np.ndarray) -> NumericTowers:
        """Exact-rational candidate: floor to a dyadic grid, then repair.

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
                break
        level_maps = [
            {points[i]: F1(int(f[j, i]), denom) for i in np.flatnonzero(f[j] > 0)}
            for j in range(levels)
        ]
        return derived_numeric_towers(ga, level_maps)

    best_res: Optional[Fraction] = None
    best_towers: Optional[NumericTowers] = None
    rng_master = np.random.default_rng(seed)
    for restart in range(restarts):
        rng = np.random.default_rng(rng_master.integers(0, 2**63 - 1))
        anchor_step = max(1, P // 16)
        v = np.empty((levels, P))
        for j in range(levels):
            anchors = rng.random(P // anchor_step + 2)
            xs = np.linspace(0, 1, P)
            v[j] = np.interp(xs, np.linspace(0, 1, len(anchors)), anchors)
        v = np.clip(v, 0.0, 1.0)

        polish_damp = None
        total_sweeps = sweeps + polish_sweeps
        last = np.inf
        it = -1
        for it in range(total_sweeps):
            polishing = it >= sweeps
            # Orthogonalization: per (level, point) damp all but the largest
            # incoming value; the polish phase freezes the winners it starts
            # with and zeroes the rest.
            damp = polish_damp
            if damp is None:
                t = np.where(in_mask[None, :, :], v[:, src_clip], -1.0)  # (levels, G, P)
                damp = damping(np.argmax(t, axis=1), 0.0 if polishing else 0.35)
                if polishing:
                    polish_damp = damp
            v *= damp
            # Sum-to-one rows (simultaneous Kaczmarz step).
            total = gather(v).sum(axis=(0, 1))
            delta = (1.0 - total) / np.maximum(counts, 1)
            v += np.bincount(row_src, weights=delta[row_z], minlength=P)
            # Hard constraints: box, caps, Lipschitz band.
            v = np.clip(v, 0.0, 1.0)
            v = np.minimum(v, cap[None, :])
            v = lipschitz_project(v)
            if it % 25 == 24 or it == total_sweeps - 1:
                fr = float_residual(v)
                if polishing and fr >= last - 1e-14 and it > sweeps + 100:
                    break
                last = fr
        if not lipschitz_ok(v):
            v = lipschitz_project(np.clip(v, 0.0, 1.0))
        candidate = to_towers(np.clip(np.minimum(v, cap[None, :]), 0.0, 1.0))
        res = residual(ga, candidate, witnesses)
        if best_res is None or res < best_res:
            best_res, best_towers = res, candidate
        if trace is not None:
            trace.append((restart, float(res), float(best_res), it + 1))
        if best_res <= eps:
            break
    assert best_towers is not None
    return best_towers, best_res
