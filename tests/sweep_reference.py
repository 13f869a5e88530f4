"""The elementwise tower-search sweep that ``gridtowers.search_towers`` replaced.

``reference_search_towers`` is ``search_towers`` as it was before the sweep
ran on one padded buffer with flat index plans: every gather is a fancy index
plus ``np.where``, the winner of each (level, point) is an ``np.argmax`` over
the group axis, and the Lipschitz projection pads a copy of the values.  Its
float operations are the same, in the same order, so tests require equal
towers, best residual and trace from the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np
from fraction_reference import DictTowers, Witnesses, as_family, as_table, as_witness_dicts, derived_towers, edge_labels

from partact.gridtowers import (
    RESTART_CHUNK,
    GridAction,
    ResidualFormula,
    _int_dtype,
    _over_band,
    check_admissible,
    residual,
)

F1 = Fraction


def _layout(ga: GridAction) -> tuple[list[int], dict[int, int], np.ndarray, np.ndarray]:
    """Sorted grid points, their indices, src[g, z] (-1 off the domain) and
    the edges as a (2, |edges|) array of indices, rebuilt from the labels."""
    pa = ga.pa
    points = sorted(pa.carrier)
    index = {x: i for i, x in enumerate(points)}
    src = np.full((pa.group.order, len(points)), -1, dtype=np.int64)
    for g in pa.group.elements():
        ginv = pa.group.inv(g)
        for z in pa.domain(g):
            src[g, index[z]] = index[pa.theta(ginv, z)]
    labels = edge_labels(ga)
    edges = np.array([[index[x] for x, _ in labels], [index[y] for _, y in labels]], dtype=np.int64).reshape(2, -1)
    return points, index, src, edges


def _adjacency(ga: GridAction) -> dict[int, set[int]]:
    """The neighbours of each point label, as a set."""
    adj: dict[int, set[int]] = {x: set() for x in sorted(ga.pa.carrier)}
    for x, y in edge_labels(ga):
        adj[x].add(y)
        adj[y].add(x)
    return adj


def reference_chains(ga: GridAction) -> list[tuple[np.ndarray, bool]]:
    """Chains and cycles, maximal runs of adjacent points, as index arrays
    with whether each is a cycle.  They are walked on labels through a dict
    of sets, each step to the first unseen neighbour in set order, so a
    cycle runs whichever way set order takes it."""
    points, index, _, _ = _layout(ga)
    adj = _adjacency(ga)
    chains: list[tuple[np.ndarray, bool]] = []
    seen: set[int] = set()

    def walk(start: int) -> np.ndarray:
        chain = [start]
        seen.add(start)
        while True:
            nxt = [y for y in adj[chain[-1]] if y not in seen]
            if not nxt:
                return np.array([index[p] for p in chain], dtype=np.int64)
            chain.append(nxt[0])
            seen.add(nxt[0])

    for x in points:
        if x not in seen and len(adj[x]) <= 1:
            chains.append((walk(x), False))
    for x in points:
        if x not in seen:
            chains.append((walk(x), True))
    return chains


def reference_search_towers(
    ga: GridAction,
    witnesses: Witnesses,
    eps,
    d: int,
    lipschitz=None,
    seed: int = 0,
    restarts: int = 100,
    sweeps: int = 160,
    polish_sweeps: int = 1400,
    trace: Optional[list] = None,
) -> tuple[DictTowers, Fraction]:
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
    points, index, src, (ex, ey) = _layout(ga)
    P = len(points)
    levels = d + 1
    in_mask = src >= 0
    src_clip = np.clip(src, 0, None)
    row_size = np.maximum(in_mask.sum(axis=0) * levels, 1)
    # The sum-to-one update is the same at every level: point src[g, z]
    # collects the row step at z.  The sum runs g-major, in the order of
    # np.nonzero, and that order fixes the float result.  Restart r of a
    # chunk adds into bins offset by r P, which keeps each bin's order.
    row_g, row_z = np.nonzero(in_mask)
    row_src = src[row_g, row_z]
    chunk_rows = (np.arange(RESTART_CHUNK)[:, None] * P + row_src).ravel()
    # The same arrows z -> src[g, z], offset by (restart, level) row.
    arrow_dest = np.arange(RESTART_CHUNK * levels)[:, None] * P + row_src

    adj = _adjacency(ga)
    chain_idx = reference_chains(ga)
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
    for w in as_witness_dicts(ga, witnesses):
        for x, v in w.items():
            if x in index:
                wmax[index[x]] = max(wmax[index[x]], abs(float(v)))

    steps = band * np.arange(width)

    def _envelope(vals: np.ndarray) -> np.ndarray:
        fwd = np.minimum.accumulate(vals - steps, axis=-1) + steps
        bwd = np.minimum.accumulate((vals + steps)[..., ::-1], axis=-1)[..., ::-1] - steps
        return np.minimum(fwd, bwd)

    def lipschitz_project(v: np.ndarray) -> np.ndarray:
        """Largest band-Lipschitz function below v, per chain (lower envelope)."""
        padded = np.concatenate([v, np.full(v.shape[:-1] + (1,), np.inf)], axis=-1)
        v[..., chain_dest] = _envelope(padded[..., window_idx]).reshape(v.shape[:-1] + (-1,))[..., chain_take]
        return v

    def lipschitz_ok(v: np.ndarray) -> bool:
        return not np.any(np.abs(v[:, ex] - v[:, ey]) > band + 1e-12)

    def gather(v: np.ndarray) -> np.ndarray:
        # towers[..., g, j, z] = v[..., j, src[g, z]] masked to domains
        t = np.swapaxes(v[..., src_clip], -3, -2)  # (..., G, levels, P)
        return np.where(in_mask[:, None, :], t, 0)

    def float_residual(v: np.ndarray) -> np.ndarray:
        """Per restart: the partition and orthogonality terms in floats."""
        t = gather(v)
        res = (np.abs(t.sum(axis=(1, 2)) - 1.0) * wmax).max(axis=-1, initial=0.0)
        if G.order >= 2:
            flat = np.sort(t, axis=1)
            prod = flat[:, -1] * flat[:, -2]
            res = np.maximum(res, (prod * wmax).max(axis=(1, 2), initial=0.0))
        return res

    def damping(v: np.ndarray, shrink: float) -> np.ndarray:
        """shrink at every source of a non-winning incoming value, 1 elsewhere."""
        winner = np.argmax(np.where(in_mask, v[..., src_clip], -1.0), axis=-2)  # (R, levels, P)
        rows = len(v) * levels
        lost = (winner[..., row_z] != row_g).reshape(rows, -1)
        damp = np.ones(v.shape)
        damp.reshape(-1)[arrow_dest[:rows][lost]] = shrink
        return damp

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
        for it in range(total_sweeps):
            polishing = it >= sweeps
            damp = polish_damp
            if damp is None:
                damp = damping(v, 0.0 if polishing else 0.35)
                if polishing:
                    polish_damp = damp
            v *= damp
            # Sum-to-one rows (simultaneous Kaczmarz step).
            R = len(v)
            delta = (1.0 - gather(v).sum(axis=(1, 2))) / row_size
            step = np.bincount(chunk_rows[: R * len(row_src)], weights=delta[:, row_z].ravel(), minlength=R * P)
            v += step.reshape(R, 1, P)
            # Hard constraints: box and caps (cap <= 1), Lipschitz band.
            v = lipschitz_project(np.clip(v, 0.0, cap))
            if it % 25 == 24 or it == total_sweeps - 1:
                fr = float_residual(v)
                done = fr >= last - 1e-14
                if polishing and it > sweeps + 100 and done.any():
                    for k, v_k in zip(active[done], v[done]):
                        final[k], ran[k] = v_k, it + 1
                    keep = ~done
                    active, v, fr, polish_damp = active[keep], v[keep], fr[keep], polish_damp[keep]
                    if not len(active):
                        break
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
    witnesses = as_family(ga, witnesses)
    exact_residual = ResidualFormula(ga, witnesses)

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

    def to_towers(f: np.ndarray) -> DictTowers:
        level_maps = [
            {points[i]: F1(int(f[j, i]), denom) for i in np.flatnonzero(f[j] > 0)}
            for j in range(levels)
        ]
        return derived_towers(ga, level_maps)

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
                v_r = lipschitz_project(np.clip(v_r, 0.0, 1.0))
            f = floor_cap_repair(np.clip(np.minimum(v_r, cap[None, :]), 0.0, 1.0))
            # The candidate's towers f_g = f . theta_{g^-1} as a table over denom.
            T = gather(f).astype(check_dtype, copy=False)
            if (T < 0).any() or (T > denom).any() or _over_band(T, denom, model_band, ex, ey).any():
                check_admissible(ga, as_table(ga, to_towers(f)))  # raises, naming the violation
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
    assert residual(ga, as_table(ga, best_towers), witnesses) == best_res
    return best_towers, best_res
