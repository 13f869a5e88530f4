"""Plain Fraction references for the exact integer routes in ``src/``.

Each function here is the straightforward exact-rational formulation that a
faster route replaced; tests compare the two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from partact.gridtowers import GridAction, GridError, NumericTowers, ShapeMismatch, WitnessFamily, _int_dtype
from partact.pactions import translation_groupoid
from scan_reference import dense_product, groupoid_arrows

Row = list[Fraction]


def rref(matrix: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


# ---------------------------------------------------------------------------
# Grid towers as Fraction dicts, the form ``NumericTowers`` held before it
# became one integer table, with the conversions both ways.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DictTowers:
    """Tower values per (group element, level) at every grid point."""

    d: int
    values: Mapping[tuple[int, int], Mapping[int, Fraction]]

    def value(self, g: int, j: int, x: int) -> Fraction:
        return self.values.get((g, j), {}).get(x, Fraction(0))


Towers = Union[DictTowers, NumericTowers]


def derived_towers(ga: GridAction, levels: Sequence[Mapping[int, Fraction]]) -> DictTowers:
    """Towers induced by identity-level functions: f_g = f_1 . theta_{g^-1}."""
    pa = ga.pa
    values: dict[tuple[int, int], dict[int, Fraction]] = {}
    for g in pa.group.elements():
        ginv = pa.group.inv(g)
        for j, level in enumerate(levels):
            tower = {}
            for z in pa.domain(g):
                v = level.get(pa.theta(ginv, z), Fraction(0))
                if v:
                    tower[z] = v
            values[(g, j)] = tower
    return DictTowers(len(levels) - 1, values)


def as_dicts(ga: GridAction, towers: Towers) -> DictTowers:
    """The nonzero values of a table, per (g, j) for every g and j."""
    if isinstance(towers, DictTowers):
        return towers
    table, scale = towers.table, towers.scale
    points = ga.pa.points.tolist()
    return DictTowers(towers.d, {
        (g, j): {points[i]: Fraction(int(table[g, j, i]), scale) for i in np.flatnonzero(table[g, j])}
        for g in range(table.shape[0])
        for j in range(table.shape[1])
    })


def value(ga: GridAction, towers: NumericTowers, g: int, j: int, x: int) -> Fraction:
    """f_{g,j}(x) of a table, at the grid point labelled x."""
    return Fraction(int(towers.table[g, j, ga.pa.index[x]]), towers.scale)


def edge_labels(ga: GridAction) -> list[tuple[int, int]]:
    """The action's edges as pairs of point labels, in edge order."""
    return [(x, y) for x, y in ga.pa.points[ga.edges].T.tolist()]


def edge_indices(pa, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Edges given as pairs of point labels, as the (2, E) index array of a GridAction."""
    return np.array([[pa.index[x] for x, _ in edges], [pa.index[y] for _, y in edges]], dtype=np.int64).reshape(2, -1)


def as_table(ga: GridAction, towers: DictTowers) -> NumericTowers:
    """The table of dict towers over the lcm of their denominators.

    A table has no entry for an index or a point the action lacks, so those
    raise here, with the messages the dict-form check gave them.
    """
    pa = ga.pa
    index = pa.index
    scale = math.lcm(*(v.denominator for tower in towers.values.values() for v in tower.values()))
    table = np.zeros((pa.group.order, towers.d + 1, len(index)), dtype=object)
    for (g, j), tower in towers.values.items():
        if g not in pa.group.elements() or not (0 <= j <= towers.d):
            raise ShapeMismatch(f"tower index ({g}, {j}) does not fit the action")
        for x, v in tower.items():
            if x not in index:
                raise ShapeMismatch(f"tower ({g}, {j}) uses unknown grid point {x}")
            table[g, j, index[x]] = v.numerator * (scale // v.denominator)
    top = max((abs(v) for v in table.flat), default=0)
    return NumericTowers(table.astype(_int_dtype(top + scale)), scale)


# ---------------------------------------------------------------------------
# Witness families and coordinates as Fraction dicts, the form the grid
# models built before ``WitnessFamily`` and ``GridAction.positions``, with the
# conversions both ways.
# ---------------------------------------------------------------------------

Witnesses = Union[WitnessFamily, Sequence[Mapping[int, Fraction]]]


def coords(ga: GridAction) -> dict[int, Fraction]:
    """Each grid point's coordinate, its position times the spacing."""
    return {x: p * ga.spacing for x, p in zip(ga.pa.points.tolist(), ga.positions.tolist())}


def as_family(ga: GridAction, family: Witnesses) -> WitnessFamily:
    """The table of dict witnesses over the lcm of their denominators on the
    carrier; keys off the carrier are dropped, as the dict-form residual
    ignored them."""
    if isinstance(family, WitnessFamily):
        return family
    points = ga.pa.points.tolist()
    values = [[Fraction(a.get(x, 0)) for x in points] for a in family]
    scale = math.lcm(*(v.denominator for row in values for v in row))
    ints = [[v.numerator * (scale // v.denominator) for v in row] for row in values]
    top = max((abs(v) for row in ints for v in row), default=0)
    return WitnessFamily(np.array(ints, dtype=_int_dtype(top + scale)).reshape(len(ints), len(points)), scale)


def as_witness_dicts(ga: GridAction, family: Witnesses) -> list[dict[int, Fraction]]:
    """Every member's value at every grid point, zeros included."""
    if not isinstance(family, WitnessFamily):
        return [dict(a) for a in family]
    points = ga.pa.points.tolist()
    return [{x: Fraction(int(v), family.scale) for x, v in zip(points, row)} for row in family.table]


def reference_plateau(t: Fraction, zeros: Sequence, width: Fraction) -> Fraction:
    """min(1, distance from t to the nearest zero / width) on Fractions."""
    gap = min(abs(t - z) for z in zeros)
    return Fraction(1) if gap >= width else gap / width


def reference_witness_bound(ga: GridAction, family: Witnesses, delta) -> Fraction:
    """``witness_bound`` point by point on Fractions: max of |f a - a| over
    the family and |e a - a| over the members vanishing off X_1."""
    delta = Fraction(delta)
    points = ga.pa.points.tolist()
    at = coords(ga)
    outside = [x not in ga.pa.domain(1) for x in points]
    bound = Fraction(0)
    for a in as_witness_dicts(ga, family):
        values = [a.get(k, Fraction(0)) for k in points]
        in_domain_ideal = not any(v for v, out in zip(values, outside) if out)
        for k, av in zip(points, values):
            f, e = reference_plateau(at[k], (0,), delta), reference_plateau(at[k], (0, 1, 2), delta)
            bound = max(bound, abs(f * av - av))
            if in_domain_ideal:
                bound = max(bound, abs(e * av - av))
    return bound


def reference_check_admissible(ga: GridAction, towers: Towers) -> None:
    """Domains, [0, 1] bounds and the Lipschitz band, checked on Fractions."""
    towers = as_dicts(ga, towers)
    pa = ga.pa
    band = ga.band
    for (g, j), tower in towers.values.items():
        if g not in pa.group.elements() or not (0 <= j <= towers.d):
            raise ShapeMismatch(f"tower index ({g}, {j}) does not fit the action")
        for x, v in tower.items():
            if x not in pa.carrier:
                raise ShapeMismatch(f"tower ({g}, {j}) uses unknown grid point {x}")
            if x not in pa.domain(g) and v != 0:
                raise GridError(f"tower ({g}, {j}) has mass off its domain at {x}")
            if not (0 <= v <= 1):
                raise GridError(f"tower ({g}, {j}) leaves [0, 1] at {x}")
    for g in pa.group.elements():
        for j in range(towers.d + 1):
            for x, y in edge_labels(ga):
                if abs(towers.value(g, j, x) - towers.value(g, j, y)) > band:
                    raise GridError(
                        f"tower ({g}, {j}) violates the Lipschitz band on edge ({x}, {y})"
                    )


def reference_residual(ga: GridAction, towers: Towers, witnesses: Witnesses) -> Fraction:
    """The three witnessed tower conditions, term by term on Fractions."""
    towers = as_dicts(ga, towers)
    witnesses = as_witness_dicts(ga, witnesses)
    reference_check_admissible(ga, towers)
    pa = ga.pa
    G = pa.group
    worst = Fraction(0)
    for a in witnesses:
        for z in pa.carrier:
            az = abs(a.get(z, Fraction(0)))
            if az == 0:
                continue
            total = sum(
                towers.value(g, j, z) for g in G.elements() for j in range(towers.d + 1)
            )
            worst = max(worst, abs(total - 1) * az)
            for j in range(towers.d + 1):
                vals = sorted((towers.value(g, j, z) for g in G.elements()), reverse=True)
                if len(vals) >= 2:
                    worst = max(worst, vals[0] * vals[1] * az)
    for g in G.elements():
        ginv = G.inv(g)
        for xt in witnesses:
            for a in witnesses:
                for z in pa.domain(g):
                    y = pa.theta(ginv, z)
                    wit = abs(xt.get(y, Fraction(0))) * abs(a.get(z, Fraction(0)))
                    if wit == 0:
                        continue
                    for h in G.elements():
                        gh = G.mul(g, h)
                        for j in range(towers.d + 1):
                            gap = abs(towers.value(h, j, y) - towers.value(gh, j, z))
                            if gap:
                                worst = max(worst, gap * wit)
    return worst


# ---------------------------------------------------------------------------
# The grid models' witness functions as the piecewise formulas that one
# plateau function replaced, and the per-edge adjacency check of GridAction
# on the dict views.
# ---------------------------------------------------------------------------


def piecewise_f_delta(t: Fraction, delta: Fraction) -> Fraction:
    return Fraction(1) if t >= delta else t / delta


def piecewise_e_delta(t: Fraction, delta: Fraction) -> Fraction:
    """The plateau function on the split interval, vanishing at 0, 1, 2."""
    if t <= 0 or t == 1 or t >= 2:
        return Fraction(0)
    if t < delta:
        return t / delta
    if t <= 1 - delta:
        return Fraction(1)
    if t < 1:
        return (1 - t) / delta
    if t < 1 + delta:
        return (t - 1) / delta
    if t <= 2 - delta:
        return Fraction(1)
    return (2 - t) / delta


def reference_ramp(t: Fraction, eps: Fraction, flats, zeros) -> Fraction:
    for lo, hi in flats:
        if lo <= t <= hi:
            return Fraction(1)
    return max([Fraction(0)] + [1 - abs(t - z) / eps for z in zeros])


def reference_circle_witnesses(t: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """The values (a(t), b(t)) of the circle pair's two witnesses."""
    if not (0 < t < 2):
        return Fraction(0), Fraction(0)
    a = reference_ramp(t, eps, [(eps, 2 - eps)], [0, 2])
    b = Fraction(0) if t == 1 else reference_ramp(t, eps, [(eps, 1 - eps), (1 + eps, 2 - eps)], [0, 1, 2])
    return a, b


def reference_adjacency_failure(pa, edges: Sequence[tuple[int, int]]) -> Optional[str]:
    """GridAction's message for the first edge (x, y) inside X_{g^-1} whose
    image under theta_g is two points that are not an edge, g first; None if
    every theta_g preserves adjacency."""
    listed = set(edges)
    for g in pa.group.elements():
        dom = pa.domain(pa.group.inv(g))
        for x, y in edges:
            if x in dom and y in dom:
                fx, fy = pa.theta(g, x), pa.theta(g, y)
                if fx != fy and (fx, fy) not in listed and (fy, fx) not in listed:
                    return f"theta_{g} does not preserve adjacency at edge ({x}, {y})"
    return None


# ---------------------------------------------------------------------------
# The two inner products, the per-orbit left-fullness check that the identity
# <1_O, 1/x_alpha> = 1_O replaced, and the sampled positivity test that the
# identity e* = e, e e = x_alpha e replaced in imprimitivity_bimodule_verify.
# ---------------------------------------------------------------------------


def inner_product_fixed(pa, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """<x, y> in the fixed point algebra: sum_g alpha_g(x y* 1_{g^-1})."""
    G = pa.group
    out: dict[int, Fraction] = {}
    for g in G.elements():
        ginv = G.inv(g)
        for z in pa.domain(g):
            w = pa.theta(ginv, z)
            v = x.get(w, Fraction(0)) * y.get(w, Fraction(0))
            if v != 0:
                out[z] = out.get(z, Fraction(0)) + v
    return {p: v for p, v in out.items() if v != 0}


def is_fixed_element(pa, x: Mapping[int, Fraction]) -> bool:
    """Membership in A^alpha: constant along every groupoid arrow."""
    return all(
        x.get(px, Fraction(0)) == x.get(py, Fraction(0)) for _, px, py in groupoid_arrows(pa)
    )


def reference_left_fullness(pa) -> bool:
    """<1_O, 1/x_alpha> = 1_O for every orbit O, evaluated on Fractions."""
    reciprocal = {p: Fraction(1, len(pa.domain_tuple(p))) for p in pa.carrier}
    for orbit in translation_groupoid(pa).orbits:
        x = {p: Fraction(1) for p in orbit}
        if inner_product_fixed(pa, x, reciprocal) != x:
            return False
    return True

CPElement = dict[tuple[int, int], Fraction]


def inner_product_crossed(pa, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> CPElement:
    """<x, y> in the crossed product: sum_g x* alpha_g(y 1_{g^-1}) u_g."""
    G = pa.group
    out: CPElement = {}
    for g in G.elements():
        ginv = G.inv(g)
        for z in pa.domain(g):
            v = x.get(z, Fraction(0)) * y.get(pa.theta(ginv, z), Fraction(0))
            if v != 0:
                out[(g, z)] = v
    return out


def right_action(pa, x: Mapping[int, Fraction], xi: CPElement) -> dict[int, Fraction]:
    """x . xi = sum_g alpha_{g^-1}(x xi(g)), a function on the carrier."""
    G = pa.group
    out: dict[int, Fraction] = {}
    for (g, z), c in xi.items():
        v = x.get(z, Fraction(0)) * c
        if v != 0:
            w = pa.theta(G.inv(g), z)
            out[w] = out.get(w, Fraction(0)) + v
    return {p: v for p, v in out.items() if v != 0}


def is_psd_rational(M: Sequence[Sequence[int]]) -> bool:
    """Exact positive semidefiniteness of a symmetric integer matrix.

    Pivoted elimination, fraction-free: row i holds r_i > 0 times its Schur
    complement row, which keeps every sign and zero test exact, and each
    updated row is divided by the gcd of its entries.
    """
    A = [list(row) for row in M]
    active = list(range(len(A)))
    while active:
        p = max(active, key=lambda i: A[i][i])
        pivot = A[p][p]
        if pivot < 0:
            return False
        if pivot == 0:  # the eliminated columns of active rows are zero already
            return not any(any(A[i]) for i in active)
        active.remove(p)
        row_p = A[p]
        for i in active:
            row = A[i]
            f = row[p]
            if f == 0:
                continue
            for j in active:
                row[j] = row[j] * pivot - f * row_p[j]
            row[p] = 0
            g = math.gcd(*(row[j] for j in active))
            if g > 1:
                for j in active:
                    row[j] //= g
    return True


def sampled_positivity(pa, alg) -> bool:
    """Both inner products positive on |X| + 2 sampled vectors x.

    The family is the point indicators and two random positive functions
    drawn at seed 0.  For each x, <x, x> in the fixed point algebra is
    nonnegative and nonzero, and <x, x> in the crossed product ``alg`` is
    nonzero, self-adjoint, and its left multiplication matrix, scaled to
    integers, is PSD.
    """
    points = sorted(pa.carrier)
    n, P = alg.dimension, dense_product(alg)
    rng = random.Random(0)
    family = [{p: Fraction(1)} for p in points]
    for _ in range(2):
        family.append({p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in points})
    index = {b: i for i, b in enumerate(alg.basis)}
    positivity = True
    for x in family:
        fixed_val = inner_product_fixed(pa, x, x)
        if any(v < 0 for v in fixed_val.values()) or (x and not fixed_val):
            positivity = False
        cp_val = inner_product_crossed(pa, x, x)
        if x and not cp_val:
            positivity = False
        as_indices = {index[k]: v for k, v in cp_val.items()}
        adjoint = {alg.star[i]: v for i, v in as_indices.items()}
        if adjoint != as_indices:
            positivity = False  # <x,x> must be self-adjoint
        scale = math.lcm(*(v.denominator for v in as_indices.values()))
        M = [[0] * n for _ in range(n)]
        for j, v in as_indices.items():
            w = int(v * scale)
            for i, k in enumerate(P[j]):
                if k >= 0:
                    M[k][i] += w
        if M != [list(col) for col in zip(*M)] or not is_psd_rational(M):
            positivity = False
    return positivity
