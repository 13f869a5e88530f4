"""Plain Fraction references for the exact integer routes in ``src/``.

Each function here is the straightforward exact-rational formulation that a
faster route replaced; tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from partact.gridtowers import GridAction, GridError, NumericTowers, ShapeMismatch

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


def reference_check_admissible(ga: GridAction, towers: NumericTowers) -> None:
    """Domains, [0, 1] bounds and the Lipschitz band, checked on Fractions."""
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
            for x, y in ga.edges:
                if abs(towers.value(g, j, x) - towers.value(g, j, y)) > band:
                    raise GridError(
                        f"tower ({g}, {j}) violates the Lipschitz band on edge ({x}, {y})"
                    )


def reference_residual(
    ga: GridAction, towers: NumericTowers, witnesses: Sequence[Mapping[int, Fraction]]
) -> Fraction:
    """The three witnessed tower conditions, term by term on Fractions."""
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
