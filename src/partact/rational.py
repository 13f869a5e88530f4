"""Exact rational linear algebra: elimination, rank and nullspaces.

Everything here works over ``fractions.Fraction`` so downstream certificates
are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = list[Fraction]


def _as_fraction_matrix(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(matrix: Sequence[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = _as_fraction_matrix(matrix)
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


def nullspace(matrix: Sequence[Sequence], ncols: Optional[int] = None) -> list[Row]:
    """Basis of the rational nullspace of a matrix (rows = equations)."""
    rows = _as_fraction_matrix(matrix)
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns from an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(vec)
    return basis
