"""Exact rational linear algebra: elimination and rank.

Everything here works over ``fractions.Fraction`` so downstream certificates
are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
