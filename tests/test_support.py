"""Tests for the exact rational linear algebra support module."""

from fractions import Fraction

from partact.rational import nullspace, rank, rref

F = Fraction


def test_rref_identity():
    reduced, pivots = rref([[2, 0], [0, 3]])
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(F(a) * x for a, x in zip(row, v)) == 0


def test_nullspace_of_empty_system():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3
