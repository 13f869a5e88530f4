"""Tests for the exact rational linear algebra support module."""

from partact.rational import rank, rref


def test_rref_identity():
    reduced, pivots = rref([[2, 0], [0, 3]])
    assert reduced == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank_of_dependent_rows():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m) == 2
