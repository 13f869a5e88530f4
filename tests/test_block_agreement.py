"""The exact block route against the float reference and the combinatorial
route, and the guard that ``analyze`` takes no floating-point step."""

from dataclasses import replace

import numpy as np
import pytest
from block_reference import block_structure_full
from scan_reference import dense_product

from partact import cli, fdcstar
from partact.fdcstar import (
    IntegralityFailure,
    block_structure,
    crossed_product,
    crossed_product_blocks_combinatorial,
)
from partact.groups import build_group
from partact.harness import corpus
from partact.pactions import global_action

GROUPS = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))


def _on_itself(spec, action):
    """The regular (g.x = gx) or conjugation (g.x = g x g^-1) action of a group on itself."""
    G = build_group(spec)
    move = G.mul if action == "regular" else G.conjugate
    points = G.elements()
    return global_action(G, points, {g: {x: move(g, x) for x in points} for g in G.elements()})


def _trivial(spec, points):
    G = build_group(spec)
    return global_action(G, range(points), {g: {x: x for x in range(points)} for g in G.elements()})


def _agreement_cases():
    return (
        corpus(20260808, 100)
        + corpus(424242, 50)
        + [_on_itself(spec, action) for spec in GROUPS for action in ("regular", "conjugation")]
        + [_trivial(("symmetric", 4), 24)]
    )


def test_exact_float_and_combinatorial_routes_agree(monkeypatch):
    """157 cases; the split mod p runs on the orbits whose corner group is
    not abelian, the closed form on the rest."""
    splits = []
    orbit_blocks = fdcstar._orbit_blocks
    monkeypatch.setattr(fdcstar, "_orbit_blocks", lambda *args: splits.append(args) or orbit_blocks(*args))
    cases = _agreement_cases()
    assert len(cases) == 157
    for pa in cases:
        alg = crossed_product(pa)
        exact = block_structure(alg)
        assert exact == block_structure_full(alg).algebra == crossed_product_blocks_combinatorial(pa)
        assert exact.dimension == alg.dimension
    assert len(splits) > 10
    # Orbits of S4 on itself by conjugation: the classes, with centralizers
    # S4, C2 x C2, D4, C3 and C4.
    conjugation = block_structure(crossed_product(_on_itself(("symmetric", 4), "conjugation")))
    assert conjugation.blocks == (1,) * 2 + (2,) + (3,) * 6 + (6,) * 9 + (8,) * 3


def test_exact_route_reads_only_the_product_and_star_tables():
    for pa in corpus(20260808, 30) + [_on_itself(("dihedral", 12), "conjugation")]:
        alg = crossed_product(pa)
        opaque = replace(alg, basis=tuple(object() for _ in alg.basis))
        assert block_structure(opaque) == block_structure(alg)


def test_orbit_splits_are_shared_within_one_call_only(monkeypatch):
    """24 one-point orbits with corner S4 share one split per call."""
    calls = []
    orbit_blocks = fdcstar._orbit_blocks
    monkeypatch.setattr(fdcstar, "_orbit_blocks", lambda *args: calls.append(args) or orbit_blocks(*args))
    alg = crossed_product(_trivial(("symmetric", 4), 24))
    for _ in range(2):
        assert block_structure(alg).blocks == tuple(sorted((1, 1, 2, 3, 3) * 24))
    assert len(calls) == 2


def test_orbit_blocks_reject_sizes_that_are_not_whole():
    """The class algebra of S3, read as if its orbit had 12 arrows, not 6."""
    s3 = build_group(("symmetric", 3))
    pa = global_action(s3, [0], {g: {0: 0} for g in s3.elements()})
    alg = crossed_product(pa)
    loops, cls, *_ = fdcstar._center_basis(alg)
    row = cls[loops]
    P, S = dense_product(alg), alg.star
    k = row.max() + 1
    N = np.zeros((k, k, k), dtype=np.intp)
    first = loops[np.unique(row, return_index=True)[1]]
    for x, a in zip(loops, row):
        for c, z in enumerate(first):
            N[a, c, row[P[S[x], z]]] += 1
    assert sorted(fdcstar._orbit_blocks(N, int(row[0]), 6, 6)) == [1, 1, 2]
    with pytest.raises(IntegralityFailure):
        fdcstar._orbit_blocks(N, int(row[0]), 12, 6)


def test_analyze_takes_no_floating_point_eigen_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze called a floating-point eigensolver")

    for name in ("eigvals", "eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="eigensolver"):
        block_structure_full(crossed_product(corpus(20260808, 1)[0]))
    for pa in corpus(20260808, 20) + [_on_itself(("symmetric", 4), "conjugation")]:
        report = cli.analyze(pa)
        assert report["crossedProduct"]["blocks"] == report["crossedProduct"]["blocksCombinatorial"]
