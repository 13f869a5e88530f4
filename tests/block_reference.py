"""The floating-point block route, kept as a test reference.

Block sizes from the eigenvalue clusters of a random self-adjoint central
element in the left regular representation, guarded by a separation
threshold, an integrality tolerance and a few seeded retries.  The package
computes blocks exactly (``fdcstar.block_structure``); this route checks it
from a different direction.  ``center_rows`` turns the package's class rows
into the dense 0/1 matrix this route and ``scan_reference`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from partact.fdcstar import (
    FDCStarAlgebra,
    IntegralityFailure,
    NotSemisimpleOrDegenerate,
    StructureConstantStarAlgebra,
    _center_basis,
)
from scan_reference import dense_product

EIGENVALUE_SEPARATION = 1e-8
INTEGRALITY_TOLERANCE = 1e-6
BLOCK_RETRIES = 3


@dataclass(frozen=True)
class BlockComputation:
    """Numeric block decomposition with its diagnostics."""

    algebra: FDCStarAlgebra
    integrality_residual: float
    attempts: int
    center_dimension: int


def center_rows(alg: StructureConstantStarAlgebra) -> np.ndarray:
    """The class sums as 0/1 rows over the basis, one row per class."""
    loops, cls, least, *_ = _center_basis(alg)
    Z = np.zeros((len(least), alg.dimension))
    Z[cls[loops], loops] = 1.0
    return Z


def block_structure_full(
    alg: StructureConstantStarAlgebra,
    seed: int = 0,
    separation: float = EIGENVALUE_SEPARATION,
    integrality: float = INTEGRALITY_TOLERANCE,
    retries: int = BLOCK_RETRIES,
) -> BlockComputation:
    """Block sizes from eigenprojections of a random self-adjoint central element."""
    n = alg.dimension
    if n == 0:
        return BlockComputation(FDCStarAlgebra(()), 0.0, 0, 0)
    Z = center_rows(alg)
    center_dim = Z.shape[0]
    P, S = dense_product(alg), alg.star
    js, cols = np.nonzero(P >= 0)  # b_j b_i = b_{P[j, i]}
    last_failure = "no attempt made"
    for attempt in range(retries):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        z = coeffs @ Z
        w = z.copy()
        w[S] += np.conj(z)
        L = np.zeros((n, n), dtype=complex)
        np.add.at(L, (P[js, cols], cols), w[js])
        eigvals = np.linalg.eigvals(L)
        if np.max(np.abs(eigvals.imag)) > 1e-7 * max(1.0, np.max(np.abs(eigvals))):
            last_failure = "central element has visibly complex spectrum"
            continue
        reals = np.sort(eigvals.real)
        scale = max(1.0, float(np.max(np.abs(reals))))
        clusters: list[list[float]] = [[float(reals[0])]]
        for v in reals[1:]:
            if float(v) - clusters[-1][-1] <= separation * scale:
                clusters[-1].append(float(v))
            else:
                clusters.append([float(v)])
        if len(clusters) != center_dim:
            last_failure = (
                f"eigenvalue clustering found {len(clusters)} blocks, center has "
                f"dimension {center_dim} (collision below separation threshold)"
            )
            continue
        sizes = [len(c) for c in clusters]
        residual = max(abs(math.sqrt(s) - round(math.sqrt(s))) for s in sizes)
        if residual > integrality:
            raise IntegralityFailure(sizes)
        ms = sorted(round(math.sqrt(s)) for s in sizes)
        if sum(m * m for m in ms) != n:
            raise IntegralityFailure(sizes)
        return BlockComputation(FDCStarAlgebra(tuple(ms)), residual, attempt + 1, center_dim)
    raise NotSemisimpleOrDegenerate(last_failure)
