"""Crossed products of finite-set partial actions as explicit *-algebras.

The crossed product has basis {delta_x u_g : x in X_g} with

    (delta_x u_g)(delta_y u_h) = delta_x u_{gh}   if theta_{g^-1}(x) = y
    (delta_x u_g)* = delta_{theta_{g^-1}(x)} u_{g^-1}

which is the specialization of the general coefficient relations to
indicator functions (tests re-derive it from the symbolic expansion).  Block
structure is computed two independent ways: numerically, from eigenspaces of
a random self-adjoint central element in the left regular representation,
and combinatorially from groupoid orbits and stabilizer group algebras; the
two must agree.  The imprimitivity bimodule between the fixed point algebra
and the crossed product is verified in exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .groups import FiniteGroup
from .pactions import PartialAction, translation_groupoid
from .rational import nullspace, rank

EIGENVALUE_SEPARATION = 1e-8
INTEGRALITY_TOLERANCE = 1e-6
BLOCK_RETRIES = 3
PSD_EIGENVALUE_FLOOR = -1e-10


class AlgebraError(ValueError):
    pass


class NotSemisimpleOrDegenerate(AlgebraError):
    def __init__(self, detail: str):
        super().__init__(f"block decomposition did not converge: {detail}")


class IntegralityFailure(AlgebraError):
    def __init__(self, sizes: Sequence[int]):
        self.sizes = tuple(sizes)
        super().__init__(
            f"eigenspace dimensions {list(sizes)} are not perfect squares"
        )


@dataclass(frozen=True)
class StructureConstantStarAlgebra:
    """A *-algebra presented by basis labels and monomial structure constants.

    ``product[i][j]`` is the basis index of b_i b_j or -1 when the product
    vanishes; ``star[i]`` is the basis index of b_i^*.  All coefficients here
    are 0 or 1, which covers every groupoid algebra this package builds; the
    associativity and involution laws are verified exhaustively on
    construction.
    """

    basis: tuple[object, ...]
    product: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def check_invariants(self) -> None:
        n = self.dimension
        if n == 0:
            return
        P = np.array(self.product, dtype=np.int64)
        S = np.array(self.star, dtype=np.int64)
        ks = np.arange(n, dtype=np.int64)
        AB = P[:, :, None]
        left = np.where(AB >= 0, P[np.clip(AB, 0, None), ks[None, None, :]], -1)
        BC = P[None, :, :]
        right = np.where(BC >= 0, P[np.arange(n)[:, None, None], np.clip(BC, 0, None)], -1)
        if not np.array_equal(left, right):
            i, j, k = np.argwhere(left != right)[0]
            raise AlgebraError(f"product is not associative at basis triple ({i}, {j}, {k})")
        if not np.array_equal(S[S], np.arange(n)):
            raise AlgebraError("star is not an involution")
        star_of_prod = np.where(P >= 0, S[np.clip(P, 0, None)], -1)
        prod_of_stars = P[np.ix_(S, S)].T
        if not np.array_equal(star_of_prod, prod_of_stars):
            raise AlgebraError("star is not an anti-homomorphism")

    def multiply(self, a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, va in a.items():
            row = self.product[i]
            for j, vb in b.items():
                k = row[j]
                if k >= 0:
                    out[k] = out.get(k, Fraction(0)) + va * vb
        return {k: v for k, v in out.items() if v != 0}

    def adjoint(self, a: Mapping[int, Fraction]) -> dict[int, Fraction]:
        return {self.star[i]: v for i, v in a.items() if v != 0}


def _make_algebra(basis, product, star) -> StructureConstantStarAlgebra:
    alg = StructureConstantStarAlgebra(tuple(basis), tuple(map(tuple, product)), tuple(star))
    alg.check_invariants()
    return alg


@dataclass(frozen=True)
class FDCStarAlgebra:
    """Matrix block sizes of a finite-dimensional C*-algebra, sorted ascending."""

    blocks: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(m * m for m in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def crossed_product(pa: PartialAction) -> StructureConstantStarAlgebra:
    """The crossed product of a validated partial action, dimension sum |X_g|."""
    G = pa.group
    basis = [(g, x) for g in G.elements() for x in sorted(pa.domain(g))]
    index = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    product = [[-1] * n for _ in range(n)]
    for i, (g, x) in enumerate(basis):
        xg = pa.theta(G.inv(g), x)
        for j, (h, y) in enumerate(basis):
            if xg == y:
                gh = G.mul(g, h)
                if x in pa.domain(gh):
                    product[i][j] = index[(gh, x)]
                else:  # unreachable by the derived domain identity
                    raise AlgebraError("product left the crossed-product basis")
    star = [index[(G.inv(g), pa.theta(G.inv(g), x))] for (g, x) in basis]
    return _make_algebra(basis, product, star)


def group_algebra(group: FiniteGroup) -> StructureConstantStarAlgebra:
    basis = list(group.elements())
    product = [[group.mul(a, b) for b in basis] for a in basis]
    star = [group.inv(a) for a in basis]
    return _make_algebra(basis, product, star)


@dataclass(frozen=True)
class BlockComputation:
    """Numeric block decomposition with its diagnostics."""

    algebra: FDCStarAlgebra
    integrality_residual: float
    attempts: int
    center_dimension: int


def _center_basis(alg: StructureConstantStarAlgebra) -> np.ndarray:
    """Orthonormal basis of the center as rows, via an SVD nullspace."""
    n = alg.dimension
    P = np.array(alg.product, dtype=np.int64)
    rows = []
    for i in range(n):
        # Equations (z b_i - b_i z) = 0, one per output coordinate k.
        block = np.zeros((n, n))
        for j in range(n):
            k1 = P[j][i]
            if k1 >= 0:
                block[k1, j] += 1.0
            k2 = P[i][j]
            if k2 >= 0:
                block[k2, j] -= 1.0
        rows.append(block)
    system = np.vstack(rows)
    _, svals, vh = np.linalg.svd(system)
    tol = max(system.shape) * np.finfo(float).eps * (svals[0] if len(svals) else 1.0)
    tol = max(tol, 1e-9)
    nullity = int(np.sum(svals < tol)) + (vh.shape[0] - len(svals))
    if nullity == 0:
        raise NotSemisimpleOrDegenerate("the center is trivial, cannot split blocks")
    return vh[-nullity:]


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
    Z = _center_basis(alg)
    center_dim = Z.shape[0]
    P = np.array(alg.product, dtype=np.int64)
    S = np.array(alg.star, dtype=np.int64)
    last_failure = "no attempt made"
    for attempt in range(retries):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        z = coeffs @ Z
        zstar = np.zeros(n, dtype=complex)
        np.add.at(zstar, S, np.conj(z))
        w = z + zstar
        L = np.zeros((n, n), dtype=complex)
        cols = np.arange(n)
        for j in range(n):
            if w[j] == 0:
                continue
            targets = P[j]
            valid = targets >= 0
            np.add.at(L, (targets[valid], cols[valid]), w[j])
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


def block_structure(alg: StructureConstantStarAlgebra, seed: int = 0) -> FDCStarAlgebra:
    return block_structure_full(alg, seed=seed).algebra


def crossed_product_blocks_combinatorial(pa: PartialAction) -> FDCStarAlgebra:
    """Blocks via orbits and stabilizers: each orbit O with isotropy S
    contributes |O| * d for every block d of the group algebra of S."""
    gr = translation_groupoid(pa)
    blocks: list[int] = []
    for orbit in gr.orbits:
        rep = min(orbit)
        stab = gr.stabilizers[rep].as_group()
        stab_blocks = block_structure(group_algebra(stab))
        blocks.extend(len(orbit) * d for d in stab_blocks.blocks)
    return FDCStarAlgebra(tuple(sorted(blocks)))


def crossed_product_blocks(pa: PartialAction, seed: int = 0) -> FDCStarAlgebra:
    """Both block routes, cross-asserted; disagreement aborts loudly."""
    numeric = block_structure(crossed_product(pa), seed=seed)
    combinatorial = crossed_product_blocks_combinatorial(pa)
    if numeric != combinatorial:
        raise AssertionError(
            f"block routes disagree: numeric {numeric.blocks} vs "
            f"combinatorial {combinatorial.blocks}"
        )
    return numeric


def fixed_point_algebra(pa: PartialAction) -> FDCStarAlgebra:
    """The fixed point algebra, computed two ways and asserted equal.

    Route one solves the defining linear constraints (each arrow forces equal
    values at its endpoints); route two takes functions constant on groupoid
    orbits.  Both give one one-dimensional block per orbit.
    """
    points = sorted(pa.carrier)
    idx = {p: i for i, p in enumerate(points)}
    rows = []
    for g, x, y in pa.arrows():
        if x != y:
            row = [Fraction(0)] * len(points)
            row[idx[x]] = Fraction(1)
            row[idx[y]] = Fraction(-1)
            rows.append(row)
    solution_dim = (
        len(points) if not rows else len(nullspace(rows, ncols=len(points)))
    )
    orbits = translation_groupoid(pa).orbits
    if solution_dim != len(orbits):
        raise AssertionError(
            "fixed-point constraint solution space does not match orbit indicators"
        )
    for orbit in orbits:
        indicator = [Fraction(int(p in orbit)) for p in points]
        for row in rows:
            if sum(a * b for a, b in zip(row, indicator)) != 0:
                raise AssertionError("orbit indicator violates a fixed-point constraint")
    return FDCStarAlgebra(tuple([1] * len(orbits)))


def morita_equivalent(a: FDCStarAlgebra, b: FDCStarAlgebra) -> bool:
    """Finite-dimensional criterion: the same number of matrix blocks."""
    return a.block_count == b.block_count


def isomorphic(a: FDCStarAlgebra, b: FDCStarAlgebra) -> bool:
    """Finite-dimensional criterion: identical sorted block multisets."""
    return tuple(sorted(a.blocks)) == tuple(sorted(b.blocks))


# ---------------------------------------------------------------------------
# Imprimitivity bimodule between A^alpha and the crossed product.
# ---------------------------------------------------------------------------

Func = dict[int, Fraction]
CPElement = dict[tuple[int, int], Fraction]


def _func_mul(a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> Func:
    return {p: a[p] * b[p] for p in set(a) & set(b) if a[p] * b[p] != 0}


def inner_product_crossed(pa: PartialAction, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> CPElement:
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


def inner_product_fixed(pa: PartialAction, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> Func:
    """<x, y> in the fixed point algebra: sum_g alpha_g(x y* 1_{g^-1})."""
    G = pa.group
    out: Func = {}
    for g in G.elements():
        ginv = G.inv(g)
        for z in pa.domain(g):
            w = pa.theta(ginv, z)
            v = x.get(w, Fraction(0)) * y.get(w, Fraction(0))
            if v != 0:
                out[z] = out.get(z, Fraction(0)) + v
    return {p: v for p, v in out.items() if v != 0}


def right_action(pa: PartialAction, x: Mapping[int, Fraction], xi: CPElement) -> Func:
    """x . xi = sum_g alpha_{g^-1}(x xi(g)), a function on the carrier."""
    G = pa.group
    out: Func = {}
    for (g, z), c in xi.items():
        v = x.get(z, Fraction(0)) * c
        if v != 0:
            w = pa.theta(G.inv(g), z)
            out[w] = out.get(w, Fraction(0)) + v
    return {p: v for p, v in out.items() if v != 0}


def is_fixed_element(pa: PartialAction, x: Mapping[int, Fraction]) -> bool:
    """Membership in A^alpha: constant along every groupoid arrow."""
    return all(
        x.get(px, Fraction(0)) == x.get(py, Fraction(0)) for _, px, py in pa.arrows()
    )


def _cp_vector(alg: StructureConstantStarAlgebra, elt: CPElement) -> list[Fraction]:
    index = {b: i for i, b in enumerate(alg.basis)}
    vec = [Fraction(0)] * alg.dimension
    for key, v in elt.items():
        vec[index[key]] = v
    return vec


def _cp_from_vector(alg: StructureConstantStarAlgebra, vec: Sequence[Fraction]) -> CPElement:
    return {alg.basis[i]: v for i, v in enumerate(vec) if v != 0}


def _left_mult_matrix(alg: StructureConstantStarAlgebra, elt: CPElement) -> list[list[Fraction]]:
    n = alg.dimension
    index = {b: i for i, b in enumerate(alg.basis)}
    M = [[Fraction(0)] * n for _ in range(n)]
    for key, v in elt.items():
        j = index[key]
        for i in range(n):
            k = alg.product[j][i]
            if k >= 0:
                M[k][i] += v
    return M


def _is_psd_rational(M: list[list[Fraction]]) -> bool:
    """Exact positive semidefiniteness of a symmetric rational matrix."""
    n = len(M)
    A = [row[:] for row in M]
    active = list(range(n))
    while active:
        p = max(active, key=lambda i: A[i][i])
        pivot = A[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(A[i][j] == 0 for i in active for j in active)
        active.remove(p)
        for i in active:
            f = A[i][p] / pivot
            if f == 0:
                continue
            for j in active:
                A[i][j] -= f * A[p][j]
    return True


@dataclass(frozen=True)
class BimoduleReport:
    """Which imprimitivity clauses hold, in exact arithmetic."""

    unit_sum_bounded_below: bool
    unit_sum_fixed: bool
    positivity: bool
    compatibility: bool
    left_fullness: bool
    right_fullness: bool
    span_dimension: int
    algebra_dimension: int

    @property
    def clauses(self) -> dict[str, bool]:
        return {
            "unit_sum": self.unit_sum_bounded_below and self.unit_sum_fixed,
            "positivity": self.positivity,
            "compatibility": self.compatibility,
            "left_fullness": self.left_fullness,
            "right_fullness": self.right_fullness,
        }

    @property
    def all_hold(self) -> bool:
        return all(self.clauses.values())


def imprimitivity_bimodule_verify(pa: PartialAction, seed: int = 0) -> BimoduleReport:
    """Exact verification of the fixed-point / crossed-product bimodule.

    Checks, over the function space on the carrier: the domain-count function
    is bounded below by one and fixed (it is central in the commutative
    coefficient algebra, so that is not checked); both inner products are
    positive definite on a spanning family; the associativity compatibility
    between the crossed-product inner product and the right module action on
    basis triples; left fullness through the reciprocal of the domain-count
    function; and right fullness as the rational span dimension of all
    basis inner products.  Failures are reported, not raised: the Morita
    statement assumes finite tower dimension, which non-free instances lack.
    """
    G = pa.group
    points = sorted(pa.carrier)
    alg = crossed_product(pa)
    n = alg.dimension

    x_alpha: Func = {p: Fraction(len(pa.domain_tuple(p))) for p in points}
    unit_bounded = all(v >= 1 for v in x_alpha.values())
    unit_fixed = is_fixed_element(pa, x_alpha)

    rng = random.Random(seed)
    family: list[Func] = [{p: Fraction(1)} for p in points]
    for _ in range(2):
        family.append(
            {p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in points}
        )
    positivity = True
    for x in family:
        fixed_val = inner_product_fixed(pa, x, x)
        if any(v < 0 for v in fixed_val.values()):
            positivity = False
        if x and not fixed_val:
            positivity = False
        cp_val = inner_product_crossed(pa, x, x)
        if x and not cp_val:
            positivity = False
        as_indices = _cp_as_dictkeys(alg, cp_val)
        if alg.adjoint(as_indices) != as_indices:
            positivity = False  # <x,x> must be self-adjoint
        M = _left_mult_matrix(alg, cp_val)
        if any(M[i][j] != M[j][i] for i in range(n) for j in range(i)):
            positivity = False
            continue
        if n:
            eig = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in M]))
            if eig.min() < PSD_EIGENVALUE_FLOOR:
                positivity = False
                continue
        if not _is_psd_rational(M):
            positivity = False

    compatibility = True
    basis_index = {b: i for i, b in enumerate(alg.basis)}
    for a in points:
        for b in points:
            x: Func = {a: Fraction(1)}
            y: Func = {b: Fraction(1)}
            inner_idx = _cp_as_dictkeys(alg, inner_product_crossed(pa, x, y))
            for xi_basis in alg.basis:
                xi: CPElement = {xi_basis: Fraction(1)}
                lhs = alg.multiply(inner_idx, {basis_index[xi_basis]: Fraction(1)})
                rhs = _cp_as_dictkeys(
                    alg, inner_product_crossed(pa, x, right_action(pa, y, xi))
                )
                if lhs != rhs:
                    compatibility = False

    # x_alpha >= 1 pointwise, so its reciprocal exists whenever X is nonempty.
    left_fullness = True
    reciprocal: Func = {p: Fraction(1) / x_alpha[p] for p in points}
    for orbit in translation_groupoid(pa).orbits:
        x = {p: Fraction(1) for p in orbit}
        if inner_product_fixed(pa, x, reciprocal) != x:
            left_fullness = False

    vectors = []
    for a in points:
        for b in points:
            elt = inner_product_crossed(pa, {a: Fraction(1)}, {b: Fraction(1)})
            if elt:
                vectors.append(_cp_vector(alg, elt))
    span_dim = rank(vectors) if vectors else 0
    right_fullness = span_dim == n

    return BimoduleReport(
        unit_sum_bounded_below=unit_bounded,
        unit_sum_fixed=unit_fixed,
        positivity=positivity,
        compatibility=compatibility,
        left_fullness=left_fullness,
        right_fullness=right_fullness,
        span_dimension=span_dim,
        algebra_dimension=n,
    )


def _cp_as_dictkeys(alg: StructureConstantStarAlgebra, elt: CPElement) -> dict[int, Fraction]:
    index = {b: i for i, b in enumerate(alg.basis)}
    return {index[k]: v for k, v in elt.items()}
