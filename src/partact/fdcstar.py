"""Crossed products of finite-set partial actions as explicit *-algebras.

The crossed product has basis {delta_x u_g : x in X_g} with

    (delta_x u_g)(delta_y u_h) = delta_x u_{gh}   if theta_{g^-1}(x) = y
    (delta_x u_g)* = delta_{theta_{g^-1}(x)} u_{g^-1}

which is the specialization of the general coefficient relations to
indicator functions (tests re-derive it from the symbolic expansion).  Each
basis element is an arrow theta_{g^-1}(x) -> x of the translation groupoid,
so the product and star tables are read off the integer theta table, and
checked by O(n^2) identities on the arrows' labels, sources and targets.
Block structure is computed two independent ways: numerically, from the
eigenvalues of a random self-adjoint central element in the left regular
representation, the center being spanned by groupoid class sums; and
combinatorially from groupoid orbits and the exact character degrees of the
stabilizers, found mod p by the Burnside-Dixon method.  The two must agree.
The imprimitivity bimodule between the fixed point algebra and the crossed
product is verified exactly on integer index tables of arrow sources,
targets and products: positivity for every vector at once from the
identities e* = e and e e = x_alpha e for the sum e of all basis arrows, and
compatibility and right fullness cell by cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup
from .pactions import IndexTables, PartialAction, index_tables, row_blocks, translation_groupoid

EIGENVALUE_SEPARATION = 1e-8
INTEGRALITY_TOLERANCE = 1e-6
BLOCK_RETRIES = 3


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


@dataclass(frozen=True, eq=False)
class StructureConstantStarAlgebra:
    """A *-algebra presented by basis labels and monomial structure constants.

    ``product[i, j]`` is the basis index of b_i b_j or -1 when the product
    vanishes; ``star[i]`` is the basis index of b_i^*.  Both are read-only
    ``intp`` arrays: tuples are converted on construction, and arrays are
    frozen in place, not copied.  All coefficients are 0 or 1, which covers
    every groupoid algebra this package builds.
    """

    basis: tuple[object, ...]
    product: np.ndarray
    star: np.ndarray

    def __post_init__(self):
        n = len(self.basis)
        for name, shape in (("product", (n, n)), ("star", (n,))):
            table = np.asarray(getattr(self, name), dtype=np.intp).reshape(shape)
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def dimension(self) -> int:
        return len(self.basis)


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


def _arrow_ends(alg: StructureConstantStarAlgebra, t: IndexTables) -> tuple[np.ndarray, ...]:
    """Label g, target x and source theta_{g^-1}(x) of each basis element
    (g, x), the points as indices into the sorted carrier."""
    n = alg.dimension
    lab = np.fromiter((g for g, _ in alg.basis), np.intp, n)
    tgt = np.fromiter((t.index.get(x, -1) for _, x in alg.basis), np.intp, n)
    bad = (lab < 0) | (lab >= len(t.inv)) | (tgt < 0)
    if not bad.any():
        src = t.theta[t.inv[lab], tgt]
        bad = src < 0
    if bad.any():
        raise AlgebraError(f"basis label {alg.basis[np.argmax(bad)]} is not an arrow")
    return lab, tgt, src


def check_arrow_identities(alg: StructureConstantStarAlgebra, t: IndexTables) -> None:
    """The crossed-product laws as O(n^2) identities on the basis labels.

    Basis element i = (g, x) is the arrow src(i) -> tgt(i) with label
    lambda(i) = g, tgt(i) = x and src(i) = theta_{g^-1}(x); distinct labels
    give distinct (lambda, tgt).  The identities are:

      * b_i b_j is defined iff src(i) = tgt(j);
      * where it is defined, it is a basis element with label
        lambda(i) lambda(j), target tgt(i) and source src(j);
      * b_i^* has label lambda(i)^-1, target src(i) and source tgt(i).

    They imply associativity: (b_i b_j) b_k and b_i (b_j b_k) are both
    defined iff src(i) = tgt(j) and src(j) = tgt(k), and then both are the
    basis element with label lambda(i) lambda(j) lambda(k) and target
    tgt(i), which is unique.  In the same way (b_i b_j)^* and b_j^* b_i^*
    are defined together and are both the element with label
    (lambda(i) lambda(j))^-1 and target src(j), so star is an
    anti-homomorphism; and b_i^** has the label and target of b_i, so star
    is an involution.
    """
    n = alg.dimension
    lab, tgt, src = _arrow_ends(alg, t)
    if len(np.unique(lab * len(t.index) + tgt)) != n:
        raise AlgebraError("crossed-product basis labels repeat")
    P, S = alg.product, alg.star
    defined = src[:, None] == tgt[None, :]
    if not np.array_equal(P >= 0, defined):
        i, j = np.argwhere((P >= 0) != defined)[0]
        raise AlgebraError(f"product of basis elements ({i}, {j}) is not defined exactly when src = tgt")
    i, j = np.nonzero(defined)
    k = P[i, j]
    bad = k >= n
    if not bad.any():
        bad = (lab[k] != t.mul[lab[i], lab[j]]) | (tgt[k] != tgt[i]) | (src[k] != src[j])
    if bad.any():
        at = np.argmax(bad)
        raise AlgebraError(f"product of basis elements ({i[at]}, {j[at]}) is not the composed arrow")
    bad = (S < 0) | (S >= n)
    if not bad.any():
        bad = (lab[S] != t.inv[lab]) | (tgt[S] != src) | (src[S] != tgt)
    if bad.any():
        raise AlgebraError(f"star of basis element {np.argmax(bad)} is not the inverse arrow")


def crossed_product(pa: PartialAction) -> StructureConstantStarAlgebra:
    """The crossed product of a validated partial action, dimension sum |X_g|.

    Built from the theta table: the basis (g, x) with theta_{g^-1}(x)
    defined, g-major with points ascending; b_i b_j is the element
    (lambda(i) lambda(j), tgt(i)) where src(i) = tgt(j), and b_i^* is
    (lambda(i)^-1, src(i)).  The tables are checked by
    ``check_arrow_identities``.
    """
    t = index_tables(pa)
    back = t.theta[t.inv]  # back[g, x]: theta_{g^-1}(x), -1 off X_g
    lab, tgt = np.nonzero(back >= 0)
    src = back[lab, tgt]
    n = len(lab)
    bidx = np.full(back.shape, -1, dtype=np.intp)
    bidx[lab, tgt] = np.arange(n)
    product = np.full((n, n), -1, dtype=np.intp)
    i, j = np.nonzero(src[:, None] == tgt[None, :])
    product[i, j] = bidx[t.mul[lab[i], lab[j]], tgt[i]]
    points = np.array(sorted(t.index), dtype=object)
    basis = tuple(zip(lab.tolist(), points[tgt].tolist()))
    alg = StructureConstantStarAlgebra(basis, product, bidx[t.inv[lab], src])
    check_arrow_identities(alg, t)
    return alg


@dataclass(frozen=True)
class BlockComputation:
    """Numeric block decomposition with its diagnostics."""

    algebra: FDCStarAlgebra
    integrality_residual: float
    attempts: int
    center_dimension: int


def _center_basis(alg: StructureConstantStarAlgebra) -> np.ndarray:
    """The center as 0/1 rows: one class sum per conjugacy class of loops.

    Every basis element b is a groupoid arrow with unit b b*, and a loop when
    b b* = b* b.  The class of loop b is {c b c* : c an arrow out of its
    unit}, the same set from each of its members, so its least member names
    it; rows follow the classes' least members.  The sum over each class is
    central (Burnside's class sums), and for a groupoid algebra these sums
    span the center.  Every row is checked central exactly, all at once: z
    b_j and b_j z are equal multisets of basis indices, so the products of
    the loops with b_j on either side, keyed by class, sort to equal columns.
    """
    n = alg.dimension
    P, S = alg.product, alg.star
    ks = np.arange(n)
    unit, source = P[ks, S], P[S, ks]
    bad = np.flatnonzero((unit < 0) | (P[np.clip(unit, 0, None), ks] != ks))
    if len(bad):
        raise NotSemisimpleOrDegenerate(f"basis element {bad[0]} is not a groupoid arrow")
    loops = np.flatnonzero(unit == source)
    # Every pair (c, b) of a loop b and an arrow c out of its unit, b-major:
    # the arrows sorted by source, loop b's run starting at first[b].
    outs = np.argsort(source, kind="stable")
    first = np.searchsorted(source[outs], unit[loops])
    size = np.bincount(source, minlength=n)[unit[loops]]
    starts = np.cumsum(size) - size
    b = np.repeat(loops, size)
    c = outs[np.arange(len(b)) + np.repeat(first - starts, size)]
    cb = P[c, b]
    conjugates = np.where(cb < 0, -1, P[cb, S[c]])
    if (conjugates < 0).any():
        raise NotSemisimpleOrDegenerate(f"a conjugate of loop {b[conjugates < 0].min()} vanishes")
    labels, row = np.unique(np.minimum.reduceat(conjugates, starts), return_inverse=True)
    # Key k (n + 1) + 1 + P[., .] keeps each class's products apart, -1 included.
    key = (row * (n + 1) + 1)[:, None]
    for cols in row_blocks(n, len(loops)):
        left = np.sort(key + P[loops, cols], axis=0)
        right = np.sort(key + P[cols][:, loops].T, axis=0)
        if not np.array_equal(left, right):
            k, j = np.argwhere(left != right)[0]
            cls = min(left[k, j], right[k, j]) // (n + 1)
            raise AssertionError(f"class sum of basis element {loops[np.argmax(row == cls)]} is not central")
    Z = np.zeros((len(labels), n))
    Z[row, loops] = 1.0
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
    Z = _center_basis(alg)
    center_dim = Z.shape[0]
    P, S = alg.product, alg.star
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


def block_structure(alg: StructureConstantStarAlgebra, seed: int = 0) -> FDCStarAlgebra:
    return block_structure_full(alg, seed=seed).algebra


def _nullspace_mod(A: list[list[int]], lam: int, p: int) -> tuple[list[int], list[list[int]]]:
    """The nullspace of A - lam I over GF(p) as (free columns, basis), basis
    vector f being 1 at free column f and 0 at the other free columns."""
    m = [[(a - lam * (r == c)) % p for c, a in enumerate(row)] for r, row in enumerate(A)]
    pivots, width = [], len(A)
    for c in range(width):
        r = next((r for r in range(len(pivots), len(m)) if m[r][c]), None)
        if r is not None:
            top = len(pivots)
            m[r], m[top] = m[top], [v * pow(m[r][c], -1, p) % p for v in m[r]]
            m = [row if i == top else [(a - row[c] * b) % p for a, b in zip(row, m[top])]
                 for i, row in enumerate(m)]
            pivots.append(c)
    free = [c for c in range(width) if c not in pivots]
    basis = [[int(c == f) for c in range(width)] for f in free]
    for v, f in zip(basis, free):
        for row, c in enumerate(pivots):
            v[c] = -m[row][f] % p
    return free, basis


def _charpoly_mod(A: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of A over GF(p), highest coefficient first (Faddeev-LeVerrier)."""
    A = np.array(A, dtype=np.int64)  # entries below p: products stay far from overflow
    coeffs, M, eye = [1], np.zeros_like(A), np.eye(len(A), dtype=np.int64)
    for k in range(1, len(A) + 1):
        M = (A @ M + coeffs[-1] * eye) % p
        coeffs.append(-int(np.trace(A @ M)) * pow(k, -1, p) % p)
    return coeffs


def character_degrees(group: FiniteGroup) -> tuple[int, ...]:
    """The irreducible character degrees of ``group``, sorted, in exact arithmetic.

    Burnside-Dixon over GF(p) (Dixon, Numer. Math. 10 (1967); Schneider,
    J. Symbolic Comput. 9 (1990)), with p the least prime above |H| that is
    1 mod the exponent, so the class algebra splits over GF(p).  The class
    matrices M_i[j][k] = #{x in C_i : x^-1 g_k in C_j} (g_k in C_k) commute,
    and their common eigenvectors are the central characters
    omega(C_j) = |C_j| chi(g_j) / chi(1).  GF(p)^k is split subspace by
    subspace at the roots of each restricted characteristic polynomial; then
    chi(1)^2 = |H| / sum_j omega(C_j) omega(C_j^-1) / |C_j| mod p, which lifts
    uniquely because chi(1)^2 <= |H| < p.  With as many classes as elements
    every degree is 1, since the squares sum to |H|.
    """
    order, mul, inv = group.order, group.table, group.inverse
    classes = sorted({tuple(sorted({mul[mul[g][x]][inv[g]] for g in range(order)})) for x in range(order)})
    class_of = {y: i for i, members in enumerate(classes) for y in members}
    k = len(classes)
    if k == order:
        return (1,) * order
    exponent = 1
    for x in range(order):
        power, n = x, 1
        while power:
            power, n = mul[power][x], n + 1
        exponent = math.lcm(exponent, n)
    p = order + 1  # the exponent divides |H|
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += exponent
    coeff = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, members in enumerate(classes):
        for l, (rep, *_) in enumerate(classes):
            for x in members:
                coeff[i][class_of[mul[inv[x]][rep]]][l] += 1
    # Each space is (pivot rows, basis columns) with the basis the identity
    # on its pivot rows, so the coordinates of a vector are its pivot entries.
    spaces = [(list(range(k)), [[int(r == c) for r in range(k)] for c in range(k)])]
    for M in coeff[1:]:
        split = []
        for pivots, basis in spaces:
            if len(basis) == 1:
                split.append((pivots, basis))
                continue
            A = [[sum(a * b for a, b in zip(M[r], v)) % p for v in basis] for r in pivots]
            poly = _charpoly_mod(A, p)
            for lam in range(p):
                if functools.reduce(lambda acc, c: (acc * lam + c) % p, poly, 0):
                    continue
                free, null = _nullspace_mod(A, lam, p)
                split.append(([pivots[f] for f in free], [
                    [sum(w * v[r] for w, v in zip(u, basis)) % p for r in range(k)] for u in null
                ]))
        spaces = split
    if len(spaces) != k or any(len(basis) != 1 for _, basis in spaces):
        raise AssertionError(f"class matrices of {group.name} split into {len(spaces)} spaces, not {k}")
    degrees = []
    for _, (omega,) in spaces:
        norm = sum(w * omega[class_of[inv[c[0]]]] * pow(len(c), -1, p) for w, c in zip(omega, classes))
        norm *= pow(omega[0], -2, p)
        square = order * pow(norm % p, -1, p) % p
        degree = math.isqrt(square)
        if degree * degree != square:
            raise AssertionError(f"chi(1)^2 = {square} mod {p} is not a square in {group.name}")
        degrees.append(degree)
    if sum(d * d for d in degrees) != order:
        raise AssertionError(f"squared degrees {degrees} of {group.name} do not sum to {order}")
    return tuple(sorted(degrees))


def crossed_product_blocks_combinatorial(pa: PartialAction) -> FDCStarAlgebra:
    """Blocks via orbits and stabilizers, in exact arithmetic: each orbit O
    with isotropy H contributes |O| * chi(1) for every irreducible character
    chi of H (character_degrees, computed once per stabilizer here)."""
    gr = translation_groupoid(pa)
    degrees: dict[frozenset[int], tuple[int, ...]] = {}
    blocks: list[int] = []
    for orbit in gr.orbits:
        stab = gr.stabilizers[min(orbit)]
        if stab.members not in degrees:
            degrees[stab.members] = character_degrees(stab.as_group())
        blocks.extend(len(orbit) * d for d in degrees[stab.members])
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
    """The fixed point algebra: one one-dimensional block per groupoid orbit.

    A fixed function takes equal values at the two ends of every arrow, so
    the algebra is the functions constant on the components of the arrow
    graph.  One check, by arrows out of each point rather than by the index
    table the orbits come from, shows those components are the groupoid
    orbits: the arrows out of any point reach exactly its orbit, so every
    arrow stays in its orbit and every orbit is a clique.
    """
    orbits = translation_groupoid(pa).orbits
    for orbit in orbits:
        for x in orbit:
            if {theta[x] for theta in pa.maps.values() if x in theta} != orbit:
                raise AssertionError(f"the orbit of point {x} is not a clique of arrows")
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


def imprimitivity_bimodule_verify(
    pa: PartialAction,
    *,
    crossed: Optional[StructureConstantStarAlgebra] = None,
) -> BimoduleReport:
    """Exact verification of the fixed-point / crossed-product bimodule.

    Checks: the domain-count function x_alpha, the column counts of the
    theta table, is bounded below by one and fixed, that is equal at the two
    ends of every basis arrow (it is central in the commutative coefficient
    algebra, so that is not checked).  Left fullness follows from x_alpha
    being fixed: the fixed-point inner product <1_O, 1/x_alpha>(z) sums
    1_O(w)/x_alpha(w) over the x_alpha(z) arrows w -> z, and orbits are
    closed and x_alpha constant along arrows, so it is 1_O(z); every orbit
    indicator, hence all of A^alpha, is an inner product.  Basis element k
    is an arrow src(k) -> tgt(k).  Positivity of <x, x> = x* e x,
    where e is the sum of all basis arrows, holds for every x at once when
    two identities hold on the tables: star permutes the basis, so e* = e;
    and b_k occurs in e e exactly x_alpha(tgt k) times, so e e = x_alpha e.
    Taking adjoints, x_alpha e = e e = e x_alpha, hence
    e = x_alpha^{-1/2} (e* e) x_alpha^{-1/2} >= 0 and x* e x >= 0.  The
    fixed-point inner product is a sum of squares, positive by construction.
    Compatibility and right fullness are read off integer index tables:
    <delta_a, delta_b> is the indicator of I(a, b) = {k : tgt k = a,
    src k = b}, and delta_b . (delta_z u_h) = [z = b] delta_{src}.
    ``crossed`` is crossed_product(pa), built here when not given.  Failures
    are reported, not raised: the Morita statement assumes finite tower
    dimension.
    """
    t = index_tables(pa)
    alg = crossed_product(pa) if crossed is None else crossed
    n, npoints = alg.dimension, len(t.index)
    _, tgt, src = _arrow_ends(alg, t)
    P = alg.product

    counts = (t.theta[t.inv] >= 0).sum(axis=0)  # x_alpha(x) = #{g : x in X_g}
    unit_bounded = bool((counts >= 1).all())
    unit_fixed = bool(np.array_equal(counts[src], counts[tgt]))

    # e* = e: star permutes the basis.  e e = x_alpha e: b_k is the product
    # of exactly x_alpha(tgt k) pairs of basis elements.
    positivity = bool(
        np.array_equal(np.sort(alg.star), np.arange(n))
        and np.array_equal(np.bincount(P[P >= 0], minlength=n), counts[tgt])
    )

    # For xi = b_j the clause <delta_a, delta_b> xi = <delta_a, delta_b . xi>
    # over all (a, b) reads: the multiset of (tgt k, src k, k b_j) over k with
    # k b_j != 0 equals that of (tgt m, tgt j, m) over m with src m = src j.
    # Column j of lhs and rhs encodes those triples, padded with -1.
    cells = tgt * npoints + src
    lhs = np.where(P >= 0, cells[:, None] * n + P, -1)
    rhs = np.where(
        src[:, None] == src[None, :],
        (tgt[:, None] * npoints + tgt[None, :]) * n + np.arange(n)[:, None],
        -1,
    )
    compatibility = bool(np.array_equal(np.sort(lhs, axis=0), np.sort(rhs, axis=0)))

    # The <delta_a, delta_b> are the indicators of the nonempty cells I(a, b).
    # Over distinct basis arrows the cells partition the basis, so those
    # indicators are independent and the span dimension is their count.
    if len(set(alg.basis)) != n:
        raise AssertionError("crossed-product basis labels repeat")
    span_dim = len(np.unique(cells))
    right_fullness = span_dim == n

    return BimoduleReport(
        unit_sum_bounded_below=unit_bounded,
        unit_sum_fixed=unit_fixed,
        positivity=positivity,
        compatibility=compatibility,
        left_fullness=unit_fixed,
        right_fullness=right_fullness,
        span_dimension=span_dim,
        algebra_dimension=n,
    )
