"""Crossed products of finite-set partial actions as explicit *-algebras.

The crossed product has basis {delta_x u_g : x in X_g} with

    (delta_x u_g)(delta_y u_h) = delta_x u_{gh}   if theta_{g^-1}(x) = y
    (delta_x u_g)* = delta_{theta_{g^-1}(x)} u_{g^-1}

which is the specialization of the general coefficient relations to
indicator functions (tests re-derive it from the symbolic expansion).  Each
basis element is an arrow theta_{g^-1}(x) -> x of the translation groupoid.
The product is kept as one row per composable pair of arrows, never as an
n x n table.  The rows and the star table are read off the integer theta
table and checked by identities on the arrows' ends, linear in the rows.
Block structure is computed two independent, exact ways: from the tables
alone, orbit by orbit, splitting the loop class sums into primitive central
idempotents over GF(p); and from groupoid orbits and the character degrees
of the stabilizers, found mod p by the Burnside-Dixon method.  The two must
agree.
The imprimitivity bimodule between the fixed point algebra and the crossed
product is verified exactly on integer index tables of arrow sources,
targets and products: positivity for every vector at once from the
identities e* = e and e e = x_alpha e for the sum e of all basis arrows, and
compatibility and right fullness cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .groups import FiniteGroup
from .pactions import PartialAction, translation_groupoid

class AlgebraError(ValueError):
    pass


class NotSemisimpleOrDegenerate(AlgebraError):
    """The tables are not those of a semisimple groupoid algebra."""


class IntegralityFailure(AlgebraError):
    """Block sizes that are not whole numbers."""


@dataclass(frozen=True, eq=False)
class StructureConstantStarAlgebra:
    """A *-algebra presented by basis labels and monomial structure constants.

    ``product`` lists the nonzero products, one row (i, j, k) per b_i b_j = b_k
    in strictly increasing (i, j); ``star[i]`` is the index of b_i^*.  Both
    are read-only ``intp`` arrays of indices in [0, n): tuples are converted
    on construction, and arrays are frozen in place, not copied.  All
    coefficients are 0 or 1, which covers every groupoid algebra built here.
    """

    basis: tuple[object, ...]
    product: np.ndarray
    star: np.ndarray

    def __post_init__(self):
        n = len(self.basis)
        for name, shape in (("product", (-1, 3)), ("star", (n,))):
            table = np.asarray(getattr(self, name), dtype=np.intp).reshape(shape)
            if ((table < 0) | (table >= n)).any():
                raise AlgebraError(f"{name} has an index outside [0, {n})")
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        keys = self.product[:, 0] * n + self.product[:, 1]
        if (keys[1:] <= keys[:-1]).any():
            raise AlgebraError("product rows are not in strictly increasing (i, j)")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_array(self) -> np.ndarray:
        """The basis labels as one read-only (n, 2) intp array, read on first
        use and kept; a label holding a non-integer reads as (-1, -1)."""
        labels = np.array(self.basis).reshape(len(self.basis), 2)
        if labels.dtype.kind not in "iu":
            whole = lambda label: all(isinstance(v, (int, np.integer)) for v in label)
            labels = np.array([label if whole(label) else (-1, -1) for label in self.basis]).reshape(-1, 2)
        labels = labels.astype(np.intp)
        labels.flags.writeable = False
        return labels


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


def _pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with a[i] = b[j], in increasing (i, j)."""
    order = b.argsort(kind="stable")
    ordered = b[order]
    lo = ordered.searchsorted(a, "left")
    size = ordered.searchsorted(a, "right") - lo
    i = np.arange(len(a)).repeat(size)
    return i, order[np.arange(len(i)) + (lo - size.cumsum() + size)[i]]  # a[i]'s run in ordered starts at lo[i]


def _product_lookup(alg: StructureConstantStarAlgebra) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(i, j) -> k with b_i b_j = b_k, on index arrays; -1 where the product vanishes or i is -1."""
    n = alg.dimension
    keys = np.concatenate((alg.product[:, 0] * n + alg.product[:, 1], [n * n]))  # n * n: above every key
    ks = np.concatenate((alg.product[:, 2], [-1]))

    def lookup(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        want = i * n + j
        at = keys.searchsorted(want)
        return np.where(keys[at] == want, ks[at], -1)

    return lookup


def _arrow_ends(alg: StructureConstantStarAlgebra, pa: PartialAction) -> tuple[np.ndarray, ...]:
    """Label g, target x and source theta_{g^-1}(x) of each basis element
    (g, x) of a crossed product of ``pa``, the points as indices into its
    sorted carrier; labels must not repeat.  Read off ``alg.basis_array`` in
    one array pass."""
    n, points, inv = alg.dimension, pa.points, pa.group.arrays[1]
    lab, x = alg.basis_array.T
    at = points.searchsorted(x)
    tgt = np.where(points.take(at, mode="clip") == x, at, -1) if len(points) else np.full(n, -1)
    bad = (lab < 0) | (lab >= len(inv)) | (tgt < 0)
    if not bad.any():
        src = pa.table[inv[lab], tgt]
        bad = src < 0
    if bad.any():
        raise AlgebraError(f"basis label {alg.basis[np.argmax(bad)]} is not an arrow")
    if (np.bincount(lab * len(points) + tgt) > 1).any():
        raise AlgebraError("crossed-product basis labels repeat")
    return lab, tgt, src


def check_arrow_identities(alg: StructureConstantStarAlgebra, pa: PartialAction) -> None:
    """The crossed-product laws for ``alg`` over ``pa`` as identities on the basis labels, linear in the rows.

    Basis element i = (g, x) is the arrow src(i) -> tgt(i) with label
    lambda(i) = g, tgt(i) = x and src(i) = theta_{g^-1}(x); distinct labels
    give distinct (lambda, tgt).  The identities are:

      * b_i b_j is defined iff src(i) = tgt(j): every row has it, and the
        rows, distinct pairs, number sum_x in(x) out(x), all such pairs;
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
    lab, tgt, src = _arrow_ends(alg, pa)
    mul, inv = pa.group.arrays
    i, j, k = alg.product.T
    bad = (src[i] != tgt[j]) | (lab[k] != mul[lab[i], lab[j]]) | (tgt[k] != tgt[i]) | (src[k] != src[j])
    if bad.any():
        at = np.argmax(bad)
        raise AlgebraError(f"product of basis elements ({i[at]}, {j[at]}) is not the composed arrow")
    composable = int(np.bincount(src, minlength=pa.size()) @ np.bincount(tgt, minlength=pa.size()))
    if len(k) != composable:
        raise AlgebraError(f"products are not defined exactly when src = tgt: {len(k)} rows, {composable} pairs")
    bad = (lab[alg.star] != inv[lab]) | (tgt[alg.star] != src) | (src[alg.star] != tgt)
    if bad.any():
        raise AlgebraError(f"star of basis element {np.argmax(bad)} is not the inverse arrow")


def crossed_product(pa: PartialAction) -> StructureConstantStarAlgebra:
    """The crossed product of a validated partial action, dimension sum |X_g|.

    Built from the theta table: the basis (g, x) with theta_{g^-1}(x)
    defined, g-major with points ascending; b_i b_j is the element
    (lambda(i) lambda(j), tgt(i)) where src(i) = tgt(j) and that element
    exists, and b_i^* is (lambda(i)^-1, src(i)).  The tables are checked by
    ``check_arrow_identities``.
    """
    mul, inv = pa.group.arrays
    back = pa.table[inv]  # back[g, x]: theta_{g^-1}(x), -1 off X_g
    lab, tgt = np.nonzero(back >= 0)
    src = back[lab, tgt]
    bidx = np.full(back.shape, -1, dtype=np.intp)
    bidx[lab, tgt] = np.arange(len(lab))
    i, j = _pairs(src, tgt)
    k = bidx[mul[lab[i], lab[j]], tgt[i]]
    ends = np.array([lab, pa.points[tgt]]).T  # (g, x), points ascending
    alg = StructureConstantStarAlgebra(tuple(map(tuple, ends.tolist())), np.array([i, j, k]).T[k >= 0], bidx[inv[lab], src])
    ends.flags.writeable = False
    vars(alg)["basis_array"] = ends  # what basis_array would read back from the labels
    check_arrow_identities(alg, pa)
    return alg


def _center_basis(alg: StructureConstantStarAlgebra) -> tuple:
    """The center as class sums: the loops, the class of each element, each
    class's least member, each arrow's unit, and the ``_product_lookup`` of ``alg``.

    Every basis element b is a groupoid arrow with unit b b*, and a loop when
    b b* = b* b.  The class of loop b is {c b c* : c an arrow out of its
    unit}, the same set from each of its members, so its least member names
    it; classes are numbered in the order of their least members.  Loop b
    lies in class ``cls[b]``; ``cls`` is -1 off the loops and at index n.
    The sum over each class is central (Burnside's class sums), and for a
    groupoid algebra these sums span the center.  Every class sum is checked
    central exactly, all at once: z b_j and b_j z are equal multisets of
    basis indices, so the product rows with a loop on the left and those
    with a loop on the right, as (class, other factor, product), sort to
    equal lists.
    """
    n = alg.dimension
    lookup, S = _product_lookup(alg), alg.star
    ks = np.arange(n)
    unit, source = lookup(ks, S), lookup(S, ks)
    bad = (lookup(unit, ks) != ks).nonzero()[0]
    if len(bad):
        raise NotSemisimpleOrDegenerate(f"basis element {bad[0]} is not a groupoid arrow")
    loops = (unit == source).nonzero()[0]
    # Every pair (loop b, arrow c out of its unit), b-major; loop loops[a]'s run starts where ``at`` reaches a.
    at, c = _pairs(unit[loops], source)
    conjugates = lookup(lookup(c, loops[at]), S[c])
    if (conjugates < 0).any():
        raise NotSemisimpleOrDegenerate(f"a conjugate of loop {loops[at[conjugates < 0]].min()} vanishes")
    smallest = np.minimum.reduceat(conjugates, at.searchsorted(ks[:len(loops)]))  # the least of each loop's class
    least = np.bincount(smallest, minlength=n).nonzero()[0]
    cls = np.full(n + 1, -1)
    cls[loops] = least.searchsorted(smallest)
    i, j, k = alg.product.T
    sides = []
    for loop, other in ((i, j), (j, i)):  # the rows of z b_other, then of b_other z; (n, n, n) off the loops
        rows = np.where(cls[loop] >= 0, [cls[loop], other, k], n)
        sides.append(rows[:, np.lexsort(rows[::-1])])
    left, right = sides
    if not np.array_equal(left, right):
        col = (left != right).any(axis=0).argmax()  # the smaller class at the first difference is not central
        raise AssertionError(f"class sum of basis element {least[min(left[0, col], right[0, col])]} is not central")
    return loops, cls, least, unit, lookup


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


def _split_mod(matrices: Sequence[list[list[int]]], k: int, p: int) -> list[list[list[int]]]:
    """The common eigenspaces over GF(p) of commuting k x k integer matrices.

    GF(p)^k is split subspace by subspace at the roots of each restricted
    characteristic polynomial, all of GF(p) tried at once.  Each space is
    its basis, the identity on the space's pivot rows, so the coordinates of
    a vector are its pivot entries; k spaces come back when all are lines.
    """
    spaces = [(list(range(k)), [[int(r == c) for r in range(k)] for c in range(k)])]
    every = np.arange(p, dtype=np.int64)
    for M in matrices:
        split = []
        for pivots, basis in spaces:
            if len(basis) == 1:
                split.append((pivots, basis))
                continue
            A = [[sum(a * b for a, b in zip(M[r], v)) % p for v in basis] for r in pivots]
            values = np.zeros(p, dtype=np.int64)
            for c in _charpoly_mod(A, p):
                values = (values * every + c) % p
            for lam in np.flatnonzero(values == 0).tolist():
                free, null = _nullspace_mod(A, lam, p)
                split.append(([pivots[f] for f in free], [
                    [sum(w * v[r] for w, v in zip(u, basis)) % p for r in range(k)] for u in null
                ]))
        spaces = split
    return [basis for _, basis in spaces]


def _prime_above(m: int, step: int) -> int:
    """The least prime above m that is 1 mod step, for step dividing m."""
    p = m + 1
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += step
    return p


def _orbit_blocks(N: np.ndarray, unit: int, arrows: int, h: int) -> list[int]:
    """Block sizes of an orbit algebra of n_O = ``arrows`` arrows and corner
    order h from its class-sum structure constants N[a, c, b], the
    coefficient of C_c in C_a C_b; ``unit`` is the class of the units.

    The common eigenvectors v of the C_a split GF(p)^k, p the least prime
    above n_O that is 1 mod h.  Each v is lam e for a primitive central
    idempotent e, and v^2 = lam v.  Left multiplication by e has trace k^2
    for a block of size k; a unit has trace n_O / u_O, any other arrow 0, so
    k^2 = e[unit] n_O mod p, which lifts as k^2 <= n_O < p.
    """
    k, p = len(N), _prime_above(arrows, h)
    spaces = _split_mod([N[a].tolist() for a in range(k) if a != unit], k, p)
    if len(spaces) != k:
        raise NotSemisimpleOrDegenerate(f"class sums split into {len(spaces)} spaces mod {p}, not {k}")
    V = np.array([v for (v,) in spaces], dtype=np.int64)
    squares = []
    for v, w in zip(V.tolist(), (np.einsum("ia,acb,ib->ic", V, N, V) % p).tolist()):  # w = v^2
        c = next(c for c, x in enumerate(v) if x)
        squares.append(v[unit] * v[c] * pow(w[c], -1, p) * arrows % p)  # e = v v[c] / w[c]
    sizes = [math.isqrt(s) for s in squares]
    if [m * m for m in sizes] != squares or sum(squares) != arrows:
        raise IntegralityFailure(f"squared sizes {squares} mod {p} in an orbit of {arrows} arrows")
    return sizes


def block_structure(alg: StructureConstantStarAlgebra) -> FDCStarAlgebra:
    """Block sizes of a groupoid algebra, exactly, orbit by orbit, from its
    product and star tables alone.

    Arrows in different orbits multiply to 0, so the algebra is the sum of
    its orbit algebras.  Orbits are cliques, so an orbit's units form one
    loop class, named by its least unit.  An orbit of n_O arrows, u_O units
    and k_O classes is M_{u_O}(C[H]), H the loops at a unit, of order
    h = n_O / u_O^2.  When k_O = h, the k_O squared degrees of H sum to h,
    so all are 1: k_O blocks of size u_O.  Other orbits go to
    ``_orbit_blocks`` with the structure constants counted at their least
    unit, one split per distinct constants and size within a call (equal
    orbits recur when many points share a non-abelian stabilizer).
    """
    loops, cls, least, unit, lookup = _center_basis(alg)
    S = alg.star
    orbit = cls[unit]  # of each arrow: the class of its unit
    orbits = np.flatnonzero(np.bincount(orbit))
    arrows, units = np.bincount(orbit)[orbits], np.bincount(cls[loops])[orbits]
    classes = np.bincount(orbit[least], minlength=len(least))[orbits]
    h, rest = np.divmod(arrows, units**2)
    if rest.any():
        raise IntegralityFailure(f"orbits of {arrows.tolist()} arrows on {units.tolist()} units")
    blocks = [int(units[o]) for o in np.flatnonzero(classes == h) for _ in range(classes[o])]
    split: dict[tuple[int, bytes], list[int]] = {}
    by_unit = loops[unit[loops].argsort(kind="stable")]  # the loops in runs of one unit, each run ascending
    runs = unit[by_unit]
    starts, ends = runs.searchsorted(least[orbits]), runs.searchsorted(least[orbits], "right")
    for o in np.flatnonzero(classes != h):
        xs = by_unit[starts[o]:ends[o]]  # the loops at the orbit's least unit
        cs, first, a = np.unique(cls[xs], return_index=True, return_inverse=True)
        k = len(cs)
        local = np.full(len(least) + 1, -1)
        local[cs] = np.arange(k)
        b = local[cls[lookup(S[xs][:, None], xs[first])]]  # the class of x* z, z the first of class c
        N = np.bincount(((a[:, None] * k + np.arange(k)) * k + b).ravel(), minlength=k**3).reshape(k, k, k)
        key = (int(arrows[o]), N.tobytes())
        if key not in split:
            split[key] = _orbit_blocks(N, int(local[orbits[o]]), key[0], int(h[o]))
        blocks += split[key]
    return FDCStarAlgebra(tuple(sorted(blocks)))


@cache
def character_degrees(group: FiniteGroup) -> tuple[int, ...]:
    """The irreducible character degrees of ``group``, sorted, in exact arithmetic;
    computed once per group and shared.

    Burnside-Dixon over GF(p) (Dixon, Numer. Math. 10 (1967); Schneider,
    J. Symbolic Comput. 9 (1990)), with p the least prime above |H| that is
    1 mod |H|, hence mod the exponent, so the class algebra splits over
    GF(p).  The class matrices M_i[j][k] = #{x in C_i : x^-1 g_k in C_j}
    (g_k in C_k) commute, and their common eigenvectors (``_split_mod``) are
    the central characters omega(C_j) = |C_j| chi(g_j) / chi(1).  Then
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
    p = _prime_above(order, order)  # the exponent divides |H|
    coeff = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, members in enumerate(classes):
        for l, (rep, *_) in enumerate(classes):
            for x in members:
                coeff[i][class_of[mul[inv[x]][rep]]][l] += 1
    spaces = _split_mod(coeff[1:], k, p)
    if len(spaces) != k:
        raise AssertionError(f"class matrices of {group.name} split into {len(spaces)} spaces, not {k}")
    degrees = []
    for (omega,) in spaces:
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
    chi of H (character_degrees, computed once per stabilizer group)."""
    gr = translation_groupoid(pa)
    blocks: list[int] = []
    for orbit in gr.orbits:
        stab = gr.stabilizers[min(orbit)]
        blocks.extend(len(orbit) * d for d in character_degrees(stab.as_group()))
    return FDCStarAlgebra(tuple(sorted(blocks)))


def crossed_product_blocks(pa: PartialAction, *, crossed: StructureConstantStarAlgebra) -> FDCStarAlgebra:
    """Both block routes on ``crossed`` = crossed_product(pa), cross-asserted; disagreement aborts loudly."""
    exact = block_structure(crossed)
    combinatorial = crossed_product_blocks_combinatorial(pa)
    if exact != combinatorial:
        raise AssertionError(f"block routes disagree: {exact.blocks} vs {combinatorial.blocks}")
    return exact


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


def imprimitivity_bimodule_verify(pa: PartialAction, *, crossed: StructureConstantStarAlgebra) -> BimoduleReport:
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
    ``crossed`` is crossed_product(pa).  Failures are reported, not raised:
    the Morita statement assumes finite tower dimension.
    """
    n, npoints = crossed.dimension, pa.size()
    _, tgt, src = _arrow_ends(crossed, pa)
    i, j, k = crossed.product.T

    counts = (pa.table >= 0).sum(axis=0)  # x_alpha(x) = #{g : x in X_g}
    unit_fixed = bool(np.array_equal(counts[src], counts[tgt]))

    # e* = e: star permutes the basis.  e e = x_alpha e: b_k is the product
    # of exactly x_alpha(tgt k) pairs of basis elements.
    positivity = bool(
        np.array_equal(np.sort(crossed.star), np.arange(n))
        and np.array_equal(np.bincount(k, minlength=n), counts[tgt])
    )

    # For xi = b_c the clause <delta_a, delta_b> xi = <delta_a, delta_b . xi>
    # over all (a, b) reads: the multiset of (tgt k, src k, k b_c) over k with
    # k b_c != 0 equals that of (tgt m, tgt c, m) over m with src m = src c.
    # Each side lists them as (c, cell, basis index); sorted, the lists are equal.
    cells = tgt * npoints + src
    m, c = _pairs(src, src)
    sides = []
    for rows in (np.array([j, cells[i], k]), np.array([c, tgt[m] * npoints + tgt[c], m])):
        sides.append(rows[:, np.lexsort(rows[::-1])])
    compatibility = np.array_equal(*sides)

    # The <delta_a, delta_b> are the indicators of the nonempty cells I(a, b).
    # Over distinct basis arrows (``_arrow_ends``) the cells partition the basis,
    # so those indicators are independent and the span dimension is their count.
    span_dim = len(np.unique(cells))

    return BimoduleReport(
        unit_sum_bounded_below=bool((counts >= 1).all()),
        unit_sum_fixed=unit_fixed,
        positivity=positivity,
        compatibility=compatibility,
        left_fullness=unit_fixed,
        right_fullness=span_dim == n,
        span_dimension=span_dim,
        algebra_dimension=n,
    )
