"""Exact Rokhlin towers for finite-set partial actions.

A tower family at dimension d is determined by its identity-level functions
f_1^(0..d): equivariance with h = 1 forces f_g = f_1 . theta_{g^-1} on X_g,
and the partial-action axioms then give every other equivariance instance
exactly.

Every partial action is the restriction of its enveloping global action, so
every groupoid orbit is a clique, and the exact answer is decided orbit by
orbit:

  * on a free orbit, the indicator of its least point at level 0 is a tower
    family: every point of the orbit receives exactly one arrow from it;
  * on an orbit with isotropy, every point y has a parallel arrow pair
    theta_g(y) = theta_h(y) with g != h.  Orthogonality at that target
    forces f_1^(j)(y)^2 = 0 on every level, so all towers vanish on the
    orbit and the partition of unity fails there, at every dimension.

The Rokhlin dimension is therefore 0 or infinity.  Certificates carry exact
rational values and are re-verified both in the derived form (C2-C3) and
against the raw tower conditions with indicator witnesses at epsilon = 0,
which carry equivariance (C1);
refutations are re-verified arrow by arrow against the maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .pactions import PartialAction, is_free, row_blocks, translation_groupoid


class PreconditionViolated(ValueError):
    def __init__(self, detail: str, point):
        self.point = point
        super().__init__(f"{detail} (witness point {point})")


@dataclass(frozen=True)
class TowerCertificate:
    """Rational identity-level tower functions; group towers are derived."""

    d: int
    levels: tuple[Mapping[int, Fraction], ...]

    def level(self, j: int) -> Mapping[int, Fraction]:
        return self.levels[j]

    def value(self, j: int, x: int) -> Fraction:
        return self.levels[j].get(x, Fraction(0))


@dataclass(frozen=True)
class NonexistenceProof:
    """An orbit with isotropy, with one parallel arrow pair out of each point.

    Each triple (y, g, h) has g != h and theta_g(y) = theta_h(y).  The same
    proof refutes towers at every dimension.
    """

    orbit: tuple[int, ...]
    parallel: tuple[tuple[int, int, int], ...]


SearchOutcome = Union[TowerCertificate, NonexistenceProof]


def _parallel_pair(pa: PartialAction, y: int) -> Optional[tuple[int, int, int]]:
    """The first (y, g, h) with g < h and theta_g(y) = theta_h(y), if any."""
    first: dict[int, int] = {}
    for h in pa.group.elements():
        z = pa.maps[h].get(y)
        if z is None:
            continue
        if z in first:
            return (y, first[z], h)
        first[z] = h
    return None


def towers_exist(pa: PartialAction, d: int) -> SearchOutcome:
    """Exact towers at dimension d, or a refutation that holds at every d.

    One pass over the groupoid orbits: each free orbit puts mass 1 on its
    least point at level 0, and levels 1..d stay empty; the first orbit with
    isotropy is returned as a NonexistenceProof.  Either outcome passes its
    exact verifier before it is returned.
    """
    if d < 0:
        raise ValueError(f"tower dimension must be >= 0, got {d}")
    groupoid = translation_groupoid(pa)
    level0: dict[int, Fraction] = {}
    for orbit in groupoid.orbits:
        rep = min(orbit)
        if groupoid.stabilizers[rep].order > 1:
            points = tuple(sorted(orbit))
            pairs = (_parallel_pair(pa, y) for y in points)
            proof = NonexistenceProof(points, tuple(p for p in pairs if p is not None))
            check = verify_refutation(pa, proof)
            if not check.ok:
                raise AssertionError(f"solver produced an invalid refutation: {check.witness}")
            return proof
        level0[rep] = Fraction(1)
    cert = TowerCertificate(d, (level0,) + tuple({} for _ in range(d)))
    check = verify_certificate(pa, cert)
    if not check.ok:
        raise AssertionError(f"solver produced an invalid certificate: {check.witness}")
    return cert


@dataclass(frozen=True)
class RokhlinResult:
    """The Rokhlin dimension, 0 or infinity, with its certificate or refutation."""

    dimension: float  # 0 or math.inf
    certificate: Optional[TowerCertificate]
    refutation: Optional[NonexistenceProof]

    @property
    def finite(self) -> bool:
        return self.dimension != math.inf


def rokhlin_dimension(pa: PartialAction) -> RokhlinResult:
    """0 with a level-0 certificate, or infinity with a refutation.

    A refutation holds at every dimension, so one call to towers_exist
    decides.  The answer is cross-checked against freeness, which
    freeness_witness reads off the table by a separate scan.
    """
    outcome = towers_exist(pa, 0)
    if isinstance(outcome, TowerCertificate):
        result = RokhlinResult(0, outcome, None)
    else:
        result = RokhlinResult(math.inf, None, outcome)
    free = is_free(pa)
    if result.finite != free:
        raise AssertionError(f"Rokhlin dimension {result.dimension} contradicts freeness = {free}")
    return result


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_refutation(pa: PartialAction, proof: NonexistenceProof) -> CertificateCheck:
    """Exact check that a NonexistenceProof rules out towers at every d.

    Each triple (y, g, h) must have g != h and theta_g(y) = theta_h(y) in
    pa.maps; orthogonality at that target then forces f_1^(j)(y) = 0 on every
    level.  With a triple at every point of a non-empty orbit that is closed
    under every theta_k, each tower f_g^(j) = f_1^(j) . theta_{g^-1} vanishes
    on the orbit, so the tower masses there sum to 0, not 1.
    """
    orbit = frozenset(proof.orbit)
    if not orbit:
        return CertificateCheck(False, "the orbit is empty")
    points = sorted(orbit)
    for k in pa.group.elements():
        for x in points:
            z = pa.maps[k].get(x)
            if z is not None and z not in orbit:
                return CertificateCheck(False, f"theta_{k} maps orbit point {x} to {z} outside it")
    covered = set()
    for y, g, h in proof.parallel:
        if y not in orbit:
            return CertificateCheck(False, f"parallel pair at {y} lies outside the orbit")
        if g == h:
            return CertificateCheck(False, f"parallel pair at {y} repeats the element {g}")
        target = pa.maps.get(g, {}).get(y)
        if target is None or target != pa.maps.get(h, {}).get(y):
            return CertificateCheck(
                False, f"theta_{g}({y}) and theta_{h}({y}) are not one defined point"
            )
        covered.add(y)
    missing = sorted(orbit - covered)
    if missing:
        return CertificateCheck(False, f"orbit point {missing[0]} has no parallel arrow pair")
    return CertificateCheck(True, None)


def verify_certificate(pa: PartialAction, cert: TowerCertificate) -> CertificateCheck:
    """Exact check of the tower conditions, derived and raw forms.

    Derived form: values in [0, 1] on carrier points, per-level
    orthogonality (C2), partition of unity (C3).  Raw form: the tower
    conditions with indicator witnesses at epsilon = 0, which include
    equivariance (C1) f_h(y) = f_{gh}(theta_g(y)) for every y in X_{g^-1}
    and every h.

    The towers are integer tables T[j, g, z] = code of f_1^(j)(theta_{g^-1} z)
    on X_g, 0 elsewhere, where equal values share a code and 0 has code 0;
    they lie inside the domains by construction.  Levels with mass are taken
    in row blocks, so memory does not grow with their number.  (C2) and (1)
    are whole-array comparisons of codes, (1) in row blocks of g, and (C3)
    keeps one running Fraction mass per distinct sequence of codes.  A
    failure names the witness a point-by-point scan would meet first: checks
    in the order above, (C2) by level then point, (C3) by point, and (1) by
    g, y, h, level (the least over level blocks), with points taken in the
    iteration order of ``pa.carrier`` and of each domain.
    """
    levels = cert.d + 1
    for j in range(levels):
        for x, v in cert.levels[j].items():
            if x not in pa.carrier:
                return CertificateCheck(False, f"level {j} assigns mass to non-carrier point {x}")
            if not (0 <= v <= 1):
                return CertificateCheck(False, f"level {j} value at {x} is outside [0, 1]")
    index, (mul, inv) = pa.index, pa.group.arrays
    order, n = pa.group.order, pa.size()
    # A level without mass gives zero towers, which pass (C2) and (1) and add
    # nothing to (C3); only the other levels enter the tables.
    live = [j for j in range(levels) if any(cert.levels[j].values())]
    values = [0] + sorted({v for j in live for v in cert.levels[j].values() if v})
    code = {v: r for r, v in enumerate(values)}
    key, masses = np.zeros(n, dtype=np.intp), [Fraction(0)]  # (C3): equal keys, equal codes so far
    raw = (order,)  # least witness of (1) so far: (g, position of y, h, level, y)
    for block in row_blocks(len(live), order * n):
        first = np.zeros((block.stop - block.start, n + 1), dtype=np.intp)  # column n: off X_g
        for row, j in enumerate(live[block]):
            for x, v in cert.levels[j].items():
                first[row, index[x]] = code[v]
        T = first[:, pa.table[inv]]  # (level in block, g, z)
        # (C2) per-level orthogonality.
        crowded = (T > 0).sum(axis=1) > 1
        for row in np.flatnonzero(crowded.any(axis=1)).tolist():
            x = next(x for x in pa.carrier if crowded[row, index[x]])
            positive = np.flatnonzero(T[row, :, index[x]]).tolist()
            return CertificateCheck(False, f"orthogonality fails at point {x}, level {live[block][row]}: towers {positive}")
        # (C3) partition of unity: after (C2) each level holds at most one
        # positive code per point, so a point's mass is fixed by its codes.
        for top in T.max(axis=1):
            pairs, key = np.unique(key * len(values) + top, return_inverse=True)
            masses = [masses[k] + values[c] for k, c in (divmod(u, len(values)) for u in pairs.tolist())]
        # Raw condition (1): T[j, h, y] = T[j, gh, theta_g(y)] wherever
        # theta_g(y) is defined, for a block of g at a time, up to the least g found.
        # One flat take: T[j, gh, z] is entry gh * n + z of level j.
        flat = T.reshape(len(T), order * n)
        for rows in row_blocks(min(order, raw[0] + 1), T.size):
            defined = pa.table[rows] >= 0  # (g, y)
            at = mul[rows][:, :, None] * n + pa.table[rows][:, None, :]  # an undefined y reads any entry
            moved = flat.take(at, axis=1)  # (level, g, h, y)
            bad = defined[None, :, None, :] & (T[:, None] != moved)
            if bad.any():
                b = int(np.argmax(bad.any(axis=(0, 2, 3))))
                g = rows.start + b
                pos, y = next((pos, y) for pos, y in enumerate(pa.domain(pa.group.inv(g)))
                              if bad[:, b, :, index[y]].any())
                h, row = np.argwhere(bad[:, b, :, index[y]].T)[0].tolist()
                raw = min(raw, (g, pos, h, block.start + row, y))
                break
    short = np.array([m != 1 for m in masses], dtype=bool)[key]  # by point index
    if short.any():
        x = next(x for x in pa.carrier if short[index[x]])
        return CertificateCheck(False, f"tower masses sum to {masses[key[index[x]]]} != 1 at point {x}")
    if raw[0] < order:
        g, _, h, row, y = raw
        return CertificateCheck(False, f"raw condition (1) fails at (g={g}, h={h}, y={y}, level {live[row]})")
    return CertificateCheck(True, None)


def orthogonal_lifts(
    carrier: Iterable[int],
    J: Iterable[int],
    ideals: Sequence[frozenset[int]],
    xs: Sequence[Mapping[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """Orthogonalize positive contractions without moving them off J.

    Given x_j supported in A_j with all pairwise products supported inside J,
    returns pairwise orthogonal y_j <= x_j with supp y_j in A_j and
    y_j = x_j off J.  Base case subtracts positive parts; the inductive step
    peels the last function off the sum of the others.
    """
    X = frozenset(carrier)
    Jset = frozenset(J)
    if not Jset <= X:
        raise PreconditionViolated("J must be a subset of the carrier", sorted(Jset - X)[0])
    n = len(xs)
    if len(ideals) != n:
        raise ValueError("need one ideal per function")
    funcs = [{p: Fraction(v) for p, v in x.items() if Fraction(v) != 0} for x in xs]
    for j, (x, A_j) in enumerate(zip(funcs, ideals)):
        for p, v in x.items():
            if p not in A_j:
                raise PreconditionViolated(f"x_{j} is supported outside its ideal", p)
            if not (0 <= v <= 1):
                raise PreconditionViolated(f"x_{j} is not a [0, 1]-valued contraction", p)
    for j in range(n):
        for k in range(j + 1, n):
            for p in set(funcs[j]) & set(funcs[k]):
                if p not in Jset and funcs[j][p] * funcs[k][p] != 0:
                    raise PreconditionViolated(
                        f"x_{j} * x_{k} does not vanish off J", p
                    )
    return _orthogonalize(funcs, X)


def _pos_part(f: Mapping[int, Fraction], g: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out = {}
    for p in set(f) | set(g):
        v = f.get(p, Fraction(0)) - g.get(p, Fraction(0))
        if v > 0:
            out[p] = v
    return out


def _orthogonalize(xs: list[dict[int, Fraction]], X: frozenset[int]) -> list[dict[int, Fraction]]:
    n = len(xs)
    if n == 0:
        return []
    if n == 1:
        return [dict(xs[0])]
    if n == 2:
        return [_pos_part(xs[0], xs[1]), _pos_part(xs[1], xs[0])]
    head, last = xs[:-1], xs[-1]
    total: dict[int, Fraction] = {}
    for f in head:
        for p, v in f.items():
            total[p] = total.get(p, Fraction(0)) + v
    y_last = _pos_part(last, total)
    trimmed = [_pos_part(f, last) for f in head]
    ys = _orthogonalize(trimmed, X)
    return ys + [y_last]
