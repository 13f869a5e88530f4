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
which carry equivariance (C1), read at each point's one positive tower
per level; refutations are re-verified arrow by arrow against the maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from .pactions import PartialAction, row_blocks, translation_groupoid


@dataclass(frozen=True)
class TowerCertificate:
    """Rational identity-level tower functions; group towers are derived."""

    d: int
    levels: tuple[Mapping[int, Fraction], ...]

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
    """The first (y, g, h), by h, with g < h and theta_g(y) = theta_h(y), if any."""
    first: dict[int, int] = {}
    for h, z in enumerate(pa.table[:, pa.index[y]].tolist()):
        if z >= 0 and first.setdefault(z, h) != h:
            return (y, first[z], h)
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
    decides; its exact verifiers have proved the answer.  Its agreement
    with freeness is the theorem ``harness.check_free_iff_finite`` checks.
    """
    outcome = towers_exist(pa, 0)
    if isinstance(outcome, TowerCertificate):
        return RokhlinResult(0, outcome, None)
    return RokhlinResult(math.inf, None, outcome)


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

    The towers are integer tables T[j, g, z] = scale * f_1^(j)(theta_{g^-1} z)
    on X_g, 0 elsewhere, over scale = the lcm of the values' denominators
    (int64, or Python ints once scale times the levels passes 2^62); they
    lie inside the domains by construction.  Levels with mass are taken in
    row blocks, so memory does not grow with their number.  (C2) is a
    whole-array comparison, and (C3) adds each level's column maxima to one
    integer mass per point, which must end at scale.  Once (C2) holds,
    column T[j, :, z] has at most one positive entry top[j, z], at
    g = at[j, z]; (1) at (g, y) compares column y with column
    z = theta_g(y) shifted by g, so it holds iff top[j, y] = top[j, z] and,
    when positive, at[j, z] = g at[j, y]: one (level, g, y) comparison per
    block.  A failure names the witness a point-by-point scan would meet
    first: checks in the order above, (C2) by level then point, (C3) by
    point, and (1) by g, y, h, level (the least over level blocks), with
    points taken in the iteration order of ``pa.carrier`` and of each
    domain.
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
    scale = math.lcm(*(v.denominator for j in live for v in cert.levels[j].values()))
    dtype = np.int64 if scale * len(live) < 1 << 62 else object
    mass = np.zeros(n, dtype=dtype)  # (C3): scale times the mass at each point so far
    raw = (order,)  # least witness of (1) so far: (g, position of y, h, level, y)
    for block in row_blocks(len(live), order * n):
        first = np.zeros((block.stop - block.start, n + 1), dtype=dtype)  # column n: off X_g
        for row, j in enumerate(live[block]):
            for x, v in cert.levels[j].items():
                first[row, index[x]] = v.numerator * (scale // v.denominator)
        T = first[:, pa.table[inv]]  # (level in block, g, z)
        # (C2) per-level orthogonality.
        crowded = (T > 0).sum(axis=1) > 1
        for row in np.flatnonzero(crowded.any(axis=1)).tolist():
            x = next(x for x in pa.carrier if crowded[row, index[x]])
            positive = np.flatnonzero(T[row, :, index[x]]).tolist()
            return CertificateCheck(False, f"orthogonality fails at point {x}, level {live[block][row]}: towers {positive}")
        # (C3) partition of unity: after (C2) a column's one positive value is its maximum.
        tops = T.max(axis=1)  # (level, z)
        mass += tops.sum(axis=0)
        # Raw condition (1) on one-sparse columns, where z = theta_g(y) is defined.
        at, z = T.argmax(axis=1), pa.table  # z: (g, y), -1 reads any entry
        bad = (z >= 0) & ((tops[:, None] != tops[:, z])
                          | ((tops[:, None] > 0) & (at[:, z] != mul[:, at].swapaxes(0, 1))))
        if bad.any():
            g = int(np.argmax(bad.any(axis=(0, 2))))
            pos, y = next((pos, y) for pos, y in enumerate(pa.domain(pa.group.inv(g)))
                          if bad[:, g, index[y]].any())
            i, k = index[y], z[g, index[y]]
            # The failing h are where a side holds its positive code: at[j, y] and g^-1 at[j, z].
            sides = ((at[:, i], tops[:, i]), (mul[inv[g], at[:, k]], tops[:, k]))
            h = np.min([np.where(t > 0, a, order) for a, t in sides], axis=0)  # by level
            row = min(np.flatnonzero(bad[:, g, i]).tolist(), key=lambda r: (h[r], r))
            raw = min(raw, (g, pos, int(h[row]), block.start + row, y))
    short = mass != scale  # by point index
    if short.any():
        x = next(x for x in pa.carrier if short[index[x]])
        return CertificateCheck(False, f"tower masses sum to {Fraction(int(mass[index[x]]), scale)} != 1 at point {x}")
    if raw[0] < order:
        g, _, h, row, y = raw
        return CertificateCheck(False, f"raw condition (1) fails at (g={g}, h={h}, y={y}, level {live[row]})")
    return CertificateCheck(True, None)
