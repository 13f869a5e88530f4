"""Plain Python scans for the integer-table checks in ``src/``.

Each function here is the element-by-element formulation that a table
route replaced: the certificate verifier (tower by tower, and with raw
condition (1) read densely over every h), the partial-action axiom checks,
the all-pairs composition check of a global table,
the union-find globalization, the union-find center basis, the nested
loop crossed-product builder with its exhaustive associativity scan, the
dense n x n product table they read and write (``dense_product``,
``from_dense``), the restrictions, strata and stabilizer subsystems built
through ``validate``, the enumeration of the groupoid's arrows, the set
form of n-decomposability, and the instance document written from the dict
views.  It also keeps the row-sorting forms that one sort key per row
replaced: the class-sum and bimodule multiset checks as ``np.lexsort`` over
three rows, and the envelope's class numbering by ``np.unique``.
Tests compare the two, witness for witness and label for label.
"""

from __future__ import annotations

from fractions import Fraction
import json
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from partact.fdcstar import (
    AlgebraError,
    NotSemisimpleOrDegenerate,
    StructureConstantStarAlgebra,
    _arrow_ends,
    _pairs,
    _product_lookup,
)
from partact.groups import FiniteGroup, Subgroup
from partact.pactions import (
    CompositionViolation,
    GlobalizationResult,
    IdentityDomainNotFull,
    InverseMismatch,
    NotBijective,
    PartialAction,
    PartialActionError,
    global_action,
    row_blocks,
    validate,
)
from partact.rokhlin import CertificateCheck, TowerCertificate
from tuple_reference import stabilizer_and_section

CHECK_CHUNK = 1 << 22  # product-table entries per associativity chunk


def table_of(
    group: FiniteGroup, carrier: Iterable[int], maps: Mapping[int, Mapping[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The carrier as an ascending array and the table ``theta[g, i]`` of
    ``maps`` over it, -1 where undefined, entry by entry; nothing is checked."""
    points = sorted(carrier)
    index = {x: i for i, x in enumerate(points)}
    theta = np.full((group.order, len(points)), -1, dtype=np.intp)
    for g, mapping in maps.items():
        for x, y in mapping.items():
            theta[g, index[x]] = index[y]
    return np.array(points, dtype=np.intp), theta


def unvalidated(group: FiniteGroup, carrier: Iterable[int], maps: Mapping[int, Mapping[int, int]]) -> PartialAction:
    """The action of ``maps`` on ``carrier``, built through the table with no
    axiom checked: X_g is where theta_(g^-1) is defined."""
    return PartialAction(group, *table_of(group, carrier, maps))


def groupoid_arrows(pa: PartialAction) -> tuple[tuple[int, int, int], ...]:
    """Every arrow (g, x, theta_g(x)) of the translation groupoid, g-major,
    points ascending."""
    points = pa.points.tolist()
    gs, src = np.nonzero(pa.table >= 0)  # g-major, points ascending
    at = points.__getitem__
    return tuple(zip(gs.tolist(), map(at, src.tolist()), map(at, pa.table[gs, src].tolist())))


def reference_serialize_instance(pa: PartialAction, labels: Optional[Sequence] = None) -> str:
    """The canonical instance document, written by walking ``domains`` and ``maps``."""
    if labels is None:
        labels = sorted(pa.carrier)
    label_of = {x: labels[i] for i, x in enumerate(sorted(pa.carrier))}
    doc = {
        "group": {"table": [list(row) for row in pa.group.table]},
        "carrier": list(labels),
        "domains": {
            str(g): [label_of[x] for x in sorted(pa.domain(g))]
            for g in pa.group.elements()
        },
        "maps": {
            str(g): sorted(
                ([label_of[x], label_of[y]] for x, y in pa.maps[g].items()),
                key=lambda e: str(e[0]),
            )
            for g in pa.group.elements()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_validate(
    group: FiniteGroup,
    carrier: Iterable[int],
    domains: Mapping[int, Iterable[int]],
    maps: Mapping[int, Mapping[int, int]],
) -> PartialAction:
    """Every axiom point by point; the composition and derived-domain scans
    run over all (g, h) pairs."""
    for name, keyed in (("domains", domains), ("maps", maps)):
        for k in keyed:
            if k not in range(group.order):
                raise PartialActionError(f"{name} key {k!r} is not a group element")
    X = frozenset(carrier)
    doms: dict[int, frozenset[int]] = {}
    thetas: dict[int, dict[int, int]] = {}
    for g in group.elements():
        dom = frozenset(domains.get(g, ()))
        if not dom <= X:
            stray = sorted(dom - X)[0]
            raise PartialActionError(f"domain of g={g} contains non-carrier point {stray}")
        doms[g] = dom
        thetas[g] = {int(x): int(y) for x, y in maps.get(g, {}).items()}

    if doms[0] != X:
        missing = sorted(X - doms[0])
        raise IdentityDomainNotFull(missing[0] if missing else -1)
    if any(thetas[0].get(x, x) != x for x in X) or not thetas[0].keys() <= X:
        raise PartialActionError("theta_1 must be the identity map")
    thetas[0] = {x: x for x in X}

    for g in group.elements():
        ginv = group.inv(g)
        mp = thetas[g]
        if set(mp.keys()) != set(doms[ginv]):
            raise NotBijective(g, "source set is not X_(g^-1)")
        values = list(mp.values())
        if set(values) != set(doms[g]) or len(set(values)) != len(values):
            raise NotBijective(g, "image is not X_g or map is not injective")

    for g in group.elements():
        ginv = group.inv(g)
        for x, y in thetas[g].items():
            if thetas[ginv].get(y) != x:
                raise InverseMismatch(g, x)

    for g in group.elements():
        for h in group.elements():
            gh = group.mul(g, h)
            for x, hx in thetas[h].items():
                if hx in doms[group.inv(g)]:
                    if thetas[gh].get(x) != thetas[g][hx]:
                        raise CompositionViolation(g, h, x)

    pa = unvalidated(group, X, thetas)
    for g in group.elements():
        for h in group.elements():
            lhs = frozenset(thetas[g][x] for x in doms[group.inv(g)] & doms[h])
            if lhs != doms[g] & doms[group.mul(g, h)]:
                raise AssertionError(f"derived domain identity fails at (g={g}, h={h})")
    return pa


def reference_restricted_to(pa: PartialAction, subset: Iterable[int]) -> PartialAction:
    """The restriction by filtering every map to S, re-validated."""
    S = frozenset(subset)
    maps = {
        g: {x: y for x, y in pa.maps[g].items() if x in S and y in S}
        for g in pa.group.elements()
    }
    domains = {g: frozenset(maps[g].values()) for g in pa.group.elements()}
    return validate(pa.group, S, domains, maps)


def reference_stratification(pa: PartialAction) -> dict[int, frozenset[int]]:
    """Strata by |tau(x)|, point by point, with every arrow checked to stay
    in its stratum."""
    order = pa.group.order
    strata = {k: frozenset(x for x in pa.carrier if len(pa.domain_tuple(x)) == k)
              for k in range(1, order + 1)}
    for g, x, y in groupoid_arrows(pa):
        if len(pa.domain_tuple(x)) != len(pa.domain_tuple(y)):
            raise AssertionError("an arrow crosses strata; equivariance is broken")
    if frozenset().union(*strata.values()) != pa.carrier:
        raise AssertionError("strata do not exhaust the carrier")
    return strata


def reference_is_n_decomposable(pa: PartialAction, n: int) -> bool:
    """The set form: (a) the domain-tuple intersections X_tau for n-tuples
    tau cover the carrier, and (b) X_tau meets no X_g with g outside tau,
    by Python set intersections of the domains."""
    # Only the n-tuples that occur as some tau(x) need checking: a point in
    # fewer than n domains lies in no X_tau, and a point in more than n either
    # stays uncovered or lies in an occurring X_tau together with an outside
    # domain.  So the restricted check fails exactly when the full one does.
    occurring = {tau for tau in map(pa.domain_tuple, pa.carrier) if len(tau) == n}
    covered: set[int] = set()
    intersections_clean = True
    for tau in occurring:
        X_tau = pa.carrier.intersection(*map(pa.domain, tau))
        covered |= X_tau
        for g in pa.group.elements():
            if g not in tau and X_tau & pa.domain(g):
                intersections_clean = False
    return covered == set(pa.carrier) and intersections_clean


def reference_stabilizer_subsystem(
    pa: PartialAction, tau: frozenset[int], X_tau: frozenset[int]
) -> tuple[Subgroup, PartialAction]:
    """The stabilizer's action on X_tau from the maps, re-validated and
    checked to be global."""
    H, _, _ = stabilizer_and_section(pa.group, tau)
    members = H.sorted_members()
    domains = {i: X_tau for i in range(len(members))}
    maps = {i: {x: pa.theta(members[i], x) for x in X_tau} for i in range(len(members))}
    subsystem = validate(H.as_group(), X_tau, domains, maps)
    if not subsystem.is_global():
        raise AssertionError("stabilizer subsystem is not global")
    return H, subsystem


def derived_towers(pa: PartialAction, cert: TowerCertificate) -> dict[int, list[dict[int, Fraction]]]:
    """f_g^(j) = f_1^(j) . theta_{g^-1} on X_g, zero elsewhere."""
    out: dict[int, list[dict[int, Fraction]]] = {}
    for g in pa.group.elements():
        ginv = pa.group.inv(g)
        out[g] = []
        for j in range(cert.d + 1):
            tower = {}
            for z in pa.domain(g):
                v = cert.value(j, pa.theta(ginv, z))
                if v:
                    tower[z] = v
            out[g].append(tower)
    return out


def reference_verify_certificate(pa: PartialAction, cert: TowerCertificate) -> CertificateCheck:
    """Supports, (C2), (C3) and raw condition (1), tower by tower on Fractions."""
    G = pa.group
    towers = derived_towers(pa, cert)
    for j in range(cert.d + 1):
        for x, v in cert.levels[j].items():
            if x not in pa.carrier:
                return CertificateCheck(False, f"level {j} assigns mass to non-carrier point {x}")
            if not (0 <= v <= 1):
                return CertificateCheck(False, f"level {j} value at {x} is outside [0, 1]")
    for g in G.elements():
        for j in range(cert.d + 1):
            if any(z not in pa.domain(g) for z in towers[g][j]):
                return CertificateCheck(False, f"tower f_{g}^({j}) leaves its domain")
    for j in range(cert.d + 1):
        for x in pa.carrier:
            positive = [g for g in G.elements() if towers[g][j].get(x, Fraction(0)) > 0]
            if len(positive) > 1:
                return CertificateCheck(
                    False, f"orthogonality fails at point {x}, level {j}: towers {positive}"
                )
    for x in pa.carrier:
        total = sum(
            towers[g][j].get(x, Fraction(0))
            for g in G.elements()
            for j in range(cert.d + 1)
        )
        if total != 1:
            return CertificateCheck(False, f"tower masses sum to {total} != 1 at point {x}")
    for g in G.elements():
        for y in pa.domain(G.inv(g)):
            z = pa.theta(g, y)
            for h in G.elements():
                gh = G.mul(g, h)
                for j in range(cert.d + 1):
                    lhs = towers[h][j].get(y, Fraction(0))
                    rhs = towers[gh][j].get(z, Fraction(0))
                    if lhs != rhs:
                        return CertificateCheck(
                            False,
                            f"raw condition (1) fails at (g={g}, h={h}, y={y}, level {j})",
                        )
    return CertificateCheck(True, None)


def dense_verify_certificate(pa: PartialAction, cert: TowerCertificate) -> CertificateCheck:
    """The certificate check with raw condition (1) read densely: for a
    block of g at a time, T[j, h, y] is compared with T[j, gh, theta_g(y)]
    for every h, one (level, g, h, y) array per block.  The supports, (C2)
    and (C3) are read as in ``rokhlin.verify_certificate``, with the same
    witnesses in the same order."""
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


def reference_check_global_table(group: FiniteGroup, theta: np.ndarray) -> None:
    """Raise AssertionError unless ``theta`` is total on range(size) with the
    identity at row 0 and theta_g theta_h = theta_gh for every pair (g, h),
    pair by pair, naming the first failing pair."""
    size = theta.shape[1]
    if not (((theta >= 0) & (theta < size)).all() and np.array_equal(theta[0], np.arange(size))):
        raise AssertionError("table is not total on its points with the identity at row 0")
    for g in group.elements():
        for h in group.elements():
            if not np.array_equal(theta[g][theta[h]], theta[group.mul(g, h)]):
                raise AssertionError(f"table fails composition at (g={g}, h={h})")


def reference_globalize(pa: PartialAction) -> GlobalizationResult:
    """The envelope by union-find over G x X, classes numbered by least pair."""
    G = pa.group
    elems = list(G.elements())
    pairs = [(g, x) for g in elems for x in sorted(pa.carrier)]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for g in elems:
        for h in elems:
            hg = G.mul(G.inv(h), g)
            for x in pa.domains[G.inv(hg)]:
                y = pa.maps[hg][x]
                a, b = find((g, x)), find((h, y))
                if a != b:
                    parent[a] = b

    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for p in pairs:
        classes.setdefault(find(p), []).append(p)
    reps = sorted(classes, key=lambda r: min(classes[r]))
    label = {rep: i for i, rep in enumerate(reps)}
    # Each class's least pair (g, x), grouped by g, with x as its carrier index.
    index = {x: i for i, x in enumerate(sorted(pa.carrier))}
    splitting = {g: set() for g in elems}
    for rep in reps:
        g, x = min(classes[rep])
        splitting[g].add(index[x])
    point = {p: label[find(p)] for p in pairs}

    carrier = frozenset(range(len(reps)))
    perms = {}
    for a in G.elements():
        perms[a] = {point[(g, x)]: point[(G.mul(a, g), x)] for (g, x) in pairs}
    envelope = global_action(G, carrier, perms)
    embedding = {x: point[(0, x)] for x in pa.carrier}

    if len(set(embedding.values())) != len(pa.carrier):
        raise AssertionError("globalization embedding is not injective")
    emb = frozenset(embedding.values())
    for g in G.elements():
        translated = frozenset(envelope.maps[g][z] for z in emb)
        if frozenset(embedding[x] for x in pa.domains[g]) != emb & translated:
            raise AssertionError(f"envelope domain condition fails at g={g}")
        for x in pa.domains[G.inv(g)]:
            if envelope.maps[g][embedding[x]] != embedding[pa.maps[g][x]]:
                raise AssertionError(f"envelope does not extend theta_{g}")
    covered = set()
    for g in G.elements():
        covered |= {envelope.maps[g][z] for z in emb}
    if covered != set(carrier):
        raise AssertionError("translates of the embedded carrier do not cover the envelope")
    return GlobalizationResult(envelope, embedding, pa, {g: frozenset(p) for g, p in splitting.items()})


def reference_central_splitting(gr: GlobalizationResult) -> dict[int, frozenset[int]]:
    """Greedy inclusion-exclusion over the envelope's maps: each translate
    keeps what the earlier ones have not claimed, P_k = sigma_{g_k}(X) minus
    the earlier translates, and p_{g_k} = sigma_{g_k}^{-1}(P_k)."""
    env = gr.envelope
    G = env.group
    emb = frozenset(gr.embedding.values())
    translates = {g: frozenset(env.maps[g][z] for z in emb) for g in G.elements()}
    splitting = {}
    claimed: set[int] = set()
    for g in G.elements():
        P_k = translates[g] - claimed
        claimed |= translates[g]
        splitting[g] = frozenset(env.maps[G.inv(g)][z] for z in P_k)
    union: set[int] = set()
    for g in G.elements():
        piece = frozenset(env.maps[g][z] for z in splitting[g])
        if piece & union:
            raise AssertionError("central splitting pieces overlap")
        union |= piece
    if union != set(env.carrier):
        raise AssertionError("central splitting does not cover the envelope")
    return splitting


def dense_product(alg: StructureConstantStarAlgebra) -> np.ndarray:
    """The n x n product table of ``alg``: entry (i, j) is the index of
    b_i b_j, or -1 where the product vanishes."""
    n = alg.dimension
    table = np.full((n, n), -1, dtype=np.intp)
    i, j, k = alg.product.T
    table[i, j] = k
    return table


def from_dense(basis: Sequence, product, star) -> StructureConstantStarAlgebra:
    """The algebra whose n x n product table is ``product``, -1 where the
    product vanishes: its entries that are not -1 become the product rows."""
    table = np.asarray(product, dtype=np.intp).reshape(len(basis), len(basis))
    i, j = np.nonzero(table != -1)
    return StructureConstantStarAlgebra(tuple(basis), np.stack([i, j, table[i, j]], axis=1), star)


def reference_center_basis(alg: StructureConstantStarAlgebra) -> np.ndarray:
    """Class sums of loops by union-find: loop b joined with c b c* for each
    arrow c out of its unit; rows in the order of each class's least loop."""
    n = alg.dimension
    P, S = dense_product(alg), alg.star
    unit = [P[k][S[k]] for k in range(n)]
    source = [P[S[k]][k] for k in range(n)]
    parent = list(range(n))

    def find(b: int) -> int:
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    loops = [b for b in range(n) if unit[b] == source[b]]
    for b in loops:
        for c in range(n):
            if source[c] == unit[b]:
                parent[find(P[P[c][b]][S[c]])] = find(b)
    classes: dict[int, list[int]] = {}
    for b in loops:
        classes.setdefault(find(b), []).append(b)
    Z = np.zeros((len(classes), n))
    for row, members in enumerate(classes.values()):
        Z[row, members] = 1.0
    return Z


def reference_crossed_product(pa: PartialAction) -> StructureConstantStarAlgebra:
    """The crossed product by a nested loop over pairs of basis elements,
    unchecked; a composed arrow missing from the basis raises KeyError."""
    G = pa.group
    basis = [(g, x) for g in G.elements() for x in sorted(pa.domain(g))]
    index = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    product = [[-1] * n for _ in range(n)]
    for i, (g, x) in enumerate(basis):
        xg = pa.theta(G.inv(g), x)
        for j, (h, y) in enumerate(basis):
            if xg == y:
                product[i][j] = index[(G.mul(g, h), x)]
    star = [index[(G.inv(g), pa.theta(G.inv(g), x))] for (g, x) in basis]
    return from_dense(basis, product, star)


def reference_check_invariants(alg: StructureConstantStarAlgebra) -> None:
    """Associativity over all n^3 triples, a few rows i at a time, then the
    involution and anti-homomorphism laws of star."""
    n = alg.dimension
    if n == 0:
        return
    # Vanishing products point at an extra index n that absorbs everything.
    E = np.full((n + 1, n + 1), n, dtype=np.int16 if n < 2**15 else np.int64)
    P = dense_product(alg).astype(np.int64)
    E[:n, :n] = np.where(P >= 0, P, n)
    idx = E[:n, :n].astype(np.intp)
    rows_of = np.ascontiguousarray(E[:, :n])
    step = max(1, CHECK_CHUNK // (n * n))
    for start in range(0, n, step):
        stop = min(n, start + step)
        left = rows_of[idx[start:stop]]
        right = np.take(E[start:stop], idx, axis=1)
        if not np.array_equal(left, right):
            i, j, k = np.argwhere(left != right)[0]
            raise AlgebraError(
                f"product is not associative at basis triple ({start + i}, {j}, {k})"
            )
    S = np.array(alg.star, dtype=np.intp)
    if not np.array_equal(S[S], np.arange(n)):
        raise AlgebraError("star is not an involution")
    if not np.array_equal(np.append(S, n)[idx], E[np.ix_(S, S)].T):
        raise AlgebraError("star is not an anti-homomorphism")


def lexsort_center_basis(alg: StructureConstantStarAlgebra) -> tuple:
    """``fdcstar._center_basis`` with its class-sum check on whole rows:
    the rows (class, other factor, product) of both sides, (n, n, n) off the
    loops, sorted by ``np.lexsort``; a failure names the smaller class at
    the first column where the sorted rows differ."""
    n = alg.dimension
    lookup, S = _product_lookup(alg), alg.star
    ks = np.arange(n)
    unit, source = lookup(ks, S), lookup(S, ks)
    bad = (lookup(unit, ks) != ks).nonzero()[0]
    if len(bad):
        raise NotSemisimpleOrDegenerate(f"basis element {bad[0]} is not a groupoid arrow")
    loops = (unit == source).nonzero()[0]
    at, c = _pairs(unit[loops], source)
    conjugates = lookup(lookup(c, loops[at]), S[c])
    if (conjugates < 0).any():
        raise NotSemisimpleOrDegenerate(f"a conjugate of loop {loops[at[conjugates < 0]].min()} vanishes")
    smallest = np.minimum.reduceat(conjugates, at.searchsorted(ks[:len(loops)]))
    least = np.bincount(smallest, minlength=n).nonzero()[0]
    cls = np.full(n + 1, -1)
    cls[loops] = least.searchsorted(smallest)
    i, j, k = alg.product.T
    sides = []
    for loop, other in ((i, j), (j, i)):
        rows = np.where(cls[loop] >= 0, [cls[loop], other, k], n)
        sides.append(rows[:, np.lexsort(rows[::-1])])
    left, right = sides
    if not np.array_equal(left, right):
        col = (left != right).any(axis=0).argmax()
        raise AssertionError(f"class sum of basis element {least[min(left[0, col], right[0, col])]} is not central")
    return loops, cls, least, unit, lookup


def lexsort_compatibility(pa: PartialAction, crossed: StructureConstantStarAlgebra) -> bool:
    """The bimodule's compatibility clause on whole rows: the (c, cell,
    basis index) rows of both sides, each sorted by ``np.lexsort``, equal."""
    npoints = pa.size()
    _, tgt, src = _arrow_ends(crossed, pa)
    i, j, k = crossed.product.T
    cells = tgt * npoints + src
    m, c = _pairs(src, src)
    sides = []
    for rows in (np.array([j, cells[i], k]), np.array([c, tgt[m] * npoints + tgt[c], m])):
        sides.append(rows[:, np.lexsort(rows[::-1])])
    return np.array_equal(*sides)


def unique_numbered_envelope(pa: PartialAction) -> tuple[np.ndarray, np.ndarray]:
    """The envelope table of ``globalize`` and its embedding row, with each
    pair's least class pair taken over one dense (g, k, x) array and the
    classes numbered by ``np.unique``."""
    mul, inv = pa.group.arrays
    order, n = pa.group.order, pa.size()
    image = np.where(pa.table >= 0, pa.table, order * n)
    least = (mul[:, inv, None] * n + image).min(axis=1)
    firsts, point = np.unique(least, return_inverse=True)
    point = point.reshape(order, n)
    return point[mul[:, firsts // n], firsts % n], point[0]
