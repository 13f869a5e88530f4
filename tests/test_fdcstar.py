import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import partact
from partact.fdcstar import (
    AlgebraError,
    FDCStarAlgebra,
    StructureConstantStarAlgebra,
    _center_basis,
    _is_psd_rational,
    block_structure,
    block_structure_full,
    crossed_product,
    crossed_product_blocks,
    crossed_product_blocks_combinatorial,
    fixed_point_algebra,
    group_algebra,
    imprimitivity_bimodule_verify,
    inner_product_crossed,
    isomorphic,
    morita_equivalent,
    right_action,
)
from partact.groups import build_group
from partact.pactions import (
    PartialAction,
    global_action,
    is_free,
    random_partial_action,
    validate,
)

F = Fraction


def symbolic_product(pa, f, g_elt, k, h_elt):
    """Direct expansion of (f u_g)(k u_h) per the coefficient relations."""
    G = pa.group
    ginv = G.inv(g_elt)
    pulled = pa.alpha(ginv, f)  # alpha_{g^-1}(f), supported on X_{g^-1}
    prod = {p: pulled[p] * k[p] for p in set(pulled) & set(k)}
    pushed = pa.alpha(g_elt, prod)
    return pushed, G.mul(g_elt, h_elt)


def test_crossed_product_rule_matches_symbolic_expansion(swap_pair):
    """The indicator specialization is re-derived from the general relations."""
    alg = crossed_product(swap_pair)
    index = {b: i for i, b in enumerate(alg.basis)}
    for (g, x) in alg.basis:
        for (h, y) in alg.basis:
            coeff, gh = symbolic_product(swap_pair, {x: F(1)}, g, {y: F(1)}, h)
            got = alg.product[index[(g, x)]][index[(h, y)]]
            if not coeff:
                assert got == -1
            else:
                assert coeff == {x: F(1)}
                assert got == index[(gh, x)]


def test_crossed_product_star_matches_symbolic(swap_pair):
    alg = crossed_product(swap_pair)
    index = {b: i for i, b in enumerate(alg.basis)}
    G = swap_pair.group
    for (g, x) in alg.basis:
        ginv = G.inv(g)
        conj = swap_pair.alpha(ginv, {x: F(1)})
        assert conj == {swap_pair.theta(ginv, x): F(1)}
        assert alg.star[index[(g, x)]] == index[(ginv, swap_pair.theta(ginv, x))]


def test_crossed_product_dimensions(swap_pair, fixed_single, idle_triple):
    assert crossed_product(swap_pair).dimension == 5
    assert crossed_product(fixed_single).dimension == 2
    assert crossed_product(idle_triple).dimension == 3


def test_block_structure_reference_instances(swap_pair, fixed_single, idle_triple):
    assert block_structure(crossed_product(swap_pair)).blocks == (1, 2)
    assert block_structure(crossed_product(fixed_single)).blocks == (1, 1)
    assert block_structure(crossed_product(idle_triple)).blocks == (1, 1, 1)


def test_block_structure_global_free_swap(c2):
    swap = global_action(c2, {0, 1}, {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}})
    assert block_structure(crossed_product(swap)).blocks == (2,)


def test_block_structure_full_diagnostics(swap_pair):
    comp = block_structure_full(crossed_product(swap_pair))
    assert comp.algebra.blocks == (1, 2)
    assert comp.integrality_residual < 1e-6
    assert comp.center_dimension == 2


def test_group_algebra_blocks():
    assert block_structure(group_algebra(build_group(("cyclic", 2)))).blocks == (1, 1)
    assert block_structure(group_algebra(build_group(("cyclic", 3)))).blocks == (1, 1, 1)
    assert block_structure(group_algebra(build_group(("symmetric", 3)))).blocks == (1, 1, 2)
    assert block_structure(group_algebra(build_group("klein4"))).blocks == (1, 1, 1, 1)


def test_combinatorial_route_reference_instances(swap_pair, fixed_single):
    assert crossed_product_blocks_combinatorial(swap_pair).blocks == (1, 2)
    assert crossed_product_blocks_combinatorial(fixed_single).blocks == (1, 1)


def test_combinatorial_route_free_c3_orbit():
    c3 = build_group(("cyclic", 3))
    rot = global_action(
        c3, {0, 1, 2}, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2, 2: 0}, 2: {0: 2, 1: 0, 2: 1}}
    )
    assert crossed_product_blocks_combinatorial(rot).blocks == (3,)


def test_routes_agree_on_corpus():
    for seed in range(25):
        spec = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), "klein4", ("symmetric", 3)][seed % 5]
        pa = random_partial_action(seed, spec, 4 + seed % 8, (0.3, 0.5, 0.8, 1.0)[seed % 4])
        blocks = crossed_product_blocks(pa)
        assert blocks.dimension == sum(len(pa.domain(g)) for g in pa.group.elements())


def test_fixed_point_algebra(swap_pair, fixed_single, idle_triple):
    assert fixed_point_algebra(swap_pair).blocks == (1, 1)
    assert fixed_point_algebra(fixed_single).blocks == (1,)
    assert fixed_point_algebra(idle_triple).blocks == (1, 1, 1)


def test_fixed_point_algebra_rejects_orbit_that_is_not_a_clique():
    """Built without validate: theta_1 and theta_2 link 0 - 1 - 2 in a path,
    but no arrow joins 0 and 2, as the composition law would force."""
    c3 = build_group(("cyclic", 3))
    path = PartialAction(
        c3,
        frozenset({0, 1, 2}),
        {0: frozenset({0, 1, 2}), 1: frozenset({1, 2}), 2: frozenset({0, 1})},
        {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2}, 2: {1: 0, 2: 1}},
    )
    with pytest.raises(AssertionError, match="not a clique"):
        fixed_point_algebra(path)


def test_morita_and_isomorphic():
    a = FDCStarAlgebra((1, 2))
    b = FDCStarAlgebra((1, 1))
    c = FDCStarAlgebra((1,))
    assert morita_equivalent(a, b) and not isomorphic(a, b)
    assert not morita_equivalent(b, c)
    assert morita_equivalent(a, a) and isomorphic(a, a)


def test_free_morita_shadow_on_corpus():
    from partact.pactions import translation_groupoid

    for seed in range(20):
        pa = random_partial_action(seed, ("cyclic", 3), 7, 0.6)
        if not is_free(pa):
            continue
        cp = crossed_product_blocks(pa)
        fp = fixed_point_algebra(pa)
        orbit_count = len(translation_groupoid(pa).orbits)
        assert cp.block_count == orbit_count == fp.block_count
        assert morita_equivalent(cp, fp)


def test_degenerate_algebra_is_rejected():
    from partact.fdcstar import (
        NotSemisimpleOrDegenerate,
        StructureConstantStarAlgebra,
    )

    # Dual numbers: 1 and a self-adjoint nilpotent.  The left regular
    # representation of any central element is defective, so clustering can
    # never match the center dimension.
    nil = StructureConstantStarAlgebra(
        basis=("one", "eps"),
        product=((0, 1), (1, -1)),
        star=(0, 1),
    )
    nil.check_invariants()
    with pytest.raises(NotSemisimpleOrDegenerate):
        block_structure(nil)


def test_bimodule_swap_pair_all_clauses(swap_pair):
    report = imprimitivity_bimodule_verify(swap_pair)
    assert report.all_hold
    assert report.span_dimension == 5 and report.algebra_dimension == 5


def test_bimodule_fixed_single_right_fullness_fails(fixed_single):
    report = imprimitivity_bimodule_verify(fixed_single)
    assert report.clauses["unit_sum"]
    assert report.clauses["positivity"]
    assert report.clauses["compatibility"]
    assert report.clauses["left_fullness"]
    assert not report.clauses["right_fullness"]
    assert report.span_dimension == 1 and report.algebra_dimension == 2


def test_bimodule_idle_triple_degenerates_to_functions(idle_triple):
    report = imprimitivity_bimodule_verify(idle_triple)
    assert report.all_hold
    assert report.span_dimension == 3 == report.algebra_dimension


def test_right_action_shape(swap_pair):
    xi = {(1, 0): F(1)}  # delta_0 u_g
    moved = right_action(swap_pair, {0: F(1)}, xi)
    assert moved == {1: F(1)}


def test_inner_product_crossed_positive_diagonal(swap_pair):
    for p in swap_pair.carrier:
        elt = inner_product_crossed(swap_pair, {p: F(1)}, {p: F(1)})
        assert elt[(0, p)] == 1


# ---------------------------------------------------------------------------
# The integer routes against Fraction references, and tamper tests.
# ---------------------------------------------------------------------------


def reference_bimodule_clauses(pa, alg):
    """Compatibility and right-fullness span dimension, evaluated on Fractions.

    Compatibility compares <delta_a, delta_b> xi with <delta_a, delta_b . xi>
    for every pair of points and every basis element xi, multiplying in the
    crossed product term by term; the span dimension is the rational rank of
    all nonzero <delta_a, delta_b>.
    """
    from fraction_reference import rank

    index = {b: i for i, b in enumerate(alg.basis)}
    points = sorted(pa.carrier)

    def indexed(elt):
        return {index[k]: v for k, v in elt.items()}

    def multiply(a, b):
        out = {}
        for i, va in a.items():
            for j, vb in b.items():
                k = alg.product[i][j]
                if k >= 0:
                    out[k] = out.get(k, F(0)) + va * vb
        return {k: v for k, v in out.items() if v != 0}

    compatibility = True
    vectors = []
    for a in points:
        for b in points:
            x, y = {a: F(1)}, {b: F(1)}
            inner = inner_product_crossed(pa, x, y)
            for label in alg.basis:
                lhs = multiply(indexed(inner), {index[label]: F(1)})
                rhs = indexed(inner_product_crossed(pa, x, right_action(pa, y, {label: F(1)})))
                compatibility = compatibility and lhs == rhs
            if inner:
                vec = [F(0)] * alg.dimension
                for i, v in indexed(inner).items():
                    vec[i] = v
                vectors.append(vec)
    return compatibility, (rank(vectors) if vectors else 0)


def _shifted(pa, offset):
    """The same action on the points x + offset (far from 0..|X|-1)."""
    G = pa.group
    return validate(
        G,
        {x + offset for x in pa.carrier},
        {g: {x + offset for x in pa.domain(g)} for g in G.elements()},
        {g: {x + offset: y + offset for x, y in pa.maps[g].items()} for g in G.elements()},
    )


def _differential_instances(swap_pair, fixed_single, idle_triple):
    from partact.harness import corpus

    instances = [swap_pair, fixed_single, idle_triple] + corpus(20260808, 20)
    return instances + [_shifted(instances[3], 10**15)]


def test_bimodule_index_tables_match_fraction_reference(swap_pair, fixed_single, idle_triple):
    for pa in _differential_instances(swap_pair, fixed_single, idle_triple):
        alg = crossed_product(pa)
        report = imprimitivity_bimodule_verify(pa, crossed=alg)
        compatibility, span = reference_bimodule_clauses(pa, alg)
        assert report.compatibility == compatibility
        assert report.span_dimension == span
        assert report.right_fullness == (span == alg.dimension)
        assert report == imprimitivity_bimodule_verify(pa)


def test_bimodule_swapped_basis_labels_break_compatibility(swap_pair):
    alg = crossed_product(swap_pair)
    basis = list(alg.basis)
    assert basis[0] == (0, 0) and basis[3] == (1, 0)
    basis[0], basis[3] = basis[3], basis[0]
    tampered = replace(alg, basis=tuple(basis))
    report = imprimitivity_bimodule_verify(swap_pair, crossed=tampered)
    assert not report.compatibility
    assert reference_bimodule_clauses(swap_pair, tampered)[0] is False


def test_center_basis_of_s3_group_algebra_is_its_class_sums():
    Z = _center_basis(group_algebra(build_group(("symmetric", 3))))
    assert Z.shape == (3, 6)
    assert sorted(Z.sum(axis=1)) == [1, 2, 3]
    assert (Z.sum(axis=0) == 1).all()


def test_center_basis_rejects_a_corrupted_product_entry():
    alg = group_algebra(build_group(("symmetric", 3)))
    product = [list(row) for row in alg.product]
    # Entry (1, 2) is neither an identity row nor a b b* entry, so the
    # groupoid check passes and the class-sum centrality check must fail.
    assert alg.star[1] != 2 and product[1][2] != 0
    product[1][2] = (product[1][2] + 1) % 6
    corrupted = StructureConstantStarAlgebra(alg.basis, tuple(map(tuple, product)), alg.star)
    with pytest.raises(AssertionError, match="not central"):
        _center_basis(corrupted)


def test_check_invariants_streams_and_locates_a_broken_triple(monkeypatch):
    import partact.fdcstar as fdcstar

    alg = group_algebra(build_group(("symmetric", 3)))
    product = [list(row) for row in alg.product]
    product[4][5] = (product[4][5] + 1) % 6
    corrupted = StructureConstantStarAlgebra(alg.basis, tuple(map(tuple, product)), alg.star)
    monkeypatch.setattr(fdcstar, "CHECK_CHUNK", 1)  # one row i per chunk
    with pytest.raises(AlgebraError, match="not associative") as err:
        corrupted.check_invariants()
    i, j, k = map(int, str(err.value).split("(")[1].rstrip(")").split(", "))
    P = corrupted.product
    assert P[P[i][j]][k] != P[i][P[j][k]]


def test_crossed_product_of_regular_s4_action_fits_in_memory():
    """n = 576: the associativity check and the center stay O(n^2) in memory."""
    code = (
        "import resource\n"
        "from partact.groups import symmetric_group\n"
        "from partact.pactions import global_action\n"
        "from partact.fdcstar import crossed_product, block_structure_full\n"
        "G = symmetric_group(4)\n"
        "pts = range(G.order)\n"
        "pa = global_action(G, pts, {g: {x: G.mul(g, x) for x in pts} for g in G.elements()})\n"
        "cp = crossed_product(pa)\n"
        "blocks = list(block_structure_full(cp).algebra.blocks)\n"
        "print(cp.dimension, blocks, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(partact.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["576", "[24]", out.stdout.split()[-1]]
    assert int(out.stdout.split()[-1]) < 1024 * 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize(
    "matrix, psd",
    [
        ([[1, 2], [2, 1]], False),  # eigenvalues 3 and -1
        ([[0, 1], [1, 0]], False),  # zero pivot, nonzero off-diagonal
        ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], False),  # zero pivot after one step
        ([[1, 1], [1, 1]], True),  # rank 1
        ([[1, 2, 3], [2, 5, 7], [3, 7, 10]], True),  # rank 2 Gram matrix
        ([[0, 0], [0, 0]], True),
        ([], True),
    ],
)
def test_is_psd_rational(matrix, psd):
    assert _is_psd_rational(matrix) is psd
