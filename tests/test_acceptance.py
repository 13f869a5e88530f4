"""Acceptance suite: one test per release criterion, one line per outcome.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criteria marked with runtime limits assert them.  All tolerances are pinned
here; nothing is deferred to later calibration.
"""

import random
import time
from fractions import Fraction

from block_reference import block_structure_full
from lift_reference import orthogonal_lifts
from scan_reference import groupoid_arrows

from partact.fdcstar import (
    block_structure,
    crossed_product,
    crossed_product_blocks_combinatorial,
    imprimitivity_bimodule_verify,
)
from partact.gridtowers import (
    interval_half_shift,
    punctured_circle_pair,
    residual,
    search_towers,
    witness_bound,
)
from partact.groups import build_group
from partact.harness import (
    check_free_iff_finite,
    check_globalization_theorem,
    check_strata_theorem,
    corpus,
)
from partact.pactions import (
    is_free,
    trivial_partial_action,
    validate,
)
from partact.rokhlin import (
    TowerCertificate,
    rokhlin_dimension,
    towers_exist,
    verify_certificate,
)

F = Fraction
SEED = 20260808


def _report(number: int, description: str):
    print(f"ACCEPTANCE {number} ({description}): PASS")


def _fixed_single():
    c2 = build_group(("cyclic", 2))
    return validate(c2, {0}, {0: {0}, 1: {0}}, {0: {0: 0}, 1: {0: 0}})


def test_criterion_1_trivial_action_identities():
    start = time.time()
    c2 = build_group(("cyclic", 2))
    idle_triple = trivial_partial_action(c2, {0, 1, 2})
    alg = crossed_product(idle_triple)
    assert alg.dimension == 3  # only identity terms: the function algebra itself
    assert block_structure_full(alg).algebra.blocks == (1, 1, 1)
    rok = rokhlin_dimension(idle_triple)
    assert rok.dimension == 0 and rok.refutation is None
    assert rok.certificate.levels[0] == {x: F(1) for x in idle_triple.carrier}
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, "trivial action: crossed product is the function algebra, dimension 0")


def test_criterion_2_free_iff_finite_on_corpus():
    start = time.time()
    report = check_free_iff_finite(SEED, count=100)
    assert report.passed, report.failures
    # Spot-check the two regimes really occur in the corpus.
    instances = corpus(SEED, 100)
    freeness = [is_free(pa) for pa in instances]
    assert any(freeness) and not all(freeness)
    elapsed = time.time() - start
    assert elapsed < 300
    _report(2, f"free iff finite over 100 instances in {elapsed:.1f}s")


def test_criterion_3_globalization_preserves_dimension():
    start = time.time()
    report = check_globalization_theorem(SEED, count=100)
    assert report.passed, report.failures
    elapsed = time.time() - start
    assert elapsed < 300
    _report(3, f"dimension equals globalization dimension over 100 instances in {elapsed:.1f}s")


def test_criterion_4_decomposable_dimension_via_subsystems():
    start = time.time()
    report = check_strata_theorem(SEED, count=50)
    assert report.passed, report.failures
    assert report.instances == 50
    elapsed = time.time() - start
    assert elapsed < 300
    _report(4, f"subsystem maximum on 50 decomposable instances in {elapsed:.1f}s")


def test_criterion_5_block_route_equivalence():
    start = time.time()
    for pa in corpus(SEED, 100):
        alg = crossed_product(pa)
        comp = block_structure_full(alg, seed=0)
        combinatorial = crossed_product_blocks_combinatorial(pa)
        assert comp.algebra == combinatorial
        assert block_structure(alg) == combinatorial
        assert comp.algebra.dimension == sum(len(pa.domain(g)) for g in pa.group.elements())
        assert comp.integrality_residual < 1e-6
    elapsed = time.time() - start
    assert elapsed < 300
    _report(5, f"exact, float and combinatorial block routes agree on 100 instances in {elapsed:.1f}s")


def test_criterion_6_morita_bimodule():
    start = time.time()
    free_count = 0
    for pa in corpus(SEED, 100):
        if not is_free(pa):
            continue
        free_count += 1
        report = imprimitivity_bimodule_verify(pa, crossed=crossed_product(pa))
        assert report.all_hold, (pa, report.clauses)
    assert free_count > 0
    fixed = _fixed_single()
    fixed_report = imprimitivity_bimodule_verify(fixed, crossed=crossed_product(fixed))
    assert not fixed_report.right_fullness
    assert fixed_report.span_dimension == 1 and fixed_report.algebra_dimension == 2
    assert fixed_report.clauses["unit_sum"] and fixed_report.clauses["positivity"]
    assert fixed_report.clauses["compatibility"] and fixed_report.clauses["left_fullness"]
    elapsed = time.time() - start
    assert elapsed < 300
    _report(6, f"bimodule clauses hold on {free_count} free instances; span 1 vs 2 on the fixed point")


def test_criterion_7_interval_towers_within_bound():
    start = time.time()
    ga, towers, family = interval_half_shift(F(1, 8), 64)
    assert towers.d == 1
    res = residual(ga, towers, family)
    bound = witness_bound(ga, family, F(1, 8))
    assert res <= bound
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(7, f"two-level interval towers: residual {res} within grid bound {bound}")


def test_criterion_8_circle_pair_obstruction_vs_level_one():
    start = time.time()
    ga, family, eps = punctured_circle_pair(128, lipschitz=8)
    assert eps == F(3, 16)
    trace: list = []
    _, best0 = search_towers(
        ga, family, F(0), 0, lipschitz=8, seed=SEED, restarts=500, trace=trace
    )
    assert len(trace) == 500
    assert best0 >= F(1, 16), f"level-0 search got below 1/16: {best0}"
    _, best1 = search_towers(
        ga, family, F(1, 1000), 1, lipschitz=8, seed=SEED, restarts=500
    )
    assert best1 <= F(1, 1000), f"level-1 search stuck at {best1}"
    elapsed = time.time() - start
    assert elapsed < 600
    _report(
        8,
        f"level-0 floor {float(best0):.4f} >= 1/16 over 500 restarts, "
        f"level-1 residual {float(best1):.2e} <= 1e-3, in {elapsed:.0f}s (evidence, not proof)",
    )


def test_criterion_9_property_suites():
    start = time.time()
    instances = corpus(SEED + 1, 40)

    # Partial-action identities: derived domain identity and unit identity.
    for pa in instances:
        G = pa.group
        for g in G.elements():
            for h in G.elements():
                lhs = frozenset(pa.theta(g, x) for x in pa.domain(G.inv(g)) & pa.domain(h))
                assert lhs == pa.domain(g) & pa.domain(G.mul(g, h))
                for z in pa.domain(g):
                    assert int(z in pa.domain(G.mul(g, h))) == int(
                        pa.theta(G.inv(g), z) in pa.domain(h)
                    )

    # Tuple-map equivariance.
    for pa in instances:
        for g in pa.group.elements():
            for x in pa.domain(pa.group.inv(g)):
                image = frozenset(pa.group.mul(g, h) for h in pa.domain_tuple(x))
                assert pa.domain_tuple(pa.theta(g, x)) == image

    # Stratification invariance: no groupoid arrow crosses strata.
    visited = 0
    for pa in instances:
        for g, x, y in groupoid_arrows(pa):
            assert len(pa.domain_tuple(x)) == len(pa.domain_tuple(y))
            visited += 1
    assert visited > 0

    # Certificate monotonicity: a level of zeros extends any certificate.
    for pa in instances[:15]:
        outcome = towers_exist(pa, 0)
        if isinstance(outcome, TowerCertificate):
            padded = TowerCertificate(1, (outcome.levels[0], {}))
            assert verify_certificate(pa, padded).ok

    # Orthogonal-lift postconditions on randomized inputs.
    rng = random.Random(SEED)
    for _ in range(25):
        size = rng.randint(1, 7)
        X = frozenset(range(size))
        J = frozenset(p for p in X if rng.random() < 0.4)
        n = rng.randint(1, 3)
        ideals = [frozenset(p for p in X if rng.random() < 0.7) for _ in range(n)]
        xs = []
        for i in range(n):
            func = {}
            for p in ideals[i]:
                if rng.random() < 0.7:
                    func[p] = F(rng.randint(1, 8), 8)
            xs.append(func)
        # Enforce the precondition: off J, at most one function is positive.
        for p in X - J:
            holders = [i for i in range(n) if xs[i].get(p)]
            for i in holders[1:]:
                del xs[i][p]
        ys = orthogonal_lifts(X, J, ideals, xs)
        for i in range(n):
            for p, v in ys[i].items():
                assert p in ideals[i] and 0 <= v <= xs[i].get(p, F(0))
            for p in X - J:
                assert ys[i].get(p, F(0)) == xs[i].get(p, F(0))
            for k in range(i + 1, n):
                assert not (set(ys[i]) & set(ys[k]))

    elapsed = time.time() - start
    assert elapsed < 300
    _report(9, f"module property suites over the corpus in {elapsed:.1f}s")
