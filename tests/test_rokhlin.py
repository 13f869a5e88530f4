import math
from fractions import Fraction

import pytest

from partact.groups import build_group
from partact.pactions import (
    globalize,
    is_free,
    random_partial_action,
    restrict_and_quotient,
    translation_groupoid,
    validate,
)
from partact.rokhlin import (
    NonexistenceProof,
    TowerCertificate,
    rokhlin_dimension,
    towers_exist,
    verify_certificate,
    verify_refutation,
)
from lift_reference import PreconditionViolated, orthogonal_lifts
from scan_reference import reference_verify_certificate, unvalidated

F = Fraction


def test_swap_pair_d0_certificate(swap_pair):
    cert = towers_exist(swap_pair, 0)
    assert isinstance(cert, TowerCertificate)
    assert verify_certificate(swap_pair, cert).ok
    # The hand solution: the least point of each orbit at level 0.
    assert cert.levels[0] == {0: F(1), 2: F(1)}


def test_fixed_single_nonexistence_all_d(fixed_single):
    for d in range(2):
        proof = towers_exist(fixed_single, d)
        assert isinstance(proof, NonexistenceProof)
        assert verify_refutation(fixed_single, proof).ok
        assert proof.orbit == (0,)
        assert proof.parallel == ((0, 0, 1),)


def test_idle_triple_constant_one_certificate(idle_triple):
    cert = towers_exist(idle_triple, 0)
    assert isinstance(cert, TowerCertificate)
    assert cert.levels[0] == {x: F(1) for x in idle_triple.carrier}


def test_rokhlin_dimension_reference_instances(swap_pair, fixed_single, idle_triple):
    r1 = rokhlin_dimension(swap_pair)
    assert r1.dimension == 0 and r1.refutation is None
    assert verify_certificate(swap_pair, r1.certificate).ok
    r2 = rokhlin_dimension(fixed_single)
    assert r2.dimension == math.inf and r2.certificate is None
    assert r2.refutation == towers_exist(fixed_single, 0)
    assert verify_refutation(fixed_single, r2.refutation).ok
    r3 = rokhlin_dimension(idle_triple)
    assert r3.dimension == 0


def test_verify_certificate_rejects_tampering(swap_pair):
    cert = towers_exist(swap_pair, 0)
    bad_level = dict(cert.levels[0])
    bad_level[1] = F(1)
    bad_level[0] = F(1)
    bad = TowerCertificate(0, (bad_level,))
    check = verify_certificate(swap_pair, bad)
    assert not check.ok and check.witness


def test_verify_certificate_holds_masses_past_2_62_in_python_ints(swap_pair):
    """Values over 3^40 do not fit int64, so the tables hold Python ints: a
    valid two-level certificate passes, and tampered copies fail with the
    scan reference's witness.  Three levels over 3^39 fit int64 one by one,
    but a mass near 3 would wrap an int64 sum."""
    a, b, e = F(1, 3**40), F(2, 3**40), F(1, 3**39)
    valid = TowerCertificate(1, ({0: a, 2: b}, {0: 1 - a, 2: 1 - b}))
    tampered = [
        TowerCertificate(1, ({0: a, 2: b}, {0: 1 - a, 2: 1 - b + a})),
        TowerCertificate(1, ({0: a, 1: a, 2: b}, {0: 1 - a, 2: 1 - b})),
        TowerCertificate(2, ({0: 1 - e, 2: F(1)}, {0: F(1)}, {0: F(1)})),
    ]
    assert verify_certificate(swap_pair, valid).ok and reference_verify_certificate(swap_pair, valid).ok
    witnesses = []
    for cert in tampered:
        new, ref = verify_certificate(swap_pair, cert), reference_verify_certificate(swap_pair, cert)
        assert not new.ok and (new.ok, new.witness) == (ref.ok, ref.witness)
        witnesses.append(new.witness)
    assert witnesses == [
        f"tower masses sum to {1 + a} != 1 at point 2",
        "orthogonality fails at point 0, level 0: towers [0, 1]",
        f"tower masses sum to {3 - e} != 1 at point 0",
    ]


def test_verify_certificate_raw_condition_catches_broken_equivariance():
    """Equivariance is checked against the maps themselves, in the raw loop.

    The instance is built without validate: theta_2 is the swap (0 1), not
    the inverse of the 3-cycle theta_1.  The certificate f_1 = delta_0 then
    passes supports, orthogonality and the partition of unity, and only the
    raw condition f_0(0) = f_2(theta_2(0)) fails.
    """
    c3 = build_group(("cyclic", 3))
    everything = frozenset({0, 1, 2})
    broken = unvalidated(c3, everything, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 2, 2: 0}, 2: {0: 1, 1: 0, 2: 2}})
    check = verify_certificate(broken, TowerCertificate(0, ({0: F(1)},)))
    assert not check.ok
    assert check.witness == "raw condition (1) fails at (g=2, h=0, y=0, level 0)"


def test_verify_certificate_rejects_all_zero(swap_pair):
    zero = TowerCertificate(0, ({},))
    check = verify_certificate(swap_pair, zero)
    assert not check.ok
    assert "sum" in check.witness


def test_monotonicity_padding(swap_pair, idle_triple):
    for pa in (swap_pair, idle_triple):
        c0 = towers_exist(pa, 0)
        c1 = towers_exist(pa, 1)
        assert isinstance(c0, TowerCertificate) and isinstance(c1, TowerCertificate)
        padded = TowerCertificate(1, (c0.levels[0], {}))
        assert verify_certificate(pa, padded).ok


def test_free_corpus_dimension_zero():
    for seed in range(25):
        pa = random_partial_action(seed, ("cyclic", 3), 7, 0.6)
        result = rokhlin_dimension(pa)
        assert is_free(pa) == result.finite
        if result.finite:
            assert result.dimension == 0
            assert verify_certificate(pa, result.certificate).ok


def _fixed_plus_swap():
    # C2 on {0, 1, 2}: 0 is fixed (an orbit with isotropy), {1, 2} is swapped.
    c2 = build_group(("cyclic", 2))
    return validate(
        c2,
        {0, 1, 2},
        {0: {0, 1, 2}, 1: {0, 1, 2}},
        {0: {0: 0, 1: 1, 2: 2}, 1: {0: 0, 1: 2, 2: 1}},
    )


def test_nonfree_instances_always_infinite():
    result = rokhlin_dimension(_fixed_plus_swap())
    assert result.dimension == math.inf


def test_restriction_monotonicity():
    for seed in range(12):
        pa = random_partial_action(seed, "klein4", 8, 0.5)
        orbits = translation_groupoid(pa).orbits
        if not orbits:
            continue
        S = orbits[0]
        part, rest = restrict_and_quotient(pa, S)
        full = rokhlin_dimension(pa).dimension
        assert rokhlin_dimension(part).dimension <= full
        assert rokhlin_dimension(rest).dimension <= full


def test_nonexistence_is_order_independent(fixed_single):
    # Rebuild the same instance with permuted carrier labels: the proof's
    # shape (orbit size, parallel-pair count) must be stable.
    c2 = build_group(("cyclic", 2))
    relabeled = validate(c2, {7}, {0: {7}, 1: {7}}, {0: {7: 7}, 1: {7: 7}})
    p1 = towers_exist(fixed_single, 1)
    p2 = towers_exist(relabeled, 1)
    assert isinstance(p1, NonexistenceProof) and isinstance(p2, NonexistenceProof)
    assert (p1.orbit, p2.orbit) == ((0,), (7,))
    assert len(p1.parallel) == len(p2.parallel) == 1


def test_regular_orbit_certificate_is_least_point_padded():
    c6 = build_group(("cyclic", 6))
    pa = validate(
        c6,
        set(range(6)),
        {g: set(range(6)) for g in range(6)},
        {g: {x: (x + g) % 6 for x in range(6)} for g in range(6)},
    )
    cert = towers_exist(pa, 5)
    assert isinstance(cert, TowerCertificate)
    assert cert.levels == ({0: F(1)},) + ({},) * 5


def test_refutation_names_the_orbit_with_isotropy():
    c3 = build_group(("cyclic", 3))
    # A free point 0, then a C3-fixed point 1.
    pa = validate(c3, {0, 1}, {0: {0, 1}, 1: {1}, 2: {1}}, {0: {0: 0, 1: 1}, 1: {1: 1}, 2: {1: 1}})
    proof = towers_exist(pa, 1)
    assert isinstance(proof, NonexistenceProof)
    assert proof.orbit == (1,)
    assert proof.parallel == ((1, 0, 1),)
    assert rokhlin_dimension(pa).refutation == proof


def test_verify_refutation_rejects_repeated_element():
    pa = _fixed_plus_swap()
    check = verify_refutation(pa, NonexistenceProof((0,), ((0, 1, 1),)))
    assert not check.ok and "repeats" in check.witness


def test_verify_refutation_rejects_arrows_not_in_maps():
    pa = _fixed_plus_swap()
    # theta_0(1) = 1 but theta_1(1) = 2: not parallel.
    check = verify_refutation(pa, NonexistenceProof((1, 2), ((1, 0, 1), (2, 0, 1))))
    assert not check.ok and "not one defined point" in check.witness
    # An element outside the group has no arrows at all.
    check = verify_refutation(pa, NonexistenceProof((0,), ((0, 0, 5),)))
    assert not check.ok and "not one defined point" in check.witness


def test_verify_refutation_rejects_orbit_not_closed():
    pa = _fixed_plus_swap()
    # {0, 1} is not closed: theta_1 maps 1 to 2.
    check = verify_refutation(pa, NonexistenceProof((0, 1), ((0, 0, 1), (1, 0, 1))))
    assert not check.ok and "outside it" in check.witness


def test_verify_refutation_rejects_uncovered_point():
    c2 = build_group(("cyclic", 2))
    pa = validate(c2, {0, 1}, {0: {0, 1}, 1: {0, 1}}, {0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}})
    good = towers_exist(pa, 0)
    assert good == NonexistenceProof((0,), ((0, 0, 1),))
    assert verify_refutation(pa, good).ok
    # {0, 1} as one (closed) orbit, with a parallel pair at 0 only.
    check = verify_refutation(pa, NonexistenceProof((0, 1), ((0, 0, 1),)))
    assert not check.ok and "point 1" in check.witness


def test_verify_refutation_rejects_empty_orbit_and_outside_triples(fixed_single):
    assert not verify_refutation(fixed_single, NonexistenceProof((), ())).ok
    check = verify_refutation(fixed_single, NonexistenceProof((0,), ((0, 0, 1), (3, 0, 1))))
    assert not check.ok and "outside the orbit" in check.witness


def test_verify_refutation_rejects_free_orbit(swap_pair):
    # On a free orbit no point has a parallel pair, whatever triples are claimed.
    for triples in ((), ((0, 0, 1), (1, 0, 1))):
        assert not verify_refutation(swap_pair, NonexistenceProof((0, 1), triples)).ok


def test_empty_carrier_has_dimension_zero():
    c2 = build_group(("cyclic", 2))
    empty = validate(c2, set(), {0: set(), 1: set()}, {0: {}, 1: {}})
    result = rokhlin_dimension(empty)
    assert result.dimension == 0


def test_globalization_preserves_dimension_samples():
    for seed in range(10):
        pa = random_partial_action(seed, ("cyclic", 4), 6, 0.5)
        env = globalize(pa).envelope
        assert rokhlin_dimension(pa).dimension == rokhlin_dimension(env).dimension


# ---------------------------------------------------------------------------
# Orthogonal lifts (finite commutative model).
# ---------------------------------------------------------------------------


def test_lift_single_function_unchanged():
    ys = orthogonal_lifts({1, 2}, set(), [frozenset({1, 2})], [{1: F(1, 2)}])
    assert ys == [{1: F(1, 2)}]


def test_lift_two_overlapping_indicators():
    X = {1, 2, 3}
    J = {2}
    A1, A2 = frozenset({1, 2}), frozenset({2, 3})
    x1 = {1: F(1), 2: F(1)}
    x2 = {2: F(1), 3: F(1)}
    y1, y2 = orthogonal_lifts(X, J, [A1, A2], [x1, x2])
    assert y1 == {1: F(1)}
    assert y2 == {3: F(1)}


def test_lift_three_function_chain():
    X = {0, 1, 2, 3}
    J = {1, 2}
    ideals = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    xs = [
        {0: F(1), 1: F(1, 2)},
        {1: F(1, 2), 2: F(3, 4)},
        {2: F(1, 4), 3: F(1)},
    ]
    ys = orthogonal_lifts(X, J, ideals, xs)
    for j in range(3):
        for p, v in ys[j].items():
            assert p in ideals[j]
            assert 0 <= v <= xs[j].get(p, F(0))
        for p in X - frozenset(J):
            assert ys[j].get(p, F(0)) == xs[j].get(p, F(0))
    for j in range(3):
        for k in range(j + 1, 3):
            assert not (set(ys[j]) & set(ys[k]))


def test_lift_precondition_violations():
    with pytest.raises(PreconditionViolated):
        orthogonal_lifts({1}, set(), [frozenset()], [{1: F(1)}])
    with pytest.raises(PreconditionViolated):
        orthogonal_lifts(
            {1, 2},
            set(),
            [frozenset({1, 2}), frozenset({1, 2})],
            [{1: F(1)}, {1: F(1)}],
        )
