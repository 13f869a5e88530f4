"""Independent validation of the exact tower characterization.

The exact solver decides tower existence orbit by orbit: a free orbit gets
the indicator of its least point, an orbit with isotropy is refuted by
parallel arrows.  Here tiny instances are swept with a brute-force search
over raw towers (neither the identity-level reduction nor the orbit
argument) on a dense value grid at positive tolerances, so "free iff
finite" is backed by a route that does not assume it.  Agreement contract:

* whenever the exact solver returns a certificate, the relaxed search must
  succeed at every swept tolerance (harder conditions imply easier ones);
* whenever the exact solver refutes, the relaxed search must also fail at
  the two finest tolerances.  At the coarsest tolerance (0.1) pseudo-towers
  can genuinely exist for non-free instances (the defining conditions
  quantify over every tolerance, a single coarse one is weaker), so there
  only the one-sided implication is checked.

Any other outcome is a genuine discrepancy and must fail loudly.
"""

from fractions import Fraction

import pytest
from oracle_reference import oracle_towers_exist

from partact.groups import build_group
from partact.pactions import (
    global_action,
    is_free,
    restricted_to,
    translation_groupoid,
    trivial_partial_action,
    validate,
)
from partact.rokhlin import TowerCertificate, towers_exist

F = Fraction

EPS_SWEEP = (F(1, 10), F(1, 100), F(1, 1000))
FINE = {F(1, 100), F(1, 1000)}


def _instances():
    c2 = build_group(("cyclic", 2))
    c3 = build_group(("cyclic", 3))
    c4 = build_group(("cyclic", 4))
    out = {}
    out["swap_pair"] = validate(
        c2, {0, 1, 2}, {0: {0, 1, 2}, 1: {0, 1}}, {0: {0: 0, 1: 1, 2: 2}, 1: {0: 1, 1: 0}}
    )
    out["fixed_single"] = validate(c2, {0}, {0: {0}, 1: {0}}, {0: {0: 0}, 1: {0: 0}})
    out["idle_triple"] = trivial_partial_action(c2, {0, 1})
    # Two points of the regular C3 action: a free, connected partial action.
    out["c3-trace"] = validate(
        c3,
        {0, 1},
        {0: {0, 1}, 1: {1}, 2: {0}},
        {0: {0: 0, 1: 1}, 1: {0: 1}, 2: {1: 0}},
    )
    # Non-free C4: g^2 fixes both points of a swap pair.
    out["c4-halffixed"] = validate(
        c4,
        {0, 1},
        {0: {0, 1}, 1: set(), 2: {0, 1}, 3: set()},
        {0: {0: 0, 1: 1}, 1: {}, 2: {0: 0, 1: 1}, 3: {}},
    )
    # C4 on its regular orbit {0, 1, 2, 3} and on C4/<2> = {4, 5}.
    regular_and_halved = global_action(
        c4,
        range(6),
        {g: {**{x: (x + g) % 4 for x in range(4)}, 4: 4 + g % 2, 5: 5 - g % 2} for g in range(4)},
    )
    # Three points of the regular orbit: a free, connected, non-global action.
    out["c4-free-triple"] = restricted_to(regular_and_halved, {0, 1, 2})
    # The same free orbit next to a one-point orbit fixed by g^2.
    out["c4-mixed"] = restricted_to(regular_and_halved, {0, 1, 2, 4})
    return out


def test_widened_instances_have_the_intended_orbits():
    instances = _instances()
    triple, mixed = instances["c4-free-triple"], instances["c4-mixed"]
    assert is_free(triple) and not triple.is_global()
    assert translation_groupoid(triple).orbits == (frozenset({0, 1, 2}),)
    orbits = translation_groupoid(mixed).orbits
    assert orbits == (frozenset({0, 1, 2}), frozenset({4}))
    stabilizers = translation_groupoid(mixed).stabilizers
    assert (stabilizers[0].order, stabilizers[4].order) == (1, 2)


@pytest.mark.parametrize("name", sorted(_instances()))
@pytest.mark.parametrize("d", [0, 1])
def test_epsilon_sweep_agrees_with_exact_solver(name, d):
    pa = _instances()[name]
    exact = isinstance(towers_exist(pa, d), TowerCertificate)
    for eps in EPS_SWEEP:
        relaxed = oracle_towers_exist(pa, d, eps)
        if exact:
            assert relaxed, f"{name}, d={d}: exact towers exist but eps={eps} search failed"
        elif eps in FINE:
            assert not relaxed, (
                f"{name}, d={d}: exact solver refutes but eps={eps} search found towers; "
                "the zero-tolerance characterization is wrong for this instance"
            )


def test_coarse_epsilon_really_is_weaker():
    # Documented boundary: the non-free one-point action admits eps=0.1
    # pseudo-towers at d >= 1 (split the unit mass across levels), even
    # though no exact towers exist at any d.
    pa = _instances()["fixed_single"]
    assert not isinstance(towers_exist(pa, 1), TowerCertificate)
    assert oracle_towers_exist(pa, 1, F(1, 10))
    assert not oracle_towers_exist(pa, 1, F(1, 100))
