"""Randomized, seeded theorem-check suites over finite model corpora.

Each check compares two independently computed sides of an equality or
inequality on a reproducible corpus of random partial actions.  A failure
serializes the offending instance for replay; empty failure lists are the
release criterion.  Non-free instances are exercised too, but where a
statement assumes finite tower dimension, hypothesis failure is recorded as
information, never as a counterexample.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from .cli import serialize_instance
from .decomp import orbit_type_decomposition, stratification
from .fdcstar import (
    crossed_product,
    crossed_product_blocks,
    fixed_point_algebra,
    imprimitivity_bimodule_verify,
    morita_equivalent,
)
from .pactions import (
    PartialAction,
    globalize,
    is_free,
    random_partial_action,
    restrict_and_quotient,
    restricted_to,
    translation_groupoid,
)
from .rokhlin import rokhlin_dimension

GROUP_SPECS: tuple = (
    ("cyclic", 2),
    ("cyclic", 3),
    ("cyclic", 4),
    "klein4",
    ("cyclic", 6),
    ("symmetric", 3),
)
KEEP_PROBABILITIES = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
MAX_CARRIER = 12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one theorem check over a corpus."""

    theorem: str
    instances: int
    seed: int
    failures: tuple[dict, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "seed": self.seed,
            "passed": self.passed,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


def _instance_payload(pa: PartialAction) -> dict:
    """The instance document of ``pa``, which ``partact analyze`` reads back."""
    return json.loads(serialize_instance(pa))


def _dim_str(value) -> str:
    return "infinity" if value == math.inf else str(int(value))


def corpus(seed: int, count: int) -> list[PartialAction]:
    """The standard reproducible corpus: mixed groups, sizes, densities."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        spec = GROUP_SPECS[rng.randrange(len(GROUP_SPECS))]
        size = rng.randint(1, MAX_CARRIER)
        keep = KEEP_PROBABILITIES[rng.randrange(len(KEEP_PROBABILITIES))]
        out.append(random_partial_action(rng.randrange(1 << 30), spec, size, keep))
    return out


def check_globalization_theorem(seed: int, count: int = 100) -> CheckReport:
    """Tower dimension is preserved by globalization.

    Both sides are solver-computed on the instance and on its envelope.
    """
    failures = []
    for pa in corpus(seed, count):
        lhs = rokhlin_dimension(pa)
        rhs = rokhlin_dimension(globalize(pa).envelope)
        if lhs.dimension != rhs.dimension:
            failures.append(
                {
                    "instance": _instance_payload(pa),
                    "lhs": _dim_str(lhs.dimension),
                    "rhs": _dim_str(rhs.dimension),
                }
            )
    return CheckReport("globalization-preserves-dimension", count, seed, tuple(failures))


def _decomposable_layers(seed: int, count: int) -> list[tuple[PartialAction, int]]:
    """Decomposable instances obtained by restricting to single strata."""
    rng = random.Random(seed)
    layers: list[tuple[PartialAction, int]] = []
    attempt = 0
    while len(layers) < count:
        spec = GROUP_SPECS[rng.randrange(len(GROUP_SPECS))]
        size = rng.randint(1, MAX_CARRIER)
        keep = KEEP_PROBABILITIES[rng.randrange(len(KEEP_PROBABILITIES))]
        pa = random_partial_action(rng.randrange(1 << 30), spec, size, keep)
        s = stratification(pa)
        for k in range(1, pa.group.order + 1):
            if s.stratum(k) and len(layers) < count:
                layers.append((restricted_to(pa, s.stratum(k)), k))
        attempt += 1
        if attempt > 50 * count:
            raise RuntimeError("could not generate enough decomposable layers")
    return layers


def check_strata_theorem(seed: int, count: int = 100) -> CheckReport:
    """On decomposable instances the dimension is the max over subsystems."""
    failures = []
    layers = _decomposable_layers(seed, count)
    for pa, k in layers:
        lhs = rokhlin_dimension(pa).dimension
        parts = orbit_type_decomposition(pa, k) if pa.carrier else []
        rhs = max((rokhlin_dimension(p.subsystem).dimension for p in parts), default=0)
        if lhs != rhs:
            failures.append(
                {
                    "instance": _instance_payload(pa),
                    "lhs": _dim_str(lhs),
                    "rhs": _dim_str(rhs),
                }
            )
    return CheckReport("decomposable-dimension-via-subsystems", len(layers), seed, tuple(failures))


def _random_invariant_subset(pa: PartialAction, rng: random.Random) -> frozenset[int]:
    orbits = translation_groupoid(pa).orbits
    chosen = [o for o in orbits if rng.random() < 0.5]
    return frozenset().union(*chosen) if chosen else frozenset()


def check_monotonicity(seed: int, count: int = 100) -> CheckReport:
    """Restriction and complement never increase the tower dimension."""
    rng = random.Random(seed)
    failures = []
    for pa in corpus(seed, count):
        S = _random_invariant_subset(pa, rng)
        part, rest = restrict_and_quotient(pa, S)
        full = rokhlin_dimension(pa).dimension
        for name, piece in (("restriction", part), ("complement", rest)):
            piece_dim = rokhlin_dimension(piece).dimension
            if not piece_dim <= full:
                failures.append(
                    {
                        "instance": _instance_payload(pa),
                        "lhs": f"{name}:{_dim_str(piece_dim)}",
                        "rhs": _dim_str(full),
                    }
                )
    return CheckReport("restriction-and-quotient-monotone", count, seed, tuple(failures))


def check_morita(seed: int, count: int = 100) -> CheckReport:
    """Fixed point algebra vs crossed product, with the bimodule clauses.

    Finite-dimension instances must be Morita equivalent and pass every
    bimodule clause.  Non-free instances only produce informational notes:
    the hypothesis of the statement fails there.
    """
    failures = []
    notes = []
    for pa in corpus(seed, count):
        rok = rokhlin_dimension(pa)
        alg = crossed_product(pa)
        cp = crossed_product_blocks(pa, crossed=alg)
        fp = fixed_point_algebra(pa)
        equivalent = morita_equivalent(fp, cp)
        report = imprimitivity_bimodule_verify(pa, crossed=alg)
        if rok.finite:
            if not equivalent or not report.all_hold:
                failures.append(
                    {
                        "instance": _instance_payload(pa),
                        "lhs": f"morita={equivalent}",
                        "rhs": f"clauses={report.clauses}",
                    }
                )
        else:
            notes.append(
                f"hypothesis fails (infinite dimension): morita={equivalent}, "
                f"right_fullness={report.right_fullness}"
            )
    return CheckReport("morita-fixed-point-vs-crossed-product", count, seed, tuple(failures), tuple(notes))


def check_free_iff_finite(seed: int, count: int = 100) -> CheckReport:
    """Finite dimension iff free, and free forces dimension zero."""
    failures = []
    for pa in corpus(seed, count):
        rok = rokhlin_dimension(pa)
        free = is_free(pa)
        ok = (rok.finite == free) and (not free or rok.dimension == 0)
        if not ok:
            failures.append(
                {
                    "instance": _instance_payload(pa),
                    "lhs": f"free={free}",
                    "rhs": _dim_str(rok.dimension),
                }
            )
    return CheckReport("free-iff-finite-dimension", count, seed, tuple(failures))


def check_extension_bound(seed: int, count: int = 100) -> CheckReport:
    """dim(pa) <= dim(restriction) + dim(complement) + 1 for invariant splits."""
    rng = random.Random(seed + 1)
    failures = []
    for pa in corpus(seed, count):
        S = _random_invariant_subset(pa, rng)
        part, rest = restrict_and_quotient(pa, S)
        full = rokhlin_dimension(pa).dimension
        bound = rokhlin_dimension(part).dimension + rokhlin_dimension(rest).dimension + 1
        if not full <= bound:
            failures.append(
                {
                    "instance": _instance_payload(pa),
                    "lhs": _dim_str(full),
                    "rhs": f"bound:{bound}",
                }
            )
    return CheckReport("extension-dimension-bound", count, seed, tuple(failures))


ALL_CHECKS: tuple[tuple[str, Callable[[int, int], CheckReport]], ...] = (
    ("globalization", check_globalization_theorem),
    ("strata", check_strata_theorem),
    ("monotonicity", check_monotonicity),
    ("morita", check_morita),
    ("free-iff-finite", check_free_iff_finite),
    ("extension-bound", check_extension_bound),
)


def run_all_checks(seed: int, count: int = 100) -> list[CheckReport]:
    return [fn(seed, count) for _, fn in ALL_CHECKS]
