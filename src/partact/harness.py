"""Randomized, seeded theorem-check suites over finite model corpora.

Each check compares two independently computed sides of an equality or
inequality over a reproducible corpus of random partial actions, each
instance paired with its Rokhlin dimension.  ``run_all_checks`` draws and
solves that corpus once and hands it to all six checks.  A failure
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
from itertools import chain, islice, repeat
from typing import Callable, Iterator

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
from .rokhlin import RokhlinResult, rokhlin_dimension

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


def _dim_str(value) -> str:
    return "infinity" if value == math.inf else str(int(value))


def _draw(rng: random.Random) -> PartialAction:
    """One instance: a group, a carrier size, a density and a seed from rng."""
    spec = GROUP_SPECS[rng.randrange(len(GROUP_SPECS))]
    size = rng.randint(1, MAX_CARRIER)
    keep = KEEP_PROBABILITIES[rng.randrange(len(KEEP_PROBABILITIES))]
    return random_partial_action(rng.randrange(1 << 30), spec, size, keep)


def _stream(seed: int) -> Iterator[PartialAction]:
    """The instances ``random.Random(seed)`` draws, one after another."""
    return map(_draw, repeat(random.Random(seed)))


def corpus(seed: int, count: int) -> list[PartialAction]:
    """The standard reproducible corpus: mixed groups, sizes, densities."""
    return list(islice(_stream(seed), count))


def _solved(seed: int, count: int) -> tuple[list[tuple[PartialAction, RokhlinResult]], Iterator[PartialAction]]:
    """The corpus, each instance with its ``rokhlin_dimension``, and its stream at the next draw."""
    stream = _stream(seed)
    return [(pa, rokhlin_dimension(pa)) for pa in islice(stream, count)], stream


def _on_its_own_corpus(body):
    """``check(seed, count=100)``: ``body`` over a corpus drawn and solved for this call alone."""
    def check(seed: int, count: int = 100) -> CheckReport:
        return body(seed, *_solved(seed, count))
    check.__name__ = check.__qualname__ = body.__name__
    check.__doc__, check.body = body.__doc__, body
    return check


def _report(theorem: str, instances: int, seed: int, failed, notes=()) -> CheckReport:
    """The check's report: one record per (instance, lhs, rhs) in ``failed``, the instance
    as the instance document ``partact analyze`` reads back."""
    failures = tuple(dict(instance=json.loads(serialize_instance(pa)), lhs=lhs, rhs=rhs) for pa, lhs, rhs in failed)
    return CheckReport(theorem, instances, seed, failures, tuple(notes))


@_on_its_own_corpus
def check_globalization_theorem(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """Tower dimension is preserved by globalization: solved on the instance and on its envelope."""
    failed = []
    for pa, rok in solved:
        rhs = rokhlin_dimension(globalize(pa).envelope).dimension
        if rok.dimension != rhs:
            failed.append((pa, _dim_str(rok.dimension), _dim_str(rhs)))
    return _report("globalization-preserves-dimension", len(solved), seed, failed)


@_on_its_own_corpus
def check_strata_theorem(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """The dimension is the max over subsystems on restrictions to single strata: of the
    corpus instances, then, if they run short, of further draws from its stream."""
    count, layers, failed = len(solved), [], []
    instances = chain([pa for pa, _ in solved], islice(stream, 49 * count))
    while len(layers) < count:
        if (pa := next(instances, None)) is None:
            raise RuntimeError("could not generate enough decomposable layers")
        s = stratification(pa)
        layers += [(restricted_to(pa, s.stratum(k)), k) for k in range(1, pa.group.order + 1) if s.stratum(k)]
    for pa, k in layers[:count]:
        lhs = rokhlin_dimension(pa).dimension
        rhs = max(rokhlin_dimension(p.subsystem).dimension for p in orbit_type_decomposition(pa, k))
        if lhs != rhs:
            failed.append((pa, _dim_str(lhs), _dim_str(rhs)))
    return _report("decomposable-dimension-via-subsystems", count, seed, failed)


def _random_invariant_subset(pa: PartialAction, rng: random.Random) -> frozenset[int]:
    return frozenset().union(*(o for o in translation_groupoid(pa).orbits if rng.random() < 0.5))


@_on_its_own_corpus
def check_monotonicity(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """Restriction and complement never increase the tower dimension."""
    rng = random.Random(seed)
    failed = []
    for pa, rok in solved:
        part, rest = restrict_and_quotient(pa, _random_invariant_subset(pa, rng))
        for name, piece in (("restriction", part), ("complement", rest)):
            piece_dim = rokhlin_dimension(piece).dimension
            if not piece_dim <= rok.dimension:
                failed.append((pa, f"{name}:{_dim_str(piece_dim)}", _dim_str(rok.dimension)))
    return _report("restriction-and-quotient-monotone", len(solved), seed, failed)


@_on_its_own_corpus
def check_morita(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """Fixed point algebra vs crossed product, with the bimodule clauses.

    Finite-dimension instances must be Morita equivalent and pass every
    bimodule clause.  Non-free instances only produce informational notes:
    the hypothesis of the statement fails there.
    """
    failed, notes = [], []
    for pa, rok in solved:
        alg = crossed_product(pa)
        cp = crossed_product_blocks(pa, crossed=alg)
        fp = fixed_point_algebra(pa)
        equivalent = morita_equivalent(fp, cp)
        report = imprimitivity_bimodule_verify(pa, crossed=alg)
        if not rok.finite:
            notes.append(
                f"hypothesis fails (infinite dimension): morita={equivalent}, right_fullness={report.right_fullness}"
            )
        elif not equivalent or not report.all_hold:
            failed.append((pa, f"morita={equivalent}", f"clauses={report.clauses}"))
    return _report("morita-fixed-point-vs-crossed-product", len(solved), seed, failed, notes)


@_on_its_own_corpus
def check_free_iff_finite(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """Finite dimension iff free, and free forces dimension zero."""
    failed = []
    for pa, rok in solved:
        free = is_free(pa)
        if rok.finite != free or (free and rok.dimension != 0):
            failed.append((pa, f"free={free}", _dim_str(rok.dimension)))
    return _report("free-iff-finite-dimension", len(solved), seed, failed)


@_on_its_own_corpus
def check_extension_bound(seed: int, solved: list, stream: Iterator) -> CheckReport:
    """dim(pa) <= dim(restriction) + dim(complement) + 1 for invariant splits."""
    rng = random.Random(seed + 1)
    failed = []
    for pa, rok in solved:
        part, rest = restrict_and_quotient(pa, _random_invariant_subset(pa, rng))
        bound = rokhlin_dimension(part).dimension + rokhlin_dimension(rest).dimension + 1
        if not rok.dimension <= bound:
            failed.append((pa, _dim_str(rok.dimension), f"bound:{bound}"))
    return _report("extension-dimension-bound", len(solved), seed, failed)


ALL_CHECKS: tuple[tuple[str, Callable[[int, int], CheckReport]], ...] = (
    ("globalization", check_globalization_theorem),
    ("strata", check_strata_theorem),
    ("monotonicity", check_monotonicity),
    ("morita", check_morita),
    ("free-iff-finite", check_free_iff_finite),
    ("extension-bound", check_extension_bound),
)


def run_all_checks(seed: int, count: int = 100) -> list[CheckReport]:
    """Every check's report, each body reading one corpus drawn and solved once."""
    solved, stream = _solved(seed, count)
    return [fn.body(seed, solved, stream) for _, fn in ALL_CHECKS]
