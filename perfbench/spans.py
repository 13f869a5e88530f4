"""In-memory span tracer that wraps partact's public functions by name.

``Tracer.install`` replaces each target ``<module>.<function>`` by a wrapper
in every loaded ``partact`` module that holds the same object, so calls are
seen whether they go through the defining module or through a name imported
with ``from .x import f``.  A target the code under test does not define is
recorded as absent, not as an error.  Spans (name, start, end, parent span,
op id) stay in memory until the run ends; ``summary`` derives inclusive time,
self time and call counts from them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# <module>.<function> wrapped in a traced run.  COUNTED functions get no span
# of their own, only a call count: they are called so often (about 100k times
# per corpus pass) that their time is best left in their caller's self time.
COUNTED = ("fdcstar.inner_product_crossed",)
TARGETS = COUNTED + (
    "cli.analyze",
    "cli.instance_digest",
    "fdcstar.crossed_product",
    "fdcstar.block_structure_full",
    "fdcstar.crossed_product_blocks_combinatorial",
    "fdcstar.fixed_point_algebra",
    "fdcstar.imprimitivity_bimodule_verify",
    "rational.rank",
    "rational.solve_feasibility",
    "exactcover.solve_exact_cover",
    "rokhlin.rokhlin_dimension",
    "rokhlin.towers_exist",
    "pactions.globalize",
    "pactions.central_splitting",
    "pactions.translation_groupoid",
    "pactions.random_partial_action",
    "decomp.stratification",
    "decomp.orbit_type_decomposition",
    "tuples.tuple_space",
    "gridtowers.search_towers",
    "gridtowers.residual",
    "gridtowers.check_admissible",
    "gridtowers.derived_numeric_towers",
    "harness.corpus",
)


# Hooks count only inside ops, whose ids are ints; set-up and checks use strings.
def _count_attempts(tracer, result) -> None:
    if isinstance(tracer.op_id, int):
        tracer.counters["fdcstar.block_structure_full.attempts"] += getattr(result, "attempts", 0)


def _count_certificates(tracer, result) -> None:
    if isinstance(tracer.op_id, int) and type(result).__name__ == "TowerCertificate":
        tracer.counters["rokhlin.towers_exist.certificates"] += 1


HOOKS = {
    "fdcstar.block_structure_full": _count_attempts,
    "rokhlin.towers_exist": _count_certificates,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op_id = None
        self._replaced: list = []

    def _count(self, name: str, fn):
        counters, key = self.counters, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if isinstance(self.op_id, int):
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        spans, stack, clock, hook = self.spans, self.stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            modname, attr = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"partact.{modname}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = (self._count if target in COUNTED else self._wrap)(target, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "partact" or name.startswith("partact.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replaced.append((mod, key, original, wrapper))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the original functions back."""
        for mod, key, original, wrapper in self._replaced:
            setattr(mod, key, wrapper if on else original)

    def span(self, name: str):
        """A span recorded from the benchmark itself (an op, or set-up)."""
        return _Span(self, name)

    def summary(self, ops=lambda op_id: True) -> dict[str, dict[str, float]]:
        """Per name: inclusive seconds (outermost spans only), self seconds, calls.

        Only spans whose op id satisfies ``ops`` are counted.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, parent, op_id) in enumerate(spans):
            if not ops(op_id):
                continue
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["s"] += t1 - t0
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t.stack[-1] if t.stack else -1
        t.stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = time.perf_counter()
        t.stack.pop()
        t.spans[self.idx] = (self.name, self.t0, t1, self.parent, t.op_id)
        return False
