"""One workload in one fresh process: set-up, then an untraced or a traced run.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  Prints
one JSON object as the last line of standard output.  Modes:

* ``setup``: import, generate the pool, validate it against the oracle; report
  the time taken, as timed and scaled by the probe like op times.
* ``run``: set up, then run the seed's ops in order, round after round, for
  ``--seconds`` (every op at least once), with speed_probe() timed just
  before and after each op; end-to-end metrics from each op's mean time,
  scaled by the probe to a fixed machine speed.
* ``trace``: set up, run every op of one pass twice, once with every traced
  function wrapped and once without, alternating which goes first (the
  difference is the tracing overhead), then, on grid-circle, the d=1
  searches to eps; per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "oracle.json")
OUT_DIR = os.path.join(HERE, "out")

CHECK = "check"
SETUP = "setup"
# Op times in ``run`` mode are scaled to a machine on which speed_probe()
# takes this long.
PROBE_REF_S = 0.005
_PROBE_DIM = 72  # a dense eigenproblem of the size the numeric block route solves


def speed_probe() -> float:
    """Time a fixed mix of the library's kinds of work: exact Fraction
    elimination, set and dict building, small symmetric eigenproblems and two
    of the size the numeric block route solves.

    On a shared 2-core machine op times drifted by 25% between runs a few
    minutes apart.  The time of this probe, taken just before and just after
    each op, tracked that drift, so dividing by it removes most of it.
    """
    import numpy

    big = numpy.cos(numpy.arange(_PROBE_DIM * _PROBE_DIM, dtype=float))
    big = big.reshape(_PROBE_DIM, _PROBE_DIM)
    big = big + big.T
    t0 = time.perf_counter()
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    pairs = {(i % 37, i % 41) for i in range(3000)}
    {k: len(pairs) for k in pairs}
    a = numpy.arange(64.0).reshape(8, 8)
    a = a + a.T
    for _ in range(30):
        numpy.linalg.eigh(a)
    for _ in range(2):
        numpy.linalg.eigh(big)
    return time.perf_counter() - t0


def setup(workload: str, seed: int, tracer=None):
    """Import, pool generation and validation against the recorded answers."""
    import workloads as wl

    if tracer is not None:
        tracer.install()
        tracer.op_id = SETUP
    with open(ORACLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    oracle = doc["workloads"][workload]
    pool = wl.build_pool(workload, doc["recipes"][workload])
    missing = [c.key for c in pool.candidates if c.key not in oracle]
    ops = wl.select(pool, seed)
    return wl, pool, ops, oracle, missing


class Runner:
    """Times ops one at a time and checks each answer outside the timer."""

    def __init__(self, wl, pool, oracle, tracer=None, probe=False):
        self.wl, self.pool, self.oracle, self.tracer = wl, pool, oracle, tracer
        self.probe = probe
        self.scale = 1.0  # PROBE_REF_S over the mean probe time around the last op
        self.latencies: list[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, index: int, op) -> float:
        tracer = self.tracer
        self.attempted += 1
        out, err = None, None
        if tracer is not None:
            tracer.op_id = index
            span = tracer.span("bench.op")
            span.__enter__()
        if self.probe:
            before = speed_probe()
        t0 = time.perf_counter()
        try:
            out = self.wl.run_op(self.pool, op)
        except Exception as exc:  # a failed op is counted, never fatal
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if self.probe:
            self.scale = 2 * PROBE_REF_S / (before + speed_probe())
        if tracer is not None:
            span.__exit__(None, None, None)
            tracer.op_id = CHECK
        self.latencies.append(dt)
        if err is None:
            try:
                got = self.wl.answer(self.pool, op, out)
                want = self.oracle.get(op.candidate.key)
                if got != want:
                    err = f"answer {got} != recorded {want}"
                elif op.candidate.kind == "search":
                    self.units += got["restarts"]
                else:
                    self.units += 1
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.candidate.key}: {err}")
        return dt


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def env_info(wl) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "defaultSeed": wl.DEFAULT_SEED,
    }


def setup_times() -> dict:
    """Time since the process started, as timed and scaled to the probe's
    reference speed by the median of five probes taken just after set-up.

    Scaled, the set-up times of ten runs spread about half as much as timed.
    """
    timed = time.perf_counter() - _T0
    probe = statistics.median(speed_probe() for _ in range(5))
    return {"setup_s": timed * PROBE_REF_S / probe, "timed_setup_s": timed}


def mode_setup(args) -> dict:
    wl, pool, ops, oracle, missing = setup(args.workload, args.seed)
    return {**setup_times(), "missing": len(missing)}


def mode_run(args) -> dict:
    wl, pool, ops, oracle, missing = setup(args.workload, args.seed)
    setup_t = setup_times()
    runner = Runner(wl, pool, oracle, probe=True)
    # Every op once, then the seed's order again and again, running each op
    # whose first time still fits in --seconds.  Metrics come from each op's
    # mean time, so the ops that run more often weigh no more.
    samples: list[list[tuple[float, float, int]]] = [[] for _ in ops]

    def record(k: int) -> None:
        units = runner.units
        dt = runner.execute(runner.attempted, ops[k])
        samples[k].append((dt, dt * runner.scale, runner.units - units))

    start = time.perf_counter()
    for k in range(len(ops)):
        record(k)
    ran = True
    while ran:
        ran = False
        for k in range(len(ops)):
            if time.perf_counter() - start + samples[k][0][0] <= args.seconds:
                record(k)
                ran = True
    timed_s = [statistics.fmean(s[0] for s in op) for op in samples]
    op_s = [statistics.fmean(s[1] for s in op) for op in samples]
    units = sum(statistics.fmean(s[2] for s in op) for op in samples)
    tail_p = wl.TAIL_PERCENTILE[args.workload]
    return {
        **setup_t,
        "missing": len(missing),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "busy_s": sum(runner.latencies),
        "scale": sum(op_s) / sum(timed_s),
        "throughput_ops_s": units / sum(op_s),
        "latency_p50_ms": 1000 * wl.median(op_s),
        "latency_tail_ms": 1000 * percentile(op_s, tail_p),
        "timed_throughput_ops_s": units / sum(timed_s),
        "timed_latency_p50_ms": 1000 * wl.median(timed_s),
        "timed_latency_tail_ms": 1000 * percentile(timed_s, tail_p),
        "tail_percentile": tail_p,
        "latency_samples": len(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": env_info(wl),
    }


def mode_trace(args) -> dict:
    from spans import Tracer

    tracer = Tracer()
    wl, pool, ops, oracle, missing = setup(args.workload, args.seed, tracer)
    setup_layers = tracer.summary(lambda op_id: op_id == SETUP)

    traced = Runner(wl, pool, oracle, tracer)
    plain = Runner(wl, pool, oracle)
    for i, op in enumerate(ops):
        for on in ((True, False) if i % 2 == 0 else (False, True)):
            tracer.enable(on)
            (traced if on else plain).execute(i, op)
    tracer.enable(False)
    layers = tracer.summary(lambda op_id: isinstance(op_id, int))

    counters = dict(tracer.counters)
    counters["gridtowers.restarts_run"] = traced.units if args.workload == "grid-circle" else 0
    eps_rows = []
    failed = traced.failed + plain.failed
    errors = traced.errors + plain.errors
    attempted = traced.attempted + plain.attempted
    if args.workload == "grid-circle":
        eps_rows = wl.eps_searches(pool)
        for row in eps_rows:
            attempted += 1
            if row["answer"] != oracle.get(row["key"]):
                failed += 1
                errors.append(f"{row['key']}: {row['answer']} != {oracle.get(row['key'])}")
    counters["gridtowers.restarts_to_eps"] = sum(r["answer"]["restartsToEps"] for r in eps_rows)
    counters["gridtowers.time_to_eps_s"] = wl.median([r["wall_s"] for r in eps_rows])
    calls = layers.get("rokhlin.towers_exist", {}).get("calls", 0)
    counters["rokhlin.towers_exist.certificate_share"] = (
        counters.pop("rokhlin.towers_exist.certificates", 0) / calls if calls else 0.0
    )
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    counters["trace.traced_s"] = traced_s
    counters["trace.untraced_s"] = plain_s
    counters["trace.overhead_s"] = traced_s - plain_s

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "layers": layers,
            "setupLayers": setup_layers, "counters": counters, "absent": tracer.absent,
            "epsSearches": eps_rows,
            "spans": [list(s) for s in tracer.spans],
        }, fh)
    return {
        "missing": len(missing),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "layers": layers,
        "setupLayers": setup_layers,
        "counters": counters,
        "absent": tracer.absent,
        "spansFile": os.path.relpath(path),
        "env": env_info(wl),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    try:
        result = {"setup": mode_setup, "run": mode_run, "trace": mode_trace}[args.mode](args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
