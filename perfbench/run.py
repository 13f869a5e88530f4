"""The partact benchmark: one workload at one seed, in fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-corpus --seed 20260808 --seconds 30 --trace 0

Workloads: analyze-corpus, grid-circle, solve-caps (see BENCHMARK.json for why
each was chosen).  With ``--trace 0`` the run reports the end-to-end metrics:
set-up time (median over several fresh processes), op throughput, median and
tail op latency (over each op's mean time), all scaled to a fixed machine
speed by the probe in worker.py (the times as taken are printed too), and
peak RSS.  With ``--trace 1`` it reports the per-layer
metrics of one traced pass over the same ops.
Every op's answer is checked against ``oracle.json``; a wrong answer or an
exception counts as a failed op.  Lines starting with ``#`` name every metric
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--repeat-check`` makes two traced runs at the seed and exits 1 unless their
call counts and restart counts are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("analyze-corpus", "grid-circle", "solve-caps")
# Set-up-only processes, half before and half after the measuring process,
# which is one more set-up sample.
SETUP_PROBES = 4
TIME_LIMIT_S = 175.0
# One BLAS thread: with two, the small LAPACK calls of the numeric block route
# ran five times slower and their times varied twentyfold on a 2-core machine.
THREADS = "1"

# Per-layer metrics: (traced function, fields) and counters kept by the tracer.
LAYER_FIELDS = (
    ("fdcstar.imprimitivity_bimodule_verify", ("s", "self_s", "calls")),
    ("rational.rank", ("s", "calls")),
    ("fdcstar.block_structure_full", ("s", "self_s", "calls")),
    ("fdcstar.crossed_product", ("s", "calls")),
    ("fdcstar.crossed_product_blocks_combinatorial", ("s",)),
    ("fdcstar.fixed_point_algebra", ("s",)),
    ("cli.analyze", ("s", "self_s")),
    ("cli.instance_digest", ("s",)),
    ("gridtowers.search_towers", ("s", "self_s")),
    ("gridtowers.residual", ("s", "calls")),
    ("gridtowers.check_admissible", ("s",)),
    ("gridtowers.derived_numeric_towers", ("s",)),
    ("rokhlin.rokhlin_dimension", ("s", "calls")),
    ("rokhlin.towers_exist", ("s", "calls")),
    ("exactcover.solve_exact_cover", ("s", "calls")),
    ("rational.solve_feasibility", ("s", "calls")),
    ("pactions.globalize", ("s",)),
    ("pactions.central_splitting", ("s",)),
    ("pactions.translation_groupoid", ("s", "calls")),
    ("decomp.stratification", ("s",)),
    ("decomp.orbit_type_decomposition", ("s",)),
    ("tuples.tuple_space", ("s", "calls")),
)
SETUP_LAYER_FIELDS = (
    ("harness.corpus", ("s",)),
    ("pactions.random_partial_action", ("s",)),
)
COUNTERS = (
    ("fdcstar.inner_product_crossed.calls", "count"),
    ("fdcstar.block_structure_full.attempts", "count"),
    ("rokhlin.towers_exist.certificate_share", "ratio"),
    ("gridtowers.restarts_run", "count"),
    ("gridtowers.restarts_to_eps", "count"),
    ("gridtowers.time_to_eps_s", "s"),
    ("trace.overhead_s", "s"),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count"}
# Counts that must repeat exactly between two traced runs at one seed.
REPEAT_COUNTERS = (
    "fdcstar.inner_product_crossed.calls",
    "fdcstar.block_structure_full.attempts",
    "rokhlin.towers_exist.certificate_share",
    "gridtowers.restarts_run",
    "gridtowers.restarts_to_eps",
)


def per_layer_names() -> list[tuple[str, str]]:
    out = [(f"{fn}.{f}", UNITS[f]) for fn, fields in LAYER_FIELDS + SETUP_LAYER_FIELDS
           for f in fields]
    return out + list(COUNTERS)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the run could start")
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(args, deadline: float):
    setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
    res = run_worker(args, "run", deadline)
    setups.append(res)
    setups += [run_worker(args, "setup", deadline)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "throughput_ops_s": (res["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_tail_ms": (res["latency_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    def samples(key: str) -> str:
        return " ".join(f"{s[key]:.4f}" for s in setups)

    tail_n = res["latency_samples"]
    beyond = tail_n - -(-res["tail_percentile"] * tail_n // 100)
    notes = [
        f"latency_tail_ms is p{res['tail_percentile']} of {tail_n} ops' mean latencies "
        f"({beyond} beyond it)",
        f"setup_s samples: {samples('setup_s')}; as timed: {samples('timed_setup_s')}",
        f"op times scaled by {res['scale']:.4f} to the probe's reference speed; as timed: "
        f"throughput_ops_s {res['timed_throughput_ops_s']:.6g}, latency_p50_ms "
        f"{res['timed_latency_p50_ms']:.6g}, latency_tail_ms {res['timed_latency_tail_ms']:.6g}",
        f"ops run: {res['attempted']} ({tail_n} distinct), busy {res['busy_s']:.2f} s",
    ]
    return res, metrics, notes


def per_layer(args, deadline: float):
    res = run_worker(args, "trace", deadline)
    layers, setup_layers, counters = res["layers"], res["setupLayers"], res["counters"]
    metrics = {}
    for table, fields in ((layers, LAYER_FIELDS), (setup_layers, SETUP_LAYER_FIELDS)):
        for fn, names in fields:
            for f in names:
                metrics[f"{fn}.{f}"] = (table.get(fn, {}).get(f, 0), UNITS[f])
    for name, unit in COUNTERS:
        metrics[name] = (counters.get(name, 0), unit)
    top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    notes = [
        "absent (not defined by the code under test): " + (" ".join(res["absent"]) or "none"),
        "largest self time: " + ", ".join(f"{k} {v['self_s']:.3f}s" for k, v in top),
        f"spans written to {res['spansFile']}",
    ]
    return res, metrics, notes


def repeat_check(args, deadline: float) -> int:
    def counts(res):
        out = {k: v["calls"] for k, v in res["layers"].items()}
        out.update({k: res["counters"].get(k, 0) for k in REPEAT_COUNTERS})
        return out

    first = counts(run_worker(args, "trace", deadline))
    second = counts(run_worker(args, "trace", deadline))
    diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
            if first.get(k) != second.get(k)}
    for k in sorted(first):
        print(f"# count {k} {first[k]}")
    print(json.dumps({"identical": not diff, "differences": diff}))
    return 0 if not diff else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join("src", "partact", "__init__.py")):
        sys.stderr.write("run.py: no src/partact here; run from the repository root\n")
        return 2

    load_before = os.getloadavg()
    try:
        if args.repeat_check:
            return repeat_check(args, deadline)
        res, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        sys.stderr.write(f"run.py: {err}\n")
        return 1
    load_after = os.getloadavg()

    env = res["env"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# env nproc {env['nproc']} python {env['python']} numpy {env['numpy']} "
          f"blas_threads {THREADS} default_seed {env['defaultSeed']} "
          f"loadavg_before {load_before[0]:.2f} "
          f"loadavg_after {load_after[0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"# metric failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} ops; "
          f"the result line carries it as failed/attempted)")
    for line in notes + [f"error: {e}" for e in res["errors"]]:
        print(f"# {line}")
    correct = failed == 0 and res["missing"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
