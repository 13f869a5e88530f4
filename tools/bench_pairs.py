"""Alternating parent/change pairs of perfbench/run.py, written as BENCH_<label>.json.

Run from anywhere, with two checkouts of the repository (each with its own
``src/`` and ``perfbench/``):

    python3 tools/bench_pairs.py --parent ../parent --change . --label 8 \\
        --parent-rev 14e4ba2 --change-note "integer-table checks"

Ten pairs run every workload of the change's BENCHMARK.json at its
``run_seconds`` on both checkouts, the parent first when the pair's number
is even and the change first when it is odd.  The last two pairs use the
held-out seeds 424242 and 9001 and the others the default seed.  The output
has the layout of BENCH_7.json: every run with its end-to-end metrics, and
per workload and metric the inclusive quartiles of each side, the ratio of
medians, the number of pairs the change won and the parent's interquartile
range.  Each run also keeps the factor run.py scaled its op times by
(``probe_scale``) and its throughput, p50 and tail latency as timed
(``timed``), read off run.py's "# op times scaled by ..." line, so a step
between two files can be told from a change of machine speed; both are
null when a checkout's run.py prints no such line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

SEEDS = (20260808,) * 8 + (424242, 9001)
# End-to-end metrics and whether higher is better.
METRICS = {
    "setup_s": False,
    "throughput_ops_s": True,
    "latency_p50_ms": False,
    "latency_tail_ms": False,
    "peak_rss_mb": False,
}
# run.py's note on the probe: its scale factor, then the metrics as timed.
PROBE = re.compile(r"^# op times scaled by (\S+) to the probe's reference speed; as timed: "
                   r"throughput_ops_s (\S+), latency_p50_ms (\S+), latency_tail_ms (\S+)$", re.M)
TIMED = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms")


def probe(stdout: str) -> dict:
    """The probe factor and as-timed metrics run.py printed; null when it printed none."""
    found = PROBE.search(stdout)
    if found is None:
        return {"probe_scale": None, "timed": None}
    scale, *timed = map(float, found.groups())
    return {"probe_scale": scale, "timed": dict(zip(TIMED, timed))}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of perfbench/run.py in ``checkout``; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
        **probe(proc.stdout),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], workloads) -> dict:
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r for r in mine}
        out = {}
        for name, higher in METRICS.items():
            parent = [side[p, "parent"]["metrics"][name] for p in pairs]
            change = [side[p, "change"]["metrics"][name] for p in pairs]
            qp, qc = quartiles(parent), quartiles(change)
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            out[name] = {
                "parent": qp,
                "change": qc,
                "ratio_of_medians": qc["median"] / qp["median"],
                "change_wins": wins,
                "pairs": len(pairs),
                "parent_iqr": qp["q3"] - qp["q1"],
            }
        for key in ("failed", "attempted"):
            out[key] = {s: sum(side[p, s][key] for p in pairs) for s in ("parent", "change")}
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="suffix of the output file, BENCH_<label>.json")
    parser.add_argument("--parent-rev", required=True, help="the parent's revision, as recorded")
    parser.add_argument("--change-note", required=True, help="one line on what the change does")
    parser.add_argument("--out-dir", default=".", help="directory for BENCH_<label>.json")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    runs = []
    for pair, seed in enumerate(SEEDS):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for order, side in enumerate(sides):
                result = run_once(checkouts[side], workload, seed, seconds)
                runs.append({"pair": pair, "seed": seed, "workload": workload, "side": side,
                             "order": order, **result})
                m = result["metrics"]
                print(f"pair {pair} seed {seed} {workload} {side}: "
                      f"{m['throughput_ops_s']:.4g} ops/s, p50 {m['latency_p50_ms']:.4g} ms, "
                      f"failed {result['failed']}", file=sys.stderr, flush=True)

    bench = {
        "description": (
            f"perfbench/run.py --seconds {seconds:g} --trace 0, {len(SEEDS)} alternating "
            f"parent/change pairs per workload (order 0 runs first; even pairs run the parent "
            f"first). Seeds: {', '.join(str(s) for s in SEEDS)}. Machine: {os.cpu_count()} cores, "
            f"Python {platform.python_version()}."
        ),
        "parent": args.parent_rev,
        "change": args.change_note,
        "runs": runs,
        "summary": summarize(runs, workloads),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
