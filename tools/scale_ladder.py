"""Scaling ladder for ``partact analyze``, written as SCALE_<label>.json.

Run from the root of the change's checkout, with a checkout of its parent
commit beside it:

    python3 tools/scale_ladder.py --label 12 --parent ../parent --parent-rev a0b1bd4

Three ladders:

* group: the regular (g.x = gx) and conjugation (g.x = g x g^-1) actions of
  C24, D12 and S4 on themselves, at the documented group cap;
* carrier: the trivial S4 action (every g the identity) on 25 to 800
  points, where the crossed product has 24 |X| basis arrows;
* order: C48, D24, C60, D30, C96, D48, S5, D60 and C120 above the cap
  (built with ``max_order``), each with its regular action and with the
  trivial partial action (empty domains off the identity) on 100 and 200
  points, whose envelope has |G| |X| points; S5, D60 and C120 also with
  their conjugation actions.

Each case runs REPEATS times per checkout, alternating the checkouts, each
time in a fresh interpreter that caps its own address space at
ADDRESS_SPACE_BYTES (RLIMIT_AS), so a case that needs more memory fails
with MemoryError instead of swapping.  A run that exits non-zero is
recorded with its exit code and the last line of its stderr, and the
ladder goes on.  A run calls ``cli.analyze`` CALLS times, each on a freshly
built action, and records the best wall time, the best time spent in each
of its layers over those calls (timed where ``cli`` and ``fdcstar`` look
them up; a layer that was renamed is timed under its former name in
checkouts from before the rename; a layer found in neither module stops
the run), the basis size n, and the process's peak RSS from ``getrusage``
(``ru_maxrss``, KiB on Linux).  On cases that take under 0.1 s one call
per run is too noisy to resolve a 15% change; the best of several is
steadier.  The summary gives, per case and checkout, the median and the
minimum of each time and the largest peak RSS over the runs that
finished, and the exit of the first run that did not.  The minimum over
the fresh interpreters sets aside one that ran slow: on 0.1-0.2 s cases
three interpreters can spread by 15%.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPEATS = 3
CALLS = 5
GROUPS = (("cyclic", 24), ("dihedral", 12), ("symmetric", 4))
CARRIERS = (25, 50, 100, 200, 400, 800)
ORDERS = (("cyclic", 48), ("dihedral", 24), ("cyclic", 60), ("dihedral", 30), ("cyclic", 96), ("dihedral", 48),
          ("symmetric", 5), ("dihedral", 60), ("cyclic", 120))
CONJUGATION_ORDERS = (("symmetric", 5), ("dihedral", 60), ("cyclic", 120))
PARTIAL_POINTS = (100, 200)
ADDRESS_SPACE_BYTES = 3 * 10**9
LAYERS = (
    "rokhlin_dimension",
    "crossed_product",
    "block_structure",
    "crossed_product_blocks_combinatorial",
    "fixed_point_algebra",
    "imprimitivity_bimodule_verify",
    "globalize",
    "central_splitting",
)
# The float eigen route, replaced by the exact block_structure.
FORMER_NAMES = {"block_structure": "block_structure_full"}

# Runs in the child: argv[1] is the case as JSON; prints one JSON line.
CHILD = r"""
import json, resource, sys, time
case = json.loads(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (case["address_space"], case["address_space"]))
from partact import cli, fdcstar
from partact.groups import build_group
from partact.pactions import global_action, trivial_partial_action

G = build_group(tuple(case["group"]), max_order=case.get("max_order", 24))
def build():
    if case["action"] == "trivial partial":
        return trivial_partial_action(G, range(case["points"]))
    if case["action"] == "trivial":
        points = range(case["points"])
        perms = {g: {x: x for x in points} for g in G.elements()}
    else:
        points = G.elements()
        move = G.mul if case["action"] == "regular" else G.conjugate
        perms = {g: {x: move(g, x) for x in points} for g in G.elements()}
    return global_action(G, points, perms)

layers = {}
def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            layers[name] = layers.get(name, 0.0) + time.perf_counter() - start
    return wrapper
for name in case["layers"]:
    found = False
    for module in (cli, fdcstar):
        attr = next((a for a in (name, case["former"].get(name)) if a and hasattr(module, a)), None)
        if attr:
            setattr(module, attr, timed(name, getattr(module, attr)))
            found = True
    if not found:
        raise SystemExit(f"layer {name} is in neither cli nor fdcstar")

calls = []
for _ in range(case["calls"]):
    pa = build()
    layers.clear()
    start = time.perf_counter()
    report = cli.analyze(pa)
    calls.append({"analyze_s": time.perf_counter() - start, **{n: layers.get(n, 0.0) for n in case["layers"]}})
    del pa  # one action alive at a time, as in a single call
best = {key: min(c[key] for c in calls) for key in calls[0]}
print(json.dumps({
    "n": report["crossedProduct"]["dimension"],
    "analyze_s": best.pop("analyze_s"),
    "layers_s": best,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def cases() -> list[dict]:
    out = [
        {"ladder": "group", "group": list(spec), "action": action}
        for spec in GROUPS
        for action in ("regular", "conjugation")
    ]
    out += [{"ladder": "carrier", "group": ["symmetric", 4], "action": "trivial", "points": k} for k in CARRIERS]
    for spec in ORDERS:
        order = {"ladder": "order", "group": list(spec), "max_order": 120}
        out.append({**order, "action": "regular"})
        if spec in CONJUGATION_ORDERS:
            out.append({**order, "action": "conjugation"})
        out += [{**order, "action": "trivial partial", "points": k} for k in PARTIAL_POINTS]
    return out


def run_case(checkout: str, case: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    payload = json.dumps({**case, "layers": list(LAYERS), "former": FORMER_NAMES, "calls": CALLS,
                          "address_space": ADDRESS_SPACE_BYTES})
    proc = subprocess.run([sys.executable, "-c", CHILD, payload], capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": (proc.stderr.strip().splitlines() or [""])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="suffix of the output file, SCALE_<label>.json")
    parser.add_argument("--change", default=".", help="checkout of the change (default: .)")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--parent-rev", required=True, help="the parent's revision, as recorded")
    parser.add_argument("--out-dir", default=".", help="directory for SCALE_<label>.json")
    args = parser.parse_args(argv)

    checkouts = {"change": os.path.abspath(args.change), "parent": os.path.abspath(args.parent)}
    runs, summary = [], []
    for case in cases():
        name = f"{'/'.join(map(str, case['group']))} {case['action']}" + (
            f" on {case['points']} points" if "points" in case else "")
        mine = {side: [] for side in checkouts}
        for repeat in range(REPEATS):
            sides = list(checkouts.items())
            for side, checkout in sides if repeat % 2 == 0 else sides[::-1]:
                result = run_case(checkout, case)
                runs.append({"side": side, "repeat": repeat, **case, **result})
                mine[side].append(result)
        for side, results in mine.items():
            done = [r for r in results if "exit" not in r]
            row = {"case": name, "side": side, "runs": len(results), "finished": len(done)}
            if done:
                row.update({
                    "n": done[0]["n"],
                    "analyze_s": statistics.median(r["analyze_s"] for r in done),
                    "analyze_min_s": min(r["analyze_s"] for r in done),
                    "layers_s": {layer: statistics.median(r["layers_s"][layer] for r in done)
                                 for layer in LAYERS},
                    "layers_min_s": {layer: min(r["layers_s"][layer] for r in done) for layer in LAYERS},
                    "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
                })
            failed = next((r for r in results if "exit" in r), None)
            if failed:
                row.update(failed)
            summary.append(row)
            outcome = (f"n {row['n']}, analyze {row['analyze_s']:.3f} s (min {row['analyze_min_s']:.3f} s), "
                       f"peak RSS {row['peak_rss_mb']:.1f} MB" if done else "")
            if failed:
                outcome += f" exit {failed['exit']}: {failed['stderr']}"
            print(f"{side} {name}: {outcome}", file=sys.stderr, flush=True)

    scale = {
        "description": (
            f"tools/scale_ladder.py: {REPEATS} fresh interpreters per case and checkout, "
            f"alternating, each with RLIMIT_AS {ADDRESS_SPACE_BYTES}; the best analyze wall time "
            f"and the best time of each layer over {CALLS} calls, each on a freshly built action, "
            f"and ru_maxrss; the summary has the median and the minimum of each time "
            f"(analyze_s, analyze_min_s, layers_s, layers_min_s) and the largest RSS of the runs "
            f"that finished, and the exit code and last stderr line of a run that did not. "
            f"Machine: {os.cpu_count()} cores, Python {platform.python_version()}."
        ),
        "parent": args.parent_rev,
        "summary": summary,
        "runs": runs,
    }
    path = os.path.join(args.out_dir, f"SCALE_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(scale, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
