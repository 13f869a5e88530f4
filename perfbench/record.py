"""Record the expected answers of every pool op into ``oracle.json``.

Run from the repository root, once, on a commit whose answers are trusted:

    PYTHONPATH=src python3 perfbench/record.py [workload ...]

Pools that are rejection-sampled are drawn afresh and their accepted draws
stored as recipes, which set-up replays.  Each op is run once with the
default seed; its answer (see ``workloads.answer``) is stored under the op's
key.  Workloads not named keep their recorded answers.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "oracle.json")


def record(workload: str) -> tuple[dict, list]:
    pool = wl.build_pool(workload)
    answers = {}
    for c in pool.candidates:
        t0 = time.perf_counter()
        op = wl.Op(c, wl.DEFAULT_SEED)
        answers[c.key] = wl.answer(pool, op, wl.run_op(pool, op))
        print(f"{workload} {c.key[:48]} {time.perf_counter() - t0:.2f}s", flush=True)
    if workload == "grid-circle":
        for row in wl.eps_searches(pool):
            answers[row["key"]] = row["answer"]
            print(f"{workload} {row['key']} {row['wall_s']:.2f}s", flush=True)
    recipes = [c.recipe for c in pool.candidates]
    return answers, (None if None in recipes else recipes)


def main(argv) -> int:
    names = argv or list(wl.WORKLOADS)
    doc = {"defaultSeed": wl.DEFAULT_SEED, "workloads": {}, "recipes": {}}
    if os.path.exists(ORACLE):
        with open(ORACLE, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name in names:
        doc["workloads"][name], doc["recipes"][name] = record(name)
    with open(ORACLE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
