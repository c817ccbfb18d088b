"""Write golden/<workload>.json: pass 0 of the default seed, as the library
computes it now.

    python3 bench/make_golden.py [workload ...]

Each entry pins the digest of an input and the summary of its output
(``workloads.*_summary``). Regenerate only when a change is meant to alter
the corpus or the pinned results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main(names):
    run.load_library()
    os.makedirs(os.path.join(run.BENCH_DIR, "golden"), exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        op = workloads.make_op(workload)
        summarize = workloads.CHECKS[workload][1]
        items = {}
        for item in sorted(workloads.corpus(workload, workloads.DEFAULT_SEED, 0),
                           key=lambda it: it.index):
            out = op(item.text)
            reasons = workloads.check(workload, item, out)
            if reasons:
                raise SystemExit(f"{workload} item {item.index}: {reasons}")
            items[str(item.index)] = {
                "input": workloads.digest(item.text),
                "expect": summarize(json.loads(out)),
            }
        path = os.path.join(run.BENCH_DIR, "golden", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": workloads.DEFAULT_SEED,
                       "pass": 0, "items": items}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(items)} items")


if __name__ == "__main__":
    main(sys.argv[1:])
