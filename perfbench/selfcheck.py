"""Self-check of the benchmark's determinism.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

Run from the repository root.  For each workload (default: all) it makes
two traced runs at one seed and one at the next seed, then checks that
  - the two runs at one seed report identical work counters (every
    per-layer metric whose unit is not a time) and identical inputs;
  - the other seed generates different inputs.
Exits 1 if either property fails.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS


def traced_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                          stdout=subprocess.PIPE, check=True)
    info, result = (json.loads(line) for line in proc.stdout.decode().splitlines()[-2:])
    counters = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
    inputs = (info["info"]["inputs_digest"], info["info"]["traced_digest"])
    return counters, inputs, result["correct"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        a = traced_run(workload, args.seed, args.seconds)
        b = traced_run(workload, args.seed, args.seconds)
        c = traced_run(workload, args.seed + 1, args.seconds)
        diff = sorted(k for k in a[0] if a[0][k] != b[0][k])
        checks = {
            "counters repeat at one seed": not diff,
            "inputs repeat at one seed": a[1] == b[1],
            "another seed gives other inputs": a[1][0] != c[1][0] and a[1][1] != c[1][1],
            "outputs correct": a[2] and b[2] and c[2],
        }
        for name, passed in checks.items():
            print("%-15s %-32s %s" % (workload, name, "ok" if passed else "FAIL"))
        if diff:
            print("%-15s differing counters: %s" % (workload, ", ".join(diff)))
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
