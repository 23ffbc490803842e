"""diampart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.
Workloads (see workloads.py):

  exact-certify   in process: scheme coverage on the exact N=64 grid,
                  diameter ratios under l1, l2, l3, linf and a random
                  integer gauge, and the finite-set oracle under it
  sampled-search  in process: one ball-covering search per item
  cli-cold        one fresh `python -m diampart.cli` process per item
                  over the README commands

With --trace 0 the last stdout line reports the end-to-end metrics:
setup_s (median of three fresh set-ups: process start, imports, input
generation, one warm-up item), items_per_s (a round's items over the
median round time; every round holds the same mix), item_s_p50 and
peak_rss_mb.
With --trace 1 it reports the per-layer metrics of tracer.py.  The line
before it is an info record: the machine, the versions, the sample
count, failed_frac, item_s_p90 when a run has at least 100 items, and in
traced runs the tracing overhead.  Outputs are checked after the timed
window; a wrong output counts as a failed item.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-certify", "sampled-search", "cli-cold")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"  # problem files the cli-cold workload writes


class WorkerError(Exception):
    pass


def run_worker(workload, seed, seconds, mode):
    """Start a worker; return (seconds from start to READY, final record)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise WorkerError("%s worker (%s) exited with %s" % (workload, mode, proc.returncode))
    record = json.loads(rest.splitlines()[-1]) if mode != "setup" else None
    return setup_s, record


def read_text(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join("src", "diampart")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_max": read_text("/sys/fs/cgroup/cpu.max"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "diampart", "__init__.py")):
        sys.stderr.write("perfbench: no diampart source under ./src; "
                         "run from the repository root\n")
        return 2

    try:
        if args.trace:
            _, rec = run_worker(args.workload, args.seed, args.seconds, "trace")
            setups = []
        else:
            setups = [run_worker(args.workload, args.seed, 0, "setup")[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, rec = run_worker(args.workload, args.seed, args.seconds, "run")
            setups.append(setup_s)
    except WorkerError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    items = rec["items"]
    failed = rec["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": len(items),
        "failed_frac": failed / len(items),
        "failures": rec["failures"],
        "inputs_digest": rec["inputs_digest"],
        "environment": environment(),
    }
    if args.trace:
        metrics = rec["layers"]
        info["traced_digest"] = rec["traced_digest"]
        info["items_per_s_untraced"] = rec["items_per_s_untraced"]
        info["items_per_s_traced"] = rec["items_per_s_traced"]
        info["tracing_overhead_items_per_s"] = (rec["items_per_s_traced"]
                                                - rec["items_per_s_untraced"])
    else:
        rounds = rec["round_s"]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "items_per_s": metric(len(items) / len(rounds) / statistics.median(rounds), "1/s"),
            "item_s_p50": metric(statistics.median(items), "s"),
            "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
        }
        info["round_s"] = rounds
        info["setup_s_samples"] = setups
        info["item_s_p90"] = (statistics.quantiles(items, n=10)[-1]
                              if len(items) >= 100 else None)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(items), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
