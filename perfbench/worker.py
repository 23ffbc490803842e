"""One benchmark process: set up a workload, run it, check the outputs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is ``setup`` (set up and exit), ``run`` (whole rounds until S
seconds have passed, untraced) or ``trace`` (half the time untraced, then
the tracer on for the rest; the per-layer figures come from the first
traced round alone, so their counts are the same on every run at one
seed).  The worker prints ``READY`` once set-up is done, then one JSON
line with its records.  Run it from the repository root with ``src`` on
PYTHONPATH; run.py does both.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

start = time.perf_counter()
import diampart  # noqa: E402  (timed: the fresh-process import)

IMPORT_S = time.perf_counter() - start

from tracer import Tracer, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# the per-layer figures cover this many whole rounds, whatever the speed
TRACED_ROUNDS = 1


def loop(wl, stream, seconds=None, rounds=None, first_round=0, whole_rounds=True):
    """Closed loop over the stream's rounds, one item at a time, until
    `seconds` have passed or `rounds` rounds have run.  Returns
    (records, seconds each round took)."""
    records, round_s = [], []
    t0 = time.perf_counter()

    def more():
        if rounds is not None:
            return len(round_s) < rounds
        return time.perf_counter() - t0 < seconds

    while more():
        r0 = time.perf_counter()
        for item in wl.round(stream, first_round + len(round_s)):
            if not whole_rounds and not more():
                break
            s = time.perf_counter()
            try:
                out, err = wl.run(item), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            records.append((item, out, time.perf_counter() - s, err))
        round_s.append(time.perf_counter() - r0)
    return records, round_s


def check_all(wl, records):
    failures = []
    for item, out, _, err in records:
        if err is None:
            err = wl.check(item, out)
        if err is not None:
            failures.append(err)
    return failures


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_layers(wl, records, tracer_snapshot):
    """Per-layer metrics of the first traced round."""
    if wl.name != "cli-cold":
        return layer_metrics(tracer_snapshot, IMPORT_S, 0.0)
    done = [(out["stats"], dur) for _, out, dur, _ in records if out is not None]
    merged = merge(stats["trace"] for stats, _ in done)
    import_s = statistics.median(stats["import_s"] for stats, _ in done)
    startup_s = statistics.median(dur - stats["trace"]["stats"]["cli.main"][1]
                                  for stats, dur in done)
    return layer_metrics(merged, import_s, startup_s)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed)
    wl.run(wl.warmup())
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"import_s": IMPORT_S, "inputs_digest": digest(wl.round("main", 0))}
    if args.mode == "run":
        records, result["round_s"] = loop(wl, "main", args.seconds)
        result["peak_rss_mb"] = peak_rss_mb(wl.name == "cli-cold")
    else:
        half = args.seconds / 2
        plain, plain_s = loop(wl, "main", half, whole_rounds=False)
        tracer = Tracer()
        in_process = wl.name != "cli-cold"
        if in_process:
            tracer.install()
        else:
            wl.traced = True
        try:
            first, first_s = loop(wl, "trace", rounds=TRACED_ROUNDS)
            snapshot = tracer.snapshot()
            rest, rest_s = loop(wl, "trace", half - sum(first_s), first_round=TRACED_ROUNDS,
                                whole_rounds=False)
        finally:
            if in_process:
                tracer.uninstall()
            else:
                wl.traced = False
        result["layers"] = traced_layers(wl, first, snapshot)
        result["traced_digest"] = digest(wl.round("trace", 0))
        result["items_per_s_untraced"] = len(plain) / sum(plain_s)
        result["items_per_s_traced"] = (len(first) + len(rest)) / sum(first_s + rest_s)
        records = plain + first + rest

    failures = check_all(wl, records)
    result.update(items=[dur for _, _, dur, _ in records], failed=len(failures),
                  failures=failures[:5])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
