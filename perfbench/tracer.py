"""Per-layer timing from outside the package.

A layer is a public function of one diampart module.  The tracer
replaces the function at every name under which a loaded diampart
module holds it -- the place its callers look it up, for example
``diampart.geometry.solve_exact_lp`` -- with a wrapper that counts calls
and records total and self time.  Self time is total time minus the
time spent in other wrapped functions called from inside.  A function
that re-enters itself through its own module name (``canonical_json``
recurses) is counted once per outermost call.
"""

import math
import sys
import time

# marks the stats line a traced CLI process writes to stderr
STATS_PREFIX = "PERFBENCH_STATS "

# (layer key, defining module, function name)
TARGETS = (
    ("linprog.solve_exact_lp", "diampart.linprog", "solve_exact_lp"),
    ("geometry.gauge_eval", "diampart.geometry", "gauge_eval"),
    ("geometry.pnorm_eval", "diampart.geometry", "pnorm_eval"),
    ("geometry.polytope_diameter", "diampart.geometry", "polytope_diameter"),
    ("partitions.simplex_partition", "diampart.partitions", "simplex_partition"),
    ("coverings.verify_covering", "diampart.coverings", "verify_covering"),
    ("coverings.partition_diameter_ratio", "diampart.coverings", "partition_diameter_ratio"),
    ("coverings.search_ball_covering", "diampart.coverings", "search_ball_covering"),
    ("oracle.beta_finite_exact", "diampart.oracle", "beta_finite_exact"),
    ("oracle.m_colorable", "diampart.oracle", "m_colorable"),
    ("banach_mazur.sandwich_verify", "diampart.banach_mazur", "sandwich_verify"),
    ("banach_mazur.bm_upper", "diampart.banach_mazur", "bm_upper"),
    ("bounds.lp_beta8_table", "diampart.bounds", "lp_beta8_table"),
    ("serialization.canonical_json", "diampart.serialization", "canonical_json"),
    ("cli.main", "diampart.cli", "main"),
)


def _grid_points(args, kwargs, report):
    """Points a coverage check tested: the barycentric grid of an exact
    simplex check, the sample count of a sampled check, none for the
    interval argument on boxes."""
    from diampart.geometry import Simplex

    parent = args[0] if args else kwargs["parent"]
    if report.mode == "sampled":
        return report.resolution
    if isinstance(parent, Simplex):
        return math.comb(report.resolution + parent.dim, parent.dim)
    return 0


# work counters recorded beside the call counts:
# name -> (layer key, unit, count from (args, kwargs, result))
COUNTERS = {
    "coverings.verify_covering.points": ("coverings.verify_covering", "count", _grid_points),
    "serialization.canonical_json.bytes": ("serialization.canonical_json", "bytes",
                                           lambda args, kwargs, text: len(text)),
}


class Tracer:
    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for key, _, _ in TARGETS}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack = []
        self._active = set()
        self._patches = []

    def _wrap(self, key, fn):
        stats = self.stats[key]
        counters = [(name, count) for name, (layer, _, count) in COUNTERS.items()
                    if layer == key]
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active.discard(key)
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            for name, count in counters:
                self.counters[name] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target whose module is loaded, at every alias."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "diampart" or name.startswith("diampart."))]
        for key, modname, fname in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue
            original = getattr(home, fname)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}


def layer_metrics(snapshot, import_s, startup_s):
    """The per-layer metrics, named <module>.<function>.<field>."""
    out = {}
    for key, (calls, total, self_s) in snapshot["stats"].items():
        out[key + ".calls"] = {"value": calls, "unit": "count"}
        out[key + ".total_s"] = {"value": total, "unit": "s"}
        out[key + ".self_s"] = {"value": self_s, "unit": "s"}
    for name, (_, unit, _) in COUNTERS.items():
        out[name] = {"value": snapshot["counters"][name], "unit": unit}
    out["cli.import_s"] = {"value": import_s, "unit": "s"}
    out["cli.startup_s"] = {"value": startup_s, "unit": "s"}
    return out


def merge(snapshots):
    """Sum snapshots taken in separate processes."""
    total = Tracer().snapshot()
    for snap in snapshots:
        for key, vals in snap["stats"].items():
            total["stats"][key] = [a + b for a, b in zip(total["stats"][key], vals)]
        for name, val in snap["counters"].items():
            total["counters"][name] += val
    return total
