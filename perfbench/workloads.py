"""The three benchmark workloads.

Each workload yields its items in rounds.  A round holds a fixed mix of
the input properties that drive cost, in a seed-shuffled order with
seed-drawn details, so every run of whole rounds does comparable work.  Items run one at a time (a closed loop with a
single caller).  ``run`` is the timed call into the package; ``check``
validates its output afterwards, outside the timed window.

The package is driven only through public functions, looked up as
module attributes at call time so the tracer's wrappers see the calls.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from diampart import coverings, geometry, oracle, partitions
from diampart.numbers import INF
from tracer import STATS_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
WORK_DIR = ".perfbench_work"


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _neg(v):
    return tuple(-c for c in v)


def random_tetrahedron(rng, lo=-6, hi=6):
    while True:
        verts = [tuple(rng.randint(lo, hi) for _ in range(3)) for _ in range(4)]
        edges = [tuple(a - b for a, b in zip(v, verts[0])) for v in verts[1:]]
        if _det3(*edges) != 0:
            return tuple(verts)


def random_gauge(rng, pairs, lo=-3, hi=3):
    """Vertices of an origin-symmetric, full-dimensional integer polytope
    with the given number of antipodal vertex pairs."""
    while True:
        half = []
        while len(half) < pairs:
            w = tuple(rng.randint(lo, hi) for _ in range(3))
            if w != (0, 0, 0) and w not in half and _neg(w) not in half:
                half.append(w)
        if any(_det3(*t) != 0 for t in itertools.combinations(half, 3)):
            return tuple(v for w in half for v in (w, _neg(w)))


def barycentric_points(rng, verts, count):
    pts = []
    for _ in range(count):
        w = [rng.randint(0, 6) for _ in range(4)]
        if sum(w) == 0:
            w = [1, 0, 0, 0]
        total = sum(w)
        pts.append(tuple(sum(Fraction(wi, total) * v[i] for wi, v in zip(w, verts))
                         for i in range(3)))
    return pts


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# exact-certify


SCHEME_RATIO = {"m5": Fraction(3, 5), "m8": Fraction(9, 16), "m9": Fraction(9, 17)}
NORM_LABELS = ("l1", "l2", "l3", "linf", "gauge")
EXACT_NORMS = ("l1", "linf", "gauge")
GAUGE_PAIRS = tuple(range(4, 11))
EXTRA_POINTS = (0, 2, 3, 5, 7, 8, 10)  # barycentric points added for the oracle
GRID_N = 64
ORACLE_M = 8


class ExactCertify:
    """Scheme coverage on the N=64 barycentric grid, diameter ratios under
    five norms and the finite-set oracle under a random gauge.  A round
    holds one item for each gauge size from 4 to 10 antipodal pairs,
    because the exact LP's cost grows with the vertex count, paired at
    random with one of a fixed set of oracle point counts, because the
    oracle's LP count grows with the square of the point count."""

    name = "exact-certify"

    def __init__(self, seed):
        self.seed = seed

    def _item(self, rng, pairs, extra):
        verts = random_tetrahedron(rng)
        gauge = random_gauge(rng, pairs)
        points = tuple(verts) + tuple(barycentric_points(rng, verts, extra))
        return {"tetrahedron": verts, "gauge": gauge, "points": points}

    def round(self, stream, index):
        rng = _rng(self.name, self.seed, stream, index)
        pairs = rng.sample(GAUGE_PAIRS, len(GAUGE_PAIRS))
        extras = rng.sample(EXTRA_POINTS, len(EXTRA_POINTS))
        return [self._item(rng, k, e) for k, e in zip(pairs, extras)]

    def warmup(self):
        return self._item(_rng(self.name, self.seed, "warmup"), 7, 5)

    def run(self, item):
        S = geometry.Simplex(item["tetrahedron"])
        gauge = geometry.Norm.gauge(item["gauge"])
        norms = (geometry.Norm.lp(1), geometry.Norm.lp(2), geometry.Norm.lp(3),
                 geometry.Norm.lp(INF), gauge)
        schemes = {}
        for scheme in SCHEME_RATIO:
            cert = partitions.simplex_partition(S, scheme)
            report = coverings.verify_covering(cert.parent, cert.pieces, N=GRID_N)
            ratios = [coverings.partition_diameter_ratio(cert, n) for n in norms]
            schemes[scheme] = (report, ratios)
        beta = oracle.beta_finite_exact(item["points"], ORACLE_M, gauge)
        return {"schemes": schemes, "oracle": beta, "gauge": gauge}

    def check(self, item, out):
        for scheme, (report, ratios) in out["schemes"].items():
            if not report.covered:
                return "%s: grid N=%d not covered" % (scheme, GRID_N)
            want = SCHEME_RATIO[scheme]
            for label, ratio in zip(NORM_LABELS, ratios):
                if label in EXACT_NORMS:
                    if not (isinstance(ratio, Fraction) and ratio == want):
                        return "%s %s ratio %r != %s" % (scheme, label, ratio, want)
                elif abs(float(ratio) - float(want)) > 1e-9:
                    return "%s %s ratio %r not within 1e-9 of %s" % (scheme, label, ratio, want)
        beta, gauge, pts = out["oracle"], out["gauge"], item["points"]
        if not (isinstance(beta.value, Fraction) and beta.value <= Fraction(9, 16)):
            return "oracle value %r exceeds 9/16" % (beta.value,)
        if sorted(i for part in beta.witness_partition for i in part) != list(range(len(pts))):
            return "oracle witness is not a partition of the points"
        worst = Fraction(0)
        for part in beta.witness_partition:
            if len(part) > 1:
                worst = max(worst, geometry.diameter_finite([pts[i] for i in part], gauge))
        value = worst / geometry.diameter_finite(pts, gauge)
        if value != beta.value:
            return "oracle witness gives %s, reported %s" % (value, beta.value)
        return None


# ---------------------------------------------------------------------------
# sampled-search


def _body(kind):
    if kind == "l1ball":
        return geometry.PBall(p=1, dim=3), geometry.Norm.lp(1)
    if kind == "cube":
        return geometry.cube(3), geometry.Norm.lp(INF)
    return partitions.UnitDisk(), geometry.Norm.lp(2)


# (body, m, r, expected success).  The successes exit early; the 3-D ones
# are confirmed in exact rationals.  The disk m=2 entry is the README
# search that fails after all multistarts.  Failing 3-D searches cost
# 12-39 s each and are left out.  An odd count puts the median item
# inside one entry's cluster of times rather than in a gap between two.
SEARCH_TABLE = (
    ("l1ball", 8, Fraction(2, 3), True),
    ("l1ball", 6, Fraction(3, 4), True),
    ("cube", 8, Fraction(1, 2), True),
    ("cube", 2, Fraction(1), True),
    ("disk", 3, 0.9, True),
    ("disk", 4, 0.8, True),
    ("disk", 2, 0.9, False),
)


class SampledSearch:
    """One search_ball_covering call per item at the default sample sizes:
    numpy float kernels and Fraction confirmation, no LP and no grid."""

    name = "sampled-search"

    def __init__(self, seed):
        self.seed = seed

    def round(self, stream, index):
        rng = _rng(self.name, self.seed, stream, index)
        order = rng.sample(SEARCH_TABLE, len(SEARCH_TABLE))
        return [{"entry": entry, "seed": rng.randrange(2 ** 31)} for entry in order]

    def warmup(self):
        return {"entry": ("cube", 2, Fraction(1), True),
                "seed": _rng(self.name, self.seed, "warmup").randrange(2 ** 31)}

    def run(self, item):
        kind, m, r, _ = item["entry"]
        body, norm = _body(kind)
        return coverings.search_ball_covering(body, m, r, norm, seed=item["seed"])

    def check(self, item, sol):
        kind, m, r, expected = item["entry"]
        if sol.success != expected:
            return "%s m=%d r=%s: success %s, expected %s" % (kind, m, r, sol.success, expected)
        body, norm = _body(kind)
        again = coverings.verify_ball_covering(body, sol.centers, sol.radius, norm)
        margin = sol.residual_margin
        if isinstance(margin, Fraction):
            if again != margin:
                return "%s m=%d: margin %s, recheck %s" % (kind, m, margin, again)
        elif abs(float(again) - margin) > 1e-12:
            return "%s m=%d: margin %r, recheck %r" % (kind, m, margin, again)
        return None


# ---------------------------------------------------------------------------
# cli-cold


# The README command set.  The oracle command reads a problem file the
# benchmark writes; its name is filled in per round.
CLI_COMMANDS = (
    ("partition-simplex", ("partition", "simplex", "--m", "8", "--verify", "64", "--norm", "1"), 0),
    ("partition-cube", ("partition", "cube", "--n", "3"), 0),
    ("partition-triangle", ("partition", "triangle"), 0),
    ("partition-disk", ("partition", "disk", "--samples", "4096", "--seed", "0"), 0),
    ("cover-search-l1ball", ("cover", "search", "--body", "l1ball", "--m", "8", "--r", "2/3",
                             "--seed", "0"), 0),
    ("cover-search-disk", ("cover", "search", "--body", "disk", "--m", "2", "--r", "0.9"), 2),
    ("bm-bound", ("bm", "bound", "--p", "1.5"), 0),
    ("bm-scan", ("bm", "scan", "--lo", "1.0", "--hi", "2.0", "--step", "1e-4"), 0),
    ("beta-table", ("beta", "table", "--p-list", "1,1.5,2,3,inf"), 0),
    ("beta-minmax", ("beta", "minmax", "--eta", "9/16", "--ball", "2/3"), 0),
    ("check-corollary", ("check", "corollary-221-328"), 0),
    ("oracle", None, 0),
)
ORACLE_VARIANTS = 8


def _fmt(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def oracle_problem(variant):
    """A problem file with a gauge norm and 10-12 rational points."""
    rng = _rng("cli-cold", "oracle", variant)
    gauge = random_gauge(rng, rng.randint(4, 6), -2, 2)
    points = []
    for _ in range(rng.randint(10, 12)):
        points.append([_fmt(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))))
                       for _ in range(3)])
    return {"norm": {"kind": "gauge", "vertices": [list(v) for v in gauge]},
            "points": points}


def oracle_path(variant):
    return os.path.join(WORK_DIR, "oracle_gauge_%d.json" % variant)


def write_oracle_problems():
    os.makedirs(WORK_DIR, exist_ok=True)
    for v in range(ORACLE_VARIANTS):
        with open(oracle_path(v), "w", encoding="ascii") as fh:
            json.dump(oracle_problem(v), fh)


def cli_items(variant):
    """(golden name, argv, expected exit code) for every command."""
    items = []
    for name, argv, code in CLI_COMMANDS:
        if argv is None:
            name = "oracle-gauge-%d" % variant
            argv = ("oracle", "--points", oracle_path(variant), "--m", "4")
        items.append((name, argv, code))
    return items


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


class CliCold:
    """Every README command as a fresh `python -m diampart.cli` process,
    plus the oracle on a generated gauge problem.  Nothing is reused
    between items, so import and start-up costs count in full."""

    name = "cli-cold"

    def __init__(self, seed):
        self.seed = seed
        self.traced = False
        self.env = child_env()
        write_oracle_problems()

    def round(self, stream, index):
        rng = _rng(self.name, self.seed, stream, index)
        items = cli_items(rng.randrange(ORACLE_VARIANTS))
        return [{"name": n, "argv": a, "code": c} for n, a, c in rng.sample(items, len(items))]

    def warmup(self):
        return {"name": "check-corollary", "argv": ("check", "corollary-221-328"), "code": 0}

    def run(self, item):
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_driver.py")]
        else:
            cmd = [sys.executable, "-m", "diampart.cli"]
        proc = subprocess.run(cmd + list(item["argv"]), env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=150)
        stats = None
        lines = proc.stderr.decode("ascii", "replace").splitlines()
        if self.traced:
            if not (lines and lines[-1].startswith(STATS_PREFIX)):
                raise RuntimeError("%s: traced driver printed no stats" % item["name"])
            stats = json.loads(lines.pop()[len(STATS_PREFIX):])
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": "\n".join(lines),
                "stats": stats}

    def check(self, item, out):
        if out["code"] != item["code"]:
            return "%s: exit %d, expected %d: %s" % (item["name"], out["code"], item["code"],
                                                     out["stderr"][-300:])
        with open(os.path.join(GOLDEN, item["name"] + ".out"), "rb") as fh:
            if fh.read() != out["stdout"]:
                return "%s: report bytes differ from golden" % item["name"]
        return None


WORKLOADS = {w.name: w for w in (ExactCertify, SampledSearch, CliCold)}
