"""Exact brute-force ground truth for beta of finite point sets.

beta(A, m) for a finite set A asks for the smallest ratio delta/diam(A)
such that A splits into m parts of diameter <= delta.  Feasibility of a
given delta is graph m-colorability: draw an edge between points at
distance strictly greater than delta, and ask for a proper coloring
with at most m colors (color classes = parts).  Candidate deltas are
the pairwise distances themselves (plus 0), so a binary search over the
sorted candidates pins down the exact optimum.  The search runs on keys
ordered as the distances (integers, made in one pass, for rational
points under a polyhedral norm; see geometry._distance_keys).

Strict ">" in the edge rule makes parts of diameter exactly delta
feasible, which is the right semantics for an infimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .geometry import Norm, _distance_keys, norm_eval, vsub
from .numbers import all_rational

MAX_POINTS = 14
MAX_PARTS = 9


@dataclass(frozen=True)
class ExactBetaResult:
    value: object
    witness_partition: tuple  # m tuples of point indices (some may be empty)
    threshold: object
    diameter: object


def m_colorable(n: int, edges, m: int) -> Tuple[bool, Optional[tuple]]:
    """Exact backtracking m-coloring of the graph on vertices 0..n-1 with
    the given (i, j) edges; returns (ok, colors) with colors indexed by
    vertex when ok."""
    if n > MAX_POINTS:
        raise ValueError("colorability budget is %d vertices" % MAX_POINTS)
    if m <= 0:
        return (n == 0, () if n == 0 else None)
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    colors = [-1] * n

    def backtrack(k: int, used: int) -> bool:
        if k == n:
            return True
        v = order[k]
        forbidden = {colors[u] for u in adj[v] if colors[u] >= 0}
        # trying a single fresh color (not every unused one) prunes the
        # color-permutation symmetry
        limit = min(used + 1, m)
        for c in range(limit):
            if c in forbidden:
                continue
            colors[v] = c
            if backtrack(k + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    if backtrack(0, 0):
        return True, tuple(colors)
    return False, None


def _cluster_floats(values: List[float], rel_tol: float = 1e-9) -> dict:
    """Map each value to a representative of its tolerance cluster.

    Floating-point distance evaluation turns coincident distances into
    near-coincident ones (0.49999999999999994 next to 0.5).  Values
    within rel_tol are grouped, and the member with the shortest decimal
    round-trip representation (ties: the larger value) speaks for the
    group, so clean values like 0.5 survive verbatim.
    """
    out = {}
    cluster: List[float] = []
    for v in sorted(set(values)):
        if cluster and v - cluster[0] > rel_tol * max(abs(v), 1e-30):
            rep = min(cluster, key=lambda w: (len(repr(w)), -w))
            for w in cluster:
                out[w] = rep
            cluster = []
        cluster.append(v)
    if cluster:
        rep = min(cluster, key=lambda w: (len(repr(w)), -w))
        for w in cluster:
            out[w] = rep
    return out


def beta_finite_exact(points: Sequence, m: int, norm: Norm) -> ExactBetaResult:
    """Least ratio (max part diameter)/diam over m-part splits of the set."""
    pts = [tuple(p) for p in points]
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point")
    if n > MAX_POINTS:
        raise ValueError("budget is %d points" % MAX_POINTS)
    if not 1 <= m <= MAX_PARTS:
        raise ValueError("m must lie in [1, %d]" % MAX_PARTS)

    keys = _distance_keys(pts, norm)
    exact = all_rational(keys.values())
    if not exact:
        rep = _cluster_floats([float(v) for v in keys.values()])
        keys = {k: rep[float(v)] for k, v in keys.items()}
    # the distance a key stands for, as norm_eval gives it
    distance = (lambda k: norm_eval(vsub(pts[k[0]], pts[k[1]]), norm)) if exact else keys.get

    zero = Fraction(0) if exact else 0.0
    if m >= n or not keys:
        parts = [(i,) for i in range(n)] + [()] * (m - n)
        return ExactBetaResult(zero, tuple(parts[:m]), zero,
                               distance(max(keys, key=keys.get)) if keys else zero)

    diam = distance(max(keys, key=keys.get))
    if diam == 0:
        parts = [tuple(range(n))] + [()] * (m - 1)
        return ExactBetaResult(zero, tuple(parts), zero, zero)

    candidates = [0] + sorted(set(keys.values()))

    colorings = {}

    def feasible(idx: int) -> bool:
        if idx in colorings:
            return colorings[idx] is not None
        delta = candidates[idx]
        edges = [k for k, d in keys.items() if d > delta]
        ok, cols = m_colorable(n, edges, m)
        colorings[idx] = cols if ok else None
        return ok

    lo, hi = 0, len(candidates) - 1  # delta = diam is always feasible
    if feasible(0):
        hi = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    feasible(hi)
    cols = colorings[hi]
    parts: List[List[int]] = [[] for _ in range(m)]
    for i, c in enumerate(cols):
        parts[c].append(i)
    delta = distance(next(k for k, d in keys.items() if d == candidates[hi])) if hi else zero
    value = Fraction(delta, diam) if exact else delta / diam
    return ExactBetaResult(value, tuple(tuple(p) for p in parts), delta, diam)
