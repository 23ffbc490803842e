"""Exact brute-force ground truth for beta of finite point sets.

beta(A, m) for a finite set A asks for the smallest ratio delta/diam(A)
such that A splits into m parts of diameter <= delta.  Feasibility of a
given delta is graph m-colorability: draw an edge between points at
distance strictly greater than delta, and ask for a proper coloring
with at most m colors (color classes = parts).  Candidate deltas are
the pairwise distances themselves (plus 0), so a binary search over the
sorted candidates pins down the exact optimum.  The search runs on
geometry._distance_keys, keys ordered as the exact distances, with no
tolerance.  Strict ">" in the edge rule makes parts of diameter exactly
delta feasible, which is the right semantics for an infimum.

The value is the key ratio, rounded once (geometry._key_exponent); the
threshold and diameter are norms of exact differences: exact for
rational points under an exact norm (ints when l1 or l_inf meets int
coordinates, else Fractions), else floats, inf beyond their range.
"""
from __future__ import annotations

import bisect
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .geometry import Norm, _distance_keys, _key_exponent, norm_eval, vsub
from .numbers import all_rational, as_fraction, float_or_inf, record, root_float

MAX_POINTS = 14
MAX_PARTS = 9


@record(slots=True)
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

    # the least feasible index; delta = diam, the last one, always is
    hi = 0 if feasible(0) else bisect.bisect_left(range(len(candidates)), True, key=feasible)
    parts: List[List[int]] = [[] for _ in range(m)]
    for i, c in enumerate(colorings[hi]):
        parts[c].append(i)

    # exact for rational points under an exact norm, rounded floats otherwise
    rational = all(map(all_rational, pts))
    out = (lambda x: x) if rational and norm.exact else float_or_inf
    exact_pts = pts if rational else [tuple(map(as_fraction, p)) for p in pts]

    def distance(key):  # the norm of the first pair with this key
        if not key:
            return out(Fraction(0))
        i, j = next(k for k, v in keys.items() if v == key)
        return out(norm_eval(vsub(exact_pts[i], exact_pts[j]), norm))

    # the key ratio, rounded once: at most 1, so it cannot overflow
    kd, kD, e = candidates[hi], candidates[-1], _key_exponent(norm)
    ratio = kd / (kD or 1) if e is None else Fraction(kd, kD or 1)
    value = root_float(ratio, e) if e and e > 1 else out(ratio)
    return ExactBetaResult(value, tuple(tuple(p) for p in parts), distance(kd), distance(kD))
