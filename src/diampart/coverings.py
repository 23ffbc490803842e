"""Coverage verification and ball-covering search.

Two evidence levels, stated honestly in every report:

* exact_grid — simplex schemes are checked on the full integer
  barycentric grid of granularity 1/N in integer arithmetic (no
  rounding anywhere); the cube scheme is checked by an interval-product
  decomposition that is exact for every N at once.
* sampled — non-polytopal bodies (disk sectors, p-balls) are checked on
  low-discrepancy plus uniform random samples with a stated tolerance.

The ball-covering search places m centers to cover a body with balls of
radius r, by multistart coordinate pattern search over a fixed sample
set, then snaps the winning centers to small rationals and re-confirms
the margin through verify_ball_covering on a 4x finer point set
(exactly, when the data allows).  Each trial move is first tested on
its witness samples (the one that last rejected the same move, and the
one that sets the current margin) and is rejected there when
min(others, col) - r >= best - 1e-12 already holds.  The rejection is
exact, not a heuristic: a sample's distance does not depend on the other
samples, min and max are exact and float subtraction of r is monotone,
and every trial not rejected is evaluated on all samples, so the
search takes the same steps, bit for bit, as one without witnesses.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    _width,
    gauge_facets,
    norm_facets,
    polytope_diameter,
)
from .numbers import INF, all_rational, as_fraction, is_rational, same_mode, to_float
from .partitions import (
    PartitionCertificate,
    PartitionPiece,
    SectorRegion,
    UnitDisk,
    piece_contains,
)


@dataclass(frozen=True)
class CoverageReport:
    mode: str  # "exact_grid" or "sampled"
    resolution: int
    covered: bool
    worst_witness: Optional[tuple]  # (point, margin)
    tolerance: object


@dataclass(frozen=True)
class BallCoveringSolution:
    centers: tuple
    radius: object
    norm: Norm
    residual_margin: object  # confirmed margin: max_x min_j ||x-c_j|| - r
    seed: int
    search_margin: float

    @property
    def success(self) -> bool:
        return self.residual_margin <= 0


# ---------------------------------------------------------------------------
# exact grid coverage


def _piece_box(piece: PartitionPiece) -> tuple:
    if piece.bary_bounds is None:
        raise ValueError("piece has no barycentric-box form")
    return piece.bary_bounds


# Most points any one coverage check tests (a barycentric grid of N = 256
# on a tetrahedron has 2,862,209); larger inputs are refused before any
# work, since a grid's cost grows like N^(k-1).
MAX_GRID_POINTS = 3_000_000


@functools.lru_cache(maxsize=16)
def _bary_grid(k: int, N: int):
    """All integer vectors of length k summing to N (lambda = column/N),
    in lexicographic order, one vector per column: shape (k, P).

    Stars and bars: each choice of k-1 bar positions among N+k-1 slots
    gives one vector, the gaps between consecutive bars (with bars at -1
    and N+k-1 closing the ends).  Stored coordinate-major, so each
    coordinate is one contiguous row, in the narrowest unsigned dtype
    that holds N.  Cached and shared by every caller, hence read-only.
    """
    import numpy as np

    count = math.comb(N + k - 1, k - 1)
    if count > MAX_GRID_POINTS:
        raise ValueError("a barycentric grid of granularity 1/%d has %d points, more than %d"
                         % (N, count, MAX_GRID_POINTS))
    flat = itertools.chain.from_iterable(itertools.combinations(range(N + k - 1), k - 1))
    bars = np.empty((count, k + 1), dtype=np.int64)
    bars[:, 0], bars[:, -1] = -1, N + k - 1
    bars[:, 1:-1] = np.fromiter(flat, dtype=np.int64, count=count * (k - 1)).reshape(count, k - 1)
    gaps = np.diff(bars, axis=1)
    gaps -= 1
    grid = np.ascontiguousarray(gaps.T, dtype=np.min_scalar_type(N))
    grid.flags.writeable = False
    return grid


def _box_mask(grid, bounds, N: int):
    """Exact test  lo <= row/N <= hi  on every coordinate row of the grid.

    The rows hold integers, so each bound is one comparison against an
    integer threshold: row >= ceil(lo*N) and row <= floor(hi*N).
    """
    import numpy as np

    mask = np.ones(grid.shape[1], dtype=bool)
    for row, (lo, hi) in zip(grid, bounds):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > 0:
            mask &= row >= -(-lo.numerator * N // lo.denominator)
        if hi < 1:
            mask &= row <= hi.numerator * N // hi.denominator
    return mask


def _simplex_grid_coverage(parent: Simplex, pieces, N: int) -> CoverageReport:
    import numpy as np

    k = parent.dim + 1
    grid = _bary_grid(k, N)
    boxes = [_piece_box(p) for p in pieces]
    covered = np.zeros(grid.shape[1], dtype=bool)
    for box in boxes:
        covered |= _box_mask(grid, box, N)
    if bool(covered.all()):
        return CoverageReport("exact_grid", N, True, None, 0)
    # most-uncovered grid point: largest violation of its best piece
    bad = np.nonzero(~covered)[0][:2048]
    lam = max(([Fraction(int(v), N) for v in grid[:, idx]] for idx in bad),
              key=lambda x: _box_violation(x, boxes))
    point = tuple(sum(lv * v[i] for lv, v in zip(lam, parent.vertices))
                  for i in range(parent.dim))
    return CoverageReport("exact_grid", N, False,
                          (point, to_float(_box_violation(lam, boxes))), 0)


def _box_violation(x, boxes):
    """Smallest, over the boxes, of the largest per-coordinate distance
    from x to the box's interval: how far x is from the nearest box."""
    return min(max(max(lo - v, v - hi, 0) for v, (lo, hi) in zip(x, box))
               for box in boxes)


def _axis_cube_intervals(P: VPolytope):
    """If P is an axis-aligned box given by its full vertex set, return
    the per-axis (lo, hi); otherwise None."""
    n = P.dim
    los = [min(v[i] for v in P.vertices) for i in range(n)]
    his = [max(v[i] for v in P.vertices) for i in range(n)]
    want = {()}
    for i in range(n):
        want = {w + (s,) for w in want for s in (los[i], his[i])}
    return (los, his) if set(P.vertices) == want else None


def _cube_scheme_coverage(parent: VPolytope, pieces, N: int) -> CoverageReport:
    """Interval-product argument, exact for every grid granularity.

    Each piece is an axis box; the union covers the parent box exactly
    when the pieces form the Cartesian product of per-axis interval
    families that each cover the parent's axis interval.
    """
    box = _axis_cube_intervals(parent)
    if box is None:
        raise ValueError("interval-product coverage needs an axis-aligned box parent")
    los, his = box
    n = parent.dim
    piece_ivals = []
    for p in pieces:
        h = p.description
        if not isinstance(h, Homothet):
            raise ValueError("cube scheme pieces must be homothets")
        r = as_fraction(h.ratio)
        ivals = []
        for i in range(n):
            a = r * los[i] + as_fraction(h.translation[i])
            b = r * his[i] + as_fraction(h.translation[i])
            ivals.append((min(a, b), max(a, b)))
        piece_ivals.append(tuple(ivals))
    per_axis = [sorted(set(iv[i] for iv in piece_ivals)) for i in range(n)]
    # every axis family must cover [lo_i, hi_i] with no gap
    for i in range(n):
        reach = los[i]
        for lo, hi in per_axis[i]:
            if lo <= reach:
                reach = max(reach, hi)
        if reach < his[i]:
            pt = [Fraction(lo + hi, 2) for lo, hi in zip(los, his)]
            pt[i] = reach + (his[i] - reach) / 2
            return CoverageReport("exact_grid", N, False,
                                  (tuple(pt), to_float(his[i] - reach)), 0)
    # and the pieces must realize the full product of the axis families
    want = {()}
    for i in range(n):
        want = {w + (iv,) for w in want for iv in per_axis[i]}
    if set(piece_ivals) != want:
        missing = next(iter(want - set(piece_ivals)))
        pt = tuple(Fraction(lo + hi, 2) for lo, hi in missing)
        return CoverageReport("exact_grid", N, False,
                              (pt, to_float(_box_violation(pt, piece_ivals))), 0)
    return CoverageReport("exact_grid", N, True, None, 0)


# ---------------------------------------------------------------------------
# sampled coverage


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)

# sampled coverage: a sample within this distance of a piece counts as in it
SAMPLED_TOL = 1e-9


def _halton(n: int, d: int):
    """The first n points of the unscrambled Halton sequence in [0, 1)^d.

    Coordinate k is the radical inverse of the index in the k-th prime
    base (Halton, 1960).  Digits are accumulated low to high with the
    scale divided by the base each step, the same float operations as
    scipy.stats.qmc.Halton(scramble=False), so the points match it bit
    for bit.
    """
    import numpy as np

    if d > len(_HALTON_BASES):
        raise ValueError("Halton points are limited to dimension <= %d"
                         % len(_HALTON_BASES))
    out = np.zeros((n, d))
    for k, base in enumerate(_HALTON_BASES[:d]):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, k] += (q % base) * scale
            scale /= base
            q //= base
    return out


def _disk_samples(n_boundary: int, n_interior: int, seed: int):
    import numpy as np

    hb = _halton(n_boundary, 1)[:, 0]
    angles = 2 * math.pi * hb
    boundary = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    hi = _halton(2 * n_interior, 2)
    r = np.sqrt(hi[:, 0])
    th = 2 * math.pi * hi[:, 1]
    interior = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)[:n_interior]
    rng = np.random.default_rng(seed)
    extra = rng.uniform(-1, 1, size=(n_interior, 2))
    extra = extra[np.hypot(extra[:, 0], extra[:, 1]) <= 1]
    return np.concatenate([boundary, interior, extra])


def _sampled_coverage(parent, pieces, N: int, seed: int) -> CoverageReport:
    if not isinstance(parent, UnitDisk):
        raise ValueError("sampled coverage implemented for the disk only")
    if N + 2 * (N // 4) > MAX_GRID_POINTS:
        raise ValueError("%d disk samples test up to %d points, more than %d"
                         % (N, N + 2 * (N // 4), MAX_GRID_POINTS))
    pts = _disk_samples(N, N // 4, seed)
    uncovered = []
    for row in pts:
        x = (float(row[0]), float(row[1]))
        if not any(piece_contains(p, x, parent, tol=SAMPLED_TOL) for p in pieces):
            uncovered.append(x)
    if not uncovered:
        return CoverageReport("sampled", len(pts), True, None, SAMPLED_TOL)
    worst = max(uncovered, key=lambda x: math.hypot(*x))
    margin = math.hypot(*worst) - 1.0
    return CoverageReport("sampled", len(pts), False, (worst, margin), SAMPLED_TOL)


# ---------------------------------------------------------------------------
# public verification entry points


def verify_covering(parent, pieces: Sequence[PartitionPiece], N: int = 64,
                    seed: int = 0) -> CoverageReport:
    """Check that the union of the pieces covers the parent body.

    The parent decides the method.  A simplex is checked on every rational
    grid point of granularity 1/N in integer arithmetic; any other polytope
    must be an axis box and gets the exact interval-product argument (valid
    for all N); the disk is checked on N boundary and N//4 interior
    low-discrepancy points plus random ones, to SAMPLED_TOL.
    """
    if isinstance(parent, Simplex):
        return _simplex_grid_coverage(parent, pieces, N)
    if isinstance(parent, VPolytope):
        return _cube_scheme_coverage(parent, pieces, N)
    return _sampled_coverage(parent, pieces, N, seed)


def scheme_box_tautology(cert: PartitionCertificate):
    """Exact algebraic exhaustiveness check for the simplex schemes.

    Returns (ok, conditions).  The point dichotomies behind the schemes
    (some lambda_i >= t, or all lambda_i <= t; then inside the residual,
    some lambda_i <= cap or all >= cap) reduce to rational inequalities
    on the scheme constants, which are verified exactly here.
    """
    if cert.scheme not in ("triangle4", "m5", "m8", "m9"):
        raise ValueError("tautology check applies to the simplex schemes")
    parent = cert.parent
    k = parent.dim + 1
    boxes = [_piece_box(p) for p in cert.pieces]
    vertex_caps = {}
    residual_boxes = []
    for box in boxes:
        lowers = [i for i in range(k) if box[i][0] > 0]
        if len(lowers) == 1 and all(box[i][1] == 1 for i in range(k)):
            vertex_caps[lowers[0]] = box[lowers[0]][0]
        else:
            residual_boxes.append(box)
    conds = []
    ok = set(vertex_caps) == set(range(k))
    conds.append(("one vertex piece per coordinate", ok))
    if not ok:
        return False, tuple(conds)
    t = max(vertex_caps.values())
    conds.append(("vertex thresholds agree", len(set(vertex_caps.values())) == 1))
    # everything with max lambda_i >= t is caught by a vertex piece;
    # the rest lives in the box [0, t]^k, handled by the residual boxes
    if cert.scheme in ("triangle4", "m5"):
        good = any(all(lo == 0 and hi >= t for lo, hi in box) for box in residual_boxes)
        conds.append(("residual box [0,t] present", good))
    else:
        caps = []
        core = None
        for box in residual_boxes:
            tight = [i for i in range(k) if box[i][1] < t]
            if len(tight) == 1 and all(box[i][0] == 0 for i in range(k)):
                caps.append(box[tight[0]][1])
            elif all(lo > 0 for lo, hi in box):
                core = box
        if cert.scheme == "m8":
            good = len(caps) == k and all(c == caps[0] for c in caps) and k * caps[0] >= 1
            conds.append(("k * cap >= 1 forces some lambda_i <= cap", good))
        else:
            good = (
                len(caps) == k
                and core is not None
                and all(c == caps[0] for c in caps)
                and all(lo <= caps[0] for lo, _ in core)
            )
            conds.append(("core lower bound <= cap", good))
    all_ok = all(c for _, c in conds)
    return all_ok, tuple(conds)


def partition_diameter_ratio(cert: PartitionCertificate, norm: Norm):
    """max over pieces of diameter(piece)/diameter(parent) under the norm.

    Pieces carrying a realized hull use its exact polytope diameter;
    bare homothets use the scaling law |ratio|*diam(parent); sectors use
    the analytic sqrt(2) (l_2 only).  Under a polyhedral norm with rational
    hulls, the diameters are integer widths over one lcm denominator.
    """
    parent = cert.parent
    hulls = [p.realized_hull for p in cert.pieces]
    if norm.exact and None not in hulls and parent.rational and all(h.rational for h in hulls):
        rows = norm_facets(norm, parent.dim).width_rows
        L = math.lcm(*(P.integer_vertices[0] for P in (parent, *hulls)))
        w = [_width(rows, X) * (L // D) for D, X in (P.integer_vertices for P in (*hulls, parent))]
        return Fraction(max(w[:-1]), w[-1])
    if isinstance(parent, UnitDisk):
        if norm.kind != "p" or norm.p != 2:
            raise ValueError("disk certificates are Euclidean only")
        parent_diam = 2.0
    else:
        parent_diam = polytope_diameter(parent, norm)
    best = None
    for p in cert.pieces:
        if isinstance(p.description, SectorRegion):
            d = math.sqrt(2.0)
        elif p.realized_hull is not None:
            d = polytope_diameter(p.realized_hull, norm)
        elif isinstance(p.description, Homothet):
            d = abs(p.description.ratio) * parent_diam
        else:
            raise ValueError("piece is not realizable as a polytope")
        if best is None or d > best:
            best = d
    best, parent_diam = same_mode(best, parent_diam)
    return best / parent_diam


# ---------------------------------------------------------------------------
# ball covering search


def _norm_kernel(norm: Norm):
    """The norm as a numpy map from an (n, S) array of difference vectors,
    one coordinate per row, to their S distances.

    The rows are combined in coordinate order, d0 then d1 then d2, the
    order in which numpy reduces a short trailing axis, so the distances
    are bit for bit those of the (S, n) row-vector form.  Norm set-up (the
    gauge's functionals as a float array) is done here, once, not once
    per distance evaluation.
    """
    import numpy as np

    if norm.kind == "gauge":
        F = np.asarray(gauge_facets(norm.body.vertices).functionals(), dtype=float)
        # einsum contracts row-major (S, n) vectors; given the (n, S) rows
        # it rounds differently in the last bit when n = 3
        return lambda diff: np.einsum("fk,sk->fs", F, np.ascontiguousarray(diff.T)).max(axis=0)
    p = norm.p
    if p == INF:
        return lambda diff: np.abs(diff).max(axis=0)
    if p == 1:
        return lambda diff: functools.reduce(np.add, np.abs(diff))
    if p == 2:
        return lambda diff: np.sqrt(functools.reduce(np.add, diff * diff))
    pf = to_float(p)
    return lambda diff: functools.reduce(np.add, np.abs(diff) ** pf) ** (1.0 / pf)


def _dist_matrix(samples, centers, kernel):
    """S x m matrix of distances from each sample to each center.

    Built one kernel column per center and stored center-major (the
    transpose of an m x S array), so reductions over the centers run
    along long contiguous rows.
    """
    import numpy as np

    rows = np.ascontiguousarray(samples.T)
    return np.stack([kernel(rows - c[:, None]) for c in centers]).T


@functools.lru_cache(maxsize=8)
def _seed_free_samples(body, n_boundary: int, n_interior: int):
    """The seed-free part of _body_samples and the sampler of the rest.

    Returns (base, tail): base is the low-discrepancy boundary and
    interior points, a pure function of the body and the two sizes,
    cached and shared by every caller, hence read-only; tail(rng) draws
    the seeded uniform points inside the body.
    """
    import numpy as np

    if isinstance(body, UnitDisk) or (isinstance(body, PBall) and body.dim == 2):
        norm = _norm_kernel(Norm.lp(2 if isinstance(body, UnitDisk) else body.p))
        scale = to_float(body.radius)
        hb = _halton(n_boundary, 1)[:, 0]
        th = 2 * math.pi * hb
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        boundary = dirs / norm(dirs.T)[:, None]
        ui = _halton(4 * n_interior, 2) * 2 - 1
        ui = ui[norm(ui.T) <= 1][:n_interior]
        base = np.concatenate([boundary, ui]) * scale

        def tail(rng):
            ur = rng.uniform(-1, 1, size=(2 * n_interior, 2))
            return ur[norm(ur.T) <= 1][:n_interior] * scale
    elif isinstance(body, PBall) and body.dim == 3:
        norm = _norm_kernel(Norm.lp(body.p))
        scale = to_float(body.radius)
        if body.p == 1:
            u = _halton(n_boundary, 2)
            a = u[:, 0]
            b = u[:, 1]
            flip = a + b > 1
            a[flip], b[flip] = 1 - a[flip], 1 - b[flip]
            bary = np.stack([a, b, 1 - a - b], axis=1)
            signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1)
                              for sz in (1, -1)], dtype=float)
            boundary = bary * signs[np.arange(n_boundary) % 8]
        else:
            d = _halton(2 * n_boundary, 3) * 2 - 1
            d = d[_norm_kernel(Norm.lp(2))(d.T) > 1e-9][:n_boundary]
            boundary = d / norm(d.T)[:, None]
        ui = _halton(10 * n_interior, 3) * 2 - 1
        ui = ui[norm(ui.T) <= 1][:n_interior]
        base = np.concatenate([boundary, ui]) * scale

        def tail(rng):
            ur = rng.uniform(-1, 1, size=(8 * n_interior, 3))
            return ur[norm(ur.T) <= 1][:n_interior] * scale
    elif isinstance(body, VPolytope) and _axis_cube_intervals(body):
        n = body.dim
        los, his = _axis_cube_intervals(body)
        los = np.array([to_float(v) for v in los])
        his = np.array([to_float(v) for v in his])
        u = _halton(n_boundary, n)
        pts = los + u * (his - los)
        axis = np.arange(n_boundary) % n
        side = (np.arange(n_boundary) // n) % 2
        pts[np.arange(n_boundary), axis] = np.where(side == 0, los[axis], his[axis])
        ui = _halton(n_interior, n)
        base = np.concatenate([pts, los + ui * (his - los)])

        def tail(rng):
            return rng.uniform(los, his, size=(n_interior, n))
    else:
        raise ValueError("no sampler for body %r" % (type(body).__name__,))
    base.flags.writeable = False
    return base, tail


def _body_samples(body, n_boundary: int, n_interior: int, seed: int):
    """Deterministic low-discrepancy boundary + interior + random points:
    the cached seed-free part, then the uniform points drawn from seed."""
    import numpy as np

    base, tail = _seed_free_samples(body, n_boundary, n_interior)
    return np.concatenate([base, tail(np.random.default_rng(seed))])


def _pattern_search(samples, centers0, kernel, r, rng, max_sweeps=60):
    """Coordinate pattern search with occasional random kicks.

    A coordinate move changes one center j only, so the distance from
    each sample to its nearest other center stays valid across j's
    trials, accepted or not.  Each trial then costs one kernel call on
    the transposed samples rather than the full S x m matrix; min and
    max are exact, so the margins are the ones a full recompute gives,
    bit for bit.  Distances are kept as an m x S array, one row per
    center.

    Most trials fail, and most fail at one of two samples: the one that
    last kept the same move (center j, coordinate d, sign; or the kick)
    from improving, and the one that sets best.  These witnesses are
    tested first, with the same kernel: the margin of a trial is a max
    over samples, so if the witnesses alone give
    min(others, col) - r >= best - 1e-12  the trial is rejected without
    its full column.  This is exact: the kernel's distance at one sample
    does not depend on the other samples, min and max are exact, and
    float subtraction of r is monotone, so the full margin would be
    rejected too.  A trial the witnesses do not reject is evaluated in
    full, so accepted moves, dist and best are the ones the plain search
    computes, bit for bit.
    """
    import numpy as np

    centers = centers0.copy()
    rows = np.ascontiguousarray(samples.T)
    dist = _dist_matrix(samples, centers, kernel).T
    near = dist.min(axis=0)
    top = int(near.argmax())  # the sample that sets best
    best = float(near[top]) - r
    witness = {}  # move -> the sample that last rejected it
    step = 0.25
    sweeps = 0
    while step > 1e-5 and sweeps < max_sweeps:
        improved = False
        for j in range(len(centers)):
            others = dist[np.arange(len(centers)) != j].min(axis=0, initial=np.inf)
            for d in range(centers.shape[1]):
                for sgn in (1.0, -1.0):
                    trial = centers[j].copy()
                    trial[d] += sgn * step
                    ws = [witness.get((j, d, sgn), top), top]
                    col_ws = kernel(rows.take(ws, 1) - trial[:, None])
                    if float(np.minimum(others.take(ws), col_ws).max()) - r >= best - 1e-12:
                        continue  # rejected at a witness
                    col = kernel(rows - trial[:, None])
                    near = np.minimum(others, col)
                    w = int(near.argmax())
                    val = float(near[w]) - r
                    if val < best - 1e-12:
                        centers[j], dist[j], best, top = trial, col, val, w
                        improved = True
                    else:
                        witness[j, d, sgn] = w
        sweeps += 1
        if best <= 1e-12 and not improved:
            break  # covering reached; nothing left to gain
        if not improved:
            # annealing-style kick: one random center jitter before shrinking
            trial = centers + rng.normal(scale=step / 3, size=centers.shape)
            ws = [witness.get("kick", top), top]
            rows_ws = rows.take(ws, 1)
            near_ws = functools.reduce(np.minimum, [kernel(rows_ws - c[:, None]) for c in trial])
            if float(near_ws.max()) - r >= best - 1e-12:
                step *= 0.5  # rejected at a witness
                continue
            trial_dist = _dist_matrix(samples, trial, kernel).T
            near = trial_dist.min(axis=0)
            w = int(near.argmax())
            val = float(near[w]) - r
            if val < best - 1e-12:
                centers, dist, best, top = trial, trial_dist, val, w
            else:
                witness["kick"] = w
                step *= 0.5
    return centers, best


def _greedy_kcenter(samples, m: int, kernel):
    """Farthest-point starts: the sample mean, then repeatedly the sample
    farthest from the centers so far, kept as a running minimum."""
    import numpy as np

    rows = np.ascontiguousarray(samples.T)
    centers = [samples.mean(axis=0)]
    near = np.full(len(samples), np.inf)
    while len(centers) < m:
        near = np.minimum(near, kernel(rows - centers[-1][:, None]))
        centers.append(samples[int(near.argmax())].copy())
    return np.asarray(centers)


def _body_vertices(body):
    """Start hints: the 2n points +-radius*e_i for the l1 ball and any 3-D
    p-ball, the vertex list for a polytope, 8 circle points otherwise."""
    import numpy as np

    if isinstance(body, PBall) and (body.p == 1 or body.dim == 3):
        out = []
        for i in range(body.dim):
            for s in (1, -1):
                v = [0.0] * body.dim
                v[i] = s * to_float(body.radius)
                out.append(v)
        return np.asarray(out)
    if isinstance(body, VPolytope):
        return np.asarray([[to_float(c) for c in v] for v in body.vertices])
    if isinstance(body, (UnitDisk, PBall)):
        k = 8
        th = np.linspace(0, 2 * math.pi, k, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1) * to_float(body.radius)
    raise ValueError("no vertex hint for body")


# Lattice magnitudes below this keep int64 arithmetic; sums of a few such
# terms still fit.  Above it the lattice kernels switch to Python ints.
_INT64_SAFE = 2 ** 62


def _int_dtype(bound: int):
    import numpy as np

    return np.int64 if bound < _INT64_SAFE else object


def _lattice_body(body) -> bool:
    """Is the body's confirmation set an exact lattice: the 3-D l1 ball
    or an axis box?"""
    if isinstance(body, PBall):
        return body.p == 1 and body.dim == 3
    return isinstance(body, VPolytope) and _axis_cube_intervals(body) is not None


@functools.lru_cache(maxsize=8)
def _confirmation_points(body):
    """A deterministic point set denser than the search samples.

    Returns (P, D).  For a lattice body (_lattice_body), P is an integer
    array and the points are exactly P/D (int64, or Python ints when the
    magnitudes near the int64 range).  For other bodies D is None and P
    holds float samples at 4x the default sampling density.  Cached per
    body and shared by every caller, hence read-only.
    """
    import numpy as np

    if not _lattice_body(body):
        P, D = _body_samples(body, 4 * 4096, 4 * 1024, seed=10**6 + 7), None
    elif isinstance(body, PBall):
        # each facet at barycentric granularity 1/K (8*C(K+2,2) > 4*4096
        # points), plus the 1/8 grid inside the ball
        K = 64
        a, b = np.triu_indices(K + 1)
        facet = np.stack([a, b - a, K - b], axis=1)
        signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1)
                          for sz in (1, -1)])
        g = np.arange(-8, 9)
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[np.abs(grid).sum(axis=1) <= 8] * (K // 8)
        P = np.concatenate([(signs[:, None, :] * facet).reshape(-1, 3), grid])
        rad = as_fraction(body.radius)
        P, D = P.astype(_int_dtype(K * rad.numerator)) * rad.numerator, K * rad.denominator
    else:
        los, his = _axis_cube_intervals(body)
        K = 16
        axes = [[lo + Fraction(i, K) * (hi - lo) for i in range(K + 1)]
                for lo, hi in zip(map(as_fraction, los), map(as_fraction, his))]
        D = math.lcm(*(v.denominator for ax in axes for v in ax))
        ints = [[v.numerator * (D // v.denominator) for v in ax] for ax in axes]
        dtype = _int_dtype(max(abs(v) for ax in ints for v in ax))
        mesh = np.meshgrid(*(np.asarray(ax, dtype=dtype) for ax in ints), indexing="ij")
        P = np.stack(mesh, axis=-1).reshape(-1, body.dim)
    P.flags.writeable = False
    return P, D


def _exact_margin(P, D, centers, r, norm: Norm):
    """max over the lattice points P/D of min over centers of ||x-c|| - r.

    Exact, for polyhedral norms only (l1, l_inf and gauges): one rescale
    to the common denominator L of the lattice and the centers turns it
    into integer arithmetic, in int64 when the magnitudes allow and in
    Python ints otherwise.  With the norm's facet form (integer rows W
    over den at scale s, see norm_facets) the distance from P/D to C/L
    is max_w w.(P*k - C) * s/(den*L), where k = L/D.  The projections
    W.(P*k) are kept one contiguous row per facet, so each center costs
    one subtraction and one reduction over the facet rows.
    """
    import numpy as np

    L = math.lcm(D, *(as_fraction(v).denominator for c in centers for v in c))
    C = [[int(as_fraction(v) * L) for v in c] for c in centers]
    k = L // D
    reach = int(np.abs(P).max()) * k + max(abs(v) for c in C for v in c)
    form = norm_facets(norm, P.shape[1])
    dtype = _int_dtype(max(sum(map(abs, w)) for w in form.rows) * reach)
    W = np.asarray(form.rows, dtype=dtype)
    WP = W @ (P.T.astype(dtype) * k)
    dist = functools.reduce(np.minimum, [np.max(WP - cw[:, None], axis=0)
                                         for cw in np.asarray(C, dtype=dtype) @ W.T])
    value = Fraction(int(dist.max()) * form.scale, form.den * L)
    if not norm.exact:
        value = to_float(value)  # as gauge_eval rounds for a float body
    return value - as_fraction(r)


def _snap_centers(centers):
    """Successively coarser rational snaps of the center coordinates."""
    outs = []
    for den in (3, 6, 12, 24, 48):
        snapped = tuple(
            tuple(Fraction(int(round(float(v) * den)), den) for v in row)
            for row in centers
        )
        if snapped not in outs:
            outs.append(snapped)
    return outs


def search_ball_covering(parent, m: int, r, norm: Norm, seed: int = 0,
                         n_boundary: int = 4096, n_interior: int = 1024):
    """Try to cover the parent body with m norm-balls of radius r.

    Multistart pattern search over a fixed sample set; the winning
    centers are snapped to small rationals and the margin is confirmed
    by verify_ball_covering on a 4x denser point set (exact arithmetic
    when data permits).
    Failure (positive residual margin) is a legitimate outcome and does
    not prove impossibility.  Either way the solution's radius is r as
    given, a Fraction when r is rational.
    """
    if not 1 <= m <= 16:
        raise ValueError("m must lie in 1..16 (desk scale), got %s" % (m,))
    try:
        rf = to_float(r)
    except OverflowError:
        rf = math.inf
    # a rational radius is tested exactly: its float may underflow to 0
    positive = r > 0 if is_rational(r) else rf > 0
    if not (positive and math.isfinite(rf)):
        raise ValueError("r must be finite and positive, got %s" % (r,))
    if getattr(parent, "dim", 2) > 3:  # UnitDisk carries no dim
        raise ValueError("search is limited to dimension <= 3")
    import numpy as np

    samples = _body_samples(parent, n_boundary, n_interior, seed)
    dim = samples.shape[1]
    kernel = _norm_kernel(norm)

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(8)]
    verts = _body_vertices(parent)
    starts = []
    sv = verts * max(1.0 - rf, 0.0)
    base = np.zeros((m, dim))
    base[: min(m, len(sv))] = sv[: min(m, len(sv))]
    starts.append(base)
    starts.append(_greedy_kcenter(samples, m, kernel))
    for i in range(2, 8):
        rng = streams[i]
        if i % 2 == 0:
            starts.append(starts[0] + rng.normal(scale=0.15, size=(m, dim)))
        else:
            idx = rng.integers(0, len(samples), size=m)
            starts.append(samples[idx] * 0.5)

    best_centers, best_margin = None, math.inf
    for i, c0 in enumerate(starts):
        centers, val = _pattern_search(samples, np.asarray(c0, dtype=float), kernel,
                                       rf, streams[i])
        if val < best_margin:
            best_centers, best_margin = centers, val
        if best_margin <= 1e-12:
            break  # a covering is a covering; later starts add nothing

    (r_given,) = same_mode(r)
    if best_margin <= 1e-9 and norm.is_polyhedral and _lattice_body(parent):
        # the snapped centers are rational: verify_ball_covering's margin is exact
        for snapped in _snap_centers(best_centers):
            margin = verify_ball_covering(parent, snapped, r, norm)
            if margin <= 0:
                return BallCoveringSolution(snapped, r_given, norm, margin, seed, best_margin)
    centers_t = tuple(tuple(float(v) for v in row) for row in best_centers)
    conf_margin = verify_ball_covering(parent, centers_t, r, norm)
    return BallCoveringSolution(centers_t, r_given, norm, conf_margin, seed, best_margin)


def verify_ball_covering(parent, centers, r, norm: Norm):
    """Recheck proposed ball centers on a fresh confirmation point set.

    Returns the residual margin (worst distance to the nearest center
    minus r): exact Fraction arithmetic for rational centers under a
    polyhedral norm on a lattice body, where a float r is read as the
    rational it denotes; float otherwise.  Nonpositive means covered at
    the checked resolution.
    """
    pts, den = _confirmation_points(parent)
    if den is not None and norm.is_polyhedral and all(all_rational(c) for c in centers):
        return _exact_margin(pts, den, centers, r, norm)
    import numpy as np

    cs = np.asarray([[to_float(c) for c in row] for row in centers], dtype=float)
    arr = pts if den is None else (pts.astype(object) / den).astype(float)  # P/D rounded once
    return float(_dist_matrix(arr, cs, _norm_kernel(norm)).min(axis=1).max()) - to_float(r)
