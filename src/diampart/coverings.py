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
the margin on a 4x finer point set (exactly, when the data allows).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    gauge_facets,
    norm_eval,
    polytope_diameter,
    vsub,
)
from .linprog import solve_linear_system
from .numbers import INF, all_rational, as_fraction, to_float
from .partitions import (
    BarycentricRegion,
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
# piece normalization


def _as_piece(obj, parent) -> PartitionPiece:
    if isinstance(obj, PartitionPiece):
        return obj
    if isinstance(obj, Homothet):
        piece = PartitionPiece(description=obj, ratio_bound=abs(obj.ratio))
        if isinstance(parent, Simplex):
            bounds = _homothet_bary_bounds(obj, parent)
            piece = PartitionPiece(description=obj, ratio_bound=abs(obj.ratio),
                                   bary_bounds=bounds)
        return piece
    if isinstance(obj, (BarycentricRegion, SectorRegion)):
        bounds = obj.bounds if isinstance(obj, BarycentricRegion) else None
        return PartitionPiece(description=obj, ratio_bound=None,
                              bary_bounds=bounds)
    raise ValueError("unknown piece kind %r" % (type(obj).__name__,))


def _homothet_bary_bounds(h: Homothet, parent: Simplex) -> tuple:
    """Barycentric box equivalent to a homothet of the parent simplex.

    Writing the translation as sum eta_i v_i with sum eta_i = 1 - r, a
    point with coordinates lambda lies in the homothet iff
    (lambda_i - eta_i)/r >= 0 for every i.
    """
    if getattr(h.base, "vertices", None) != parent.vertices:
        raise ValueError("piece homothet must be based on the parent simplex")
    n = parent.dim
    verts = parent.vertices
    A = [[verts[j][i] for j in range(n + 1)] for i in range(n)]
    A.append([1] * (n + 1))
    r = as_fraction(h.ratio)
    b = [as_fraction(c) for c in h.translation] + [1 - r]
    eta = solve_linear_system(A, b)
    if r > 0:
        return tuple((max(e, Fraction(0)), Fraction(1)) for e in eta)
    return tuple((Fraction(0), min(e, Fraction(1))) for e in eta)


def _piece_box(piece: PartitionPiece, parent) -> tuple:
    if piece.bary_bounds is not None:
        return piece.bary_bounds
    if isinstance(piece.description, Homothet) and isinstance(parent, Simplex):
        return _homothet_bary_bounds(piece.description, parent)
    raise ValueError("piece has no barycentric-box form")


# ---------------------------------------------------------------------------
# exact grid coverage


@functools.lru_cache(maxsize=16)
def _bary_grid(k: int, N: int) -> np.ndarray:
    """All integer vectors of length k summing to N (lambda = row/N).

    Cached and shared by every caller, hence read-only.
    """
    if k == 3:
        rows = [
            (a, b, N - a - b)
            for a in range(N + 1)
            for b in range(N + 1 - a)
        ]
    elif k == 4:
        rows = [
            (a, b, c, N - a - b - c)
            for a in range(N + 1)
            for b in range(N + 1 - a)
            for c in range(N + 1 - a - b)
        ]
    else:
        def rec(prefix, left, slots):
            if slots == 1:
                yield prefix + (left,)
                return
            for v in range(left + 1):
                yield from rec(prefix + (v,), left - v, slots - 1)

        rows = list(rec((), N, k))
    grid = np.asarray(rows, dtype=np.int64)
    grid.flags.writeable = False
    return grid


def _box_mask(grid: np.ndarray, bounds, N: int) -> np.ndarray:
    """Exact integer test  lo <= k/N <= hi  per coordinate, all coords."""
    mask = np.ones(len(grid), dtype=bool)
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > 0:
            mask &= grid[:, i] * lo.denominator >= lo.numerator * N
        if hi < 1:
            mask &= grid[:, i] * hi.denominator <= hi.numerator * N
    return mask


def _simplex_grid_coverage(parent: Simplex, pieces, N: int) -> CoverageReport:
    k = parent.dim + 1
    grid = _bary_grid(k, N)
    boxes = [_piece_box(p, parent) for p in pieces]
    covered = np.zeros(len(grid), dtype=bool)
    for box in boxes:
        covered |= _box_mask(grid, box, N)
    if bool(covered.all()):
        return CoverageReport("exact_grid", N, True, None, 0)
    # most-uncovered grid point: largest violation of its best piece
    bad = np.nonzero(~covered)[0]
    worst_pt, worst_margin = None, None
    for idx in bad[: min(len(bad), 2048)]:
        lam = [Fraction(int(v), N) for v in grid[idx]]
        best = None
        for box in boxes:
            viol = max(
                max(lo - lv, lv - hi, Fraction(0))
                for lv, (lo, hi) in zip(lam, box)
            )
            best = viol if best is None else min(best, viol)
        if worst_margin is None or best > worst_margin:
            worst_margin = best
            worst_pt = lam
    point = tuple(
        sum(lv * v[i] for lv, v in zip(worst_pt, parent.vertices))
        for i in range(parent.dim)
    )
    return CoverageReport("exact_grid", N, False, (point, to_float(worst_margin)), 0)


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
        raise ValueError("cube-mode coverage needs an axis-aligned box parent")
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
        reach = None
        for lo, hi in per_axis[i]:
            if reach is None:
                if lo > los[i]:
                    break
                reach = hi
            elif lo <= reach:
                reach = max(reach, hi)
        if reach is None or reach < his[i]:
            gap_from = los[i] if reach is None else reach
            pt = [Fraction(lo + hi, 2) for lo, hi in zip(los, his)]
            pt[i] = gap_from + (his[i] - gap_from) / 2
            return CoverageReport("exact_grid", N, False,
                                  (tuple(pt), to_float(his[i] - gap_from)), 0)
    # and the pieces must realize the full product of the axis families
    want = {()}
    for i in range(n):
        want = {w + (iv,) for w in want for iv in per_axis[i]}
    if set(piece_ivals) != want:
        missing = next(iter(want - set(piece_ivals)))
        pt = tuple(Fraction(lo + hi, 2) for lo, hi in missing)
        return CoverageReport("exact_grid", N, False, (pt, float("nan")), 0)
    return CoverageReport("exact_grid", N, True, None, 0)


# ---------------------------------------------------------------------------
# sampled coverage


def _disk_samples(n_boundary: int, n_interior: int, seed: int):
    from scipy.stats import qmc

    hb = qmc.Halton(d=1, scramble=False).random(n_boundary)[:, 0]
    angles = 2 * math.pi * hb
    boundary = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    hi = qmc.Halton(d=2, scramble=False).random(2 * n_interior)
    r = np.sqrt(hi[:, 0])
    th = 2 * math.pi * hi[:, 1]
    interior = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)[:n_interior]
    rng = np.random.default_rng(seed)
    extra = rng.uniform(-1, 1, size=(n_interior, 2))
    extra = extra[np.hypot(extra[:, 0], extra[:, 1]) <= 1]
    return np.concatenate([boundary, interior, extra])


def _sampled_coverage(parent, pieces, N: int, tol: float, seed: int) -> CoverageReport:
    if isinstance(parent, UnitDisk):
        pts = _disk_samples(max(N, 256), max(N // 4, 64), seed)
    else:
        raise ValueError("sampled coverage implemented for the disk only")
    uncovered = []
    for row in pts:
        x = (float(row[0]), float(row[1]))
        if not any(piece_contains(p, x, parent, tol=tol) for p in pieces):
            uncovered.append(x)
    if not uncovered:
        return CoverageReport("sampled", len(pts), True, None, tol)
    worst = max(uncovered, key=lambda x: math.hypot(*x))
    margin = math.hypot(*worst) - 1.0
    return CoverageReport("sampled", len(pts), False, (worst, margin), tol)


# ---------------------------------------------------------------------------
# public verification entry points


def verify_covering(parent, pieces: Sequence, mode: str = "auto",
                    N: int = 64, tol: float = 1e-9, seed: int = 0) -> CoverageReport:
    """Check that the union of the pieces covers the parent body.

    exact_grid tests every rational grid point of granularity 1/N in
    integer arithmetic (simplex parents), or runs the exact
    interval-product argument (axis-cube parents, valid for all N).
    sampled mode checks low-discrepancy and random points to tolerance.
    """
    pieces = [_as_piece(p, parent) for p in pieces]
    if mode == "auto":
        if isinstance(parent, Simplex):
            mode = "exact_grid"
        elif isinstance(parent, VPolytope) and _axis_cube_intervals(parent):
            mode = "exact_grid"
        else:
            mode = "sampled"
    if mode == "exact_grid":
        if isinstance(parent, Simplex):
            for p in pieces:
                desc = p.description
                if isinstance(desc, SectorRegion):
                    raise ValueError("sector pieces have no exact grid form")
            return _simplex_grid_coverage(parent, pieces, N)
        if isinstance(parent, VPolytope):
            return _cube_scheme_coverage(parent, pieces, N)
        raise ValueError("no exact grid form for this parent")
    return _sampled_coverage(parent, pieces, N, tol, seed)


def verify_certificate(cert: PartitionCertificate, mode: str = "auto",
                       N: int = 64) -> PartitionCertificate:
    report = verify_covering(cert.parent, cert.pieces, mode=mode, N=N)
    return cert.with_coverage(report)


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
    boxes = [_piece_box(p, cert.parent) for p in cert.pieces]
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
    the analytic sqrt(2) (l_2 only).
    """
    parent = cert.parent
    if isinstance(parent, UnitDisk):
        if norm.kind != "p" or norm.p != 2:
            raise ValueError("disk certificates are Euclidean only")
        parent_diam = 2.0
    else:
        parent_diam = polytope_diameter(
            parent if isinstance(parent, VPolytope) else parent.as_polytope(), norm
        )
    best = None
    for p in cert.pieces:
        if isinstance(p.description, SectorRegion):
            d = math.sqrt(2.0)
        elif p.realized_hull is not None:
            d = polytope_diameter(p.realized_hull, norm)
        elif isinstance(p.description, Homothet):
            d = abs(p.description.ratio) * parent_diam
        elif p.enclosure is not None:
            d = abs(p.enclosure.ratio) * parent_diam
        else:
            raise ValueError("piece is not realizable as a polytope")
        if best is None or d > best:
            best = d
    if all_rational([best, parent_diam]):
        return Fraction(as_fraction(best), as_fraction(parent_diam))
    return to_float(best) / to_float(parent_diam)


# ---------------------------------------------------------------------------
# ball covering search


def _dist_matrix(samples: np.ndarray, centers: np.ndarray, norm: Norm) -> np.ndarray:
    diff = samples[:, None, :] - centers[None, :, :]
    if norm.kind == "gauge":
        F = np.asarray(gauge_facets(norm.body.vertices).functionals(), dtype=float)
        return np.einsum("fk,smk->smf", F, diff).max(axis=2)
    p = norm.p
    if p == INF:
        return np.abs(diff).max(axis=2)
    if p == 1:
        return np.abs(diff).sum(axis=2)
    if p == 2:
        return np.sqrt((diff * diff).sum(axis=2))
    pf = to_float(p)
    return (np.abs(diff) ** pf).sum(axis=2) ** (1.0 / pf)


def _body_samples(body, n_boundary: int, n_interior: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy boundary + interior + random points."""
    from scipy.stats import qmc

    rng = np.random.default_rng(seed)
    if isinstance(body, UnitDisk) or (isinstance(body, PBall) and body.dim == 2):
        p = 2 if isinstance(body, UnitDisk) else body.p
        hb = qmc.Halton(d=1, scramble=False).random(n_boundary)[:, 0]
        th = 2 * math.pi * hb
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        norms = _vec_pnorm(dirs, p)
        boundary = dirs / norms[:, None]
        ui = qmc.Halton(d=2, scramble=False).random(4 * n_interior) * 2 - 1
        ui = ui[_vec_pnorm(ui, p) <= 1][:n_interior]
        ur = rng.uniform(-1, 1, size=(2 * n_interior, 2))
        ur = ur[_vec_pnorm(ur, p) <= 1][:n_interior]
        return np.concatenate([boundary, ui, ur])
    if isinstance(body, PBall) and body.dim == 3:
        if body.p == 1:
            u = qmc.Halton(d=2, scramble=False).random(n_boundary)
            a = u[:, 0]
            b = u[:, 1]
            flip = a + b > 1
            a[flip], b[flip] = 1 - a[flip], 1 - b[flip]
            bary = np.stack([a, b, 1 - a - b], axis=1)
            signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1)
                              for sz in (1, -1)], dtype=float)
            boundary = bary * signs[np.arange(n_boundary) % 8]
        else:
            d = qmc.Halton(d=3, scramble=False).random(2 * n_boundary) * 2 - 1
            d = d[_vec_pnorm(d, 2) > 1e-9][:n_boundary]
            boundary = d / _vec_pnorm(d, body.p)[:, None]
        ui = qmc.Halton(d=3, scramble=False).random(10 * n_interior) * 2 - 1
        ui = ui[_vec_pnorm(ui, body.p) <= 1][:n_interior]
        ur = rng.uniform(-1, 1, size=(8 * n_interior, 3))
        ur = ur[_vec_pnorm(ur, body.p) <= 1][:n_interior]
        out = np.concatenate([boundary, ui, ur])
        if body.radius != 1:
            out = out * to_float(body.radius)
        return out
    if isinstance(body, VPolytope) and _axis_cube_intervals(body):
        n = body.dim
        los, his = _axis_cube_intervals(body)
        los = np.array([to_float(v) for v in los])
        his = np.array([to_float(v) for v in his])
        u = qmc.Halton(d=n, scramble=False).random(n_boundary)
        pts = los + u * (his - los)
        axis = np.arange(n_boundary) % n
        side = (np.arange(n_boundary) // n) % 2
        pts[np.arange(n_boundary), axis] = np.where(side == 0, los[axis], his[axis])
        ui = qmc.Halton(d=n, scramble=False).random(n_interior)
        interior = los + ui * (his - los)
        ur = rng.uniform(los, his, size=(n_interior, n))
        return np.concatenate([pts, interior, ur])
    raise ValueError("no sampler for body %r" % (type(body).__name__,))


def _vec_pnorm(arr: np.ndarray, p) -> np.ndarray:
    if p == INF:
        return np.abs(arr).max(axis=1)
    pf = to_float(p)
    if pf == 1.0:
        return np.abs(arr).sum(axis=1)
    if pf == 2.0:
        return np.sqrt((arr * arr).sum(axis=1))
    return (np.abs(arr) ** pf).sum(axis=1) ** (1.0 / pf)


def _pattern_search(samples, centers0, norm, r, rng, max_sweeps=60):
    """Coordinate pattern search with occasional random kicks."""
    centers = centers0.copy()

    def margin(cs):
        return float(_dist_matrix(samples, cs, norm).min(axis=1).max()) - r

    best = margin(centers)
    step = 0.25
    sweeps = 0
    while step > 1e-5 and sweeps < max_sweeps:
        improved = False
        for j in range(len(centers)):
            for d in range(centers.shape[1]):
                for sgn in (1.0, -1.0):
                    trial = centers.copy()
                    trial[j, d] += sgn * step
                    val = margin(trial)
                    if val < best - 1e-12:
                        centers, best = trial, val
                        improved = True
        sweeps += 1
        if best <= 1e-12 and not improved:
            break  # covering reached; nothing left to gain
        if not improved:
            # annealing-style kick: one random center jitter before shrinking
            trial = centers + rng.normal(scale=step / 3, size=centers.shape)
            val = margin(trial)
            if val < best - 1e-12:
                centers, best = trial, val
            else:
                step *= 0.5
    return centers, best


def _greedy_kcenter(samples: np.ndarray, m: int, norm: Norm) -> np.ndarray:
    centers = [samples.mean(axis=0)]
    while len(centers) < m:
        d = _dist_matrix(samples, np.asarray(centers), norm).min(axis=1)
        centers.append(samples[int(d.argmax())].copy())
    return np.asarray(centers)


def _body_vertices(body):
    if isinstance(body, PBall) and body.p == 1:
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
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    raise ValueError("no vertex hint for body")


def _confirmation_points(body, factor: int = 4):
    """Denser deterministic point set; exact rationals when possible."""
    if isinstance(body, PBall) and body.p == 1 and body.dim == 3:
        K = 64  # per-facet barycentric granularity; 8*C(K+2,2) > 4*4096 points
        pts = []
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    for i in range(K + 1):
                        for j in range(K + 1 - i):
                            k = K - i - j
                            pts.append((Fraction(sx * i, K), Fraction(sy * j, K),
                                        Fraction(sz * k, K)))
        step = Fraction(1, 8)
        rng_vals = [step * i for i in range(-8, 9)]
        for x in rng_vals:
            for y in rng_vals:
                for z in rng_vals:
                    if abs(x) + abs(y) + abs(z) <= 1:
                        pts.append((x, y, z))
        return pts, True
    if isinstance(body, VPolytope) and _axis_cube_intervals(body):
        los, his = _axis_cube_intervals(body)
        n = body.dim
        K = 16
        axes = [[lo + Fraction(i, K) * (hi - lo) for i in range(K + 1)]
                for lo, hi in zip(map(as_fraction, los), map(as_fraction, his))]
        pts = [()]
        for ax in axes:
            pts = [p + (v,) for p in pts for v in ax]
        return pts, True
    # generic float fallback: 4x the default sampling density
    arr = _body_samples(body, 4 * 4096, 4 * 1024, seed=10**6 + 7)
    return [tuple(float(c) for c in row) for row in arr], False


def _exact_margin(points, centers, r, norm: Norm):
    """max over points of min over centers of ||x-c|| - r, exactly.

    Uses a common-denominator integer rescale so numpy can do the heavy
    lifting without leaving exact arithmetic.
    """
    if norm.kind == "p" and norm.p in (1, INF):
        dens = {as_fraction(v).denominator for pt in points for v in pt}
        dens |= {as_fraction(v).denominator for c in centers for v in c}
        D = 1
        for d in dens:
            D = D * d // math.gcd(D, d)
        P = np.asarray(
            [[int(as_fraction(v) * D) for v in pt] for pt in points], dtype=np.int64
        )
        C = np.asarray(
            [[int(as_fraction(v) * D) for v in c] for c in centers], dtype=np.int64
        )
        diff = np.abs(P[:, None, :] - C[None, :, :])
        dist = diff.max(axis=2) if norm.p == INF else diff.sum(axis=2)
        worst = int(dist.min(axis=1).max())
        return Fraction(worst, D) - as_fraction(r)
    best = None
    for pt in points:
        d = min(norm_eval(vsub(pt, c), norm) for c in centers)
        best = d if best is None else max(best, d)
    return best - r


def _snap_centers(centers: np.ndarray):
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
    on a 4x denser point set (exact arithmetic when data permits).
    Failure (positive residual margin) is a legitimate outcome and does
    not prove impossibility.
    """
    if m > 16:
        raise ValueError("m is capped at 16 (desk scale)")
    rf = to_float(r)
    samples = _body_samples(parent, n_boundary, n_interior, seed)
    dim = samples.shape[1]
    if dim > 3:
        raise ValueError("search is limited to dimension <= 3")

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(8)]
    verts = _body_vertices(parent)
    starts = []
    sv = verts * max(1.0 - rf, 0.0)
    base = np.zeros((m, dim))
    base[: min(m, len(sv))] = sv[: min(m, len(sv))]
    starts.append(base)
    starts.append(_greedy_kcenter(samples, m, norm))
    for i in range(2, 8):
        rng = streams[i]
        if i % 2 == 0:
            starts.append(starts[0] + rng.normal(scale=0.15, size=(m, dim)))
        else:
            idx = rng.integers(0, len(samples), size=m)
            starts.append(samples[idx] * 0.5)

    best_centers, best_margin = None, math.inf
    for i, c0 in enumerate(starts):
        centers, val = _pattern_search(samples, np.asarray(c0, dtype=float), norm,
                                       rf, streams[i])
        if val < best_margin:
            best_centers, best_margin = centers, val
        if best_margin <= 1e-12:
            break  # a covering is a covering; later starts add nothing

    conf_pts, conf_exact = _confirmation_points(parent)
    r_exact = as_fraction(r) if all_rational([r]) else rf

    if best_margin <= 1e-9:
        candidates = _snap_centers(best_centers) if conf_exact else []
        for snapped in candidates:
            margin = _exact_margin(conf_pts, snapped, r_exact, norm)
            if margin <= 0:
                return BallCoveringSolution(snapped, r_exact, norm, margin,
                                            seed, best_margin)
    # no exact confirmation: report the float margin at the 4x resolution
    centers_t = tuple(tuple(float(v) for v in row) for row in best_centers)
    arr = np.asarray([[to_float(c) for c in p] for p in conf_pts], dtype=float)
    conf_margin = float(
        _dist_matrix(arr, np.asarray(best_centers), norm).min(axis=1).max()
    ) - rf
    return BallCoveringSolution(centers_t, rf, norm, conf_margin, seed, best_margin)


def verify_ball_covering(parent, centers, r, norm: Norm, factor: int = 4):
    """Recheck proposed ball centers on a fresh confirmation point set.

    Returns the residual margin (worst distance to the nearest center
    minus r): exact Fraction arithmetic when the body, centers, radius,
    and norm permit, float otherwise.  Nonpositive means covered at the
    checked resolution.
    """
    pts, exactable = _confirmation_points(parent, factor=factor)
    rational = (
        exactable
        and all(all_rational(c) for c in centers)
        and all_rational([r])
        and norm.kind == "p"
        and norm.p in (1, INF)
    )
    if rational:
        return _exact_margin(pts, centers, as_fraction(r), norm)
    arr = np.asarray([[to_float(c) for c in p] for p in pts], dtype=float)
    cs = np.asarray([[to_float(c) for c in row] for row in centers], dtype=float)
    return float(_dist_matrix(arr, cs, norm).min(axis=1).max()) - to_float(r)
