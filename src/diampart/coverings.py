"""Coverage verification and ball-covering search.

Two evidence levels, stated honestly in every report:

* exact_grid — a simplex, by its pieces' barycentric boxes, and an axis
  box, by its homothet pieces, get one exact check in rational
  arithmetic with no numpy (_uncovered_point): a search over the cells
  of the boxes' per-coordinate arrangement, which holds for every grid
  at once and names an exact witness for a gap.  It depends on the
  boxes alone and is cached, so one check serves every simplex of a
  scheme; N is only echoed as the report's resolution.
* sampled — the disk quadrant partition, whose parent is the Euclidean
  unit disk PBall(2, 2), is checked to a stated tolerance on the same
  Halton boundary and interior points as every p-ball's search samples,
  plus seeded uniform points in the disk.

The ball-covering search places m centers to cover a body with balls of
radius r, by multistart coordinate pattern search over a fixed sample
set, then re-confirms the margin on a 4x finer point set.  On a lattice
body under a polyhedral norm the winning centers are snapped to the
grids 1/q, q = 3, ..., 48, as int rows round(q*c) over q (_snap_centers),
and each snap's margin is computed exactly on those rows and the cached
lattice projections (_exact_margin); Fractions are built only for the
centers returned.  verify_ball_covering scales its rational centers to
int rows with the same helper as the rest of the package
(_integer_points), so a recheck returns the same Fraction.  Otherwise the
float centers are confirmed in floats.

Each search keeps a witness pool: the sample that sets the starting
margin and every sample that has come out as the argmax of a fully
evaluated trial.  All remaining trial moves of a
sweep are tested at the pool in one kernel call, and a trial is rejected
there when min(others, col) - r >= best - 1e-12 already holds; only the
trials after an accepted move are tested again.  The rejection is exact,
not a heuristic: a sample's distance depends neither on the other samples
nor on the batch layout, min and max are exact and float subtraction of
r is monotone, and every trial not rejected is evaluated on all samples,
so the search takes the same steps, bit for bit, as one without
witnesses.  Under l2 the search and the float confirmation compare
squared distances and take one root per reduced value (_norm_keys).  The
pool state (the pool samples' coordinates, and each move's nearest-other
distances there) is rebuilt only when the pool grows or a center moves,
not once per batch.  The multistart builds each start only when it
reaches it.  The exact confirmation caches the lattice's facet
projections per lattice and norm; they depend on neither the centers nor
their denominators.  Its integer arithmetic runs in the narrowest type
that holds a bound on every value it forms (_int_dtype).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    _integer_points,
    _rows_polytope,
    check_gauge_dimension,
    gauge_facets,
    norm_facets,
    polytope_diameter,
)
from .numbers import INF, all_rational, as_fraction, float_or_inf, is_rational, record, same_mode
from .partitions import (
    PartitionCertificate,
    PartitionPiece,
    SectorRegion,
)


@record
class CoverageReport:
    mode: str  # "exact_grid" or "sampled"
    resolution: int
    covered: bool
    # (point, margin): an exact check's first uncovered cell in search order (not
    # the worst point of the gap) or the disk's first farthest sample
    worst_witness: Optional[tuple]
    tolerance: object


@record
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
# exact box coverage


def _piece_box(piece: PartitionPiece) -> tuple:
    if piece.bary_bounds is None:
        raise ValueError("piece has no barycentric-box form")
    return piece.bary_bounds


@functools.lru_cache(maxsize=32)
def _covered(N: int) -> CoverageReport:
    """The report of an exact check that found no gap: it holds nothing
    but N, so every covered check at N shares one object."""
    return CoverageReport("exact_grid", N, True, None, 0)


@functools.lru_cache(maxsize=32)
def _uncovered_point(boxes: tuple, ranges: tuple, simplex: bool):
    """(x, violation): an exact rational point x of the body in none of
    the boxes and its _box_violation, or None when the boxes cover it.

    The body is the product of the closed ranges, cut by sum x_i = 1 when
    simplex (barycentric boxes, ranges [0, 1]).  By coordinate
    compression (as in Bentley's 1977 algorithm for Klee's measure
    problem) each coordinate is cut at every box bound in its range; the
    cut points and the open intervals between them, merged where
    neighbours lie in the same boxes, are its sorted classes [lo, hi,
    lo closed, hi closed, mask of the boxes].  A depth-first search over
    products of classes ANDs the masks.  A node is covered when a box in
    its mask holds the whole range of every coordinate left, and a
    simplex coordinate stops once the lowest sum passes 1.  At mask 0 the
    coordinates left take their whole range and the cell gives the
    witness: its midpoint on a box; on a simplex its low or high corner
    when closed and of sum 1, else lo + t(hi - lo) with
    t = (1 - sum lo)/(sum hi - sum lo) when 1 lies strictly between the
    sums, and no body point otherwise.  Float bounds are read as the
    rationals they denote.  Cached: one check serves every parent of a
    scheme, at every N.
    """
    boxes = [[(as_fraction(a), as_fraction(b)) for a, b in box] for box in boxes]
    ranges = [(as_fraction(a), as_fraction(b)) for a, b in ranges]
    k, everything = len(ranges), (1 << len(boxes)) - 1
    classes, full = [], [everything] * (k + 1)
    for i, (lo, hi) in enumerate(ranges):
        cuts = sorted({v for box in boxes for v in box[i] if lo < v < hi} | {lo, hi})
        merged = []
        for a, b in [(a, b) for a, c in zip(cuts, cuts[1:]) for b in (a, c)] + [(hi, hi)]:
            mid = (a + b) / 2
            mask = sum(1 << j for j, box in enumerate(boxes) if box[i][0] <= mid <= box[i][1])
            if merged and merged[-1][4] == mask:
                merged[-1][1], merged[-1][3] = b, a == b
            else:
                merged.append([a, b, a == b, a == b, mask])
        classes.append(merged)
    for d in reversed(range(k)):  # the boxes holding the whole range of coordinates d, d+1, ...
        lo, hi = ranges[d]
        full[d] = full[d + 1] & sum(1 << j for j, box in enumerate(boxes)
                                    if box[d][0] <= lo and hi <= box[d][1])

    def witness(cells):
        cells = [*cells, *((lo, hi, True, True) for lo, hi in ranges[len(cells):])]
        if not simplex:
            return [(c[0] + c[1]) / 2 for c in cells]
        low, high = sum(c[0] for c in cells), sum(c[1] for c in cells)
        for end, total in ((0, low), (1, high)):
            if total == 1 and all(c[2 + end] for c in cells):
                return [c[end] for c in cells]
        if low < 1 < high:
            t = (1 - low) / (high - low)
            return [c[0] + t * (c[1] - c[0]) for c in cells]
        return None

    def search(prefix, mask, low):
        if mask & full[len(prefix)]:
            return None
        if not mask:
            return witness(prefix)
        for c in classes[len(prefix)]:
            if simplex and low + c[0] > 1:
                break
            x = search([*prefix, c], mask & c[4], low + c[0])
            if x is not None:
                return x
        return None

    x = search([], everything, 0)
    return None if x is None else (tuple(x), _box_violation(x, boxes))


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


def _box_coverage(parent, pieces, N: int) -> CoverageReport:
    """_uncovered_point on a simplex's barycentric boxes, or on an axis
    box parent's homothet pieces; the witness of a simplex is mapped
    through its vertices."""
    if isinstance(parent, Simplex):
        k = parent.dim + 1
        boxes = tuple(tuple(map(tuple, _piece_box(p))) for p in pieces)
        if any(len(box) != k for box in boxes):
            raise ValueError("a piece's barycentric box needs %d coordinates" % k)
        found = _uncovered_point(boxes, ((0, 1),) * k, True)
    else:
        ranges = _axis_cube_intervals(parent)
        if ranges is None:
            raise ValueError("box coverage needs an axis-aligned box parent")
        ranges = tuple(zip(*([as_fraction(v) for v in ends] for ends in ranges)))
        boxes = []
        for p in pieces:
            h = p.description
            if not isinstance(h, Homothet):
                raise ValueError("cube scheme pieces must be homothets")
            if h.base != parent:
                raise ValueError("a homothet piece must scale the parent itself")
            r = as_fraction(h.ratio)
            ends = [(r * lo + t, r * hi + t)
                    for (lo, hi), t in zip(ranges, map(as_fraction, h.translation))]
            boxes.append(tuple((min(a, b), max(a, b)) for a, b in ends))
        found = _uncovered_point(tuple(boxes), ranges, False)
    if found is None:
        return _covered(N)
    point, violation = found
    if isinstance(parent, Simplex):
        point = tuple(sum(lv * v[i] for lv, v in zip(point, parent.vertices))
                      for i in range(parent.dim))
    return CoverageReport("exact_grid", N, False, (point, float(violation)), 0)


# ---------------------------------------------------------------------------
# sampled coverage


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)

# sampled coverage: a sample within this distance of a piece counts as in it
SAMPLED_TOL = 1e-9

# Most points one sampled coverage check tests, refused before any work: the
# samples are built and held at once (239 MB peak RSS at N = 2,000,000).
MAX_GRID_POINTS = 3_000_000

_SLICE = 1 << 16  # samples per array pass of the disk check: bounds its temporaries


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
    index = np.min_scalar_type(n - 1)  # the narrowest type holding every index
    digit, term = np.empty(n, dtype=index), np.empty(n)
    for k, base in enumerate(_HALTON_BASES[:d]):
        q = np.arange(n, dtype=index)
        scale, top = 1.0 / base, n - 1
        while top > 0:  # one step per base-b digit of the largest index
            np.divmod(q, base, out=(q, digit))
            out[:, k] += np.multiply(digit, scale, out=term)
            scale /= base
            top //= base
    return out


def _sector_distances(pts, sectors):
    """Each point's Euclidean distance to the nearest closed sector: to a
    sector, max(0, r - 1) when the point's angle is in the sector's range,
    else the distance to the nearer edge segment from 0 to u(edge)."""
    import numpy as np

    x, y = pts[:, 0], pts[:, 1]
    ang, radial = np.arctan2(y, x), np.maximum(np.hypot(x, y) - 1.0, 0.0)
    out = np.inf
    for s in sectors:
        edge = np.inf
        for ux, uy in ((math.cos(a), math.sin(a)) for a in (s.angle_lo, s.angle_hi)):
            t = np.clip(x * ux + y * uy, 0.0, 1.0)
            edge = np.minimum(edge, np.hypot(x - t * ux, y - t * uy))
        in_range = (ang - s.angle_lo) % (2 * math.pi) <= s.angle_hi - s.angle_lo
        out = np.minimum(out, np.where(in_range, radial, edge))
    return out


def _sampled_coverage(parent, pieces, N: int, seed: int) -> CoverageReport:
    import numpy as np

    if parent != PBall(2, 2):
        raise ValueError("sampled coverage implemented for the Euclidean unit disk only")
    if N + 2 * (N // 4) > MAX_GRID_POINTS:
        raise ValueError("%d disk samples test up to %d points, more than %d"
                         % (N, N + 2 * (N // 4), MAX_GRID_POINTS))
    sectors = [p.description for p in pieces]
    for s in sectors:
        if not isinstance(s, SectorRegion):
            raise ValueError("disk coverage tests sector pieces, not a %s piece"
                             % (type(s).__name__,))
    base, _ = _seed_free_samples(PBall(2, 2), N, N // 4)
    extra = np.random.default_rng(seed).uniform(-1, 1, size=(N // 4, 2))
    extra = extra[np.hypot(extra[:, 0], extra[:, 1]) <= 1]
    worst, margin = None, -1.0
    for pts in (base, extra):
        for i in range(0, len(pts), _SLICE):
            d = _sector_distances(pts[i:i + _SLICE], sectors)
            k = int(d.argmax())
            if d[k] > margin:
                worst, margin = tuple(pts[i + k].tolist()), float(d[k])
    witness = None if margin <= SAMPLED_TOL else (worst, margin)
    return CoverageReport("sampled", len(base) + len(extra), witness is None, witness, SAMPLED_TOL)


# ---------------------------------------------------------------------------
# public verification entry points


def verify_covering(parent, pieces: Sequence[PartitionPiece], N: int = 64,
                    seed: int = 0) -> CoverageReport:
    """Check that the union of the pieces covers the parent body.

    A simplex (by the pieces' barycentric boxes) and an axis box (by its
    homothet pieces) get one exact check, _uncovered_point, cached per
    boxes: it holds for every N at once, so N is only echoed as the
    report's resolution, and a gap comes with the exact rational point of
    the first uncovered cell in search order and its _box_violation, the
    distance to the nearest box; it need not be the worst point of the
    gap.  The disk is covered when none of its N boundary and N//4 interior
    low-discrepancy points and seeded ones is farther than SAMPLED_TOL from
    every sector (_sector_distances); a gap's witness is the first farthest
    point, its margin that distance.  N must be a positive int (not a
    bool) and the piece list must not be empty, whatever the parent.
    """
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError("coverage needs a positive integer N, got %r" % (N,))
    pieces = tuple(pieces)
    if not pieces:
        raise ValueError("coverage needs at least one piece")
    if isinstance(parent, (Simplex, VPolytope)):
        return _box_coverage(parent, pieces, N)
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

    One term per piece, and the largest wins, the first of equal terms.
    A Homothet of the parent (a p-ball parent included) of ratio r has
    diameter |r| * diam(parent) in every norm, so its term is |r| as
    given: for a scheme, the template's own Fraction, whatever the norm
    and the data.  A disk sector's term is its ratio_bound, under l_2
    only.  A box piece is the one term measured: its realized hull's
    polytope_diameter over the parent's, in same_mode, with a float
    parent read as the rationals it denotes, as a scheme's box hulls are,
    so that a box that ties with a homothet is not rounded above it.
    """
    parent, parent_diam, terms = cert.parent, None, []
    check_gauge_dimension(norm, parent.dim)
    for piece in cert.pieces:
        desc = piece.description
        if isinstance(desc, Homothet):
            if desc.base != parent:
                raise ValueError("a homothet piece must scale the parent itself "
                                 "(a homothet of a polytope parent or of a p-ball parent)")
            terms.append(desc.ratio if desc.ratio > 0 else -desc.ratio)
        elif isinstance(desc, SectorRegion):
            if norm.kind != "p" or norm.p != 2:
                raise ValueError("a sector's diameter is known under l_2 only")
            terms.append(piece.ratio_bound)
        elif piece.realized_hull is None:
            raise ValueError("piece is not realizable as a polytope")
        else:  # a float parent read as the rationals it denotes, like its box hulls
            parent_diam = parent_diam or polytope_diameter(
                parent if parent.rational else _rows_polytope(*parent.integer_vertices), norm)
            diam, whole = same_mode(polytope_diameter(piece.realized_hull, norm), parent_diam)
            terms.append(diam / whole)
    return max(terms)


# ---------------------------------------------------------------------------
# ball covering search


def _norm_kernel(norm: Norm):
    """The norm as a numpy map from an (n, S) array of difference vectors,
    one coordinate per row, to their S distances: the root of each key of
    _norm_keys.  The samplers and the k-center starts take distances."""
    key, root = _norm_keys(norm)
    return lambda diff: root(key(diff))


def _norm_keys(norm: Norm):
    """(key, root): key maps an (n, S) array of difference vectors, one
    coordinate per row, to S keys, and root maps keys, an array or one
    value, to their distances.

    For l2 the key is the sum of squares and the root np.sqrt; for every
    other norm the key is the distance and the root the identity.  np.sqrt
    is correctly rounded, hence monotone, so sqrt(max a) = max sqrt(a) and
    sqrt(min a) = min sqrt(a) bit for bit: the pattern search and the
    float confirmation compare keys and take one root per reduced value.
    Other p keep their distances, since ** need not be correctly rounded.
    The rows are combined in coordinate order, d0 then d1 then d2, the
    order in which numpy reduces a short trailing axis, so the distances
    are bit for bit those of the (S, n) row-vector form.  Norm set-up (the
    gauge's functionals as a float array) is done here, once, not once
    per evaluation.
    """
    import numpy as np

    def identity(keys):
        return keys

    if norm.kind == "gauge":
        F = np.asarray(gauge_facets(norm.body.vertices).functionals(), dtype=float)
        # einsum contracts row-major (S, n) vectors; given the (n, S) rows
        # it rounds differently in the last bit when n = 3
        return (lambda diff: np.einsum("fk,sk->fs", F, np.ascontiguousarray(diff.T))
                .max(axis=0)), identity
    p = norm.p
    if p == INF:
        return (lambda diff: _fold_rows(np.maximum, np.abs(diff))), identity
    if p == 1:
        return (lambda diff: _fold_rows(np.add, np.abs(diff))), identity
    if p == 2:
        return (lambda diff: _fold_rows(np.add, diff * diff)), np.sqrt
    pf = float(p)
    return (lambda diff: _fold_rows(np.add, np.abs(diff) ** pf) ** (1.0 / pf)), identity


def _fold_rows(ufunc, a):
    """ufunc(...ufunc(a[0], a[1])..., a[-1]), accumulated in place in a[0]:
    the rows combined in coordinate order with no further temporaries, so
    a must be the caller's own scratch array."""
    total = a[0]
    for row in a[1:]:
        ufunc(total, row, out=total)
    return total


@functools.lru_cache(maxsize=8)
def _seed_free_samples(body, n_boundary: int, n_interior: int):
    """The seed-free part of _body_samples and the sampler of the rest.

    Returns (base, tail): base is the low-discrepancy boundary and
    interior points, a pure function of the body and the two sizes,
    cached and shared by every caller, hence read-only; tail(rng) draws
    the seeded uniform points inside the body.  A p-ball's draws are
    scaled, shifted and normalized in place, so the largest disk check
    builds few full-size temporaries.
    """
    import numpy as np

    if isinstance(body, PBall) and body.dim in (2, 3):
        n = body.dim
        norm = _norm_kernel(Norm.lp(body.p))
        scale = float(body.radius)
        if n == 3 and body.p == 1:
            u = _halton(n_boundary, 2)
            a = u[:, 0]
            b = u[:, 1]
            flip = a + b > 1
            a[flip], b[flip] = 1 - a[flip], 1 - b[flip]
            bary = np.stack([a, b, 1 - a - b], axis=1)
            signs = np.array(norm_facets(Norm.lp(1), 3).rows, dtype=float)
            boundary = bary * signs[np.arange(n_boundary) % 8]
        else:
            if n == 2:
                th = _halton(n_boundary, 1)[:, 0]
                th *= 2 * math.pi
                boundary = np.stack([np.cos(th), np.sin(th)], axis=1)
                del th  # freed before the norm pass
            else:
                d = _halton(2 * n_boundary, 3)
                d *= 2
                d -= 1
                boundary = d[_norm_kernel(Norm.lp(2))(d.T) > 1e-9][:n_boundary]
            boundary /= norm(boundary.T)[:, None]
        # draws per interior point wanted: a p-ball fills at least 1/2 of
        # the square (the l1 diamond) but only 1/6 of the cube (the l1
        # octahedron)
        over_halton, over_uniform = (4, 2) if n == 2 else (10, 8)
        ui = _halton(over_halton * n_interior, n)
        ui *= 2
        ui -= 1
        ui = ui[norm(ui.T) <= 1][:n_interior]
        base = np.concatenate([boundary, ui])
        base *= scale

        def tail(rng):
            ur = rng.uniform(-1, 1, size=(over_uniform * n_interior, n))
            return ur[norm(ur.T) <= 1][:n_interior] * scale
    elif isinstance(body, VPolytope) and (ranges := _axis_cube_intervals(body)):
        n = body.dim
        los, his = (np.array([float(v) for v in ends]) for ends in ranges)
        u = _halton(n_boundary, n)
        pts = los + u * (his - los)
        axis = np.arange(n_boundary) % n
        side = (np.arange(n_boundary) // n) % 2
        pts[np.arange(n_boundary), axis] = np.where(side == 0, los[axis], his[axis])
        ui = _halton(n_interior, n)
        base = np.concatenate([pts, los + ui * (his - los)])

        def tail(rng):
            # rng.uniform(los, his, size), byte for byte, in about half the time
            return los + (his - los) * rng.random((n_interior, n))
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


@functools.lru_cache(maxsize=128)
def _sweep_moves(m: int, n: int, step: float):
    """The m*2n coordinate moves of a sweep at a step, in order: center,
    then coordinate, then + before -.

    Returns each move's center, the other centers (an (m*2n, m-1)
    index) and the move's offset: +-step on its coordinate and -0.0
    elsewhere, since x + -0.0 is x for every float x, so that center +
    offset is the center with one coordinate moved, as an in-place
    update would give.  Cached, hence read-only.
    """
    import numpy as np

    M = 2 * m * n
    move_j = np.repeat(np.arange(m), 2 * n)
    others = np.array([[i for i in range(m) if i != j] for j in range(m)], dtype=np.intp)
    offsets = np.full((M, n), -0.0)
    offsets[np.arange(M), np.tile(np.repeat(np.arange(n), 2), m)] = np.tile([step, -step], m * n)
    moves = move_j, others.reshape(m, m - 1)[move_j], offsets
    for a in moves:
        a.flags.writeable = False
    return moves


def _pattern_search(samples, centers0, keys, r, rng, max_sweeps=60):
    """Coordinate pattern search with occasional random kicks.

    A sweep tries each center j along each coordinate d in both
    directions, in that order, and keeps a trial that lowers the margin
    max over samples of min over centers of the distance, minus r, by
    more than 1e-12.  A coordinate move changes one center only, so the
    distance from each sample to its nearest other center stays valid
    across j's trials; each trial costs one kernel column, not the full
    S x m matrix, and min and max are exact, so the margins are the ones
    a full recompute gives, bit for bit.  Distances are kept as an m x S
    array, one row per center, and each center's full nearest-other row
    is cached until another center moves.

    Most trials fail, and most fail at a few samples.  The search keeps
    a witness pool: the sample that sets the starting margin and every
    sample that has come out as the argmax of a fully evaluated trial or
    kick.  All remaining trials of a sweep are tested at the pool in one
    kernel call, on an (n, T*W) difference array; only the trials after
    an accepted move are batched again.  A kick is tested at the pool in
    one call too.  A trial whose pool samples alone give
    min(others, col) - r >= best - 1e-12  is rejected without its full
    column.  This is exact: a sample's key depends neither on the other
    samples nor on the batch layout, min and max are exact, and float
    subtraction of r is monotone, so the full margin would be rejected
    too.  A trial the pool does not reject is evaluated
    in full, so accepted moves, dist and best are the ones the plain
    search computes, bit for bit.

    The pool state is built when it changes, not once per batch: the
    pool samples' coordinates (n, W) grow when a sample joins, and each
    move's nearest-other distances at the pool (2nm, W) are rebuilt when
    a dist row changes or the pool grows.  The moves are built once per
    (m, n) and step, and a batch's trials are the centers plus the moves'
    offsets (see _sweep_moves).

    keys is _norm_keys(norm): every array above holds keys, squared
    distances under l2, and root is taken only of a reduced value (a
    batch's per-trial pool maxima, the argmax entry of a full near row, a
    kick's pool maximum).  root is monotone, so each margin and each
    comparison is the one the distances give, bit for bit; the pool
    argmax may pick another of the samples whose distances are equal.
    """
    import numpy as np

    key, root = keys
    centers = centers0.copy()
    m, n = centers.shape
    S = len(samples)
    rows = np.ascontiguousarray(samples.T)
    diff_buf, near_buf = np.empty((n, S)), np.empty(S)  # one full column's scratch

    def columns(cs):
        """The keys from each center of cs (one per row) to every sample."""
        return np.stack([key(np.subtract(rows, c[:, None], out=diff_buf)) for c in cs])

    def at_pool(points):
        """The keys from each point (one per row) to each pool sample."""
        diff = pool_rows[:, None, :] - points.T[:, :, None]
        return key(diff.reshape(n, -1)).reshape(len(points), -1)

    def evaluate(near):
        """The margin of a full near row of keys; its worst sample joins the pool."""
        nonlocal pool_rows, pool_others
        w = int(near.argmax())
        if w not in pool:
            pool_coords[:, len(pool)] = rows[:, w]
            pool.append(w)
            pool_rows, pool_others = pool_coords[:, :len(pool)], None
        return float(root(near[w])) - r

    pool, pool_coords = [], np.empty((n, S))  # the pool samples and their coordinates
    pool_rows = None  # the live columns of pool_coords
    pool_others = None  # per move, its center's nearest-other keys at the pool
    others = {}  # center -> its full nearest-other row
    dist = columns(centers)
    best = evaluate(dist.min(axis=0))
    M = 2 * m * n

    step = 0.25
    sweeps = 0
    while step > 1e-5 and sweeps < max_sweeps:
        move_j, move_others, offsets = _sweep_moves(m, n, step)
        improved = False
        k = 0
        while k < M:
            if pool_others is None:
                pool_others = dist[:, pool][move_others].min(axis=1, initial=np.inf)
            trials = centers[move_j[k:]] + offsets[k:]
            worst = np.minimum(pool_others[k:], at_pool(trials)).max(axis=1)
            start, k = k, M
            for t, v in enumerate(root(worst).tolist()):
                if v - r >= best - 1e-12:
                    continue  # rejected at the pool
                j = int(move_j[start + t])
                if j not in others:
                    others[j] = dist[np.arange(m) != j].min(axis=0, initial=np.inf)
                col = key(np.subtract(rows, trials[t][:, None], out=diff_buf))
                val = evaluate(np.minimum(others[j], col, out=near_buf))
                if val < best - 1e-12:
                    centers[j], dist[j], best = trials[t], col, val
                    others, pool_others = {j: others[j]}, None
                    improved = True
                    k = start + t + 1
                    break
        sweeps += 1
        if best <= 1e-12 and not improved:
            break  # covering reached; nothing left to gain
        if not improved:
            # annealing-style kick: one random center jitter before shrinking
            trial = centers + rng.normal(scale=step / 3, size=centers.shape)
            if float(root(at_pool(trial).min(axis=0).max())) - r >= best - 1e-12:
                step *= 0.5  # rejected at the pool
                continue
            trial_dist = columns(trial)
            val = evaluate(trial_dist.min(axis=0))
            if val < best - 1e-12:
                centers, dist, best, others, pool_others = trial, trial_dist, val, {}, None
            else:
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


@functools.lru_cache(maxsize=8)
def _body_vertices(body):
    """Start hints: the 2n points +-radius*e_i for the l1 ball and any 3-D
    p-ball, the vertex list for a polytope, 8 circle points otherwise.
    Cached per body, hence read-only."""
    import numpy as np

    if isinstance(body, PBall) and (body.p == 1 or body.dim == 3):
        out = []
        for i in range(body.dim):
            for s in (1, -1):
                v = [0.0] * body.dim
                v[i] = s * float(body.radius)
                out.append(v)
        out = np.asarray(out)
    elif isinstance(body, VPolytope):
        out = np.asarray([[float(c) for c in v] for v in body.vertices])
    elif isinstance(body, PBall):
        th = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        out = np.stack([np.cos(th), np.sin(th)], axis=1) * float(body.radius)
    else:
        raise ValueError("no vertex hint for body")
    out.flags.writeable = False
    return out


# Lattice magnitudes below this keep numpy integers; sums of a few such
# terms still fit int64.  Above it the lattice kernels switch to Python ints.
_INT64_SAFE = 2 ** 62


def _int_dtype(bound: int):
    """The narrowest numpy integer type holding every value of
    [-bound - 1, bound] when bound < 2^62, and object (Python ints) from
    there on."""
    import numpy as np

    return np.min_scalar_type(-bound - 1) if bound < _INT64_SAFE else object


@functools.lru_cache(maxsize=8)
def _confirmation_points(body):
    """A deterministic point set denser than the search samples.

    Returns (P, D).  For a lattice body, the 3-D l1 ball or an axis box
    given by its vertices, P is an integer array and the points are
    exactly P/D, in the narrowest integer type that holds them
    (_int_dtype).  For other bodies D is None and P holds float samples
    at 4x the default sampling density.  Cached per body and shared by
    every caller, hence read-only.
    """
    import numpy as np

    ranges = _axis_cube_intervals(body) if isinstance(body, VPolytope) else None
    if isinstance(body, PBall) and body.p == 1 and body.dim == 3:
        # each facet at barycentric granularity 1/K (8*C(K+2,2) > 4*4096
        # points), plus the 1/8 grid inside the ball
        K = 64
        a, b = np.triu_indices(K + 1)
        facet = np.stack([a, b - a, K - b], axis=1)
        signs = np.array(norm_facets(Norm.lp(1), 3).rows)  # the facet normals
        g = np.arange(-8, 9)
        grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[np.abs(grid).sum(axis=1) <= 8] * (K // 8)
        P = np.concatenate([(signs[:, None, :] * facet).reshape(-1, 3), grid])
        rad = as_fraction(body.radius)
        P, D = P.astype(_int_dtype(K * rad.numerator)) * rad.numerator, K * rad.denominator
    elif ranges is not None:
        los, his = (map(as_fraction, ends) for ends in ranges)
        K = 16
        D, ints = _integer_points([[lo + Fraction(i, K) * (hi - lo) for i in range(K + 1)]
                                   for lo, hi in zip(los, his)])
        dtype = _int_dtype(max(abs(v) for ax in ints for v in ax))
        mesh = np.meshgrid(*(np.asarray(ax, dtype=dtype) for ax in ints), indexing="ij")
        P = np.stack(mesh, axis=-1).reshape(-1, body.dim)
    else:
        P, D = _body_samples(body, 4 * 4096, 4 * 1024, seed=10**6 + 7), None
    P.flags.writeable = False
    return P, D


@functools.lru_cache(maxsize=8)
def _confirmation_floats(body):
    """_confirmation_points(body) as floats, each P/D rounded once, with
    one contiguous row per coordinate; cached per body and read-only,
    like the points."""
    P, D = _confirmation_points(body)
    rows = (P if D is None else P.astype(object) / D).T.astype(float, order="C")
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=8)
def _lattice_projections(body, norm: Norm):
    """_projections of the body's confirmation lattice under the norm.

    They depend on neither the centers nor their denominators, so they
    are cached per body and norm, like _confirmation_points, and shared
    by every snapped try of a search and every later recheck.
    """
    return _projections(_confirmation_points(body)[0], norm)


def _projections(P, norm: Norm):
    """The integer lattice rows P through the norm's facet rows W (see
    norm_facets): (WP, bound), where WP = W.P^T holds one contiguous
    row per facet, read-only, and bound = max_w sum|w| * max|P| bounds
    its entries and every partial sum of them.  The product is formed
    once in int64 below 2^62 and in Python ints from there on; WP is kept
    in _int_dtype(bound), the narrowest integer type that holds bound."""
    import numpy as np

    rows = norm_facets(norm, P.shape[1]).rows
    bound = max(sum(map(abs, w)) for w in rows) * int(np.abs(P).max())
    wide = np.int64 if bound < _INT64_SAFE else object
    WP = (np.asarray(rows, dtype=wide) @ P.T.astype(wide)).astype(_int_dtype(bound))
    WP.flags.writeable = False
    return WP, bound


def _exact_margin(projections, D, scaled, r, norm: Norm):
    """max over the lattice points P/D of min over centers of ||x-c|| - r,
    given projections = _projections(P, norm) and the centers as
    scaled = (q, rows): each center c is the int row q*c, as
    _integer_points gives them (q need not be the least denominator).

    Exact, for polyhedral norms only (l1, l_inf and gauges): one rescale
    to the common denominator L = lcm(D, q) turns it into integer
    arithmetic.  With the norm's facet form (integer rows W over den at
    scale s, see norm_facets) the distance from P/D to C/L is
    max_w (k*w.P - w.C) * s/(den*L), where k = L/D and C = (L/q)*row.
    The projections are scaled by k once per call, and each distinct
    center costs one subtraction, into one scratch array, one reduction
    over the facet rows and one minimum, folded in place.

    The arithmetic runs in _int_dtype(total), the narrowest integer type
    holding total = max(bound*k + wsum*max|C|, k, max|w|, max|C|), with
    wsum = max_w sum|w|, and in Python ints from 2^62 on.  Every value
    formed lies in [-total, total]: a scaled projection k*w.P by
    k*bound; a product w_i*C_i, and each partial sum of w.C in the
    matrix product C.W^T, by wsum*max|C|; each difference k*w.P - w.C,
    and so each maximum and minimum of them, by the sum of both; and k,
    the entries of W and those of C, cast to the type themselves, by
    their own maxima.
    """
    import numpy as np

    WP, bound = projections
    q, rows = scaled
    L = math.lcm(D, q)
    C = list(dict.fromkeys(tuple(v * (L // q) for v in c) for c in rows))
    k = L // D
    form = norm_facets(norm, len(C[0]))
    W = form.rows
    wsum = max(sum(map(abs, w)) for w in W)
    wmax = max(abs(v) for w in W for v in w)
    cmax = max(abs(v) for c in C for v in c)
    dtype = _int_dtype(max(bound * k + wsum * cmax, k, wmax, cmax))
    kWP = np.multiply(WP, k, dtype=dtype)
    scratch = np.empty_like(kWP)
    CW = np.asarray(C, dtype=dtype) @ np.asarray(W, dtype=dtype).T
    near = None
    for cw in CW:
        col = np.subtract(kWP, cw[:, None], out=scratch).max(axis=0)
        near = col if near is None else np.minimum(near, col, out=near)
    value = Fraction(int(near.max()) * form.scale, form.den * L)
    if not norm.exact:
        value = float_or_inf(value)  # as gauge_eval rounds for a float body
    return value - as_fraction(r)


_SNAP_GRIDS = (3, 6, 12, 24, 48)  # each divides the last


def _snap_centers(centers):
    """(q, rows) for the (m, n) float centers snapped to each grid 1/q of
    _SNAP_GRIDS in turn, finest last: rows holds the ints round(q*c), as
    round takes them (np.rint also rounds ties to even).  A snap equal in
    value to an earlier one is skipped: scaled to the last grid, equal
    values are equal rows.  Each snap is built only as the caller asks."""
    import numpy as np

    seen = set()
    for q in _SNAP_GRIDS:
        rows = tuple(tuple(map(int, row)) for row in np.rint(centers * q).tolist())
        key = tuple(v * (_SNAP_GRIDS[-1] // q) for row in rows for v in row)
        if key not in seen:
            seen.add(key)
            yield q, rows


def search_ball_covering(parent, m: int, r, norm: Norm, seed: int = 0,
                         n_boundary: int = 4096, n_interior: int = 1024):
    """Try to cover the parent body with m norm-balls of radius r.

    Multistart pattern search over a fixed sample set; the margin of the
    winning centers is confirmed on a 4x denser point set.  On a lattice
    body under a polyhedral norm the centers are first snapped to small
    rationals, and the first snap whose exact margin is nonpositive is
    returned, as Fractions, with that margin, the one verify_ball_covering
    gives them; otherwise the float centers and their float margin are.
    The gauge of a gauge norm must have the body's dimension.
    Failure (positive residual margin) is a legitimate outcome and does
    not prove impossibility.  Either way the solution's radius is r as
    given, a Fraction when r is rational.  n_boundary and n_interior are
    ints >= 0, not both 0.
    """
    if not 1 <= m <= 16:
        raise ValueError("m must lie in 1..16 (desk scale), got %s" % (m,))
    rf = float_or_inf(r)
    # a rational radius is tested exactly: its float may underflow to 0
    positive = r > 0 if is_rational(r) else rf > 0
    if not (positive and math.isfinite(rf)):
        raise ValueError("r must be finite and positive, got %s" % (r,))
    if parent.dim > 3:
        raise ValueError("search is limited to dimension <= 3")
    check_gauge_dimension(norm, parent.dim)
    counts = (n_boundary, n_interior)
    if not (all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in counts)
            and sum(counts) > 0):
        raise ValueError("n_boundary and n_interior must be integers >= 0 with a positive sum, "
                         "got %r and %r" % (n_boundary, n_interior))
    import numpy as np

    samples = _body_samples(parent, n_boundary, n_interior, seed)
    dim = samples.shape[1]
    keys = _norm_keys(norm)

    seeds = np.random.SeedSequence(seed)

    def starts():
        # each start and its stream are built when the search reaches it:
        # most searches that succeed do so from the first.  Spawning one
        # child at a time gives the children of spawn(8), in order.
        sv = _body_vertices(parent) * max(1.0 - rf, 0.0)
        base = np.zeros((m, dim))
        base[: min(m, len(sv))] = sv[: min(m, len(sv))]
        for i in range(8):
            rng = np.random.default_rng(seeds.spawn(1)[0])
            if i == 0:
                yield base, rng
            elif i == 1:
                yield _greedy_kcenter(samples, m, _norm_kernel(norm)), rng
            elif i % 2 == 0:
                yield base + rng.normal(scale=0.15, size=(m, dim)), rng
            else:
                yield samples[rng.integers(0, len(samples), size=m)] * 0.5, rng

    best_centers, best_margin = None, math.inf
    for c0, rng in starts():
        centers, val = _pattern_search(samples, c0, keys, rf, rng)
        if val < best_margin:
            best_centers, best_margin = centers, val
        if best_margin <= 1e-12:
            break  # a covering is a covering; later starts add nothing

    (r_given,) = same_mode(r)
    D = _confirmation_points(parent)[1]
    if best_margin <= 1e-9 and norm.is_polyhedral and D is not None:
        # the snapped centers are rational, so their margin is exact, and it
        # is the one verify_ball_covering gives the Fractions returned
        projections = _lattice_projections(parent, norm)
        for q, rows in _snap_centers(best_centers):
            margin = _exact_margin(projections, D, (q, rows), r, norm)
            if margin <= 0:
                snapped = tuple(tuple(Fraction(v, q) for v in row) for row in rows)
                return BallCoveringSolution(snapped, r_given, norm, margin, seed, best_margin)
    centers_t = tuple(tuple(float(v) for v in row) for row in best_centers)
    conf_margin = verify_ball_covering(parent, centers_t, r, norm)
    return BallCoveringSolution(centers_t, r_given, norm, conf_margin, seed, best_margin)


def verify_ball_covering(parent, centers, r, norm: Norm):
    """Recheck proposed ball centers on a fresh confirmation point set.

    Returns the residual margin (worst distance to the nearest center
    minus r): exact Fraction arithmetic for rational centers under a
    polyhedral norm on a lattice body, where a float r is read as the
    rational it denotes; float otherwise, where the nearest-center keys
    of _norm_keys are reduced and only their maximum is rooted, so an l2
    margin is bit for bit the one its distances give.  Nonpositive means
    covered at the checked resolution.  The centers must be a nonempty
    sequence of points of the body's dimension, and so must the gauge of
    a gauge norm.
    """
    centers = tuple(centers)
    if not centers:
        raise ValueError("a ball covering needs at least one center")
    if any(len(c) != parent.dim for c in centers):
        raise ValueError("every center needs %d coordinates, the dimension of the body"
                         % parent.dim)
    check_gauge_dimension(norm, parent.dim)
    D = _confirmation_points(parent)[1]
    if D is not None and norm.is_polyhedral and all(all_rational(c) for c in centers):
        return _exact_margin(_lattice_projections(parent, norm), D, _integer_points(centers),
                             r, norm)
    import numpy as np

    cs = np.asarray([[float(c) for c in row] for row in centers], dtype=float)
    rows, (key, root) = _confirmation_floats(parent), _norm_keys(norm)
    # one scratch difference array for every center, and the nearest keys
    # folded in place into the first center's (a fresh array key returns);
    # min is exact, so folding the centers in any order gives the same margin
    diff, near = np.empty_like(rows), None
    for c in cs:
        col = key(np.subtract(rows, c[:, None], out=diff))
        near = col if near is None else np.minimum(near, col, out=near)
    return float(root(near.max())) - float(r)
