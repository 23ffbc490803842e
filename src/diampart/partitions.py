"""Constructive diameter partitions with certified ratios.

Schemes shipped here:

* triangle midpoint subdivision (4 pieces, ratio 1/2 in every norm);
* tetrahedron schemes m5/m8/m9 (ratios 3/5, 9/16, 9/17 in every norm),
  built from vertex homothets plus a reflected enclosure of the residual
  region;
* cube halving (2^n pieces, ratio 1/2 under l_inf);
* disk quadrants (4 sectors, ratio sqrt(2)/2 under l_2).

Every simplex-scheme piece is, in barycentric coordinates, a box
{lo_i <= lambda_i <= hi_i} inside a homothet lambda -> ratio*lambda + c
(a vertex homothet (1-mu)v_i + mu*S is the box {lambda_i >= 1-mu}); one
rule, _encloses, certifies every piece, and the coverage check is exact
on the boxes alone (coverings._uncovered_point).  Each scheme is built
once, as a template of integer barycentric rows, and a partition of any
simplex is that template times the simplex's integer vertices.

Diameter ratios are certified through enclosing homothets — a homothet
of ratio r scales every norm's diameters by |r| — so the certificates
hold for EVERY norm, not just the one they are later verified under.
For the same reason a homothet piece is its Homothet alone, with no
hull, and its term in a diameter ratio is its |ratio| under every norm;
only the pieces that have no homothet description (the m5 clip box and
the m9 core box) are realized as polytopes, and only they are measured.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional

from .geometry import (
    Homothet,
    PBall,
    Simplex,
    VPolytope,
    _extreme_rays,
    _integer_points,
    _rows_polytope,
    cube,
    vdot,
    vneg,
    vscale,
)
from .numbers import VerificationError, record


# ---------------------------------------------------------------------------
# piece descriptions


@record
class SectorRegion:
    """Closed angular sector of the unit disk, angles in radians."""

    angle_lo: float
    angle_hi: float


def UnitDisk() -> PBall:
    """The Euclidean unit disk, the parent of the quadrant scheme."""
    return PBall(2, 2)


def _bary_box_vertices(bounds) -> tuple:
    """(L, V): the vertices of {lo <= lambda <= hi, sum lambda = 1} are
    the sorted integer rows of V over L, the lcm of the bound denominators.

    With lambda = (y, L - sum y)/L and the bounds scaled by L, the box is
    the slice s = 1 of the cone s >= 0, lo_i s <= y_i <= hi_i s (i < k)
    and L - hi_k <= sum y / s <= L - lo_k, whose extreme rays with s > 0
    are its vertices (_extreme_rays); each vertex has at most one
    coordinate strictly between its bounds, so it is an integer row and
    its ray has s = 1.
    """
    L, ints = _integer_points(bounds)
    k = len(ints)
    rows = [(0,) * (k - 1) + (1,)]
    for i, (lo, hi) in enumerate(ints[:-1]):
        e = tuple(int(i == j) for j in range(k - 1))
        rows += [(*e, -lo), (*vneg(e), hi)]
    lo, hi = ints[-1]
    rows += [(-1,) * (k - 1) + (L - lo,), (1,) * (k - 1) + (hi - L,)]
    _, rays = _extreme_rays(rows, k)
    return L, tuple(sorted((*r[:-1], L - sum(r[:-1])) for r in rays if r[-1] > 0))


def _bary_polytope(S: Simplex, L: int, rows) -> VPolytope:
    """The points sum_j (lam_j / L) v_j of S for the integer rows lam: one
    integer product per row against S.integer_vertices, as integer rows
    over one denominator.  A float simplex is read as the rationals it
    denotes, so its points are exact too."""
    D, P = S.integer_vertices
    cols = tuple(zip(*P))
    return _rows_polytope(L * D, [[vdot(lam, col) for col in cols] for lam in rows])


# ---------------------------------------------------------------------------
# pieces and certificates


@record
class PartitionPiece:
    """One piece of a partition, with a certified diameter-ratio bound.

    description is the defining object: a Homothet of the parent, a
    SectorRegion, or None for a piece that is its barycentric box alone.
    realized_hull, the vertices of that box, is set exactly for the last
    kind: a homothet's diameter is |ratio| times the parent's in every
    norm, and a sector's is known.  bary_bounds, when present, is the
    barycentric box that exact coverage is checked on; it lies inside a
    homothet description, cut back to the residual region where a
    reflected piece overhangs the parent.
    """

    description: object
    ratio_bound: object
    realized_hull: Optional[VPolytope] = None
    bary_bounds: Optional[tuple] = None


@record
class PartitionCertificate:
    parent: object
    pieces: tuple
    ratio: object
    scheme: str

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def m(self) -> int:
        return len(self.pieces)


# ---------------------------------------------------------------------------
# scheme constructors


def _encloses(ratio, c, box) -> bool:
    """Does the barycentric homothet lambda -> ratio*lambda + c of the
    simplex contain the box {lo <= lambda <= hi, sum lambda = 1}?

    A box point's preimage (lambda - c)/ratio sums to 1 when sum c is
    1 - ratio, and is nonnegative when lo_j >= c_j for every j (ratio > 0)
    or hi_j <= c_j for every j (ratio < 0): then it lies in the simplex.
    """
    return sum(c) == 1 - ratio and all(lo >= cj if ratio > 0 else hi <= cj
                                       for (lo, hi), cj in zip(box, c))


_SCHEME_T = {"m5": Fraction(2, 5), "m8": Fraction(7, 16), "m9": Fraction(8, 17)}
_SCHEME_RATIO = {"m5": Fraction(3, 5), "m8": Fraction(9, 16), "m9": Fraction(9, 17)}


def _scheme_pieces(scheme: str) -> list:
    """The pieces of a simplex scheme in barycentric coordinates, as
    (ratio, c, box, alone): the homothet lambda -> ratio*lambda + c that
    encloses the piece, the piece's box, and whether the piece is its box
    alone (the m5 clip box and the m9 core box).

    With k coordinates and threshold t (1/2 for triangle4), the k vertex
    homothets of ratio 1 - t catch every point with some lambda_i >= t.
    The residual box [0, t]^k lies in the reflection of ratio
    -g = -(kt - 1) about (t, ..., t).  triangle4 keeps that reflection
    whole; m5 keeps its box.  m8 (t2 = 1/4) and m9 (t2 = 2/5) split the
    reflection by its k vertex homothets of ratio 1 - t2, the tails, each
    clipped to the residual box with its own coordinate capped at
    cap = t - g*t2; m9's core, lambda >= cap, lies in the homothet of
    ratio g(k*t2 - 1) about (cap, ..., cap).
    """
    k, t = (3, Fraction(1, 2)) if scheme == "triangle4" else (4, _SCHEME_T[scheme])
    g = k * t - 1
    pieces = [(1 - t, tuple(t * (i == j) for j in range(k)),
               tuple((t if i == j else Fraction(0), Fraction(1)) for j in range(k)), False)
              for i in range(k)]
    if scheme in ("triangle4", "m5"):
        return pieces + [(-g, (t,) * k, ((Fraction(0), t),) * k, scheme == "m5")]
    t2 = Fraction(1, 4) if scheme == "m8" else Fraction(2, 5)
    cap = t - g * t2
    pieces += [(-(1 - t2) * g, tuple(cap if i == j else t for j in range(k)),
                tuple((Fraction(0), cap if i == j else t) for j in range(k)), False)
               for i in range(k)]
    if scheme == "m9":
        pieces.append((g * (k * t2 - 1), (cap,) * k, ((cap, t),) * k, True))
    return pieces


@functools.lru_cache(maxsize=None)
def _scheme_template(scheme: str) -> tuple:
    """The scheme's pieces as integer barycentric rows, built once per
    scheme from _scheme_pieces.

    Each piece becomes (ratio, L, rows, ratio_bound, bary_bounds) with
    integer rows over L and ratio_bound = |ratio|.  A homothet piece keeps
    its ratio and its c as one row, whose coefficients sum to L(1 - ratio),
    and no hull: its diameter is |ratio| times the parent's in every norm.
    A box piece has ratio None and the vertices of its box as rows (see
    _bary_box_vertices).  Every piece's box, a box piece's too, must lie in
    its homothet (_encloses), or its |ratio| would not bound it.
    """
    out = []
    for ratio, c, box, alone in _scheme_pieces(scheme):
        if not _encloses(ratio, c, box):
            raise VerificationError("%s pieces: a box leaves its homothet of ratio %s"
                                    % (scheme, ratio))
        L, rows = _bary_box_vertices(box) if alone else _integer_points((c,))
        out.append((None if alone else ratio, L, rows, abs(ratio), box))
    return tuple(out)


def _template_pieces(S: Simplex, scheme: str) -> tuple:
    """The scheme's template mapped through S: one integer product per
    piece (see _bary_polytope).  A box hull is exact, since it is
    measured; a float simplex's homothet translations are rounded once."""
    pieces = []
    for ratio, L, rows, bound, box in _scheme_template(scheme):
        P = _bary_polytope(S, L, rows)
        if ratio is None:
            pieces.append(PartitionPiece(None, bound, P, box))
        else:  # the translation sum_j c_j v_j is the one point of the row c
            t = P.vertices[0] if S.rational else tuple(map(float, P.vertices[0]))
            pieces.append(PartitionPiece(Homothet(ratio, t, S), bound, None, box))
    return tuple(pieces)


def triangle_partition4(T: Simplex) -> PartitionCertificate:
    """Midpoint subdivision of a triangle: 4 homothets with |ratio| = 1/2.

    The middle piece is the point reflection -(1/2)T + c, valid in every
    norm, so the certificate carries ratio exactly 1/2 with no norm
    attached.  The pieces are the scheme's barycentric template mapped
    through T (see simplex_partition).
    """
    if T.dim != 2:
        raise ValueError("expected a triangle in the plane")
    return PartitionCertificate(T, _template_pieces(T, "triangle4"), Fraction(1, 2), "triangle4")


def simplex_partition(S: Simplex, scheme: str) -> PartitionCertificate:
    """Tetrahedron scheme m5, m8, or m9; ratio holds in every norm.

    Every piece is the affine image of one barycentric point set, so each
    scheme is built once, in barycentric coordinates, as integer rows
    (_scheme_template; see _scheme_pieces for the construction).  Each
    call maps those rows through S's integer vertices, one integer
    product per piece: the box hulls are integer rows over one
    denominator, a float S read as the rationals it denotes, and a float
    S's homothet translations are rounded once.
    The pieces' ratio bounds are checked against the scheme ratio on
    every call.
    """
    if S.dim != 3:
        raise ValueError("schemes are defined for tetrahedra")
    if scheme not in _SCHEME_T:
        raise ValueError("scheme must be one of m5, m8, m9")
    pieces = _template_pieces(S, scheme)
    ratio = _SCHEME_RATIO[scheme]
    if max(p.ratio_bound for p in pieces) != ratio:
        raise VerificationError("%s pieces do not attain the scheme ratio %s" % (scheme, ratio))
    return PartitionCertificate(S, pieces, ratio, scheme)


# Largest n a cube partition accepts: the 2^n vertices are built
# eagerly, so memory grows exponentially in n.
MAX_CUBE_DIM = 8


def cube_partition(n: int) -> PartitionCertificate:
    """[-1,1]^n split into the 2^n half-cubes (1/2)B + (1/2)v; ratio 1/2
    under l_inf.  Each piece is its homothet alone, with no hull: its
    diameter is half the parent's in every norm."""
    if not 1 <= n <= MAX_CUBE_DIM:
        raise ValueError("dimension must lie in [1, %d]" % MAX_CUBE_DIM)
    parent = cube(n)
    half = Fraction(1, 2)
    pieces = tuple(PartitionPiece(Homothet(half, vscale(half, v), parent), half)
                   for v in parent.vertices)
    return PartitionCertificate(parent, pieces, half, "cube")


def disk_partition4() -> PartitionCertificate:
    """Unit disk as 4 closed quadrant sectors, l_2 ratio sqrt(2)/2.

    A closed quarter sector has diameter sqrt(2): the two arc endpoints
    realize it, and no chord of the sector is longer (both points lie in
    a quarter-plane wedge of the unit disk, so the angle between them is
    at most pi/2 and |x-y|^2 = |x|^2 + |y|^2 - 2<x,y> <= 2).
    """
    quarters = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0)]
    pieces = tuple(
        PartitionPiece(
            description=SectorRegion(a * math.pi, b * math.pi),
            ratio_bound=math.sqrt(2.0) / 2.0,
        )
        for a, b in quarters
    )
    return PartitionCertificate(PBall(2, 2), pieces, math.sqrt(2.0) / 2.0, "disk4")
