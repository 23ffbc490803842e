"""Constructive diameter partitions with certified ratios.

Schemes shipped here:

* triangle midpoint subdivision (4 pieces, ratio 1/2 in every norm);
* tetrahedron schemes m5/m8/m9 (ratios 3/5, 9/16, 9/17 in every norm),
  built from vertex homothets plus a reflected enclosure of the residual
  region;
* cube halving (2^n pieces, ratio 1/2 under l_inf);
* disk quadrants (4 sectors, ratio sqrt(2)/2 under l_2).

Every simplex-scheme piece is, in barycentric coordinates, a box
{lo_i <= lambda_i <= hi_i}: a vertex homothet (1-mu)v_i + mu*S is the
set {lambda_i >= 1-mu}, and the residual pieces come out as boxes after
inverting the reflected enclosure.  That makes the coverage check exact
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .geometry import (
    Homothet,
    PBall,
    Simplex,
    VPolytope,
    _extreme_rays,
    _integer_points,
    _rows_polytope,
    apply_homothet,
    centroid,
    cube,
    vdot,
    vneg,
    vscale,
)
from .numbers import VerificationError, as_fraction, same_mode


# ---------------------------------------------------------------------------
# piece descriptions


@dataclass(frozen=True)
class SectorRegion:
    """Closed angular sector of the unit disk, angles in radians."""

    angle_lo: float
    angle_hi: float

    def contains(self, x, tol: float = 1e-9) -> bool:
        r = math.hypot(float(x[0]), float(x[1]))
        if r > 1 + tol:
            return False
        if r <= tol:
            return True  # the centre belongs to every closed sector
        ang = math.atan2(float(x[1]), float(x[0])) % (2 * math.pi)
        lo = self.angle_lo % (2 * math.pi)
        hi = lo + (self.angle_hi - self.angle_lo)
        atol = tol / max(r, tol)
        for shift in (0.0, 2 * math.pi):
            if lo - atol <= ang + shift <= hi + atol:
                return True
        return False


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _vertex_piece(S: Simplex, i: int, mu: Fraction) -> PartitionPiece:
    """The homothet (1-mu)v_i + mu*S, equivalently {lambda_i >= 1-mu}."""
    bounds = [(Fraction(0), Fraction(1))] * (S.dim + 1)
    bounds[i] = (1 - mu, Fraction(1))
    return PartitionPiece(description=Homothet(mu, vscale(1 - mu, S.vertices[i]), S),
                          ratio_bound=mu, bary_bounds=tuple(bounds))


def simplex_vertex_homothets(S: Simplex, mu) -> Tuple[PartitionPiece, ...]:
    """The n+1 pieces (1-mu)v_i + mu*S; their union covers S.

    Coverage needs mu >= n/(n+1): every barycentric point has some
    lambda_i >= 1/(n+1), so lambda_i >= 1-mu puts it in piece i.  Below
    that threshold the centroid (all lambda_i = 1/(n+1)) is uncovered.
    """
    n = S.dim
    (mu,) = same_mode(mu)
    if mu > 1:
        raise ValueError("mu must be at most 1")
    if mu < Fraction(n, n + 1):
        raise ValueError(
            "mu=%s < %d/%d leaves the centroid uncovered (all lambda_i = 1/%d > 1-mu)"
            % (mu, n, n + 1, n + 1)
        )
    return tuple(_vertex_piece(S, i, mu) for i in range(n + 1))


def residual_enclosure(S: Simplex, t) -> Homothet:
    """Homothet -((n+1)t - 1)*S + c containing {sum lambda_i v_i : lambda <= t}.

    The centre of the enclosure is forced by centroid normalization:
    c = (1 + gamma) * centroid(S).  The enclosure is verified on the
    residual region's vertex set in rational arithmetic, once per (n, t),
    before being returned.
    """
    n = S.dim
    t = as_fraction(t)
    if not Fraction(1, n + 1) < t <= Fraction(1, 2):
        raise ValueError("t must lie in (1/%d, 1/2]" % (n + 1,))
    gamma = _enclosure_ratio(n, t)
    return Homothet(-gamma, vscale(1 + gamma, centroid(S.vertices)), S)


@functools.lru_cache(maxsize=32)
def _enclosure_ratio(n: int, t: Fraction) -> Fraction:
    """gamma = (n+1)t - 1, verified: every vertex lambda of the residual
    box [0, t]^(n+1) maps into the simplex under the enclosure's inverse,
    (t - lambda_i)/gamma >= 0 with sum 1.  Depends on (n, t) only."""
    gamma = (n + 1) * t - 1
    L, lams = _bary_box_vertices(((Fraction(0), t),) * (n + 1))
    for lam in lams:
        pre = [(t - Fraction(li, L)) / gamma for li in lam]
        if any(v < 0 for v in pre) or sum(pre) != 1:
            raise VerificationError("residual enclosure verification failed")
    return gamma


_SCHEME_T = {"m5": Fraction(2, 5), "m8": Fraction(7, 16), "m9": Fraction(8, 17)}
_SCHEME_RATIO = {"m5": Fraction(3, 5), "m8": Fraction(9, 16), "m9": Fraction(9, 17)}


def _scheme_pieces(S: Simplex, scheme: str) -> list:
    """The pieces of a simplex scheme on S, built from homothets; a box
    piece is its bary_bounds alone (_scheme_template realizes it).

    triangle4 is the midpoint subdivision: three vertex homothets of ratio
    1/2 and the point reflection -(1/2)S + c, the residual enclosure at
    t = 1/2.  The tetrahedron schemes follow one pattern with threshold t:
    the four vertex homothets of ratio 1-t catch every point with some
    lambda_i >= t; what remains ({all lambda_i <= t}) sits inside the
    reflected copy -(4t-1)S + 4t*g, which is handled whole (m5), split by
    four vertex homothets of ratio 3/4 (m8, t=7/16), or split by the m5
    pattern again (m9, t=8/17).
    """
    if scheme == "triangle4":
        half = Fraction(1, 2)
        box = ((Fraction(0), half),) * 3
        return [*(_vertex_piece(S, i, half) for i in range(3)),
                PartitionPiece(residual_enclosure(S, half), half, bary_bounds=box)]
    t = _SCHEME_T[scheme]
    pieces = [_vertex_piece(S, i, 1 - t) for i in range(4)]
    refl = residual_enclosure(S, t)  # -(4t-1)S + 4t*g
    gamma = -refl.ratio

    if scheme == "m5":
        clip = ((Fraction(0), t),) * 4
        pieces.append(PartitionPiece(None, gamma, bary_bounds=clip))
        return pieces
    # vertex homothets of ratio 1-t2 of the reflected copy: 3/4 (m8),
    # or the m5 pattern again (m9)
    refl_sx = Simplex(apply_homothet(refl).vertices)
    t2 = Fraction(1, 4) if scheme == "m8" else Fraction(2, 5)
    cap = t - gamma * t2  # lambda_i <= cap inside piece i
    for i in range(4):
        outer = Homothet(1 - t2, vscale(t2, refl_sx.vertices[i]), refl_sx)
        comp = outer.compose(refl)
        bounds = [(Fraction(0), t)] * 4
        bounds[i] = (Fraction(0), cap)
        pieces.append(PartitionPiece(comp, abs(comp.ratio), bary_bounds=tuple(bounds)))
    if scheme == "m9":
        # lambda_i >= cap on the residual of the residual
        core = ((cap, t),) * 4
        enc = residual_enclosure(refl_sx, t2).compose(refl)
        pieces.append(PartitionPiece(None, abs(enc.ratio), bary_bounds=core))
    return pieces


@functools.lru_cache(maxsize=None)
def _scheme_template(scheme: str) -> tuple:
    """The scheme's pieces in barycentric terms, built once per scheme.

    _scheme_pieces runs on the reference simplex (e_1, ..., e_n, 0),
    where a point x has barycentric coordinates (x, 1 - sum x).  Each
    piece becomes (ratio, L, rows, ratio_bound, bary_bounds) with integer
    barycentric rows over L.  A homothet piece keeps its ratio and its
    translation as one row, whose coefficients sum to L(1 - ratio), and
    no hull: its diameter is |ratio| times the parent's in every norm.  A
    box piece has ratio None and the vertices of its box as rows (see
    _bary_box_vertices).

    A homothet piece's |ratio| bounds it only if its box lies in the image
    {ratio*mu + c/L : mu in the simplex}, checked here: lambda_j >= c_j/L
    for every j when the ratio is positive, lambda_j <= c_j/L when negative.
    """
    n = 2 if scheme == "triangle4" else 3
    ref = Simplex((*(tuple(int(i == j) for j in range(n)) for i in range(n)), (0,) * n))
    out = []
    for piece in _scheme_pieces(ref, scheme):
        h, box = piece.description, piece.bary_bounds
        if h is None:
            L, rows = _bary_box_vertices(box)
        else:
            L, rows = _integer_points(((*h.translation, 1 - h.ratio - sum(h.translation)),))
            if not all(lo * L >= c if h.ratio > 0 else hi * L <= c
                       for (lo, hi), c in zip(box, rows[0])):
                raise VerificationError("%s pieces: a box leaves its homothet of ratio %s"
                                        % (scheme, h.ratio))
        out.append((None if h is None else h.ratio, L, rows, piece.ratio_bound, box))
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
    scheme is built once, on the reference simplex, as integer
    barycentric rows (_scheme_template; see _scheme_pieces for the
    construction).  Each call maps those rows through S's integer
    vertices, one integer product per piece: the box hulls are integer
    rows over one denominator, a float S read as the rationals it
    denotes, and a float S's homothet translations are rounded once.
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
