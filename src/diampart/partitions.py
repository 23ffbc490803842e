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
inverting the reflected enclosure.  That makes membership and coverage
checks exact interval arithmetic.

Diameter ratios are certified through enclosing homothets — a homothet
of ratio r scales every norm's diameters by |r| — so the certificates
hold for EVERY norm, not just the one they are later verified under.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .geometry import (
    Homothet,
    Norm,
    Simplex,
    VPolytope,
    _integer_points,
    apply_homothet,
    barycentric_coords,
    centroid,
    vscale,
)
from .numbers import INF, VerificationError, all_rational, as_fraction, to_float


# ---------------------------------------------------------------------------
# piece descriptions


@dataclass(frozen=True)
class BarycentricRegion:
    """{sum lambda_i v_i : lo_i <= lambda_i <= hi_i, sum lambda_i = 1}."""

    simplex: Simplex
    bounds: tuple  # (lo, hi) per barycentric coordinate

    def __post_init__(self):
        bounds = tuple((as_fraction(lo), as_fraction(hi)) for lo, hi in self.bounds)
        if len(bounds) != self.simplex.dim + 1:
            raise ValueError("one bound pair per barycentric coordinate")
        if any(lo > hi or lo < 0 or hi > 1 for lo, hi in bounds):
            raise ValueError("bounds must satisfy 0 <= lo <= hi <= 1")
        object.__setattr__(self, "bounds", bounds)

    def vertices_lambda(self) -> tuple:
        return _bary_box_vertices(self.bounds)

    def realize(self) -> VPolytope:
        verts = []
        for lam in self.vertices_lambda():
            acc = vscale(lam[0], self.simplex.vertices[0])
            for li, vi in zip(lam[1:], self.simplex.vertices[1:]):
                acc = tuple(a + li * b for a, b in zip(acc, vi))
            verts.append(acc)
        return VPolytope(tuple(verts))


@dataclass(frozen=True)
class SectorRegion:
    """Closed angular sector of the unit disk, angles in radians."""

    angle_lo: float
    angle_hi: float

    def contains(self, x, tol: float = 1e-9) -> bool:
        r = math.hypot(to_float(x[0]), to_float(x[1]))
        if r > 1 + tol:
            return False
        if r <= tol:
            return True  # the centre belongs to every closed sector
        ang = math.atan2(to_float(x[1]), to_float(x[0])) % (2 * math.pi)
        lo = self.angle_lo % (2 * math.pi)
        hi = lo + (self.angle_hi - self.angle_lo)
        atol = tol / max(r, tol)
        for shift in (0.0, 2 * math.pi):
            if lo - atol <= ang + shift <= hi + atol:
                return True
        return False


@dataclass(frozen=True)
class UnitDisk:
    """Euclidean unit disk in the plane (fixed body of the quadrant scheme)."""

    radius: float = 1.0


def _bary_box_vertices(bounds) -> tuple:
    """Vertices of {lo <= lambda <= hi, sum lambda = 1}, in sorted order.

    Every vertex has at most one coordinate strictly between its bounds,
    so enumerating one free coordinate against all lo/hi patterns of the
    rest is exhaustive.  The enumeration runs on the integers lo*L and
    hi*L, L the lcm of the bound denominators, where sum lambda = 1
    reads sum = L; Fractions are built only for the vertices returned.
    """
    L, ints = _integer_points(bounds)
    k = len(ints)
    if sum(lo for lo, _ in ints) > L or sum(hi for _, hi in ints) < L:
        return ()
    out = set()
    for free in range(k):
        others = [ints[i] for i in range(k) if i != free]
        lo, hi = ints[free]
        for pattern in itertools.product(*others):
            rest = L - sum(pattern)
            if lo <= rest <= hi:
                out.add(pattern[:free] + (rest,) + pattern[free:])
    return tuple(tuple(Fraction(v, L) for v in lam) for lam in sorted(out))


# ---------------------------------------------------------------------------
# pieces and certificates


@dataclass(frozen=True)
class PartitionPiece:
    """One piece of a partition, with a certified diameter-ratio bound.

    description is the defining object (a Homothet of the parent, a
    BarycentricRegion, or a SectorRegion).  bary_bounds, when present,
    is the barycentric box that exact membership and coverage are checked
    on; it lies inside the description, cut back to the residual region
    where a reflected piece overhangs the parent.
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
    norm: Optional[Norm]  # None: the ratio claim is norm-independent
    scheme: str

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def m(self) -> int:
        return len(self.pieces)


def piece_contains(piece: PartitionPiece, x, parent, tol=0) -> bool:
    """Membership of a point in a piece: the barycentric-box test for a
    simplex parent (exact when tol=0 and the data are rational), or the
    sector test."""
    if piece.bary_bounds is not None and isinstance(parent, Simplex):
        lam = barycentric_coords(parent, x)
        return all(lo - tol <= v <= hi + tol
                   for v, (lo, hi) in zip(lam, piece.bary_bounds))
    if isinstance(piece.description, SectorRegion):
        return piece.description.contains(x, tol=max(tol, 1e-12))
    raise ValueError("no membership test for a %s piece" % (type(piece.description).__name__,))


# ---------------------------------------------------------------------------
# scheme constructors


def _full_box(k):
    return ((Fraction(0), Fraction(1)),) * k


def _vertex_piece(S: Simplex, i: int, mu: Fraction) -> PartitionPiece:
    """The homothet (1-mu)v_i + mu*S, equivalently {lambda_i >= 1-mu}."""
    h = Homothet(mu, vscale(1 - mu, S.vertices[i]), S)
    bounds = list(_full_box(S.dim + 1))
    bounds[i] = (1 - mu, Fraction(1))
    return PartitionPiece(
        description=h,
        ratio_bound=mu,
        realized_hull=apply_homothet(h),
        bary_bounds=tuple(bounds),
    )


def simplex_vertex_homothets(S: Simplex, mu) -> Tuple[PartitionPiece, ...]:
    """The n+1 pieces (1-mu)v_i + mu*S; their union covers S.

    Coverage needs mu >= n/(n+1): every barycentric point has some
    lambda_i >= 1/(n+1), so lambda_i >= 1-mu puts it in piece i.  Below
    that threshold the centroid (all lambda_i = 1/(n+1)) is uncovered.
    """
    n = S.dim
    mu = as_fraction(mu) if all_rational([mu]) else mu
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
    c = (1 + gamma) * centroid(S).  The enclosure is re-verified on the
    residual region's vertex set in rational arithmetic before being
    returned.
    """
    n = S.dim
    t = as_fraction(t)
    if not Fraction(1, n + 1) < t <= Fraction(1, 2):
        raise ValueError("t must lie in (1/%d, 1/2]" % (n + 1,))
    gamma = (n + 1) * t - 1
    g = centroid(S.vertices)
    h = Homothet(-gamma, vscale(1 + gamma, g), S)
    # verify: residual vertex lambda maps into S under the inverse of h,
    # i.e. (t - lambda_i)/gamma >= 0 for all i
    region = BarycentricRegion(S, ((Fraction(0), t),) * (n + 1))
    for lam in region.vertices_lambda():
        pre = [(t - li) / gamma for li in lam]
        if any(v < 0 for v in pre) or sum(pre) != 1:
            raise VerificationError("residual enclosure verification failed")
    return h


def triangle_partition4(T: Simplex) -> PartitionCertificate:
    """Midpoint subdivision of a triangle: 4 homothets with |ratio| = 1/2.

    The middle piece is the point reflection -(1/2)T + c, valid in every
    norm, so the certificate carries ratio exactly 1/2 with no norm
    attached.
    """
    if T.dim != 2:
        raise ValueError("expected a triangle in the plane")
    half = Fraction(1, 2)
    pieces = [_vertex_piece(T, i, half) for i in range(3)]
    mid = residual_enclosure(T, half)  # ratio -(3*1/2 - 1) = -1/2
    region = BarycentricRegion(T, ((Fraction(0), half),) * 3)
    pieces.append(
        PartitionPiece(
            description=mid,
            ratio_bound=half,
            realized_hull=region.realize(),
            bary_bounds=region.bounds,
        )
    )
    return PartitionCertificate(T, tuple(pieces), half, None, "triangle4")


_SCHEME_T = {"m5": Fraction(2, 5), "m8": Fraction(7, 16), "m9": Fraction(8, 17)}
_SCHEME_RATIO = {"m5": Fraction(3, 5), "m8": Fraction(9, 16), "m9": Fraction(9, 17)}


def simplex_partition(S: Simplex, scheme: str) -> PartitionCertificate:
    """Tetrahedron scheme m5, m8, or m9; ratio holds in every norm.

    All three follow the same pattern with threshold t: the four vertex
    homothets of ratio 1-t catch every point with some lambda_i >= t;
    what remains ({all lambda_i <= t}) sits inside the reflected copy
    -(4t-1)S + 4t*g, which is handled whole (m5), split by four vertex
    homothets of ratio 3/4 (m8, t=7/16), or split by the m5 pattern
    again (m9, t=8/17).
    """
    if S.dim != 3:
        raise ValueError("schemes are defined for tetrahedra")
    if scheme not in _SCHEME_T:
        raise ValueError("scheme must be one of m5, m8, m9")
    t = _SCHEME_T[scheme]
    mu = 1 - t
    pieces = [_vertex_piece(S, i, mu) for i in range(4)]
    refl = residual_enclosure(S, t)  # -(4t-1)S + 4t*g
    gamma = -refl.ratio

    if scheme == "m5":
        clip = BarycentricRegion(S, ((Fraction(0), t),) * 4)
        pieces.append(
            PartitionPiece(
                description=clip,
                ratio_bound=gamma,
                realized_hull=clip.realize(),
                bary_bounds=clip.bounds,
            )
        )
    else:
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
            pieces.append(
                PartitionPiece(
                    description=comp,
                    ratio_bound=abs(comp.ratio),
                    realized_hull=apply_homothet(comp),
                    bary_bounds=tuple(bounds),
                )
            )
        if scheme == "m9":
            # lambda_i >= cap on the residual of the residual
            core = BarycentricRegion(S, ((cap, t),) * 4)
            enc = residual_enclosure(refl_sx, t2).compose(refl)
            pieces.append(
                PartitionPiece(
                    description=core,
                    ratio_bound=abs(enc.ratio),
                    realized_hull=core.realize(),
                    bary_bounds=core.bounds,
                )
            )

    ratio = _SCHEME_RATIO[scheme]
    if max(p.ratio_bound for p in pieces) != ratio:
        raise VerificationError("%s pieces do not attain the scheme ratio %s" % (scheme, ratio))
    return PartitionCertificate(S, tuple(pieces), ratio, None, scheme)


def cube_partition(n: int) -> PartitionCertificate:
    """[-1,1]^n split into the 2^n half-cubes (1/2)B + (1/2)v; ratio 1/2
    under l_inf."""
    if not 1 <= n <= 8:
        raise ValueError("dimension must lie in [1, 8]")
    from .geometry import cube

    parent = cube(n)
    half = Fraction(1, 2)
    pieces = []
    for v in parent.vertices:
        h = Homothet(half, vscale(half, v), parent)
        # realized hulls get big in high dimension; the homothety law
        # already certifies the piece diameters exactly
        hull = apply_homothet(h) if n <= 5 else None
        pieces.append(PartitionPiece(description=h, ratio_bound=half,
                                     realized_hull=hull))
    return PartitionCertificate(parent, tuple(pieces), half, Norm.lp(INF), "cube")


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
    return PartitionCertificate(
        UnitDisk(), pieces, math.sqrt(2.0) / 2.0, Norm.lp(2), "disk4"
    )
