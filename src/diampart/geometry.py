"""Vectors, norms, polytopes, diameters, and related substrate.

Points are plain tuples of scalars (ints, Fractions, or floats).  Most
operations run in one of two arithmetic modes: exact rational arithmetic
whenever every input is rational and the norm is polyhedral (p in {1, inf}
or an explicit gauge body), floating point otherwise.  Exact-mode results
never round.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .linprog import (
    feasible_point,
    matrix_rank_exact,
    row_reduce,
    solve_linear_system,
)
from .numbers import INF, Scalar, all_rational, as_fraction, is_rational, to_float

Vector = Tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vscale(alpha: Scalar, x: Vector) -> Vector:
    return tuple(alpha * a for a in x)


def vdot(x: Vector, y: Vector) -> Scalar:
    return sum(map(operator.mul, x, y))


def vneg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def centroid(points: Sequence[Vector]) -> Vector:
    k = len(points)
    if all(all_rational(p) for p in points):
        w = Fraction(1, k)
    else:
        w = 1.0 / k
    acc = points[0]
    for p in points[1:]:
        acc = vadd(acc, p)
    return vscale(w, acc)


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    rows = [vsub(p, points[0]) for p in points[1:]]
    if all(all_rational(r) for r in rows):
        return matrix_rank_exact(rows)
    import numpy as np

    arr = np.asarray([[to_float(v) for v in r] for r in rows], dtype=float)
    return int(np.linalg.matrix_rank(arr, tol=1e-11))


# ---------------------------------------------------------------------------
# bodies


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of an explicit (not necessarily minimal) vertex list."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(v) for v in self.vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise ValueError("vertices have mixed dimensions")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @functools.cached_property
    def rational(self) -> bool:
        """Every vertex coordinate is an int or a Fraction; computed once,
        since a gauge of a float body rounds each value it returns."""
        return all(all_rational(v) for v in self.vertices)

    def translate(self, t: Vector) -> "VPolytope":
        return VPolytope(tuple(vadd(v, t) for v in self.vertices))

    def scale(self, alpha: Scalar) -> "VPolytope":
        return VPolytope(tuple(vscale(alpha, v) for v in self.vertices))


@dataclass(frozen=True)
class Simplex:
    """n+1 affinely independent vertices in R^n."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts[0])
        if len(verts) != n + 1:
            raise ValueError("a simplex in R^%d needs %d vertices" % (n, n + 1))
        if affine_rank(verts) != n:
            raise ValueError("degenerate simplex: vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def as_polytope(self) -> VPolytope:
        return VPolytope(self.vertices)


@dataclass(frozen=True)
class Homothet:
    """The map x -> ratio*x + translation applied to a base body."""

    ratio: Scalar
    translation: tuple
    base: object  # VPolytope or Simplex

    def __post_init__(self):
        if self.ratio == 0:
            raise ValueError("homothety ratio must be nonzero")
        object.__setattr__(self, "translation", tuple(self.translation))

    def apply_point(self, x: Vector) -> Vector:
        return vadd(vscale(self.ratio, x), self.translation)

    def compose(self, inner: "Homothet") -> "Homothet":
        """Homothet equal to self applied after inner (same base as inner)."""
        return Homothet(
            ratio=self.ratio * inner.ratio,
            translation=vadd(vscale(self.ratio, inner.translation), self.translation),
            base=inner.base,
        )


def apply_homothet(h: Homothet) -> VPolytope:
    verts = getattr(h.base, "vertices")
    return VPolytope(tuple(h.apply_point(v) for v in verts))


@dataclass(frozen=True)
class PBall:
    """The ball {x : ||x||_p <= radius} in R^dim."""

    p: Scalar
    dim: int
    radius: Scalar = 1

    def __post_init__(self):
        if not (self.p == INF or self.p >= 1):
            raise ValueError("p must lie in [1, inf]")
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def cube(n: int, half: Scalar = 1) -> VPolytope:
    """The cube [-half, half]^n as a 2^n-vertex polytope."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    verts = [()]
    for _ in range(n):
        verts = [v + (s,) for v in verts for s in (-half, half)]
    return VPolytope(tuple(verts))


def cross_polytope(n: int, radius: Scalar = 1) -> VPolytope:
    """Unit l1 ball in R^n: the convex hull of +-radius*e_i."""
    verts = []
    for i in range(n):
        e = [0] * n
        e[i] = radius
        verts.append(tuple(e))
        e2 = [0] * n
        e2[i] = -radius
        verts.append(tuple(e2))
    return VPolytope(tuple(verts))


# ---------------------------------------------------------------------------
# norms


def pnorm_eval(x: Sequence[Scalar], p: Scalar) -> Scalar:
    """(sum |x_i|^p)^(1/p), max for p = inf; exact for p in {1, inf}."""
    if p == INF:
        return max(abs(v) for v in x) if x else 0
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return sum(abs(v) for v in x)
    xs = [abs(float(v)) for v in x]
    m = max(xs) if xs else 0.0
    if m == 0.0:
        return 0.0
    pf = to_float(p)
    return m * sum((v / m) ** pf for v in xs) ** (1.0 / pf)


def dual_exponent(p: Scalar) -> Scalar:
    """q with 1/p + 1/q = 1, under the conventions 1 <-> inf."""
    if p == INF:
        return 1
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return INF
    if is_rational(p):
        pf = as_fraction(p)
        return pf / (pf - 1)
    return p / (p - 1.0)


class Norm:
    """A norm on R^n: either an l_p norm or the gauge of a polytope.

    Gauge bodies must be origin-symmetric (vertex set closed under
    negation) and full-dimensional, so that the Minkowski functional is
    a genuine norm.  Gauges are evaluated through the body's cached
    exact facet list (gauge_facets).
    """

    __slots__ = ("kind", "p", "body")

    def __init__(self, kind: str, p: Optional[Scalar] = None,
                 body: Optional[VPolytope] = None):
        if kind == "p":
            if p is None or (p != INF and p < 1):
                raise ValueError("p-norm needs p in [1, inf]")
            self.p = p
            self.body = None
        elif kind == "gauge":
            if body is None:
                raise ValueError("gauge norm needs a body")
            _validate_gauge_body(body)
            self.p = None
            self.body = body
        else:
            raise ValueError("unknown norm kind %r" % (kind,))
        self.kind = kind

    @classmethod
    def lp(cls, p: Scalar) -> "Norm":
        return cls("p", p=p)

    @classmethod
    def gauge(cls, body: Union[VPolytope, Sequence[Vector]]) -> "Norm":
        if not isinstance(body, VPolytope):
            body = VPolytope(tuple(body))
        return cls("gauge", body=body)

    @property
    def is_polyhedral(self) -> bool:
        return self.kind == "gauge" or self.p == 1 or self.p == INF

    def label(self) -> str:
        if self.kind == "gauge":
            return "gauge"
        if self.p == INF:
            return "linf"
        if self.p == int(self.p):
            return "l%d" % int(self.p)
        return "l%s" % (self.p,)

    def __call__(self, x: Vector) -> Scalar:
        return norm_eval(x, self)

    def __repr__(self):
        if self.kind == "gauge":
            return "Norm.gauge(<%d vertices>)" % len(self.body.vertices)
        return "Norm.lp(%r)" % (self.p,)

    def __eq__(self, other):
        if not isinstance(other, Norm):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "p":
            return self.p == other.p
        return self.body.vertices == other.body.vertices

    def __hash__(self):
        if self.kind == "p":
            return hash(("p", self.p))
        return hash(("gauge", self.body.vertices))


def _validate_gauge_body(body: VPolytope):
    verts = body.vertices
    if affine_rank(verts) != body.dim:
        raise ValueError("gauge body must be full-dimensional")
    if body.rational:
        vert_set = set(verts)
        sym = all(vneg(v) in vert_set for v in verts)
    else:
        import numpy as np

        arr = np.asarray([[to_float(c) for c in v] for v in verts], dtype=float)
        sym = all(
            np.min(np.max(np.abs(arr + arr[i]), axis=1)) <= 1e-9
            for i in range(len(verts))
        )
    if not sym:
        raise ValueError("gauge body must be symmetric about the origin")


@dataclass(frozen=True)
class FacetForm:
    """Exact H-form of K = conv(W + {0}) for a gauge body with vertices W.

    With y = scale * x (``scale`` is the lcm of the vertex denominators,
    so the scaled vertices are integer), K is the set of y with
    c.y <= d for every (c, d) in ``rows`` and c.y <= 0 for every c in
    ``cone``.  All entries are integers and d > 0 in ``rows``, so the
    gauge of x is max_i c_i.(scale * x)/d_i on the cone.  ``cone`` holds
    the facets through the origin and both signs of a basis of the
    orthogonal complement of span(W); it is empty exactly when the
    origin is an interior point of the body.
    """

    scale: int
    rows: tuple  # ((c, d), ...) with d > 0
    cone: tuple  # (c, ...)

    def functionals(self) -> tuple:
        """Rational rows f_i with gauge(x) = max_i f_i.x (origin interior)."""
        if self.cone:
            raise ValueError("the origin is not an interior point of the gauge body")
        return tuple(tuple(Fraction(self.scale * ci, d) for ci in c)
                     for c, d in self.rows)


# Most n-subsets one facet enumeration may examine, a few seconds of
# work; larger bodies are refused rather than left running for hours.
MAX_FACET_SUBSETS = 200_000


# the coordinate types the integer kernels take as they are
_EXACT_TYPES = frozenset((int, Fraction))


def _coordinate_types(points) -> set:
    return {type(c) for p in points for c in p}


def _integer_points(points) -> tuple:
    """(D, P): D is the lcm of every coordinate denominator and P holds
    the integer tuples D * p, exact for floats too."""
    if not _coordinate_types(points) <= _EXACT_TYPES:
        points = [[as_fraction(c) for c in p] for p in points]
    ratios = [[c.as_integer_ratio() for c in p] for p in points]
    D = math.lcm(*(d for p in ratios for _, d in p))
    return D, tuple(tuple(n * (D // d) for n, d in p) for p in ratios)


def _det(M) -> int:
    """Integer determinant by Bareiss fraction-free elimination; M is a
    list of row lists, overwritten."""
    n = len(M)
    if n == 2:  # the minors of every 3-D facet normal: the hot path
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def _hull_facets(points) -> list:
    """Facets (c, d), c.y <= d with gcd 1, of the hull of integer points
    whose affine hull is the whole space.

    Every facet contains n affinely independent points, so the
    hyperplanes through all n-subsets, kept when no point lies beyond
    them, are exactly the facets.
    """
    n = len(points[0])
    seen = set()
    out = []
    for sub in itertools.combinations(points, n):
        base = sub[0]
        M = [[a - b for a, b in zip(p, base)] for p in sub[1:]]
        c = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in M]) for j in range(n)]
        if not any(c):
            continue  # affinely dependent subset
        d = vdot(c, base)
        g = math.gcd(*c, d)
        c = tuple(v // g for v in c)
        d //= g
        if (c, d) in seen:
            continue
        seen.add((c, d))
        seen.add((vneg(c), -d))
        above = below = False
        for p in points:
            v = vdot(c, p)
            above = above or v > d
            below = below or v < d
            if above and below:
                break
        else:
            # the hyperplane passes through base, so it supports from one side
            out.append((vneg(c), -d) if above else (c, d))
    return out


@functools.lru_cache(maxsize=256)
def gauge_facets(vertices: tuple) -> FacetForm:
    """The cached exact facet form of conv(vertices + {0}).

    Integer arithmetic throughout; no float hull and no tolerance.  The
    facets are found among the hyperplanes through n-subsets of the
    vertices and the origin (after projecting onto span(vertices)), so
    the cost grows like C(V + 1, n): fine for the small bodies of this
    library, refused beyond MAX_FACET_SUBSETS.
    """
    scale, V = _integer_points(vertices)
    n = len(V[0])
    R, pivots = row_reduce(V)
    cone = []
    for f in range(n):
        if f in pivots:
            continue
        e = [Fraction(0)] * n
        e[f] = Fraction(1)
        for row, p in zip(R, pivots):
            e[p] = -row[f]
        _, (e,) = _integer_points((e,))
        cone += [e, vneg(e)]
    rows = []
    if pivots:
        pts = sorted({tuple(v[j] for j in pivots) for v in V} | {(0,) * len(pivots)})
        if math.comb(len(pts), len(pivots)) > MAX_FACET_SUBSETS:
            raise ValueError("gauge body is too large for exact facet enumeration "
                             "(%d vertices in R^%d)" % (len(V), n))
        for c, d in _hull_facets(pts):
            lifted = [0] * n
            for j, cj in zip(pivots, c):
                lifted[j] = cj
            if d > 0:
                rows.append((tuple(lifted), d))
            else:
                cone.append(tuple(lifted))
    return FacetForm(scale, tuple(rows), tuple(cone))


def gauge_eval(x: Vector, body: VPolytope) -> Scalar:
    """Minkowski functional of conv(vertices + {0}): the least sum(mu),
    mu >= 0, with x = sum mu_j w_j.

    Evaluated as max_i c_i.(L x)/d_i over the cached exact facet list
    (see gauge_facets), exact for rational input.  Float input is
    converted exactly and only the result is rounded.  Raises ValueError
    when x lies outside the cone spanned by the vertices.
    """
    if len(x) != body.dim:
        raise ValueError("point has dimension %d but the gauge body has %d"
                         % (len(x), body.dim))
    form = gauge_facets(body.vertices)
    D, (X,) = _integer_points((x,))
    if any(vdot(c, X) > 0 for c in form.cone):
        raise ValueError("point is outside the span of the gauge body")
    return _facet_max(form, [vdot(c, X) for c, _ in form.rows], D,
                      all_rational(x) and body.rational)


def _widths(X, functionals) -> list:
    """max c.p - min c.p over the integer points X, per functional c."""
    out = []
    for c in functionals:
        vals = [sum(map(operator.mul, c, p)) for p in X]
        out.append(max(vals) - min(vals))
    return out


def _gauge_diameter(points, rational: bool, body: VPolytope) -> Scalar:
    """Width identity: diam = max_i (max_p c_i.p - min_p c_i.p)/d_i over
    the facet list of an origin-symmetric body; no pairwise loop."""
    if any(len(p) != body.dim for p in points):
        raise ValueError("points and gauge body differ in dimension")
    form = gauge_facets(body.vertices)
    D, X = _integer_points(points)
    return _facet_max(form, _widths(X, [c for c, _ in form.rows]), D,
                      rational and body.rational)


def _facet_max(form: FacetForm, nums, D: int, exact: bool) -> Scalar:
    """max_i nums_i/d_i back in the caller's units (times scale/D), as a
    Fraction when ``exact`` (points and body rational), rounded
    otherwise."""
    num, den = 0, 1
    for v, (_, d) in zip(nums, form.rows):
        if v * den > num * d:
            num, den = v, d
    value = Fraction(num * form.scale, den * D)
    return value if exact else to_float(value)


def norm_eval(x: Vector, norm: Norm) -> Scalar:
    if norm.kind == "p":
        return pnorm_eval(x, norm.p)
    return gauge_eval(x, norm.body)


# ---------------------------------------------------------------------------
# diameters


@functools.lru_cache(maxsize=16)
def _polyhedral_functionals(p: Scalar, n: int) -> tuple:
    """Rows c with ||x||_p = max_c |c.x| for p in {1, inf}: the sign
    vectors (1, +-1, ..., +-1) for l1 and the unit axes for l_inf."""
    if p == 1:
        return tuple((1,) + s for s in itertools.product((1, -1), repeat=n - 1))
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def diameter_finite(points: Sequence[Vector], norm: Norm) -> Scalar:
    """sup of pairwise distances of a finite set (0 for a single point).

    Rational points are scaled once to integer tuples over a common
    denominator D.  A polyhedral norm then needs no pairwise loop: the
    diameter is the largest width max c.p - min c.p over its functionals
    c (the gauge's facet rows, the l1 sign vectors, the l_inf axes),
    exact: a Fraction for a gauge, and for l1 and l_inf an int exactly
    when every coordinate is an int.  Other l_p norms walk the pairs on
    integer differences, each divided by D: int/int division rounds
    correctly, as Fraction.__float__ does, so the floats are those of
    the Fraction differences bit for bit.  Points with a float
    coordinate walk the pairs as given.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("diameter of an empty set is undefined")
    types = _coordinate_types(pts)
    rational = types <= _EXACT_TYPES
    if len(pts) == 1:
        return 0 if rational else 0.0
    if norm.kind == "gauge":
        return _gauge_diameter(pts, rational, norm.body)
    p = norm.p
    if not rational:
        return max(pnorm_eval(vsub(a, b), p) for a, b in itertools.combinations(pts, 2))
    D, X = _integer_points(pts)
    if p == 1 or p == INF:
        width = max(_widths(X, _polyhedral_functionals(p, len(X[0]))))
        if types <= {int}:
            return width
        return Fraction(width, D)
    return max(pnorm_eval([(u - v) / D for u, v in zip(a, b)], p)
               for a, b in itertools.combinations(X, 2))


def polytope_diameter(P: Union[VPolytope, Simplex], norm: Norm) -> Scalar:
    """Diameter of a polytope = diameter of its vertex set."""
    return diameter_finite(P.vertices, norm)


# ---------------------------------------------------------------------------
# barycentric coordinates and containment


def barycentric_coords(S: Simplex, x: Vector) -> tuple:
    """Affine coefficients lambda with sum 1 and sum lambda_i v_i = x.

    May have negative entries when x lies outside S; exact when the
    inputs are rational.
    """
    n = S.dim
    verts = S.vertices
    exact = all_rational(x) and all(all_rational(v) for v in verts)
    A = [[verts[j][i] for j in range(n + 1)] for i in range(n)]
    A.append([1] * (n + 1))
    b = list(x) + [1]
    if exact:
        sol = solve_linear_system(A, b)
        if sol is None:
            raise ValueError("degenerate simplex")
        return tuple(sol)
    import numpy as np

    arr = np.asarray([[to_float(v) for v in row] for row in A], dtype=float)
    rhs = np.asarray([to_float(v) for v in b], dtype=float)
    return tuple(float(v) for v in np.linalg.solve(arr, rhs))


def point_in_vpolytope(P: VPolytope, x: Vector) -> bool:
    """Is x a convex combination of P's vertices?  Exact; a float
    coordinate is read as the rational it denotes."""
    verts = P.vertices
    k = len(verts)
    n = P.dim
    if len(x) != n:
        raise ValueError("dimension mismatch")
    A = [[verts[j][i] for j in range(k)] for i in range(n)]
    A.append([1] * k)
    b = list(x) + [1]
    return feasible_point(A, b) is not None
