"""Vectors, norms, polytopes, diameters, and related substrate.

Points are plain tuples of scalars (ints, Fractions, or floats).  Most
operations run in one of two arithmetic modes, chosen by the one rule of
numbers.same_mode: exact rational arithmetic when every input is
rational, floating point otherwise.  A distance is exact when, besides,
the norm is one whose distances between rational points are rational
(Norm.exact: l1, l_inf, or the gauge of a rational body).  Exact-mode
results never round.

Linear algebra, hulls and polytope tests read a float as the rational it
denotes and round only the result, so float data takes the exact path
too: this module holds no tolerance and imports no numpy.  Exact
elimination is done one way, on integer rows and without fractions:
_echelon gives the affine rank (affine_rank; a linear rank is the affine
rank of the rows with the origin added).
Polytopes are enumerated one way too, by the integer double-description
kernel _extreme_rays: the facets of a gauge body (gauge_facets) and the
vertices of a barycentric box (partitions._bary_box_vertices) are both
extreme rays of a cone given by integer rows.  Rational hulls are
integer rows over one denominator (_rows_polytope), a width takes one
facet row of each +-pair (_width), and _distance_keys is the one table of
finite-set distance keys, shared by the oracle and the l_p branch of
diameter_finite: integers for a polyhedral norm and for l_p with an
integer p, floats of the exact differences for any other p.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .numbers import (
    INF,
    Scalar,
    all_rational,
    as_fraction,
    float_or_inf,
    is_rational,
    record,
    same_mode,
)

Vector = Tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# vector helpers


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vscale(alpha: Scalar, x: Vector) -> Vector:
    return tuple(alpha * a for a in x)


def vdot(x: Vector, y: Vector) -> Scalar:
    return sum(map(operator.mul, x, y))


def vneg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull of the given points."""
    return len(_echelon([(*p, 1) for p in _integer_points(points)[1]])) - 1 if points else 0


# ---------------------------------------------------------------------------
# bodies


@record
class VPolytope:
    """Convex hull of an explicit (not necessarily minimal) vertex list."""

    vertices: tuple

    def __post_init__(self):
        verts = self.vertices  # kept as given when already a tuple of tuples
        if type(verts) is not tuple or any(type(v) is not tuple for v in verts):
            verts = tuple(tuple(v) for v in verts)
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

    # (D, P) of _integer_points(vertices), computed once per polytope
    integer_vertices = functools.cached_property(lambda self: _integer_points(self.vertices))


@record
class Simplex:
    """n+1 affinely independent vertices in R^n."""

    vertices: tuple

    def __post_init__(self):
        verts = VPolytope(self.vertices).vertices  # tuples of one dimension
        object.__setattr__(self, "vertices", verts)
        n = len(verts[0])
        if len(verts) != n + 1:
            raise ValueError("a simplex in R^%d needs %d vertices" % (n, n + 1))
        if affine_rank(verts) != n:
            raise ValueError("degenerate simplex: vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    integer_vertices = VPolytope.integer_vertices
    rational = VPolytope.rational


@record
class Homothet:
    """The map x -> ratio*x + translation applied to a base body."""

    ratio: Scalar
    translation: tuple
    base: object  # VPolytope or Simplex

    def __post_init__(self):
        if self.ratio == 0:
            raise ValueError("homothety ratio must be nonzero")
        object.__setattr__(self, "translation", tuple(self.translation))


def _rows_polytope(L: int, rows) -> VPolytope:
    """The polytope of the points row/L, integer_vertices seeded."""
    g = math.gcd(L, *itertools.chain.from_iterable(rows))
    P = VPolytope(tuple(tuple(Fraction(c, L) for c in r) for r in rows))
    P.__dict__.update(rational=True,
                      integer_vertices=(L // g, tuple(tuple(c // g for c in r) for r in rows)))
    return P


@record
class PBall:
    """The ball {x : ||x||_p <= radius} in R^dim."""

    p: Scalar
    dim: int
    radius: Scalar = 1

    def __post_init__(self):
        if not (self.p == INF or self.p >= 1):
            raise ValueError("p must lie in [1, inf]")
        if not _positive_finite(self.radius):
            raise ValueError("radius must be positive and finite")


def _positive_finite(x) -> bool:
    """x > 0 and x finite: NaN fails the comparison, and a rational is
    always finite."""
    return x > 0 and (is_rational(x) or math.isfinite(x))


def cube(n: int, half: Scalar = 1) -> VPolytope:
    """The cube [-half, half]^n as a 2^n-vertex polytope."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not _positive_finite(half):
        raise ValueError("half must be positive and finite")
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
    try:
        xs = [abs(float(v)) for v in x]
    except OverflowError:  # the norm is at least that coordinate
        return INF
    m = max(xs) if xs else 0.0
    if m == 0.0:
        return 0.0
    pf = float(p)
    return m * sum((v / m) ** pf for v in xs) ** (1.0 / pf)


def dual_exponent(p: Scalar) -> Scalar:
    """q with 1/p + 1/q = 1, under the conventions 1 <-> inf."""
    if p == INF:
        return 1
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return INF
    (p,) = same_mode(p)
    return p / (p - 1)


@record(slots=True)
class Norm:
    """A norm on R^n: either an l_p norm or the gauge of a polytope.

    A frozen value, equal by p (2, 2.0 and Fraction(2) alike) or by the
    body's vertex tuple; the other kind's field is None.  Gauge bodies
    must be origin-symmetric (vertex set closed under negation) and
    full-dimensional, so that the Minkowski functional is a genuine norm.
    Gauges are evaluated through the body's cached exact facet list
    (gauge_facets).
    """

    kind: str
    p: Optional[Scalar] = None
    body: Optional[VPolytope] = None

    def __post_init__(self):
        if self.kind == "p":
            if self.p is None or not (self.p == INF or self.p >= 1):  # NaN fails both
                raise ValueError("p-norm needs p in [1, inf]")
            object.__setattr__(self, "body", None)
        elif self.kind == "gauge":
            if self.body is None:
                raise ValueError("gauge norm needs a body")
            _validate_gauge_body(self.body)
            object.__setattr__(self, "p", None)
        else:
            raise ValueError("unknown norm kind %r" % (self.kind,))

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

    @property
    def exact(self) -> bool:
        """Are distances between rational points rational?  True for l1,
        l_inf and the gauge of a rational body."""
        return self.body.rational if self.kind == "gauge" else self.is_polyhedral

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


def _validate_gauge_body(body: VPolytope):
    verts = body.vertices
    if affine_rank(verts) != body.dim:
        raise ValueError("gauge body must be full-dimensional")
    vert_set = set(verts)  # equal numbers hash equal across int, Fraction and float
    if not all(vneg(v) in vert_set for v in verts):
        raise ValueError("gauge body must be symmetric about the origin")


@record
class FacetForm:
    """Exact H-form of a polyhedral norm's unit ball, all rows over one
    denominator (see norm_facets).

    With y = scale * x, the ball is the set of y with w.y <= den for
    every w in ``rows`` and c.y <= 0 for every c in ``cone``; all entries
    are integers, so the norm of x is max_w w.(scale * x)/den on the
    cone.  A gauge body's ``cone`` holds the facets through the origin
    and both signs of a basis of the orthogonal complement of span(W); it
    is empty exactly when the origin is an interior point of the body.
    """

    scale: int
    den: int
    rows: tuple  # (w, ...)
    cone: tuple  # (c, ...)

    def functionals(self) -> tuple:
        """Rational rows f_i with norm(x) = max_i f_i.x (origin interior)."""
        if self.cone:
            raise ValueError("the origin is not an interior point of the gauge body")
        return tuple(tuple(Fraction(self.scale * wi, self.den) for wi in w)
                     for w in self.rows)

    @functools.cached_property
    def width_rows(self) -> tuple:
        """One row of each +-pair, since the width along w is that along -w."""
        return tuple(w for w in self.rows if w > vneg(w) or vneg(w) not in self.rows)


def _width(rows, X) -> int:
    """max over the rows w of max w.x - min w.x over the integer points X."""
    return max(max(v) - min(v) for v in ([sum(map(operator.mul, w, x)) for x in X] for w in rows))


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


def _echelon(rows) -> list:
    """(i, j, v) for each integer row i that raises the rank of the rows
    before it, by fraction-free elimination: v is row i reduced against
    the earlier v's, so zero on their j's, and j is its first nonzero
    index.  The j's are distinct and are the pivot columns of the row space."""
    basis = []
    for i, v in enumerate(rows):
        for _, j, b in basis:
            v = [x * b[j] - v[j] * y for x, y in zip(v, b)] if v[j] else v
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            basis.append((i, j, v))
    return basis


def _primitive(v) -> tuple:
    """The nonzero integer vector v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _extreme_rays(rows, dim: int) -> tuple:
    """(lin, rays) of the cone {y in Z^dim : a.y >= 0 for every integer row a}.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996),
    started from the whole space: lin is a basis of the lineality space,
    each vector grown from a unit vector e_f, and rays maps each extreme
    ray modulo lin (primitive, and zero on the coordinates f of those
    e_f) to the bitmask of the row indices tight on it.  A row nonzero
    on lin takes the first lin vector l it is nonzero on, oriented to its
    side: the other lin vectors and every ray are projected along l into
    the row's hyperplane and l becomes a ray, so lin stays the elimination
    complement of the rows.  Any other row keeps the rays on its side and
    adds a ray for each adjacent pair across it (u violates it, v
    satisfies it strictly): their shared tight rows number at least the
    pointed dimension minus 2, and no third ray is tight on all of them.
    Distinct extreme rays have distinct tight sets, so a third ray is
    told apart by its bitmask alone.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = {}
    for k, a in enumerate(rows):
        bit = 1 << k
        dots = [vdot(a, m) for m in lin]
        i = next((i for i, x in enumerate(dots) if x), None)
        if i is not None:
            s, l = dots[i], lin[i]
            if s < 0:
                s, l = -s, vneg(l)

            def project(r, x):
                return _primitive([s * ri - x * li for ri, li in zip(r, l)])
            lin = [project(m, x) for j, (m, x) in enumerate(zip(lin, dots)) if j != i]
            rays = {project(r, vdot(a, r)): z | bit for r, z in rays.items()}
            rays[l] = bit - 1
            continue
        signed = [(r, z, vdot(a, r)) for r, z in rays.items()]
        kept = {r: z | bit if x == 0 else z for r, z, x in signed if x >= 0}
        need = dim - len(lin) - 2
        for u, zu, xu in signed:
            if xu >= 0:
                continue
            for v, zv, xv in signed:
                z = zu & zv
                if xv <= 0 or z.bit_count() < need or any(
                        z & zw == z and zw != zu and zw != zv for zw in rays.values()):
                    continue
                kept[_primitive([xv * ui - xu * vi for ui, vi in zip(u, v)])] = z | bit
        rays = kept
    return lin, rays


@functools.lru_cache(maxsize=64)
def gauge_facets(vertices: tuple) -> FacetForm:
    """The cached exact facet form of conv(vertices + {0}): ``scale`` is
    the lcm of the vertex denominators, ``den`` the lcm of the facet
    offsets d of the scaled body, and each facet c.y <= d becomes the row
    (den/d)*c.

    Integer arithmetic throughout; no float hull and no tolerance.  The
    facets are the extreme rays (c, d) of the cone d >= 0, v.c <= d for
    every scaled vertex v (_extreme_rays): those with d > 0 and c != 0
    are the facets, those with d = 0 the facets through the origin, and
    both signs of each lineality vector span the complement of
    span(vertices); the last two make ``cone``.  ``rows`` and ``cone``
    are sorted, which makes the form canonical.
    """
    scale, V = _integer_points(vertices)
    n = len(V[0])
    lin, rays = _extreme_rays([(0,) * n + (1,), *((*vneg(v), 1) for v in sorted(V))], n + 1)
    facets = [(r[:-1], r[-1]) for r in rays if r[-1] > 0 and any(r[:-1])]
    cone = [r[:-1] for r in rays if r[-1] == 0]
    cone += [c for m in lin for c in (m[:-1], vneg(m[:-1]))]
    den = math.lcm(*(d for _, d in facets))
    rows = tuple(sorted(tuple(den // d * ci for ci in c) for c, d in facets))
    return FacetForm(scale, den, rows, tuple(sorted(cone)))


def check_gauge_dimension(norm: Norm, n: int):
    """Refuse a gauge norm whose body is not n-dimensional."""
    if norm.kind == "gauge" and norm.body.dim != n:
        raise ValueError("points and gauge body differ in dimension")


@functools.lru_cache(maxsize=64)
def norm_facets(norm: Norm, n: int) -> FacetForm:
    """The facet form of a polyhedral norm on R^n: a gauge's cached
    gauge_facets, the 2^n sign vectors for l1, the 2n signed axes for
    l_inf."""
    check_gauge_dimension(norm, n)
    if norm.kind == "gauge":
        return gauge_facets(norm.body.vertices)
    if norm.p == 1:
        rows = itertools.product((1, -1), repeat=n)
    elif norm.p == INF:
        rows = (tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1))
    else:
        raise ValueError("%s is not a polyhedral norm" % norm.label())
    return FacetForm(1, 1, tuple(rows), ())


def gauge_eval(x: Vector, body: VPolytope) -> Scalar:
    """Minkowski functional of conv(vertices + {0}): the least sum(mu),
    mu >= 0, with x = sum mu_j w_j.

    Evaluated as max_w w.(scale * x)/den over the cached exact facet form
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
    value = Fraction(max(0, *(vdot(w, X) for w in form.rows)) * form.scale, form.den * D)
    return value if all_rational(x) and body.rational else float_or_inf(value)


def norm_eval(x: Vector, norm: Norm) -> Scalar:
    if norm.kind == "p":
        return pnorm_eval(x, norm.p)
    return gauge_eval(x, norm.body)


# ---------------------------------------------------------------------------
# diameters


# Largest integer p keyed by the integer sum |u - v|^p, which has p times
# the bits of a difference; a larger p (1e18 is an integer) keys by floats.
MAX_KEY_P = 64


def diameter_finite(points: Sequence[Vector], norm: Norm, scaled=None) -> Scalar:
    """sup of pairwise distances of a finite set (0 for a single point).

    The points are scaled once to integers over a common denominator D,
    floats read exactly (``scaled`` is _integer_points(points) when the
    caller has it).  A polyhedral norm needs no pairwise loop: the diameter
    is the largest width max w.p - min w.p over its facet rows w (see
    norm_facets, _width), a Fraction (an int for l1 and l_inf on int
    coordinates), rounded for a float body or float points.  Other l_p
    norms evaluate only the pairs of largest _distance_keys key, each
    difference divided by D (int/int division rounds as Fraction.__float__
    does), and return the largest of their floats.  A single point counts
    as two copies.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("diameter of an empty set is undefined")
    if len({len(p) for p in pts}) > 1:
        raise ValueError("points differ in dimension")
    if len(pts) == 1:
        return diameter_finite(pts * 2, norm)
    D, X = scaled = scaled or _integer_points(pts)
    if norm.is_polyhedral:
        form = norm_facets(norm, len(pts[0]))
        diam = Fraction(_width(form.width_rows, X) * form.scale, form.den * D)
        types = _coordinate_types(pts)
        if not (types <= _EXACT_TYPES and norm.exact):
            return float_or_inf(diam)
        return diam.numerator if norm.kind == "p" and types <= {int} else diam
    keys = _distance_keys(pts, norm, scaled)
    top = max(keys.values())
    return max(_pnorm_of_difference(X[i], X[j], D, norm.p)
               for (i, j), key in keys.items() if key == top)


def _pnorm_of_difference(a, b, D: int, p: Scalar) -> float:
    try:
        return pnorm_eval([(u - v) / D for u, v in zip(a, b)], p)
    except OverflowError:  # as in pnorm_eval
        return INF


def _key_exponent(norm: Norm) -> Optional[int]:
    """e with each _distance_keys key c * distance**e, one c > 0 for all (1
    if polyhedral, an integer p <= MAX_KEY_P), or None for float keys."""
    if norm.is_polyhedral:
        return 1
    return int(norm.p) if norm.p == int(norm.p) <= MAX_KEY_P else None


def _distance_keys(pts: list, norm: Norm, scaled=None) -> dict:
    """{(i, j): key}, i < j, keys ordered as the distances, floats read
    exactly (``scaled`` as in diameter_finite).  A polyhedral norm keys a
    pair by the integer max(0, row differences) of the points' facet-row
    values, computed once; l_p with an integer p <= MAX_KEY_P by the
    integer sum |u - v|^p of the scaled differences; any other p by the
    float distance of the exact difference, refused (OverflowError) when
    one is beyond the float range.  Points of mixed dimension raise
    ValueError."""
    dim, pairs = len(pts[0]), list(itertools.combinations(range(len(pts)), 2))
    if any(len(p) != dim for p in pts):
        raise ValueError("points differ in dimension")
    D, X = scaled or _integer_points(pts)
    e = _key_exponent(norm)
    if e is None:
        keys = {(i, j): _pnorm_of_difference(X[i], X[j], D, norm.p) for i, j in pairs}
        if INF in keys.values():  # inf keys would tie whatever the distances
            raise OverflowError("a distance under %s is beyond the float range" % norm.label())
        return keys
    if e > 1:
        return {(i, j): sum(abs(d) ** e for d in map(operator.sub, X[i], X[j])) for i, j in pairs}
    form = norm_facets(norm, dim)
    V = [[vdot(w, x) for w in form.rows] for x in X]
    return {(i, j): max(0, *map(operator.sub, V[i], V[j])) for i, j in pairs}


def polytope_diameter(P: Union[VPolytope, Simplex], norm: Norm) -> Scalar:
    """Diameter of a polytope = diameter of its vertex set."""
    return diameter_finite(P.vertices, norm, P.integer_vertices)
