"""The double-description kernel behind gauge_facets against a brute-force oracle."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from diampart.geometry import (
    FacetForm,
    Norm,
    _echelon,
    _extreme_rays,
    _integer_points,
    affine_rank,
    cross_polytope,
    cube,
    gauge_eval,
    gauge_facets,
    norm_facets,
    vdot,
    vneg,
)
from diampart.numbers import INF


def cofactor_det(M) -> int:
    """Integer determinant by cofactor expansion along the first row, a
    reference that shares no code with the package's elimination."""
    if not M:
        return 1
    return sum((-1) ** j * a * cofactor_det([r[:j] + r[j + 1:] for r in M[1:]])
               for j, a in enumerate(M[0]) if a)


def brute_hull_facets(points) -> set:
    """Facets (c, d), c.y <= d with gcd 1, of the hull of integer points
    whose affine hull is the whole space.

    Every facet contains n affinely independent points, so the
    hyperplanes through all n-subsets, kept when no point lies beyond
    them, are exactly the facets: C(V, n) hyperplanes, each tested
    against every point.
    """
    n = len(points[0])
    out = set()
    for sub in itertools.combinations(points, n):
        base = sub[0]
        M = [[a - b for a, b in zip(p, base)] for p in sub[1:]]
        c = [(-1) ** j * cofactor_det([r[:j] + r[j + 1:] for r in M]) for j in range(n)]
        if not any(c):
            continue  # affinely dependent subset
        d = vdot(c, base)
        g = math.gcd(*c, d)
        c, d = tuple(v // g for v in c), d // g
        values = [vdot(c, p) for p in points]
        if max(values) <= d:
            out.add((c, d))
        elif min(values) >= d:
            out.add((vneg(c), -d))
    return out


def brute_gauge_facets(vertices):
    """gauge_facets by brute force: the scaled vertices are projected onto
    the pivot columns of their span, brute_hull_facets gives the facets of
    the projection with the origin added, each is lifted with zeros off
    the pivots, and Cramer's rule gives a primitive basis of the
    complement of the span, both signs of each vector in the cone."""
    scale, V = _integer_points(vertices)
    n = len(V[0])
    basis = _echelon(V)
    pivots = sorted(j for _, j, _ in basis)
    B = [V[i] for i, _, _ in basis]
    det = cofactor_det([[r[p] for p in pivots] for r in B])
    cone = []
    for f in range(n):
        if f in pivots:
            continue
        # the primitive null vector of B on pivots + {f}
        e = [0] * n
        e[f] = det
        for p in pivots:
            e[p] = -cofactor_det([[r[f] if q == p else r[q] for q in pivots] for r in B])
        g = math.gcd(*e) if det > 0 else -math.gcd(*e)
        e = tuple(x // g for x in e)
        cone += [e, vneg(e)]
    facets = []
    if pivots:
        pts = sorted({tuple(v[j] for j in pivots) for v in V} | {(0,) * len(pivots)})
        for c, d in brute_hull_facets(pts):
            lifted = tuple(dict(zip(pivots, c)).get(j, 0) for j in range(n))
            if d > 0:
                facets.append((lifted, d))
            else:
                cone.append(lifted)
    den = math.lcm(*(d for _, d in facets))
    rows = tuple(sorted(tuple(den // d * ci for ci in c) for c, d in facets))
    return FacetForm(scale, den, rows, tuple(sorted(cone)))


def _points(n, lo, hi, max_size):
    return st.lists(st.tuples(*[st.integers(lo, hi)] * n), min_size=1, max_size=max_size)


@st.composite
def bodies(draw):
    """Vertex tuples in R^2..R^5: symmetric, off-centre (the origin on the
    boundary of conv(W + {0})), flat, and coplanar-heavy lattice bodies,
    some over a common denominator."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["symmetric", "off-centre", "flat", "lattice"]))
    if kind == "symmetric":
        half = draw(_points(n, -6, 6, 6))
        pts = half + [vneg(v) for v in half]
    elif kind == "off-centre":  # x_0 >= 0 on every vertex
        pts = draw(st.lists(st.tuples(st.integers(0, 6), *[st.integers(-6, 6)] * (n - 1)),
                            min_size=1, max_size=10))
    elif kind == "flat":  # integer combinations of fewer than n directions
        basis = draw(_points(n, -4, 4, n - 1))
        coeffs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(basis)),
                               min_size=1, max_size=8))
        pts = [tuple(sum(a * b[i] for a, b in zip(co, basis)) for i in range(n))
               for co in coeffs]
    else:  # many lattice points on each facet plane
        pts = draw(_points(n, -1, 2, 12))
    den = draw(st.sampled_from([1, 1, 2, 6]))
    return tuple(dict.fromkeys(tuple(Fraction(c, den) if den > 1 else c for c in p)
                               for p in pts))


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_and_cross_polytope_forms(n):
    def rows(vertices):
        return sorted(gauge_facets(vertices).rows)
    assert rows(cube(n).vertices) == sorted(norm_facets(Norm.lp(INF), n).rows)
    assert rows(cross_polytope(n).vertices) == sorted(norm_facets(Norm.lp(1), n).rows)


def test_cube8_facets_are_fast():
    # facets holding many vertices cost one ray each, not a triangulation
    t0 = time.perf_counter()
    form = gauge_facets.__wrapped__(cube(8).vertices)
    assert time.perf_counter() - t0 < 1.0
    assert len(form.rows) == 16 and not form.cone
    assert gauge_eval((1,) * 8, cube(8)) == 1


@settings(max_examples=300, deadline=None)
@given(bodies())
def test_gauge_facets_match_brute_force(vertices):
    new, old = gauge_facets.__wrapped__(vertices), brute_gauge_facets(vertices)
    assert (new.scale, new.den) == (old.scale, old.den)
    assert set(new.rows) == set(old.rows) and set(new.cone) == set(old.cone)
    assert new.rows == tuple(sorted(new.rows)) and new.cone == tuple(sorted(new.cone))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _points(n, -3, 3, 14)))
def test_hull_matches_brute_force_off_the_origin(points):
    # with no row d >= 0 the cone of (c, d), c.p <= d on every point, is
    # generated by the facets alone when the points span the space
    pts = sorted(set(points))
    n = len(pts[0])
    assume(affine_rank(pts) == n)
    lin, rays = _extreme_rays([(*vneg(p), 1) for p in pts], n + 1)
    assert not lin
    assert {(r[:-1], r[-1]) for r in rays} == brute_hull_facets(pts)


def test_thirty_pair_gauge_ceiling():
    rng = random.Random(30)
    half = [tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(30)]
    vertices = tuple(dict.fromkeys(half + [vneg(v) for v in half]))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        form = gauge_facets.__wrapped__(vertices)
        times.append(time.perf_counter() - t0)
    assert form.rows and not form.cone
    assert min(times) < 0.25, "30-pair gauge_facets took %.3f s" % min(times)


# Flat bodies and their facet forms, pinned to the values that the Fraction
# Gauss-Jordan complement of span(vertices) gives: a plane in R^3, a line in R^3 with
# fractional vertices, and an off-centre plane in R^4 whose origin lies on
# its boundary (two facets through the origin join the cone).
FLAT_FORMS = [
    (((1, 2, 0), (-1, -2, 0), (0, 1, 3), (0, -1, -3), (1, 3, 3), (-1, -3, -3)),
     2, (1, 1, ((-3, 1, 0), (-2, 1, 0), (-1, 0, 0), (1, 0, 0), (2, -1, 0), (3, -1, 0)),
         ((-6, 3, -1), (6, -3, 1)))),
    (((Fraction(1, 2), Fraction(-1, 3), 2), (Fraction(-1, 2), Fraction(1, 3), -2)),
     1, (6, 3, ((-1, 0, 0), (1, 0, 0)),
         ((-4, 0, 1), (-2, -3, 0), (2, 3, 0), (4, 0, -1)))),
    (((1, 0, 2, -1), (0, 3, 1, 1), (1, 3, 3, 0),
      (Fraction(1, 2), Fraction(3, 2), Fraction(3, 2), 0)),
     2, (2, 6, ((0, 1, 0, 0), (3, 0, 0, 0)),
         ((-6, -1, 3, 0), (-3, 1, 0, -3), (-1, 0, 0, 0), (0, -1, 0, 0), (3, -1, 0, 3),
          (6, 1, -3, 0)))),
]


@pytest.mark.parametrize("vertices, rank, want", FLAT_FORMS)
def test_flat_body_forms_are_pinned(vertices, rank, want):
    form = gauge_facets.__wrapped__(vertices)
    assert (form.scale, form.den, form.rows, form.cone) == want
    assert affine_rank([(0,) * len(vertices[0]), *vertices]) == rank
    complement = [c for c in form.cone if all(vdot(c, v) == 0 for v in vertices)]
    assert len(complement) == 2 * (len(vertices[0]) - rank)
    for c in complement:
        assert math.gcd(*c) == 1 and vneg(c) in complement
