"""The integer kernels of the exact path against Fraction references.

Scheme hulls are built as integer rows over one denominator, a
certificate's diameter ratio compares integer widths, the oracle orders
its pairs by integer keys and affine_rank eliminates without fractions.
Each is checked here against the Fraction arithmetic it replaced, in
value and, where a report prints it, in type.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diampart.coverings import partition_diameter_ratio
from diampart.geometry import (
    Homothet,
    Norm,
    Simplex,
    VPolytope,
    _distance_keys,
    _integer_points,
    _key_exponent,
    affine_rank,
    apply_homothet,
    cross_polytope,
    cube,
    diameter_finite,
    matrix_rank_exact,
    norm_eval,
    pnorm_eval,
    polytope_diameter,
    vsub,
)
from diampart.numbers import INF, same_mode
from diampart.oracle import beta_finite_exact
from diampart.partitions import (
    PartitionPiece,
    _bary_box_vertices,
    _bary_polytope,
    cube_partition,
    residual_enclosure,
    simplex_partition,
    triangle_partition4,
)

F = Fraction


def box_hull(S, bounds):
    """The vertices of the barycentric box {lo <= lambda <= hi} of S, as
    the scheme template realizes a box piece."""
    return _bary_polytope(S, *_bary_box_vertices(bounds))

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)
floats = st.floats(min_value=-6, max_value=6)
# ints and Fractions mixed, Fractions with denominator 1 among them
scalars = st.one_of(st.integers(-6, 6), fractions)


def vec(dim):
    return st.tuples(*([scalars] * dim))


def rank(points):
    return matrix_rank_exact([vsub(p, points[0]) for p in points[1:]]) if len(points) > 1 else 0


def simplices(dim):
    return st.lists(vec(dim), min_size=dim + 1, max_size=dim + 1).filter(
        lambda v: rank(v) == dim).map(lambda v: Simplex(tuple(v)))


def unchecked_gauge(vertices):
    """A gauge norm on a body that Norm.gauge would refuse (origin off
    centre), to reach the cone rows."""
    norm = Norm.__new__(Norm)
    for field, value in (("kind", "gauge"), ("p", None), ("body", VPolytope(vertices))):
        object.__setattr__(norm, field, value)  # Norm is frozen
    return norm


LOPSIDED = ((1, 2, 0), (-1, -2, 0), (0, 1, 3), (0, -1, -3), (F(1, 2), 0, 1), (F(-1, 2), 0, -1))
NORMS_3D = [Norm.lp(1), Norm.lp(INF), Norm.gauge(cube(3)), Norm.gauge(cross_polytope(3)),
            Norm.gauge(LOPSIDED), Norm.gauge(cube(3, half=F(2, 3)))]
# the origin on a facet (the gauge is finite on a half-space only), and
# the origin inside but off centre
OFF_CENTRE = [unchecked_gauge(tuple((1 + a, b, c) for a in (-1, 1) for b in (-1, 1)
                                    for c in (-1, 1))),
              unchecked_gauge(((3, 0, 0), (0, 2, 0), (0, 0, 1), (-1, -1, -1)))]


def fraction_image(h):
    """apply_homothet in plain Fraction arithmetic: ratio * v + t."""
    return tuple(tuple(h.ratio * x + t for x, t in zip(v, h.translation))
                 for v in h.base.vertices)


def fractionbox_hull(S, bounds):
    """_box_hull in plain Fraction arithmetic."""
    L, rows = _bary_box_vertices(bounds)
    return tuple(tuple(sum((F(l, L) * v[i] for l, v in zip(lam, S.vertices)), F(0))
                       for i in range(S.dim)) for lam in rows)


def assert_seeded(P):
    assert P.integer_vertices == _integer_points(P.vertices)
    assert P.rational


class TestIntegerHulls:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(vec(n), min_size=n + 1, max_size=6), vec(n))),
        st.one_of(fractions.filter(bool), st.sampled_from([-2, 1, 3])), st.booleans())
    def test_homothet_image(self, case, ratio, as_simplex):
        verts, t = case
        base = VPolytope(tuple(verts))
        if as_simplex:
            verts = verts[:len(t) + 1]
            assume(rank(verts) == len(t))
            base = Simplex(tuple(verts))
        h = Homothet(ratio, t, base)
        got = apply_homothet(h)
        # repr compares the types too: an int ratio with int data gives ints
        assert repr(got.vertices) == repr(fraction_image(h))
        assert_seeded(got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(simplices),
           st.lists(st.tuples(st.fractions(0, 1, max_denominator=17),
                              st.fractions(0, 1, max_denominator=17)), min_size=4, max_size=4))
    def test_barycentric_region(self, S, pairs):
        bounds = tuple(tuple(sorted(b)) for b in pairs[:S.dim + 1])
        assume(_bary_box_vertices(bounds)[1])
        got = box_hull(S, bounds)
        assert repr(got.vertices) == repr(fractionbox_hull(S, bounds))
        assert_seeded(got)

    def test_scheme_hulls(self):
        S = Simplex(((0, 0, 0), (3, 1, 0), (-1, 4, 1), (F(1, 2), 1, 5)))
        for scheme in ("m5", "m8", "m9"):
            for piece in simplex_partition(S, scheme).pieces:
                hull = piece_hull(piece)
                assert_seeded(hull)
                assert all(type(c) is Fraction for v in hull.vertices for c in v)

    def test_float_data_map_point_by_point(self):
        S = Simplex(((0.0, 0.0), (1.0, 0.0), (0.5, 0.75)))
        h = Homothet(F(1, 2), (0.25, 0), S)
        assert apply_homothet(h).vertices == tuple(map(h.apply_point, S.vertices))
        # a box hull is read exactly: the rationals the floats denote
        hull = box_hull(S, ((0, F(1, 2)),) * 3)
        exact = Simplex(tuple(tuple(map(F, v)) for v in S.vertices))
        assert repr(hull.vertices) == repr(box_hull(exact, ((0, F(1, 2)),) * 3).vertices)
        assert_seeded(hull)


def piece_hull(piece):
    """The image of a homothet piece, which carries no hull, or the
    realized hull of any other piece."""
    if isinstance(piece.description, Homothet):
        assert piece.realized_hull is None
        return apply_homothet(piece.description)
    return piece.realized_hull


def reference_ratio(cert, norm):
    """The largest piece term, the first of equal terms: |ratio| for a
    homothet, which scales every norm's diameters by it, and for a box
    piece its walked hull's diameter over the parent's."""
    terms = []
    for p in cert.pieces:
        if isinstance(p.description, Homothet):
            terms.append(abs(p.description.ratio))
        else:
            diam, parent = same_mode(polytope_diameter(p.realized_hull, norm),
                                     polytope_diameter(cert.parent, norm))
            terms.append(diam / parent)
    return max(terms)


# l1, l2, l3, l_inf and a gauge, in each dimension
RATIO_NORMS = {d: [Norm.lp(1), Norm.lp(2), Norm.lp(3), Norm.lp(INF), gauge]
               for d, gauge in ((2, Norm.gauge(((2, 1), (-2, -1), (0, F(1, 3)), (0, F(-1, 3))))),
                                (3, Norm.gauge(LOPSIDED)))}


class TestCertificateRatio:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(simplices), st.integers(0, 4))
    def test_matches_the_piece_walk(self, S, k):
        # the scaling law for homothets and every box hull walked: the
        # floats of l2 and l3 too are repr-equal
        norm = RATIO_NORMS[S.dim][k]
        for scheme in SCHEMES[S.dim]:
            cert = scheme_partition(S, scheme)
            assert repr(partition_diameter_ratio(cert, norm)) == repr(reference_ratio(cert, norm))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(simplices), st.booleans())
    @example(Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 5))), False)
    # the m5 clip box ties with the homothets under l_inf
    @example(Simplex(((0, 0, 0), (0, 1, 0), (F(13, 2), 0, 1), (F(13, 2), 0, 0))), True)
    def test_every_ratio_is_the_certified_fraction(self, S, as_floats):
        # a homothet attains every scheme's ratio, so it comes out as the
        # certified Fraction under every norm, for float data too
        if as_floats:
            S = Simplex(tuple(tuple(map(float, v)) for v in S.vertices))
        for norm in RATIO_NORMS[S.dim] + [Norm.lp(F(5, 2))]:
            for scheme in SCHEMES[S.dim]:
                cert = scheme_partition(S, scheme)
                ratio = partition_diameter_ratio(cert, norm)
                assert type(ratio) is Fraction and ratio == cert.ratio, (scheme, norm.label())

    @settings(max_examples=30, deadline=None)
    @given(simplices(3), st.sampled_from(NORMS_3D))
    def test_tetrahedron_schemes(self, S, norm):
        for scheme in ("m5", "m8", "m9"):
            cert = simplex_partition(S, scheme)
            got = partition_diameter_ratio(cert, norm)
            assert type(got) is Fraction and got == reference_ratio(cert, norm) == cert.ratio

    @settings(max_examples=30, deadline=None)
    @given(simplices(2), st.sampled_from([Norm.lp(1), Norm.lp(INF), Norm.gauge(cube(2)),
                                          Norm.gauge(((2, 1), (-2, -1), (0, F(1, 3)),
                                                      (0, F(-1, 3))))]))
    def test_triangle(self, T, norm):
        cert = triangle_partition4(T)
        got = partition_diameter_ratio(cert, norm)
        assert type(got) is Fraction and got == reference_ratio(cert, norm) == F(1, 2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cube(self, n):
        cert = cube_partition(n)
        for norm in (Norm.lp(1), Norm.lp(INF), Norm.gauge(cube(n)), Norm.gauge(cross_polytope(n))):
            got = partition_diameter_ratio(cert, norm)
            assert type(got) is Fraction and got == reference_ratio(cert, norm) == F(1, 2)


def norm_eval_table(pts, norm):
    """The per-pair table beta_finite_exact built before its integer keys."""
    return {(i, j): norm_eval(vsub(pts[i], pts[j]), norm)
            for i, j in itertools.combinations(range(len(pts)), 2)}


class TestWidthRows:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(vec(3), min_size=1, max_size=6), st.sampled_from(NORMS_3D + OFF_CENTRE[1:]))
    def test_diameter_is_the_ordered_pairwise_max(self, pts, norm):
        """One row of each +-pair, and every row without its negative (the
        off-centre body has such rows)."""
        want = max(norm_eval(vsub(p, q), norm) for p in pts for q in pts)
        assert diameter_finite(pts, norm) == want


class TestDistanceKeys:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(vec(3), min_size=2, max_size=7), st.sampled_from(NORMS_3D + OFF_CENTRE))
    @example([(-1, 0, 0), (0, 0, 0)], OFF_CENTRE[0])  # leaves the half-space
    def test_keys_are_proportional_to_the_distances(self, pts, norm):
        try:
            dist = norm_eval_table(pts, norm)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _distance_keys(pts, norm)
            return
        keys = _distance_keys(pts, norm)
        assert list(keys) == list(dist)
        assert all(type(k) is int for k in keys.values())
        top = max(dist, key=dist.get)
        assert (keys[top] == 0) == (dist[top] == 0)
        assert all(keys[k] * dist[top] == dist[k] * keys[top] for k in dist)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(scalars, floats)] * 3), min_size=2, max_size=7),
           st.sampled_from(NORMS_3D + [Norm.lp(2), Norm.lp(3), Norm.lp(4.0)]))
    @example([(0, 0, 0), (1 + 1e-10, 0, 0), (2 + 1e-10, 0, 0)], Norm.lp(2))
    @example([(1e308, 0, 0), (-1e308, 0, 0), (0, 1, 0)], Norm.lp(1))
    def test_float_points_and_integer_p_keep_the_exact_order(self, pts, norm):
        """A float is the rational it denotes; an integer p keys a pair by
        the p-th power sum of its integer-scaled difference.  Either way the
        keys are proportional to the e-th powers of the exact distances."""
        exact = [tuple(map(F, p)) for p in pts]
        keys = _distance_keys(pts, norm)
        assert keys == _distance_keys(exact, norm)
        assert all(type(k) is int for k in keys.values())
        e = _key_exponent(norm)
        dist = {(i, j): norm_eval(d, norm) if e == 1 else sum(abs(c) ** e for c in d)
                for (i, j) in keys for d in [vsub(exact[i], exact[j])]}
        top = max(dist, key=dist.get)
        assert (keys[top] == 0) == (dist[top] == 0)
        assert all(keys[k] * dist[top] == dist[k] * keys[top] for k in dist)

    def test_a_float_body_keys_as_its_rational_body(self):
        pts = [(0, 0, 0), (1, F(1, 3), 2), (-2, 0.1, 1), (3, 3, -1)]
        assert (_distance_keys(pts, Norm.gauge(cube(3, half=0.75)))
                == _distance_keys(pts, Norm.gauge(cube(3, half=F(3, 4)))))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(vec(3), min_size=2, max_size=7), st.sampled_from(NORMS_3D),
           st.integers(1, 8))
    @example([(F(3), 3, 0), (0, 0, 0), (F(1, 2), 0, 0), (3, F(3), 0)], Norm.lp(INF), 2)
    @example([(0, 0, 0), (0, 0, 0), (1, 0, 0)], Norm.lp(1), 2)  # threshold 0
    def test_reported_distances_keep_their_type(self, pts, norm, m):
        assume(len(set(pts)) > 1)
        res = beta_finite_exact(pts, m, norm)
        dist = norm_eval_table(pts, norm)
        # the old table's values as they were printed: the first pair's
        # value among equals (l1 and l_inf give ints on int coordinates)
        assert repr(res.diameter) == repr(max(dist.values()))
        candidates = [F(0)] + sorted(set(dist.values()))
        assert repr(res.threshold) == repr(next(c for c in candidates if c == res.threshold))
        assert res.value == F(res.threshold, res.diameter)


def reference_scheme(S, scheme):
    """The scheme's pieces built on S itself by composing homothets, with
    every hull in plain Fraction arithmetic: the construction that ran on
    each simplex before the barycentric template."""
    def hull(h):
        return VPolytope(fraction_image(h))

    def box(bounds):
        return VPolytope(fractionbox_hull(S, bounds))

    def vertex_piece(i, mu):
        h = Homothet(mu, tuple((1 - mu) * c for c in S.vertices[i]), S)
        bounds = [(F(0), F(1))] * (S.dim + 1)
        bounds[i] = (1 - mu, F(1))
        return PartitionPiece(h, mu, hull(h), tuple(bounds))

    if scheme == "triangle4":
        half = F(1, 2)
        mid = ((F(0), half),) * 3
        return [*(vertex_piece(i, half) for i in range(3)),
                PartitionPiece(residual_enclosure(S, half), half, box(mid), mid)]
    t = {"m5": F(2, 5), "m8": F(7, 16), "m9": F(8, 17)}[scheme]
    pieces = [vertex_piece(i, 1 - t) for i in range(4)]
    refl = residual_enclosure(S, t)
    gamma = -refl.ratio
    if scheme == "m5":
        clip = ((F(0), t),) * 4
        return pieces + [PartitionPiece(None, gamma, box(clip), clip)]
    refl_sx = Simplex(fraction_image(refl))
    t2 = F(1, 4) if scheme == "m8" else F(2, 5)
    cap = t - gamma * t2
    for i in range(4):
        comp = Homothet(1 - t2, tuple(t2 * c for c in refl_sx.vertices[i]), refl_sx).compose(refl)
        bounds = [(F(0), t)] * 4
        bounds[i] = (F(0), cap)
        pieces.append(PartitionPiece(comp, abs(comp.ratio), hull(comp), tuple(bounds)))
    if scheme == "m9":
        core = ((cap, t),) * 4
        enc = residual_enclosure(refl_sx, t2).compose(refl)
        pieces.append(PartitionPiece(None, abs(enc.ratio), box(core), core))
    return pieces


def scheme_partition(S, scheme):
    return triangle_partition4(S) if scheme == "triangle4" else simplex_partition(S, scheme)


SCHEMES = {2: ["triangle4"], 3: ["m5", "m8", "m9"]}


class TestSchemeTemplate:
    """Each scheme's barycentric template, mapped through a simplex, against
    the homothet construction run on that simplex."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(simplices))
    @example(Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))))
    @example(Simplex(((0, 0), (1, 0), (0, 1))))
    def test_pieces_match_the_homothet_construction(self, S):
        for scheme in SCHEMES[S.dim]:
            got = scheme_partition(S, scheme).pieces
            want = reference_scheme(S, scheme)
            # repr compares the types too: Fraction coordinates throughout
            assert (repr([(p.description, p.ratio_bound, p.bary_bounds) for p in got])
                    == repr([(p.description, p.ratio_bound, p.bary_bounds) for p in want]))
            assert repr([piece_hull(p) for p in got]) == repr([p.realized_hull for p in want])
            for piece in got:
                assert_seeded(piece_hull(piece))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.floats(-8, 8, allow_nan=False)] * n), min_size=n + 1, max_size=n + 1)))
    def test_float_simplex_is_rounded_once(self, verts):
        exact = [tuple(F(c) for c in v) for v in verts]
        assume(rank(exact) == len(verts) - 1)
        S, R = Simplex(tuple(verts)), Simplex(tuple(exact))
        for scheme in SCHEMES[S.dim]:
            for got, want in zip(scheme_partition(S, scheme).pieces, reference_scheme(R, scheme)):
                if want.description is None:  # a box hull is exact, not rounded
                    assert repr(got.realized_hull.vertices) == repr(want.realized_hull.vertices)
                else:
                    assert got.realized_hull is None
                    assert got.description.base == S
                    assert got.description.translation == tuple(
                        map(float, want.description.translation))
                assert (got.ratio_bound, got.bary_bounds) == (want.ratio_bound, want.bary_bounds)


def pair_walk(points, p):
    """diameter_finite under l_p before the integer keys: the largest float
    over every pair of the integer-scaled points."""
    D, X = _integer_points(points)
    return max(pnorm_eval([(u - v) / D for u, v in zip(a, b)], p)
               for a, b in itertools.combinations(X, 2))


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 4)


class TestLpDiameterKeys:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.one_of(st.integers(-50, 50), wide_fractions)] * n),
        min_size=1, max_size=10)), st.sampled_from([2, 3, 4, F(3), 2.0]))
    # two diametral pairs with one key: differences (3, 4, 0) and (5, 0, 0)
    @example([(0, 0, 0), (3, 4, 0), (5, 0, 0)], 2)
    @example([(0, 0, 0), (3, 4, 0), (5, 0, 0)], 4)
    # one key, two floats: the formula rounds (266, 989, 524) one ulp below
    # (266, 524, 989), so the largest float among the tied pairs is taken
    @example([(0, 0, 0), (266, 989, 524), (266, 524, 989)], 2)
    def test_keys_match_the_pair_walk(self, points, p):
        got = diameter_finite(points, Norm.lp(p))
        want = pair_walk(points * 2 if len(points) == 1 else points, p)
        assert type(got) is float and got.hex() == want.hex()

    @pytest.mark.parametrize("p", [F(5, 2), 65, 1e18])
    def test_other_p_walk_every_pair(self, p):
        # a non-integer p, and integers too large for exact keys
        points = [(0, 0, 0), (3, 4, 0), (5, 0, 0), (F(1, 3), -2, 7)]
        assert diameter_finite(points, Norm.lp(p)).hex() == pair_walk(points, p).hex()


class TestAffineRank:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        vec(n), st.lists(vec(n), max_size=n),
        st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=1, max_size=7))),
        st.integers(0, 3))
    def test_matches_rank_of_difference_rows(self, case, repeats):
        """Points origin + sum c_k d_k over fewer directions than the
        dimension lie on a line or a plane; repeats add copies."""
        origin, dirs, coeffs = case
        pts = [tuple(o + sum((c * d[i] for c, d in zip(cs, dirs)), 0) for i, o in enumerate(origin))
               for cs in coeffs]
        pts += pts[:repeats]
        assert affine_rank(pts) == rank(pts)
