import dataclasses
import math
import random
from fractions import Fraction

import pytest

from diampart.geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    affine_rank,
    apply_homothet,
    cross_polytope,
    cube,
    diameter_finite,
    dual_exponent,
    gauge_eval,
    gauge_facets,
    pnorm_eval,
    point_in_vpolytope,
    polytope_diameter,
    vneg,
    vsub,
)
from diampart.numbers import INF

F = Fraction


class TestPNorm:
    def test_euclidean(self):
        assert pnorm_eval((1, 1, 4), 2) == pytest.approx(math.sqrt(18), rel=1e-12)

    def test_l1_exact(self):
        assert pnorm_eval((-2, 8, -2), 1) == 12

    def test_linf_exact(self):
        assert pnorm_eval((4, 4, 4), INF) == 4

    def test_halving_identity(self):
        for p in (1, 1.3, 2, 3.7, INF):
            lhs = pnorm_eval((-2, 8, -2), p)
            rhs = 2 * pnorm_eval((1, 1, 4), p)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            pnorm_eval((1, 2), 0.5)

    @pytest.mark.parametrize("p", [0.5, 0, float("nan"), -INF])
    def test_norm_rejects_p_outside_one_to_inf(self, p):
        # NaN fails the p < 1 test too, so it is rejected on its own
        with pytest.raises(ValueError, match=r"p-norm needs p in \[1, inf\]"):
            Norm.lp(p)

    def test_large_p_stable(self):
        # naive powering overflows; the scaled evaluation must not
        v = pnorm_eval((3.0, 1.0, 3.0), 800.0)
        assert v == pytest.approx(3.0, rel=1e-3)

    @pytest.mark.parametrize("p", [2, 3, F(5, 2), 1.5])
    def test_beyond_the_float_range_is_inf(self, p):
        # the norm is at least the coordinate, whose float overflows
        big = F(2 * 10 ** 308)
        assert pnorm_eval((big, 1), p) == pnorm_eval((1, -big, 0), p) == INF
        # finite results keep their bits
        assert pnorm_eval((F(10 ** 308), -1), p) == 1e308
        assert pnorm_eval((3, 4), 2) == 5.0


class TestDualExponent:
    def test_basics(self):
        assert dual_exponent(2) == 2
        assert dual_exponent(1) == INF
        assert dual_exponent(INF) == 1
        assert dual_exponent(4) == F(4, 3)

    def test_involution(self):
        for p in (F(3, 2), F(5, 4), 3):
            assert dual_exponent(dual_exponent(p)) == p


class TestGauge:
    def test_vertex_has_gauge_one(self):
        body = cross_polytope(3)
        for v in body.vertices:
            assert gauge_eval(v, body) == 1

    def test_zero(self):
        assert gauge_eval((0, 0, 0), cube(3)) == 0

    def test_cube_gauge_is_linf(self):
        g = gauge_eval((1, -2, 0.5), cube(3))
        assert g == pytest.approx(2, abs=1e-9)
        g2 = gauge_eval((1, -2, F(1, 2)), cube(3))
        assert g2 == 2

    @pytest.mark.parametrize("half", [0, -1, F(-1, 2), -0.0, math.nan, math.inf])
    def test_cube_half_must_be_positive(self, half):
        # cube(2, 0) would be four copies of the origin, cube(2, -1) the
        # square with its vertices reordered, cube(2, inf) infinite vertices
        with pytest.raises(ValueError, match="half must be positive"):
            cube(2, half)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0, -1, -math.inf])
    def test_pball_radius_must_be_positive_and_finite(self, radius):
        # NaN fails every comparison, so `radius <= 0` alone let it through
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            PBall(2, 2, radius=radius)

    def test_pball_rational_radius_of_any_size(self):
        # a rational is finite whatever its float would be
        assert PBall(2, 2, radius=F(10 ** 400)).radius == 10 ** 400

    def test_asymmetric_body_rejected(self):
        with pytest.raises(ValueError):
            Norm.gauge([(1, 0), (0, 1), (-1, -1)])

    @pytest.mark.parametrize("body, x", [
        (cube(3, half=1e-12), (1e-12, 0, 0)),
        (VPolytope(((1e308,), (-1e308,))), (-1e308,)),
    ], ids=["tiny", "huge"])
    def test_float_body_of_any_scale_is_full_dimensional(self, body, x):
        # a float is the rational it denotes: no rank tolerance flattens
        # a tiny body, and no sum overflows on a huge one
        norm = Norm.gauge(body)
        assert norm(x) == 1.0 and gauge_eval(x, body) == 1.0

    def test_float_body_must_be_exactly_symmetric(self):
        # 0.1 + 0.2 is not 0.3, so the norm would tell (1, 0) from (-1, 0)
        body = VPolytope(((0.1 + 0.2, 0), (-0.3, 0), (0, 1.0), (0, -1.0)))
        assert gauge_eval((1, 0), body) != gauge_eval((-1, 0), body)
        with pytest.raises(ValueError, match="symmetric about the origin"):
            Norm.gauge(body)

    def test_float_body_symmetric_across_types(self):
        # Fraction(1, 2) and -0.5 are exact negatives, and -0.0 equals 0
        Norm.gauge([(F(1, 2), 0.0), (-0.5, -0.0), (0, 1), (0.0, -1.0)])

    def test_flat_body_rejected(self):
        with pytest.raises(ValueError):
            Norm.gauge([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])

    def test_dimension_mismatch_rejected(self):
        for x in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError):
                gauge_eval(x, cube(3))

    def test_cube_facet_form(self):
        form = gauge_facets(cube(3, half=F(1, 2)).vertices)
        assert form.scale == 2 and form.den == 1 and form.cone == ()
        assert sorted(form.rows) == sorted(
            tuple(s if i == j else 0 for j in range(3))
            for i in range(3) for s in (1, -1))
        assert set(form.functionals()) == {
            tuple(2 * s if i == j else 0 for j in range(3))
            for i in range(3) for s in (1, -1)}

    def test_float_vertices_give_float_value(self):
        assert gauge_eval((1, -2, 0), cube(3, half=1.0)) == 2.0

    def test_float_value_beyond_the_float_range_is_inf(self):
        body = VPolytope(((1e-300, 0), (-1e-300, 0), (0, 1.0), (0, -1.0)))
        assert gauge_eval((1e308, 0), body) == INF
        assert isinstance(gauge_eval((1, -2, 0), cube(3, half=1.0)), float)
        assert isinstance(gauge_eval((1, -2, 0), cube(3)), Fraction)

    def test_flat_body_gauge_on_its_span(self):
        # conv({(2,0), (-2,0)}) measures the x-axis and nothing else
        seg = VPolytope(((2, 0), (-2, 0)))
        assert gauge_eval((3, 0), seg) == F(3, 2)
        with pytest.raises(ValueError):
            gauge_eval((3, 1), seg)

    def test_origin_outside_body(self):
        # conv(W + {0}) for a triangle away from the origin: finite only on
        # the cone over the triangle
        tri = VPolytope(((1, 0), (2, 0), (1, 1)))
        assert gauge_eval((2, 0), tri) == 1
        assert gauge_eval((1, 1), tri) == 1
        assert gauge_eval((3, 1), tri) == 2
        with pytest.raises(ValueError):
            gauge_eval((-1, 0), tri)
        with pytest.raises(ValueError):
            gauge_eval((0, 1), tri)
        with pytest.raises(ValueError):
            gauge_eval((1, 2), tri)

    def test_large_body_evaluated(self):
        # 60 antipodal pairs in R^3: C(121, 3) hyperplanes, more than the
        # old brute-force facet search would examine
        rng = random.Random(60)
        half = [tuple(rng.randint(-20, 20) for _ in range(3)) for _ in range(60)]
        body = VPolytope(tuple(dict.fromkeys(half + [vneg(v) for v in half])))
        values = [gauge_eval(v, body) for v in body.vertices]
        assert max(values) == 1 and len(gauge_facets(body.vertices).rows) > 20


class TestNormValue:
    def test_frozen(self):
        # a hashed norm keys norm_facets' cache, so it must not change
        with pytest.raises(dataclasses.FrozenInstanceError):
            Norm.lp(2).p = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            Norm.gauge(cube(2)).body = cube(2, half=2)

    def test_lp_equal_across_scalar_types(self):
        norms = [Norm.lp(2), Norm.lp(2.0), Norm.lp(F(2))]
        assert all(n == norms[0] and hash(n) == hash(norms[0]) for n in norms)
        assert Norm.lp(2) != Norm.lp(3) and Norm.lp(INF) != Norm.gauge(cube(2))

    def test_gauges_equal_by_vertex_tuple(self):
        square = cube(2).vertices
        assert Norm.gauge(square) == Norm.gauge(list(square))
        assert hash(Norm.gauge(square)) == hash(Norm.gauge(list(square)))
        assert Norm.gauge(square) == Norm.gauge([tuple(map(float, v)) for v in square])
        # the same body with its vertices in another order
        assert Norm.gauge(square) != Norm.gauge(square[::-1])
        assert Norm.gauge(square) != Norm.gauge(cube(2, half=2))

    def test_field_of_the_other_kind_is_none(self):
        assert Norm("p", p=2, body=cube(2)).body is None
        assert Norm("gauge", p=2, body=cube(2)).p is None

    def test_slotted(self):
        # no per-instance __dict__, so a norm costs no more memory than
        # its three fields
        assert not hasattr(Norm.lp(2), "__dict__")
        assert not hasattr(Norm.gauge(cube(2)), "__dict__")

    def test_checks_kept(self):
        for kind, p, body in (("p", None, None), ("gauge", None, None), ("ball", 2, None)):
            with pytest.raises(ValueError):
                Norm(kind, p=p, body=body)


class TestDiameter:
    def test_cube_linf(self):
        assert diameter_finite(cube(3).vertices, Norm.lp(INF)) == 2

    def test_cross_section_square(self):
        pts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        d = diameter_finite(pts, Norm.lp(2))
        assert d == pytest.approx(2.0)

    def test_triangle_with_midpoints(self):
        a, b, c = (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)
        mids = [
            tuple((x + y) / 2 for x, y in zip(a, b)),
            tuple((x + y) / 2 for x, y in zip(b, c)),
            tuple((x + y) / 2 for x, y in zip(a, c)),
        ]
        n2 = Norm.lp(2)
        for i in range(3):
            for j in range(i + 1, 3):
                d = pnorm_eval(vsub(mids[i], mids[j]), 2)
                assert d == pytest.approx(0.5, rel=1e-12)
        assert diameter_finite([a, b, c] + mids, n2) == pytest.approx(1.0)

    def test_single_point(self):
        assert diameter_finite([(1, 2, 3)], Norm.lp(1)) == 0

    @pytest.mark.parametrize("point", [(1, 2), (F(1, 2), 3), (0.5, 1), (1, 0.5)])
    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(INF), Norm.lp(2), Norm.lp(3),
                                      Norm.gauge(cube(2)), Norm.gauge(cube(2, half=1.0))],
                             ids=["l1", "linf", "l2", "l3", "gauge", "float-gauge"])
    def test_single_point_types_as_two_copies(self, point, norm):
        one = diameter_finite([point], norm)
        two = diameter_finite([point, point], norm)
        assert one == two == 0 and type(one) is type(two)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diameter_finite([], Norm.lp(2))

    def test_cube_l1(self):
        assert polytope_diameter(cube(3), Norm.lp(1)) == 6

    def test_gauge_width_identity(self):
        # the l1 ball: diameter of the cube's vertices is 2 * 3
        d = diameter_finite(cube(3).vertices, Norm.gauge(cross_polytope(3)))
        assert d == 6 and isinstance(d, Fraction)

    def test_lp_differences_round_once(self):
        # (2^60 + 21)/21 is not a float: the kernel's int/int division
        # rounds it once, as float(Fraction) does; float(u - v)/D would
        # round twice and land one ulp lower
        far = F(2 ** 60 + 21, 21)
        pts = [(0, F(1, 3)), (far, F(1, 3))]
        for p in (2, 3):
            d = diameter_finite(pts, Norm.lp(p))
            assert d.hex() == float(far).hex() == "0x1.8618618618619p+55"

    def test_gauge_diameter_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            diameter_finite([(0, 0, 0), (1, 1)], Norm.gauge(cube(3)))

    def test_homothety_scaling_exact(self):
        P = VPolytope(((0, 0), (1, 0), (F(1, 3), F(3, 4))))
        lam = F(-5, 7)
        Q = VPolytope(tuple((lam * x + F(1, 9), lam * y + 2) for x, y in P.vertices))
        for norm in (Norm.lp(1), Norm.lp(INF)):
            assert polytope_diameter(Q, norm) == abs(lam) * polytope_diameter(P, norm)


class TestBarycentric:
    """A simplex, the frame of barycentric coordinates, is full-dimensional."""

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError):
            Simplex(((0, 0), (1, 0), (2, 0)))

    def test_mixed_dimensions_rejected(self):
        # refused as VPolytope refuses them, not built with dim 2 from
        # zip-truncated differences
        with pytest.raises(ValueError, match="vertices have mixed dimensions"):
            Simplex(((0, 0), (1, 0), (0, 1, 5)))


def test_matrix_rank():
    # a linear rank is the affine rank of the rows with the origin added
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(0, 0), (1, 2), (2, 4)]) == 1
    assert affine_rank([(0, 0), (0, 0)]) == 0
    assert affine_rank([]) == 0


class TestContainment:
    def test_vertices_and_centroid(self):
        P = cube(3)
        for v in P.vertices:
            assert point_in_vpolytope(P, v)
        assert point_in_vpolytope(P, (0, 0, 0))

    def test_just_outside(self):
        assert not point_in_vpolytope(cube(3), (1.0001, 0.0, 0.0))

    def test_exact_boundary(self):
        assert point_in_vpolytope(cube(3), (1, 1, F(1, 3)))

    def test_float_read_exactly_on_one_vertex(self):
        # the float 2/3 is a binary fraction just off the rational 2/3
        P = VPolytope(((F(2, 3),),))
        assert not point_in_vpolytope(P, (2 / 3,))
        assert point_in_vpolytope(P, (F(2, 3),))
        Q = VPolytope(((2 / 3,),))  # and a float vertex the same way
        assert not point_in_vpolytope(Q, (F(2, 3),))
        assert point_in_vpolytope(Q, (2 / 3,))

    def test_flat_triangle_in_space(self):
        P = VPolytope(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert point_in_vpolytope(P, (F(1, 3), F(1, 3), F(1, 3)))
        assert not point_in_vpolytope(P, (F(1, 3), F(1, 3), F(1, 4)))
        assert not point_in_vpolytope(P, (2, -1, 0))  # on the plane, off the triangle

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            point_in_vpolytope(cube(2), (0, 0, 0))


class TestHomothet:
    def test_identity(self):
        P = cube(2)
        H = Homothet(1, (0, 0), P)
        assert apply_homothet(H).vertices == P.vertices

    def test_vertex_piece(self):
        T = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        v1 = T.vertices[1]
        H = Homothet(F(9, 16), tuple(F(7, 16) * c for c in v1), T)
        img = apply_homothet(H)
        assert img.vertices[1] == v1  # fixed point of the homothety
        assert polytope_diameter(img, Norm.lp(1)) == F(9, 16) * polytope_diameter(T, Norm.lp(1))

    def test_negative_ratio_diameter(self):
        P = cube(2)
        H = Homothet(F(-3, 4), (5, 5), P)
        assert polytope_diameter(apply_homothet(H), Norm.lp(INF)) == F(3, 2)

    def test_compose(self):
        P = cube(2)
        H1 = Homothet(F(1, 2), (1, 0), P)
        H2 = Homothet(F(-3, 4), (0, 1), P)
        both = H2.compose(H1)
        direct = [H2.apply_point(H1.apply_point(v)) for v in P.vertices]
        assert apply_homothet(both).vertices == tuple(direct)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ValueError):
            Homothet(0, (0, 0), cube(2))
