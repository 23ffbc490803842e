import math
from fractions import Fraction

import pytest

from diampart.geometry import (
    Homothet,
    Norm,
    Simplex,
    VPolytope,
    apply_homothet,
    barycentric_coords,
    centroid,
    cross_polytope,
    cube,
    diameter_finite,
    dual_exponent,
    gauge_eval,
    gauge_facets,
    pnorm_eval,
    point_in_vpolytope,
    polytope_diameter,
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

    def test_large_p_stable(self):
        # naive powering overflows; the scaled evaluation must not
        v = pnorm_eval((3.0, 1.0, 3.0), 800.0)
        assert v == pytest.approx(3.0, rel=1e-3)


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

    def test_asymmetric_body_rejected(self):
        with pytest.raises(ValueError):
            Norm.gauge([(1, 0), (0, 1), (-1, -1)])

    def test_flat_body_rejected(self):
        with pytest.raises(ValueError):
            Norm.gauge([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])

    def test_dimension_mismatch_rejected(self):
        for x in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError):
                gauge_eval(x, cube(3))

    def test_cube_facet_form(self):
        form = gauge_facets(cube(3, half=F(1, 2)).vertices)
        assert form.scale == 2 and form.cone == ()
        assert sorted(form.rows) == sorted(
            (tuple(s if i == j else 0 for j in range(3)), 1)
            for i in range(3) for s in (1, -1))
        assert set(form.functionals()) == {
            tuple(2 * s if i == j else 0 for j in range(3))
            for i in range(3) for s in (1, -1)}

    def test_float_vertices_give_float_value(self):
        assert gauge_eval((1, -2, 0), cube(3, half=1.0)) == 2.0
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

    def test_oversized_body_refused(self):
        with pytest.raises(ValueError):
            gauge_eval((1,) * 8, cube(8))


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
        Q = P.scale(lam).translate((F(1, 9), 2))
        for norm in (Norm.lp(1), Norm.lp(INF)):
            assert polytope_diameter(Q, norm) == abs(lam) * polytope_diameter(P, norm)


class TestBarycentric:
    def setup_method(self):
        self.T = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_centroid(self):
        g = centroid(self.T.vertices)
        assert barycentric_coords(self.T, g) == (F(1, 4),) * 4

    def test_vertex(self):
        assert barycentric_coords(self.T, (1, 0, 0)) == (0, 1, 0, 0)

    def test_roundtrip_exact(self):
        lam = (F(1, 7), F(2, 7), F(3, 7), F(1, 7))
        x = tuple(sum(l * v[k] for l, v in zip(lam, self.T.vertices)) for k in range(3))
        assert barycentric_coords(self.T, x) == lam

    def test_outside_gives_signed(self):
        lam = barycentric_coords(self.T, (2, 0, 0))
        assert min(lam) < 0
        assert sum(lam) == 1

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError):
            Simplex(((0, 0), (1, 0), (2, 0)))


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
        assert polytope_diameter(img, Norm.lp(1)) == F(9, 16) * polytope_diameter(
            T.as_polytope(), Norm.lp(1)
        )

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
