import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diampart.geometry import (
    Homothet,
    Norm,
    Simplex,
    apply_homothet,
    centroid,
    diameter_finite,
    polytope_diameter,
)
from diampart.numbers import INF
from diampart.partitions import (
    BarycentricRegion,
    SectorRegion,
    UnitDisk,
    _bary_box_vertices,
    cube_partition,
    disk_partition4,
    piece_contains,
    residual_enclosure,
    simplex_partition,
    simplex_vertex_homothets,
    triangle_partition4,
)

F = Fraction

STD_TETRA = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
SKEW_TETRA = Simplex(((0, 0, 0), (3, 1, 0), (-1, 4, 1), (F(1, 2), 1, 5)))


def equilateral_triangle():
    return Simplex(((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))


class TestTrianglePartition:
    def test_piece_count_and_ratio(self):
        cert = triangle_partition4(Simplex(((0, 0), (1, 0), (0, 1))))
        assert cert.m == 4
        assert cert.ratio == F(1, 2)
        assert all(abs(p.ratio_bound) == F(1, 2) for p in cert.pieces)

    def test_equilateral_euclidean_diameters(self):
        cert = triangle_partition4(equilateral_triangle())
        for p in cert.pieces:
            hull = p.realized_hull
            assert diameter_finite(hull.vertices, Norm.lp(2)) == pytest.approx(0.5)

    def test_middle_piece_is_point_reflection(self):
        T = Simplex(((0, 0), (4, 0), (1, 3)))
        cert = triangle_partition4(T)
        mid = cert.pieces[3]
        assert isinstance(mid.description, Homothet)
        assert mid.description.ratio == F(-1, 2)
        reflected = apply_homothet(mid.description)
        assert set(reflected.vertices) == set(mid.realized_hull.vertices)

    def test_rejects_higher_dimension(self):
        with pytest.raises(ValueError):
            triangle_partition4(STD_TETRA)


class TestVertexHomothets:
    def test_four_pieces_at_three_quarters(self):
        pieces = simplex_vertex_homothets(STD_TETRA, F(3, 4))
        assert len(pieces) == 4
        for i, (piece, v) in enumerate(zip(pieces, STD_TETRA.vertices)):
            h = piece.description
            assert h.ratio == piece.ratio_bound == F(3, 4)
            assert piece.bary_bounds[i] == (F(1, 4), 1)
            assert piece.realized_hull == apply_homothet(h)
            assert apply_homothet(h).vertices != STD_TETRA.vertices
            # the marked vertex is a fixed point
            assert h.apply_point(v) == v

    def test_mu_one_is_identity(self):
        for piece in simplex_vertex_homothets(STD_TETRA, 1):
            assert apply_homothet(piece.description).vertices == STD_TETRA.vertices

    def test_rejects_below_threshold_with_centroid_witness(self):
        with pytest.raises(ValueError, match="centroid"):
            simplex_vertex_homothets(STD_TETRA, 0.74)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            simplex_vertex_homothets(STD_TETRA, F(9, 8))


class TestResidualEnclosure:
    @pytest.mark.parametrize(
        "t,ratio",
        [(F(7, 16), F(-3, 4)), (F(8, 17), F(-15, 17)), (F(2, 5), F(-3, 5))],
    )
    def test_ratio_formula(self, t, ratio):
        h = residual_enclosure(SKEW_TETRA, t)
        assert h.ratio == ratio
        g = centroid(SKEW_TETRA.vertices)
        assert h.translation == tuple(4 * t * c for c in g)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            residual_enclosure(STD_TETRA, F(1, 4))
        with pytest.raises(ValueError):
            residual_enclosure(STD_TETRA, F(3, 5))

    def test_residual_vertices_inside_enclosure(self):
        t = F(7, 16)
        h = residual_enclosure(STD_TETRA, t)
        img = apply_homothet(h)
        region = BarycentricRegion(STD_TETRA, ((F(0), t),) * 4)
        from diampart.geometry import point_in_vpolytope

        for v in region.realize().vertices:
            assert point_in_vpolytope(img, v)


class TestSimplexSchemes:
    @pytest.mark.parametrize(
        "scheme,m,ratio",
        [("m5", 5, F(3, 5)), ("m8", 8, F(9, 16)), ("m9", 9, F(9, 17))],
    )
    def test_counts_and_ratios(self, scheme, m, ratio):
        cert = simplex_partition(SKEW_TETRA, scheme)
        assert cert.m == m
        assert cert.ratio == ratio
        assert cert.norm is None  # the claim is norm-free

    def test_ratio_chain_decreases(self):
        r5 = simplex_partition(STD_TETRA, "m5").ratio
        r8 = simplex_partition(STD_TETRA, "m8").ratio
        r9 = simplex_partition(STD_TETRA, "m9").ratio
        assert float(r5) == 0.6 and float(r8) == 0.5625
        assert r5 > r8 > r9
        assert abs(float(r9) - 0.5294117647058824) < 1e-15

    def test_m8_reflected_pieces(self):
        cert = simplex_partition(STD_TETRA, "m8")
        tails = cert.pieces[4:]
        assert all(p.description.ratio == F(-9, 16) for p in tails)
        # each overhanging tail is clipped back to the residual box [0, 7/16]^4,
        # with its own coordinate capped at 1/4
        for i, p in enumerate(tails):
            want = [(F(0), F(7, 16))] * 4
            want[i] = (F(0), F(1, 4))
            assert p.bary_bounds == tuple(want)

    def test_m9_core_enclosure(self):
        cert = simplex_partition(STD_TETRA, "m9")
        core = cert.pieces[8]
        assert core.ratio_bound == F(9, 17)
        assert core.bary_bounds == ((F(2, 17), F(8, 17)),) * 4

    def test_pieces_inside_parent(self):
        # every realized piece vertex lies in the piece's barycentric box,
        # hence in the parent
        from diampart.geometry import barycentric_coords

        for scheme in ("m5", "m8", "m9"):
            cert = simplex_partition(SKEW_TETRA, scheme)
            for p in cert.pieces:
                if isinstance(p.description, Homothet) and p.description.ratio < 0:
                    continue  # a reflected tail overhangs; its box clips it
                for v in p.realized_hull.vertices:
                    lam = barycentric_coords(SKEW_TETRA, v)
                    assert all(lo <= c <= hi for c, (lo, hi) in zip(lam, p.bary_bounds))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            simplex_partition(STD_TETRA, "m7")

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            simplex_partition(Simplex(((0, 0), (1, 0), (0, 1))), "m8")


class TestCubePartition:
    def test_counts(self):
        for n in (1, 2, 3, 4):
            cert = cube_partition(n)
            assert cert.m == 2**n
            assert cert.ratio == F(1, 2)

    def test_segment(self):
        cert = cube_partition(1)
        hulls = sorted(p.realized_hull.vertices for p in cert.pieces)
        assert hulls == [((-1,), (0,)), ((0,), (1,))]

    def test_subcube_diameters(self):
        cert = cube_partition(3)
        norm = Norm.lp(INF)
        assert polytope_diameter(cert.parent, norm) == 2
        for p in cert.pieces:
            assert polytope_diameter(p.realized_hull, norm) == 1

    def test_range(self):
        with pytest.raises(ValueError):
            cube_partition(0)
        with pytest.raises(ValueError):
            cube_partition(9)


class TestDiskPartition:
    def test_four_sectors_ratio(self):
        cert = disk_partition4()
        assert cert.m == 4
        assert cert.ratio == pytest.approx(math.sqrt(2) / 2)
        assert isinstance(cert.parent, UnitDisk)

    def test_center_in_every_sector(self):
        cert = disk_partition4()
        for p in cert.pieces:
            assert piece_contains(p, (0.0, 0.0), cert.parent)

    def test_sampled_sector_diameter(self):
        sector = SectorRegion(0.0, math.pi / 2)
        pts = [(math.cos(t), math.sin(t)) for t in
               [math.pi / 2 * k / 40 for k in range(41)]]
        pts += [(0.5 * math.cos(t), 0.5 * math.sin(t)) for t in
                [math.pi / 2 * k / 13 for k in range(14)]]
        pts.append((0.0, 0.0))
        assert all(sector.contains(p) for p in pts)
        worst = max(
            math.dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]
        )
        assert worst <= math.sqrt(2) + 1e-9
        assert worst == pytest.approx(math.sqrt(2), abs=1e-12)


class TestPieceMembership:
    def test_triangle_pieces(self):
        T = Simplex(((0, 0), (1, 0), (0, 1)))
        cert = triangle_partition4(T)
        g = centroid(T.vertices)
        middle = cert.pieces[3]
        assert piece_contains(middle, g, T)
        for p in cert.pieces[:3]:
            assert not piece_contains(p, g, T)
        for i, p in enumerate(cert.pieces[:3]):
            assert piece_contains(p, T.vertices[i], T)

    def test_m8_clip_limits_pieces(self):
        cert = simplex_partition(STD_TETRA, "m8")
        # a point close to vertex 0 is in the vertex piece, not the tail ones
        x = (F(1, 20), F(1, 20), F(1, 20))  # lambda = (17/20, ...)
        assert piece_contains(cert.pieces[0], x, STD_TETRA)
        for p in cert.pieces[4:]:
            assert not piece_contains(p, x, STD_TETRA)

    def test_float_point_with_tolerance(self):
        cert = simplex_partition(STD_TETRA, "m5")
        g = (0.25, 0.25, 0.25)
        assert any(piece_contains(p, g, STD_TETRA, tol=1e-9) for p in cert.pieces)


def fraction_box_vertices(bounds):
    """The Fraction enumerator _bary_box_vertices replaced: one free
    coordinate against every lo/hi pattern of the rest."""
    k = len(bounds)
    if sum(lo for lo, _ in bounds) > 1 or sum(hi for _, hi in bounds) < 1:
        return ()
    out = set()
    for free in range(k):
        others = [i for i in range(k) if i != free]
        for mask in range(1 << (k - 1)):
            lam = [None] * k
            s = Fraction(0)
            for b, i in enumerate(others):
                val = bounds[i][1] if (mask >> b) & 1 else bounds[i][0]
                lam[i] = val
                s += val
            rest = 1 - s
            lo, hi = bounds[free]
            if lo <= rest <= hi:
                lam[free] = rest
                out.add(tuple(lam))
    return tuple(sorted(out))


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=17)


class TestBoxVertices:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.lists(
        st.tuples(unit_fractions, unit_fractions).map(lambda b: tuple(sorted(b))),
        min_size=k, max_size=k)))
    @example([(F(0), F(1, 5))] * 4)  # sum of his below 1: empty
    @example([(F(2, 5), F(1))] * 3)  # sum of los above 1: empty
    @example([(F(0), F(7, 16))] * 4)  # the m8 residual box
    @example([(F(0), F(1, 4))] * 4)  # one vertex, every coordinate at hi
    def test_integer_enumeration_matches_fractions(self, bounds):
        got = _bary_box_vertices(bounds)
        assert got == fraction_box_vertices(bounds)
        assert all(type(v) is Fraction for lam in got for v in lam)
