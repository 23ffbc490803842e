import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diampart import partitions
from diampart.geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    apply_homothet,
    centroid,
    diameter_finite,
    polytope_diameter,
)
from diampart.numbers import INF, VerificationError
from diampart.partitions import (
    SectorRegion,
    UnitDisk,
    _bary_box_vertices,
    cube_partition,
    disk_partition4,
    residual_enclosure,
    simplex_partition,
    simplex_vertex_homothets,
    triangle_partition4,
)
from test_integer_kernels import box_hull
from test_properties import fraction_barycentric

F = Fraction

STD_TETRA = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
SKEW_TETRA = Simplex(((0, 0, 0), (3, 1, 0), (-1, 4, 1), (F(1, 2), 1, 5)))


def widened_m8_tails(scheme_pieces):
    """scheme_pieces with each m8 tail's own cap widened from 1/4 to 13/50:
    the boxes still cover the simplex, at ratio 9/16, but leave the
    reflected homothets whose |ratio| is their diameter bound."""
    def pieces(S, scheme):
        out = scheme_pieces(S, scheme)
        if scheme == "m8":
            out[4:] = [dataclasses.replace(p, bary_bounds=tuple(
                (lo, F(13, 50) if hi == F(1, 4) else hi) for lo, hi in p.bary_bounds))
                for p in out[4:]]
        return out
    return pieces


def in_box(x, box):
    """Is x in the box of (lo, hi) per coordinate?"""
    return all(lo <= v <= hi for v, (lo, hi) in zip(x, box))


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
            assert p.realized_hull is None
            hull = apply_homothet(p.description)
            assert diameter_finite(hull.vertices, Norm.lp(2)) == pytest.approx(0.5)

    def test_middle_piece_is_point_reflection(self):
        T = Simplex(((0, 0), (4, 0), (1, 3)))
        cert = triangle_partition4(T)
        mid = cert.pieces[3]
        assert isinstance(mid.description, Homothet)
        assert mid.description.ratio == F(-1, 2)
        assert mid.realized_hull is None
        reflected = apply_homothet(mid.description)
        # the reflection is exactly the piece's barycentric box
        assert set(reflected.vertices) == set(box_hull(T, mid.bary_bounds).vertices)

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
            assert piece.realized_hull is None
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
        from diampart.geometry import point_in_vpolytope

        for v in box_hull(STD_TETRA, ((F(0), t),) * 4).vertices:
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

    def test_tail_box_outside_its_homothet_is_refused(self, monkeypatch):
        monkeypatch.setattr(partitions, "_scheme_pieces",
                            widened_m8_tails(partitions._scheme_pieces))
        partitions._scheme_template.cache_clear()
        try:
            with pytest.raises(VerificationError,
                               match="m8 pieces: a box leaves its homothet of ratio -9/16"):
                simplex_partition(STD_TETRA, "m8")
        finally:
            partitions._scheme_template.cache_clear()

    def test_m9_core_enclosure(self):
        cert = simplex_partition(STD_TETRA, "m9")
        core = cert.pieces[8]
        assert core.ratio_bound == F(9, 17)
        assert core.bary_bounds == ((F(2, 17), F(8, 17)),) * 4

    def test_pieces_inside_parent(self):
        # every realized piece vertex lies in the piece's barycentric box,
        # hence in the parent
        for scheme in ("m5", "m8", "m9"):
            cert = simplex_partition(SKEW_TETRA, scheme)
            for p in cert.pieces:
                if isinstance(p.description, Homothet) and p.description.ratio < 0:
                    continue  # a reflected tail overhangs; its box clips it
                if isinstance(p.description, Homothet):
                    assert p.realized_hull is None
                    hull = apply_homothet(p.description)
                else:
                    hull = p.realized_hull
                for v in hull.vertices:
                    assert in_box(fraction_barycentric(SKEW_TETRA.vertices, v), p.bary_bounds)

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
        assert all(p.realized_hull is None for p in cert.pieces)
        hulls = sorted(apply_homothet(p.description).vertices for p in cert.pieces)
        assert hulls == [((-1,), (0,)), ((0,), (1,))]

    def test_subcube_diameters(self):
        cert = cube_partition(3)
        norm = Norm.lp(INF)
        assert polytope_diameter(cert.parent, norm) == 2
        for p in cert.pieces:
            assert p.realized_hull is None
            assert polytope_diameter(apply_homothet(p.description), norm) == 1

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
        assert cert.parent == UnitDisk()

    def test_the_disk_is_the_euclidean_unit_ball(self):
        assert UnitDisk() == PBall(2, 2)

    def test_center_in_every_sector(self):
        cert = disk_partition4()
        for p in cert.pieces:
            assert p.description.contains((0.0, 0.0))

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
    # a point of a simplex is in a piece when its barycentric coordinates
    # are in the piece's barycentric box
    def test_triangle_pieces(self):
        cert = triangle_partition4(Simplex(((0, 0), (1, 0), (0, 1))))
        g = (F(1, 3),) * 3
        assert in_box(g, cert.pieces[3].bary_bounds)
        for p in cert.pieces[:3]:
            assert not in_box(g, p.bary_bounds)
        for i, p in enumerate(cert.pieces[:3]):
            assert in_box(tuple(int(i == j) for j in range(3)), p.bary_bounds)

    def test_m8_clip_limits_pieces(self):
        cert = simplex_partition(STD_TETRA, "m8")
        # a point close to vertex 0 is in the vertex piece, not the tail ones
        x, lam = (F(1, 20),) * 3, (F(17, 20), F(1, 20), F(1, 20), F(1, 20))
        assert fraction_barycentric(STD_TETRA.vertices, x) == list(lam)
        assert in_box(lam, cert.pieces[0].bary_bounds)
        for p in cert.pieces[4:]:
            assert not in_box(lam, p.bary_bounds)

    def test_m5_vertices_and_centroid(self):
        pieces = simplex_partition(STD_TETRA, "m5").pieces
        for lam in [(F(1, 4),) * 4] + [tuple(int(i == j) for j in range(4)) for i in range(4)]:
            assert any(in_box(lam, p.bary_bounds) for p in pieces)


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
        L, rows = _bary_box_vertices(bounds)
        assert L == math.lcm(*(v.denominator for b in bounds for v in b))
        assert tuple(tuple(F(v, L) for v in lam) for lam in rows) == fraction_box_vertices(bounds)
        assert all(type(v) is int for lam in rows for v in lam)
