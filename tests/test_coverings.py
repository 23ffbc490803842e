import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import diampart
from diampart import geometry
from diampart.geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    _integer_points,
    cube,
    gauge_facets,
    norm_eval,
    norm_facets,
    vsub,
)
from diampart.cli import _coverage_payload, main
from diampart.numbers import INF
from diampart.serialization import canonical_json
from diampart import coverings
from diampart.coverings import (
    SAMPLED_TOL,
    BallCoveringSolution,
    _body_samples,
    _body_vertices,
    _box_violation,
    _confirmation_floats,
    _confirmation_points,
    _exact_margin,
    _halton,
    _int_dtype,
    _lattice_projections,
    _norm_kernel,
    _norm_keys,
    _pattern_search,
    _projections,
    _sector_distances,
    _seed_free_samples,
    _snap_centers,
    _sweep_moves,
    _uncovered_point,
    partition_diameter_ratio,
    scheme_box_tautology,
    search_ball_covering,
    verify_ball_covering,
    verify_covering,
)
from diampart import partitions
from diampart.partitions import (
    PartitionCertificate,
    PartitionPiece,
    UnitDisk,
    cube_partition,
    disk_partition4,
    simplex_partition,
    triangle_partition4,
)
from test_integer_kernels import vertex_piece
from test_partitions import in_box
from test_properties import fraction_barycentric

F = Fraction

STD_TETRA = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
SKEW_TETRA = Simplex(((0, 0, 0), (3, 1, 0), (-1, 4, 1), (F(1, 2), 1, 5)))


class TestSimplexGridCoverage:
    def test_triangle4_exact(self):
        cert = triangle_partition4(Simplex(((0, 0), (2, 0), (0, 2))))
        rep = verify_covering(cert.parent, cert.pieces, N=64)
        assert rep.covered
        assert rep.mode == "exact_grid"
        assert rep.tolerance == 0

    @pytest.mark.parametrize("scheme", ["m5", "m8", "m9"])
    def test_tetra_schemes_exact(self, scheme):
        cert = simplex_partition(SKEW_TETRA, scheme)
        rep = verify_covering(cert.parent, cert.pieces, N=64)
        assert rep.covered, rep.worst_witness

    def test_raw_homothets_cover_at_three_quarters(self):
        hs = [vertex_piece(STD_TETRA, i, F(3, 4)) for i in range(4)]
        rep = verify_covering(STD_TETRA, hs, N=32)
        assert rep.covered

    def test_vertex_pieces_alone_fail(self):
        # the m8 vertex pieces have mu = 9/16, below the 3/4 coverage
        # threshold: without the residual pieces the grid catches the gap
        pieces = simplex_partition(STD_TETRA, "m8").pieces[:4]
        assert all(p.ratio_bound == F(9, 16) for p in pieces)
        rep = verify_covering(STD_TETRA, pieces, N=16)
        assert not rep.covered
        assert rep.worst_witness is not None
        w, _margin = rep.worst_witness
        # soundness: the witness really avoids every piece
        lam = fraction_barycentric(STD_TETRA.vertices, w)
        assert not any(in_box(lam, p.bary_bounds) for p in pieces)

    def test_divisor_monotone(self):
        cert = simplex_partition(STD_TETRA, "m8")
        for N in (8, 16, 32, 64):
            rep = verify_covering(cert.parent, cert.pieces, N=N)
            assert rep.covered
            assert rep.resolution == N

    def test_grid_is_cached_and_read_only(self):
        # one exact check per boxes serves every tetrahedron of a scheme and
        # every N; each report maps the shared barycentric witness through
        # its parent
        _uncovered_point.cache_clear()
        for S in (STD_TETRA, SKEW_TETRA):
            cert = simplex_partition(S, "m9")
            assert verify_covering(S, cert.pieces, N=64).covered
            assert verify_covering(S, cert.pieces, N=1000).covered
        assert _uncovered_point.cache_info().misses == 1
        assert _uncovered_point.cache_info().hits == 3

        _uncovered_point.cache_clear()
        witnesses = []
        for S in (STD_TETRA, SKEW_TETRA):
            pieces = simplex_partition(S, "m8").pieces[:4]
            rep = verify_covering(S, pieces, N=16)
            assert not rep.covered
            point, _ = rep.worst_witness
            witnesses.append(fraction_barycentric(S.vertices, point))
            assert not any(in_box(witnesses[-1], p.bary_bounds) for p in pieces)
        assert _uncovered_point.cache_info().misses == 1
        # the same barycentric witness, mapped through each parent
        assert witnesses[0] == witnesses[1]
        lam, violation = _uncovered_point(tuple(p.bary_bounds for p in pieces), ((0, 1),) * 4, True)
        assert type(lam) is tuple and tuple(witnesses[0]) == lam and type(violation) is Fraction

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_grid_matches_brute_force(self, k):
        # the half boxes {lambda_i >= 1/2} leave out every point whose
        # coordinates all lie below 1/2 (some at N = 9 when k > 2), the
        # centroid among them; with the [0, 1/2]^k box added, they cover
        half = tuple(tuple((F(1, 2) if j == i else F(0), F(1)) for j in range(k))
                     for i in range(k))
        full = half + (((F(0), F(1, 2)),) * k,)
        found = _uncovered_point(half, ((0, 1),) * k, True)
        assert (found is None) == (k <= 2)
        if k > 2:
            assert found == ((F(1, k),) * k, F(1, 2) - F(1, k))
        assert _uncovered_point(full, ((0, 1),) * k, True) is None
        for N in (1, 2, 5, 9, 256):
            if N == 256 and k > 2:
                continue
            assert (enumerate_uncovered(half, N, k) == ()) == (found is None or N in (1, 2))
            assert enumerate_uncovered(full, N, k) == ()


def enumerate_uncovered(boxes, N, k, limit=2048):
    """Every integer lambda with sum N in lexicographic order, the first k-1
    coordinates by itertools.product and the last as the remainder, kept
    when it lies in no box, tested in the multiply form
    lambda_i*den >= num*N; the first `limit` of them."""
    import itertools

    out = []
    for head in itertools.product(range(N + 1), repeat=k - 1):
        lam = (*head, N - sum(head))
        if lam[-1] < 0:
            continue
        if not any(all(v * F(lo).denominator >= F(lo).numerator * N
                       and v * F(hi).denominator <= F(hi).numerator * N
                       for v, (lo, hi) in zip(lam, box)) for box in boxes):
            out.append(lam)
            if len(out) == limit:
                break
    return tuple(out)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40)


def unit_boxes(k):
    return st.lists(st.tuples(unit_fractions, unit_fractions).map(sorted).map(tuple),
                    min_size=k, max_size=k).map(tuple)


def simplex_box_lists():
    """k in 2..5 and 1 to 6 barycentric boxes, with the k vertex boxes
    {lambda_i >= t} added when t is drawn."""
    return st.integers(2, 5).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(unit_boxes(k), min_size=1, max_size=6), st.none() | unit_fractions))


class TestBoxCover:
    """The exact box-cover check against grid enumerations."""

    @settings(max_examples=100, deadline=None)
    @given(simplex_box_lists())
    def test_agrees_with_the_grid(self, case):
        # a gap that some grid finds is found, and every witness is a
        # point of the simplex that no box holds, rechecked exactly
        k, boxes, t = case
        if t is not None:
            boxes += [tuple((t if j == i else F(0), F(1)) for j in range(k)) for i in range(k)]
        found = _uncovered_point(tuple(boxes), ((0, 1),) * k, True)
        for N in (1, 2, 5, 12, 40):
            if math.comb(N + k - 1, k - 1) <= 2000 and enumerate_uncovered(boxes, N, k, 1):
                assert found is not None
        if found is not None:
            lam, violation = found
            assert all(type(v) is Fraction and v >= 0 for v in lam) and sum(lam) == 1
            assert not any(in_box(lam, box) for box in boxes)
            assert violation == _box_violation(lam, boxes) > 0

    @pytest.mark.parametrize("N", [7, 300])
    def test_uncovered_witness_unchanged(self, N):
        # the three vertex pieces miss the middle; the witness is the
        # centroid at every N, 1/6 from each vertex box
        T = Simplex(((0, 0), (3, 1), (F(1, 2), 2)))
        rep = verify_covering(T, triangle_partition4(T).pieces[:3], N=N)
        assert not rep.covered
        assert rep.worst_witness == ((F(7, 6), F(1)), 1 / 6)

    def test_gap_between_grid_points(self):
        # the vertex boxes {lambda_i >= 1/2} and [0, 99/200]^3 leave a
        # sliver that the 1/64, 1/100 and 1/200 grids all miss
        half = tuple(tuple((F(1, 2) if j == i else F(0), F(1)) for j in range(3))
                     for i in range(3))
        boxes = half + (((F(0), F(99, 200)),) * 3,)
        for N in (64, 100, 200):
            assert enumerate_uncovered(boxes, N, 3, 1) == ()
        lam, violation = _uncovered_point(boxes, ((0, 1),) * 3, True)
        assert lam == (F(9999, 39800), F(9999, 39800), F(9901, 19900))
        assert not any(in_box(lam, box) for box in boxes)
        assert violation == F(49, 19900)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(st.integers(-4, 4).filter(bool), st.tuples(*[st.integers(-4, 4)] * n)),
        min_size=1, max_size=6)))
    def test_box_parent_matches_the_half_grid(self, homothets):
        # every bound lies on the 1/4 grid, so each cell of the arrangement
        # holds a point of the 1/8 grid, and that grid decides coverage
        import itertools

        n = len(homothets[0][1])
        parent = cube(n)
        pieces = [PartitionPiece(Homothet(F(a, 4), tuple(F(b, 4) for b in t), parent), F(abs(a), 4))
                  for a, t in homothets]
        boxes = [tuple(sorted((F(a, 4) * s + F(b, 4)) for s in (-1, 1))) for a, t in homothets
                 for b in t]
        boxes = [tuple(boxes[i * n:(i + 1) * n]) for i in range(len(homothets))]
        grid = itertools.product([F(i, 8) for i in range(-8, 9)], repeat=n)
        covered = all(any(in_box(x, box) for box in boxes) for x in grid)
        rep = verify_covering(parent, pieces)
        assert rep.covered == covered
        if not covered:
            x, margin = rep.worst_witness
            assert all(-1 <= v <= 1 for v in x) and not any(in_box(x, box) for box in boxes)
            assert margin == float(_box_violation(x, boxes)) > 0


def _m8_vertex_pieces():
    return STD_TETRA, simplex_partition(STD_TETRA, "m8").pieces[:4]


def _one_quadrant():
    return PBall(2, 2), disk_partition4().pieces[:1]


def _halved_square():
    cert = cube_partition(2)
    return cert.parent, cert.pieces


@pytest.mark.parametrize("case, N, message", [
    # a gap that N = 16 finds; N <= 0 tested nothing
    (_m8_vertex_pieces, 0, "positive integer N"),
    (_m8_vertex_pieces, -1, "positive integer N"),
    (_m8_vertex_pieces, True, "positive integer N"),
    (_m8_vertex_pieces, 64.0, "positive integer N"),
    (_one_quadrant, 0, "positive integer N"),
    (_one_quadrant, False, "positive integer N"),
    (_halved_square, 0, "positive integer N"),
    (_halved_square, "64", "positive integer N"),
    (lambda: (STD_TETRA, ()), 64, "at least one piece"),
    (lambda: (PBall(2, 2), []), 64, "at least one piece"),
    (lambda: (cube(2), ()), 64, "at least one piece"),
], ids=["simplex-0", "simplex-neg", "simplex-bool", "simplex-float", "disk-0", "disk-bool",
        "cube-0", "cube-str", "simplex-empty", "disk-empty", "cube-empty"])
def test_coverage_refuses_what_it_cannot_check(case, N, message):
    parent, pieces = case()
    with pytest.raises(ValueError, match=message):
        verify_covering(parent, pieces, N=N)


class TestCubeCoverage:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_halving_covers(self, n):
        cert = cube_partition(n)
        rep = verify_covering(cert.parent, cert.pieces, N=64)
        assert rep.covered
        assert rep.tolerance == 0

    def test_interval_ending_below_the_box(self):
        # [-3, -2] ends below [-1, 1]; [-3/2, 1] alone covers it
        parent = cube(1)
        pieces = [PartitionPiece(Homothet(r, (t,), parent), r)
                  for r, t in ((F(1, 2), F(-5, 2)), (F(5, 4), F(-1, 4)))]
        rep = verify_covering(parent, pieces)
        assert rep.covered and rep.worst_witness is None

    def test_a_homothet_of_another_box_is_refused(self):
        # ratio 1 and no translation, but of [-1/2, 1/2]^2: the piece is not
        # the square, and its box must not be computed from the square's
        piece = PartitionPiece(Homothet(1, (0, 0), cube(2, half=F(1, 2))), 1)
        with pytest.raises(ValueError, match="a homothet piece must scale the parent itself"):
            verify_covering(cube(2), [piece])

    def test_missing_piece_detected(self):
        cert = cube_partition(2)
        rep = verify_covering(cert.parent, cert.pieces[:-1], N=8)
        assert not rep.covered
        # the nearest piece is half an axis away from the missing corner's centre
        assert rep.worst_witness == ((F(1, 2), F(1, 2)), 0.5)
        doc = json.loads(canonical_json(_coverage_payload(rep)))
        assert doc["worst_witness"] == {"point": ["1/2", "1/2"], "margin": 0.5}

    def test_overlapping_squares_cover(self):
        # [-1, 1/2]^2, [0, 1]^2, [0, 1] x [-1, 0] and [-1, 0] x [0, 1] cover
        # the square, though they are no product of per-axis families
        parent = cube(2)
        pieces = [PartitionPiece(Homothet(r, t, parent), r) for r, t in (
            (F(3, 4), (F(-1, 4), F(-1, 4))), (F(1, 2), (F(1, 2), F(1, 2))),
            (F(1, 2), (F(1, 2), F(-1, 2))), (F(1, 2), (F(-1, 2), F(1, 2))))]
        rep = verify_covering(parent, pieces, N=8)
        assert rep.covered and rep.worst_witness is None
        # without [0, 1]^2, part of the open quadrant beyond [-1, 1/2]^2 is bare
        rep = verify_covering(parent, pieces[:1] + pieces[2:], N=8)
        assert not rep.covered
        x, _ = rep.worst_witness
        assert min(x) > 0 and max(x) > F(1, 2)

    def test_witness_is_the_first_uncovered_cell(self):
        # the witness is the point of the first uncovered cell in search
        # order with its distance to the nearest piece, not the worst
        # point: the corner (1, 1) lies farther from every piece
        parent = cube(2)
        pieces = [PartitionPiece(Homothet(r, t, parent), r) for r, t in (
            (F(3, 4), (F(-1, 4), F(-1, 4))), (F(1, 2), (F(1, 2), F(-1, 2))),
            (F(1, 2), (F(-1, 2), F(1, 2))))]
        boxes = [((-1, F(1, 2)),) * 2, ((0, 1), (-1, 0)), ((-1, 0), (0, 1))]
        rep = verify_covering(parent, pieces)
        assert rep.worst_witness == ((F(1, 4), F(3, 4)), 0.25)
        x, _ = rep.worst_witness
        assert not any(in_box(x, box) for box in boxes)
        assert _box_violation(x, boxes) == F(1, 4)
        assert _box_violation((1, 1), boxes) == F(1, 2)


class TestTautologies:
    @pytest.mark.parametrize("scheme", ["m5", "m8", "m9"])
    def test_schemes_pass(self, scheme):
        cert = simplex_partition(SKEW_TETRA, scheme)
        ok, conditions = scheme_box_tautology(cert)
        assert ok
        assert conditions  # at least one named check fired

    def test_triangle_passes(self):
        ok, conditions = scheme_box_tautology(triangle_partition4(
            Simplex(((0, 0), (1, 0), (0, 1)))))
        assert ok


class TestDiameterRatio:
    def test_cube_linf(self):
        cert = cube_partition(3)
        ratio = partition_diameter_ratio(cert, Norm.lp(INF))
        assert ratio == F(1, 2)

    def test_cube8_linf_fast(self):
        ratio = partition_diameter_ratio(cube_partition(8), Norm.lp(INF))
        assert ratio == F(1, 2)

    def test_triangle_under_gauge(self):
        T = Simplex(((0, 0), (1, 0), (0, 1)))
        body = cube(2)  # any symmetric body works; ratio must still be 1/2
        ratio = partition_diameter_ratio(triangle_partition4(T), Norm.gauge(body))
        assert ratio == F(1, 2)

    def test_m8_under_l1(self):
        cert = simplex_partition(STD_TETRA, "m8")
        ratio = partition_diameter_ratio(cert, Norm.lp(1))
        assert ratio <= F(9, 16)

    def test_m5_under_l2(self):
        cert = simplex_partition(STD_TETRA, "m5")
        ratio = partition_diameter_ratio(cert, Norm.lp(2))
        assert float(ratio) <= 0.6 + 1e-12

    def test_disk_quadrants(self):
        ratio = partition_diameter_ratio(disk_partition4(), Norm.lp(2))
        assert ratio == pytest.approx(math.sqrt(2) / 2)

    def test_disk_ratio_is_euclidean_only(self):
        # a p-ball parent's diameter, 2*radius, is known in its own norm only
        with pytest.raises(ValueError):
            partition_diameter_ratio(disk_partition4(), Norm.lp(1))

    @pytest.mark.parametrize("scheme,most", [("m8", 0), ("m5", 2), ("m9", 2)])
    def test_one_homothet_image_per_ratio(self, monkeypatch, scheme, most):
        # no homothet image is walked: only the box piece, if any, and the
        # parent it is measured against
        walked = []
        diameter = coverings.polytope_diameter
        monkeypatch.setattr(coverings, "polytope_diameter",
                            lambda P, norm: walked.append(P) or diameter(P, norm))
        cert = simplex_partition(SKEW_TETRA, scheme)
        for norm in (Norm.lp(2), Norm.lp(3)):
            walked.clear()
            assert partition_diameter_ratio(cert, norm) == cert.ratio
            assert len(walked) <= most

    def test_exact_ratio_is_the_template_ratio(self):
        template = [entry[0] for entry in partitions._scheme_template("m8")]
        for S in (STD_TETRA, SKEW_TETRA):
            for norm in (Norm.lp(1), Norm.lp(INF), Norm.gauge(cube(3))):
                ratio = partition_diameter_ratio(simplex_partition(S, "m8"), norm)
                assert ratio == F(9, 16) and any(ratio is r for r in template)

    def test_a_gauge_of_another_dimension_is_refused(self):
        # every piece a homothet, so no diameter would otherwise be taken
        for cert in (cube_partition(3), simplex_partition(STD_TETRA, "m8")):
            with pytest.raises(ValueError, match="points and gauge body differ in dimension"):
                partition_diameter_ratio(cert, Norm.gauge(cube(2)))

    def test_homothets_of_another_body_are_refused(self):
        cert = simplex_partition(STD_TETRA, "m8")
        pieces = [vertex_piece(SKEW_TETRA, i, F(3, 4)) for i in range(4)]
        with pytest.raises(ValueError, match="homothet of a polytope parent"):
            partition_diameter_ratio(PartitionCertificate(STD_TETRA, pieces, cert.ratio, "m8"),
                                     Norm.lp(1))
        # a homothet of a p-ball parent scales its diameter like any other
        disk = PBall(2, 2)
        piece = PartitionPiece(Homothet(F(1, 2), (0, 0), disk), F(1, 2))
        assert partition_diameter_ratio(PartitionCertificate(disk, (piece,), F(1, 2), "disk4"),
                                        Norm.lp(2)) == F(1, 2)

    def test_a_larger_box_term_wins(self):
        # a box piece is measured, not taken at its ratio_bound: a hull as
        # large as the parent beats a homothet of ratio 1/2
        pieces = (PartitionPiece(Homothet(F(1, 2), (0, 0, 0), STD_TETRA), F(1, 2)),
                  PartitionPiece(None, F(1, 2), VPolytope(STD_TETRA.vertices)))
        cert = PartitionCertificate(STD_TETRA, pieces, F(1, 2), "m5")
        walked = partition_diameter_ratio(cert, Norm.lp(2))
        assert type(walked) is float and walked == 1.0
        exact = partition_diameter_ratio(cert, Norm.lp(1))
        assert type(exact) is Fraction and exact == 1

    def test_covered_reports_are_shared(self):
        other = Simplex(((1, 2, 0), (4, 1, -1), (-3, 2, 2), (0, 5, -4)))
        reports = [verify_covering(S, simplex_partition(S, "m8").pieces, N=64)
                   for S in (SKEW_TETRA, other)]
        cube2 = cube_partition(2)
        reports.append(verify_covering(cube2.parent, cube2.pieces, N=64))
        assert reports[0].covered and all(r is reports[0] for r in reports)


def reference_contains(sector, x, tol=SAMPLED_TOL):
    """The per-point sector test that the disk check ran before the distance
    rule: a point is in a closed sector when r <= 1 + tol and, unless it is
    within tol of the centre, its angle is in the sector's range with the
    angular slack tol / max(r, tol)."""
    r = math.hypot(x[0], x[1])
    if r > 1 + tol:
        return False
    if r <= tol:
        return True
    ang = math.atan2(x[1], x[0]) % (2 * math.pi)
    lo = sector.angle_lo % (2 * math.pi)
    hi = lo + (sector.angle_hi - sector.angle_lo)
    atol = tol / max(r, tol)
    return any(lo - atol <= ang + shift <= hi + atol for shift in (0.0, 2 * math.pi))


def math_sector_distance(x, sectors):
    """x's Euclidean distance to the nearest closed sector, in math alone:
    the radial excess when x's angle is in a sector's range, else the
    distance to the nearer edge segment [0, u(edge)]."""
    def segment(u):
        t = min(max(x[0] * u[0] + x[1] * u[1], 0.0), 1.0)
        return math.dist(x, (t * u[0], t * u[1]))

    def one(s):
        if (math.atan2(x[1], x[0]) - s.angle_lo) % (2 * math.pi) <= s.angle_hi - s.angle_lo:
            return max(0.0, math.hypot(*x) - 1.0)
        return min(segment((math.cos(a), math.sin(a))) for a in (s.angle_lo, s.angle_hi))

    return min(one(s) for s in sectors)


def disk_points(N, seed):
    """The disk check's samples in draw order: the p-ball base, then the
    seeded draws from the square that fall in the disk."""
    base, _ = _seed_free_samples(PBall(2, 2), N, N // 4)
    extra = np.random.default_rng(seed).uniform(-1, 1, size=(N // 4, 2))
    return base, extra[np.hypot(extra[:, 0], extra[:, 1]) <= 1]


QUADRANT_SETS = {"all": slice(0, 4), "first": slice(0, 1), "first-two": slice(0, 2),
                 "middle-two": slice(1, 3), "first-three": slice(0, 3)}


class TestSampledCoverage:
    def test_disk_quadrants_sampled(self):
        cert = disk_partition4()
        rep = verify_covering(cert.parent, cert.pieces, N=256)
        assert rep.covered
        assert rep.mode == "sampled"

    def test_two_sectors_fail(self):
        cert = disk_partition4()
        rep = verify_covering(cert.parent, cert.pieces[:2], N=256)
        assert not rep.covered

    def test_other_balls_are_refused(self):
        with pytest.raises(ValueError):
            verify_covering(PBall(1, 2), disk_partition4().pieces, N=256)

    def test_a_non_sector_piece_is_refused(self):
        # refused before any sample, even when the sectors cover the disk
        disk = UnitDisk()
        piece = PartitionPiece(Homothet(F(1, 2), (0, 0), disk), F(1, 2))
        with pytest.raises(ValueError, match="not a Homothet piece"):
            verify_covering(disk, disk_partition4().pieces + (piece,), N=16)

    @pytest.mark.parametrize("pieces", QUADRANT_SETS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("N", [1, 3, 4, 7, 256, 4096, 4097, 100000])
    def test_distance_rule_agrees_with_the_per_point_test(self, N, seed, pieces):
        pieces = disk_partition4().pieces[QUADRANT_SETS[pieces]]
        sectors = [p.description for p in pieces]
        base, extra = disk_points(N, seed)
        points = base.tolist() + extra.tolist()
        rep = verify_covering(UnitDisk(), pieces, N=N, seed=seed)
        assert rep.resolution == len(points)
        assert rep.covered == all(any(reference_contains(s, x) for s in sectors)
                                  for x in points)

    @pytest.mark.parametrize("pieces", QUADRANT_SETS)
    def test_distance_rule_agrees_at_the_centre_edges_and_rim(self, pieces):
        sectors = [p.description for p in disk_partition4().pieces[QUADRANT_SETS[pieces]]]
        probes, below_zero = [(0.0, 0.0)], [False]
        for k in range(8):
            a = k * math.pi / 4  # the four edges and the four mid-angles
            for da, r in [(-1e-10, 1.0), (1e-10, 1.0), (-1e-10, 0.5), (1e-10, 0.5),
                          (0.0, 1 - 1e-10), (0.0, 1 + 1e-10)]:
                probes.append((r * math.cos(a + da), r * math.sin(a + da)))
                below_zero.append(k == 0 and da < 0 and sectors[0].angle_lo == 0)
        got = (_sector_distances(np.array(probes), sectors) <= SAMPLED_TOL).tolist()
        assert got == [math_sector_distance(x, sectors) <= SAMPLED_TOL for x in probes]
        assert got[0]  # the centre belongs to every closed sector
        assert all(got) == (pieces == "all")
        for x, below, g in zip(probes, below_zero, got):
            if below:
                # the per-point test's angular slack wrapped modulo 2*pi on
                # the upper side only, so it missed points just below a
                # sector starting at angle 0, which lie within 1e-10 of it
                assert g
            else:
                assert g == any(reference_contains(s, x) for s in sectors)

    @pytest.mark.parametrize("k, margin, near", [
        (2, 1.0, (0.0, -1.0)),
        (3, math.sqrt(2) / 2, (math.sqrt(2) / 2, -math.sqrt(2) / 2)),
    ], ids=["first-two", "first-three"])
    def test_witness_is_the_farthest_sample(self, k, margin, near):
        # the margin is the witness's distance to the nearest sector, not
        # its radius minus 1
        pieces = disk_partition4().pieces[:k]
        rep = verify_covering(UnitDisk(), pieces, N=256)
        point, got = rep.worst_witness
        assert not rep.covered
        assert math.dist(point, near) < 1e-12
        assert got == pytest.approx(margin, abs=1e-12)
        assert got == math_sector_distance(point, [p.description for p in pieces])
        assert got > SAMPLED_TOL

    def test_witness_is_the_first_farthest_sample_in_draw_order(self):
        pieces = disk_partition4().pieces[:1]
        sectors = [p.description for p in pieces]
        base, extra = disk_points(256, 0)
        points = np.concatenate([base, extra])
        d = [math_sector_distance(x, sectors) for x in points.tolist()]
        rep = verify_covering(UnitDisk(), pieces, N=256)
        i = int(np.argmax(_sector_distances(points, sectors)))
        assert rep.worst_witness == (tuple(points[i].tolist()), max(d))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("N", [1, 3, 4, 7, 4097])
    def test_disk_samples_extend_the_pball_base(self, capsys, monkeypatch, N, seed):
        # the disk has one low-discrepancy sampler, the p-ball one, and
        # adds only its own seeded points; both are tested as drawn, in
        # slices of at most _SLICE points
        base, extra = disk_points(N, seed)
        assert len(base) == N + N // 4
        tested = []
        distances = coverings._sector_distances
        monkeypatch.setattr(coverings, "_sector_distances",
                            lambda pts, sectors: tested.append(pts) or distances(pts, sectors))
        code = main(["partition", "disk", "--samples", str(N), "--seed", str(seed)])
        coverage = json.loads(capsys.readouterr().out)["results"]["coverage"]
        assert code == 0
        assert tested[0].base is base  # the cached base, not a copy
        assert np.concatenate(tested).tobytes() == np.concatenate([base, extra]).tobytes()
        assert max(len(t) for t in tested) <= coverings._SLICE
        assert coverage["resolution"] == N + N // 4 + len(extra)
        assert coverage["covered"] and coverage["worst_witness"] is None


# a gauge of another dimension than the body, in both entry points
GAUGE_DIMENSION_CALLS = {
    "3d-gauge-search-on-disk": lambda: search_ball_covering(PBall(2, 2), 2, 0.9, GAUGE3),
    "3d-gauge-on-disk": lambda: verify_ball_covering(PBall(2, 2), [(0, 0)], 0.9, GAUGE3),
    "2d-gauge-search-on-cube": lambda: search_ball_covering(cube(3), 2, 1, GAUGE2),
    "2d-gauge-on-cube": lambda: verify_ball_covering(cube(3), [(0.5, 0, 0)], 1, GAUGE2),
}


class TestBallCoveringSearch:
    def test_cube_eight_half_balls(self):
        body = cube(3)
        sol = search_ball_covering(body, m=8, r=F(1, 2), norm=Norm.lp(INF),
                                   seed=0, n_boundary=512, n_interior=128)
        assert sol.success
        assert sol.residual_margin <= 0
        # snapped centers should be the eight half-integer sign patterns
        cs = {tuple(c) for c in sol.centers}
        assert cs == {(F(s1, 2), F(s2, 2), F(s3, 2))
                      for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)}

    @pytest.mark.parametrize("call, message", [
        (lambda: verify_ball_covering(cube(2), (), 1, Norm.lp(INF)), "at least one center"),
        (lambda: verify_ball_covering(cube(2), [(0, 0, 0)], 1, Norm.lp(INF)),
         "every center needs 2 coordinates"),
        (lambda: verify_ball_covering(PBall(2, 2), [(0, 0), (0, 0, 0)], 1, Norm.lp(2)),
         "every center needs 2 coordinates"),
        (lambda: search_ball_covering(PBall(2, 2), 2, 1, Norm.lp(2), n_boundary=0, n_interior=0),
         "positive sum, got 0 and 0"),
        (lambda: search_ball_covering(PBall(2, 2), 2, 1, Norm.lp(2), n_boundary=-5),
         "integers >= 0"),
        (lambda: search_ball_covering(PBall(2, 2), 2, 1, Norm.lp(2), n_interior=1.5),
         "integers >= 0"),
        *((call, "points and gauge body differ in dimension")
          for call in GAUGE_DIMENSION_CALLS.values()),
    ], ids=["no-centers", "3d-centers-on-square", "3d-center-on-disk", "no-samples",
            "negative-count", "float-count", *GAUGE_DIMENSION_CALLS])
    def test_malformed_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call", GAUGE_DIMENSION_CALLS.values(),
                             ids=list(GAUGE_DIMENSION_CALLS))
    def test_gauge_dimension_is_checked_before_sampling(self, monkeypatch, call):
        def refuse(*args, **kwargs):
            raise AssertionError("points sampled before the gauge's dimension was checked")

        monkeypatch.setattr(coverings, "_body_samples", refuse)
        monkeypatch.setattr(coverings, "_confirmation_points", refuse)
        with pytest.raises(ValueError, match="points and gauge body differ in dimension"):
            call()

    def test_disk_two_balls_fails(self):
        sol = search_ball_covering(UnitDisk(), m=2, r=0.9, norm=Norm.lp(2),
                                   seed=0, n_boundary=512, n_interior=128)
        assert not sol.success
        assert sol.residual_margin > 0.05  # a genuinely uncovered cap remains

    def test_seed_determinism(self):
        a = search_ball_covering(UnitDisk(), m=3, r=0.9, norm=Norm.lp(2),
                                 seed=7, n_boundary=256, n_interior=64)
        b = search_ball_covering(UnitDisk(), m=3, r=0.9, norm=Norm.lp(2),
                                 seed=7, n_boundary=256, n_interior=64)
        assert a.centers == b.centers
        assert a.residual_margin == b.residual_margin

    def test_l1_ball_smoke(self):
        body = PBall(p=1, dim=3)
        sol = search_ball_covering(body, m=8, r=F(2, 3), norm=Norm.lp(1),
                                   seed=0, n_boundary=512, n_interior=128)
        assert sol.success
        assert sol.residual_margin <= 0

    def test_m_cap(self):
        with pytest.raises(ValueError):
            search_ball_covering(cube(2), m=17, r=0.5, norm=Norm.lp(INF))

    @pytest.mark.parametrize("n", [4, 9])
    def test_dimension_cap(self, n):
        with pytest.raises(ValueError, match="dimension <= 3"):
            search_ball_covering(cube(n), m=2, r=F(1, 2), norm=Norm.lp(INF))

    @pytest.mark.parametrize("m, r", [(0, F(1, 2)), (-2, F(1, 2)), (2, float("nan")),
                                      (2, INF), (2, 0), (2, F(-1, 2)), (2, 10 ** 400)])
    def test_rejects_bad_m_and_r(self, m, r):
        with pytest.raises(ValueError):
            search_ball_covering(cube(2), m=m, r=r, norm=Norm.lp(INF))

    @pytest.mark.parametrize("r", [F(1, 10 ** 400), 5e-324])
    def test_accepts_tiny_positive_r(self, r):
        # F(1, 10**400) underflows to 0.0 as a float but is positive
        sol = search_ball_covering(cube(2), m=1, r=r, norm=Norm.lp(INF), seed=0,
                                   n_boundary=64, n_interior=16)
        assert not sol.success
        assert sol.radius == r  # a failed search reports r as given
        assert sol.residual_margin == verify_ball_covering(cube(2), sol.centers,
                                                           sol.radius, Norm.lp(INF))

    @pytest.mark.parametrize("r", [0, F(0), 0.0, -1, F(-1, 10 ** 400), -5e-324,
                                   float("nan"), INF, -INF, float("1e400"), 10 ** 400,
                                   F(10 ** 400, 3)])
    def test_rejects_r_not_finite_and_positive(self, r):
        with pytest.raises(ValueError, match="finite and positive"):
            search_ball_covering(cube(2), m=1, r=r, norm=Norm.lp(INF))

    def test_three_dimensional_euclidean_ball(self):
        body = PBall(2, 3)
        sol = search_ball_covering(body, 8, F(3, 4), Norm.lp(2))
        assert isinstance(sol, BallCoveringSolution)
        assert len(sol.centers) == 8 and all(len(c) == 3 for c in sol.centers)
        assert sol.residual_margin == verify_ball_covering(body, sol.centers,
                                                           sol.radius, Norm.lp(2))

    @pytest.mark.parametrize("p", [3, INF])
    def test_three_dimensional_p_balls(self, p):
        body = PBall(p, 3, radius=F(3, 2))
        sol = search_ball_covering(body, 4, 1, Norm.lp(p), seed=1,
                                   n_boundary=256, n_interior=64)
        assert sol.residual_margin == verify_ball_covering(body, sol.centers,
                                                           sol.radius, Norm.lp(p))

    def test_start_vertices(self):
        axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                         [0, 0, -1]], dtype=float)
        for p in (1, 2, 3, INF):
            assert np.array_equal(_body_vertices(PBall(p, 3, radius=2)), 2 * axes)
        th = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        circle = np.stack([np.cos(th), np.sin(th)], axis=1)
        assert np.array_equal(_body_vertices(UnitDisk()), circle)
        assert np.array_equal(_body_vertices(PBall(3, 2)), circle)
        assert np.array_equal(_body_vertices(PBall(1, 2)), 1.0 * axes[:4, :2])
        assert np.array_equal(_body_vertices(cube(3)),
                              np.asarray(cube(3).vertices, dtype=float))

    @pytest.mark.parametrize("body, r, norm", [
        (PBall(1, 3, radius=2), 1, Norm.lp(1)),
        (PBall(2, 2, radius=2), 1.0, Norm.lp(2)),
    ])
    def test_body_radius_is_not_ignored(self, body, r, norm):
        # one ball of radius 1 cannot cover a ball of radius 2
        sol = search_ball_covering(body, m=1, r=r, norm=norm, seed=0,
                                   n_boundary=256, n_interior=64)
        assert not sol.success
        assert sol.residual_margin > 0.9

    @pytest.mark.parametrize("body, m, r, norm, margin", [
        (cube(3), 8, 0.5, Norm.lp(INF), F(0)),
        (PBall(1, 3), 8, 0.7, Norm.lp(1), F(2, 3) - F(0.7)),
    ])
    def test_search_and_recheck_agree_for_float_radius(self, body, m, r, norm, margin):
        # both read a float r as the rational it denotes: one exact margin
        sol = search_ball_covering(body, m, r, norm)
        again = verify_ball_covering(body, sol.centers, r, norm)
        assert type(sol.residual_margin) is type(again) is Fraction
        assert sol.residual_margin == again == margin

    def test_exact_margin_beyond_int64(self):
        # the common denominator 8q pushes the rescaled lattice past 2^63
        q = int(0.95 * 2 ** 60) | 1
        margin = verify_ball_covering(cube(1), ((F(q - 1, q),),), F(3, 2), Norm.lp(INF))
        assert margin == F(q - 2, 2 * q)
        again = verify_ball_covering(cube(1), ((float(F(q - 1, q)),),), 1.5, Norm.lp(INF))
        assert again == pytest.approx(0.5)

    def test_exact_margin_beyond_the_float_range(self):
        # a float gauge one subnormal wide along x_1: the cube's corner is
        # at distance 2^1074, which rounds to inf instead of raising
        tiny = Norm.gauge([(5e-324, 0, 0), (-5e-324, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)])
        assert verify_ball_covering(cube(3), [(0, 0, 0)], 1, tiny) == INF


def _lattice_fractions(body):
    P, D = _confirmation_points(body)
    return sorted(tuple(Fraction(int(v), D) for v in row) for row in P.tolist())


class TestConfirmationLattice:
    def test_l1_ball_matches_fraction_enumeration(self):
        K = 64
        want = []
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    for i in range(K + 1):
                        for j in range(K + 1 - i):
                            want.append((F(sx * i, K), F(sy * j, K), F(sz * (K - i - j), K)))
        grid = [F(i, 8) for i in range(-8, 9)]
        want += [(x, y, z) for x in grid for y in grid for z in grid
                 if abs(x) + abs(y) + abs(z) <= 1]
        assert len(want) == 17993
        assert _lattice_fractions(PBall(1, 3)) == sorted(want)
        assert _lattice_fractions(PBall(1, 3, radius=F(3, 2))) == sorted(
            tuple(F(3, 2) * v for v in pt) for pt in want)

    def test_box_matches_fraction_enumeration(self):
        los, his = (F(-1, 3), 0, -2), (F(2, 5), F(7, 4), 2)
        body = VPolytope(tuple((a, b, c) for a in (los[0], his[0])
                               for b in (los[1], his[1]) for c in (los[2], his[2])))
        axes = [[F(lo) + F(i, 16) * (hi - lo) for i in range(17)] for lo, hi in zip(los, his)]
        want = sorted((x, y, z) for x in axes[0] for y in axes[1] for z in axes[2])
        assert _lattice_fractions(body) == want
        assert len(_lattice_fractions(cube(3))) == 17 ** 3

    def test_built_once_per_body(self):
        # a pure function of the body: every snapped try of a search and
        # a later recheck on an equal body share one read-only set
        _confirmation_points.cache_clear()
        sol = search_ball_covering(PBall(1, 3), 6, F(2, 3), Norm.lp(1),
                                   n_boundary=256, n_interior=64)
        verify_ball_covering(PBall(1, 3), sol.centers, sol.radius, Norm.lp(1))
        info = _confirmation_points.cache_info()
        assert info.misses == 1 and info.hits >= 1
        P, _ = _confirmation_points(PBall(1, 3))
        assert not P.flags.writeable

    @pytest.mark.parametrize("body", [PBall(1, 3), cube(3, half=F(2, 3))])
    def test_float_rows_rounded_once_per_body(self, body):
        # the float confirmation reads each lattice point's correctly
        # rounded float, built on the first call and shared by later ones
        _confirmation_floats.cache_clear()
        for _ in range(2):
            verify_ball_covering(body, [(0.25, 0, 0), (-0.25, 0, 0)], 0.9, Norm.lp(2))
        info = _confirmation_floats.cache_info()
        assert info.misses == 1 and info.hits == 1
        rows = _confirmation_floats(body)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert sorted(map(tuple, rows.T.tolist())) == [
            tuple(map(float, pt)) for pt in _lattice_fractions(body)]


class TestBodySamples:
    @pytest.mark.parametrize("body", [UnitDisk(), PBall(3, 2), PBall(1, 3), PBall(2, 3),
                                      cube(3)])
    def test_seed_free_part_built_once_per_body(self, body):
        # the low-discrepancy part is a pure function of the body and the
        # sizes: searches at two seeds share one read-only array and differ
        # only in the seeded uniform tail
        _seed_free_samples.cache_clear()
        a = _body_samples(body, 256, 64, seed=1)
        b = _body_samples(body, 256, 64, seed=2)
        info = _seed_free_samples.cache_info()
        assert info.misses == 1 and info.hits == 1
        base, _ = _seed_free_samples(body, 256, 64)
        assert not base.flags.writeable
        n = len(base)
        assert a[:n].tobytes() == b[:n].tobytes() == base.tobytes()
        assert a[n:].tobytes() != b[n:].tobytes()
        assert a[n:].tobytes() == _body_samples(body, 256, 64, seed=1)[n:].tobytes()
        _seed_free_samples(body, 256, 128)
        assert _seed_free_samples.cache_info().misses == 2

    @staticmethod
    def out_of_place_pball_base(body, n_boundary, n_interior):
        # the p-ball base as a fresh array per step, then one concatenated
        # and scaled copy
        n, norm = body.dim, _norm_kernel(Norm.lp(body.p))
        if n == 3 and body.p == 1:
            u = _halton(n_boundary, 2)
            a, b = u[:, 0], u[:, 1]
            flip = a + b > 1
            a[flip], b[flip] = 1 - a[flip], 1 - b[flip]
            signs = np.array(list(itertools.product((1, -1), repeat=3)), dtype=float)
            boundary = np.stack([a, b, 1 - a - b], axis=1) * signs[np.arange(n_boundary) % 8]
        else:
            if n == 2:
                th = 2 * math.pi * _halton(n_boundary, 1)[:, 0]
                d = np.stack([np.cos(th), np.sin(th)], axis=1)
            else:
                d = _halton(2 * n_boundary, 3) * 2 - 1
                d = d[_norm_kernel(Norm.lp(2))(d.T) > 1e-9][:n_boundary]
            boundary = d / norm(d.T)[:, None]
        ui = _halton((4 if n == 2 else 10) * n_interior, n) * 2 - 1
        ui = ui[norm(ui.T) <= 1][:n_interior]
        return np.concatenate([boundary, ui]) * float(body.radius)

    @pytest.mark.parametrize("radius", [1, F(3, 2)])
    @pytest.mark.parametrize("p", [1, F(3, 2), 2, 3, INF])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_pball_base_built_in_place_is_the_out_of_place_one(self, dim, p, radius):
        body = PBall(p, dim, radius=radius)
        for sizes in ((256, 64), (1000, 333)):
            want = self.out_of_place_pball_base(body, *sizes)
            assert _seed_free_samples(body, *sizes)[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("body", [cube(3), cube(3, half=F(2, 3)),
                                      VPolytope(((0, -1), (0, 3), (F(1, 2), -1), (F(1, 2), 3)))])
    def test_box_tail_is_numpy_uniform(self, body):
        # los + (his - los) * random() is how numpy's uniform computes its
        # draws, so the tail takes the same bytes at about half the cost
        _, tail = _seed_free_samples(body, 256, 64)
        los = np.array([float(min(v[i] for v in body.vertices)) for i in range(body.dim)])
        his = np.array([float(max(v[i] for v in body.vertices)) for i in range(body.dim)])
        for seed in range(100):
            want = np.random.default_rng(seed).uniform(los, his, size=(64, body.dim))
            assert tail(np.random.default_rng(seed)).tobytes() == want.tobytes()


class TestHaltonSampler:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 4096, 65536])
    def test_matches_scipy_bit_for_bit(self, d, n):
        qmc = pytest.importorskip("scipy.stats.qmc")
        want = qmc.Halton(d=d, scramble=False).random(n)
        got = _halton(n, d)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_cli_search_leaves_scipy_stats_unimported(self):
        script = ("import sys\n"
                  "from diampart.cli import main\n"
                  "code = main(['cover', 'search', '--body', 'disk', '--m', '3', '--r', '0.9'])\n"
                  "code |= main(['partition', 'disk', '--samples', '256'])\n"
                  "sys.stderr.write(str('scipy.stats' in sys.modules))\n"
                  "sys.exit(code)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(diampart.__file__))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False"


GAUGE2 = Norm.gauge(((2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (-1, -1)))
GAUGE3 = Norm.gauge(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2),
                     (0, 0, -2), (1, 1, 1), (-1, -1, -1)))
SEARCH_NORMS = [Norm.lp(1), Norm.lp(2), Norm.lp(3), Norm.lp(INF), "gauge"]


def _norm_for(norm, dim):
    if norm == "gauge":
        return GAUGE2 if dim == 2 else GAUGE3
    return norm


def _reference_pattern_search(samples, centers0, kernel, r, rng, max_sweeps=60):
    """The pattern search with a full S x m recompute for every trial."""
    centers = centers0.copy()

    def margin(cs):
        return float(_dist_matrix(samples, cs, kernel).min(axis=1).max()) - r

    best = margin(centers)
    step = 0.25
    sweeps = 0
    while step > 1e-5 and sweeps < max_sweeps:
        improved = False
        for j in range(len(centers)):
            for d in range(centers.shape[1]):
                for sgn in (1.0, -1.0):
                    trial = centers.copy()
                    trial[j, d] += sgn * step
                    val = margin(trial)
                    if val < best - 1e-12:
                        centers, best = trial, val
                        improved = True
        sweeps += 1
        if best <= 1e-12 and not improved:
            break
        if not improved:
            trial = centers + rng.normal(scale=step / 3, size=centers.shape)
            val = margin(trial)
            if val < best - 1e-12:
                centers, best = trial, val
            else:
                step *= 0.5
    return centers, best


def _plain_pattern_search(samples, centers0, kernel, r, rng, max_sweeps=60):
    """The pattern search without witnesses: one full kernel column for
    every coordinate trial and a full S x m matrix for every kick."""
    centers = centers0.copy()
    rows = np.ascontiguousarray(samples.T)
    dist = _dist_matrix(samples, centers, kernel).T
    best = float(dist.min(axis=0).max()) - r
    step = 0.25
    sweeps = 0
    while step > 1e-5 and sweeps < max_sweeps:
        improved = False
        for j in range(len(centers)):
            others = dist[np.arange(len(centers)) != j].min(axis=0, initial=np.inf)
            for d in range(centers.shape[1]):
                for sgn in (1.0, -1.0):
                    trial = centers[j].copy()
                    trial[d] += sgn * step
                    col = kernel(rows - trial[:, None])
                    val = float(np.minimum(others, col).max()) - r
                    if val < best - 1e-12:
                        centers[j], dist[j], best = trial, col, val
                        improved = True
        sweeps += 1
        if best <= 1e-12 and not improved:
            break
        if not improved:
            trial = centers + rng.normal(scale=step / 3, size=centers.shape)
            trial_dist = _dist_matrix(samples, trial, kernel).T
            val = float(trial_dist.min(axis=0).max()) - r
            if val < best - 1e-12:
                centers, dist, best = trial, trial_dist, val
            else:
                step *= 0.5
    return centers, best


def _dist_matrix(samples, centers, kernel):
    """S x m matrix of distances from each sample to each center, one
    kernel column per center."""
    rows = np.ascontiguousarray(samples.T)
    return np.stack([kernel(rows - c[:, None]) for c in centers]).T


def _row_vector_dist_matrix(samples, centers, norm):
    """Distances from an (S, m, n) difference array reduced over its
    trailing axis: the reference for the coordinate-row kernel."""
    diff = samples[:, None, :] - centers[None, :, :]
    if norm.kind == "gauge":
        F = np.asarray(gauge_facets(norm.body.vertices).functionals(), dtype=float)
        return np.einsum("fk,smk->smf", F, diff).max(axis=2)
    if norm.p == INF:
        return np.abs(diff).max(axis=2)
    if norm.p == 1:
        return np.abs(diff).sum(axis=2)
    if norm.p == 2:
        return np.sqrt((diff * diff).sum(axis=2))
    pf = float(norm.p)
    return (np.abs(diff) ** pf).sum(axis=2) ** (1.0 / pf)


class TestCoordinateRowKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 9),
           st.sampled_from(range(len(SEARCH_NORMS))))
    def test_coordinate_rows_match_row_vectors(self, seed, dim, m, which):
        norm = _norm_for(SEARCH_NORMS[which], dim)
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-2, 2, size=(int(rng.integers(1, 3000)), dim))
        centers = rng.uniform(-1, 1, size=(m, dim))
        got = _dist_matrix(samples, centers, _norm_kernel(norm))
        assert got.shape == (len(samples), m)
        assert np.array_equal(got, _row_vector_dist_matrix(samples, centers, norm))

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("body, norm", [(PBall(2, 2), Norm.lp(2)), (PBall(1, 3), Norm.lp(2)),
                                            (cube(3), Norm.lp(3))])
    def test_float_confirmation_matches_the_matrix(self, body, norm, m):
        # the float confirmation folds the kernel columns with np.minimum;
        # min is exact, so its margin is the S x m matrix's, bit for bit
        centers = np.random.default_rng(m).uniform(-0.5, 0.5, size=(m, body.dim))
        pts, den = _confirmation_points(body)
        arr = pts if den is None else (pts.astype(object) / den).astype(float)
        want = float(_dist_matrix(arr, centers, _norm_kernel(norm)).min(axis=1).max()) - 0.25
        assert verify_ball_covering(body, centers.tolist(), 0.25, norm) == want


class TestPatternSearchKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 6),
           st.sampled_from(range(len(SEARCH_NORMS))))
    def test_one_column_margin_is_full_margin(self, seed, dim, m, which):
        kernel = _norm_kernel(_norm_for(SEARCH_NORMS[which], dim))
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, size=(int(rng.integers(1, 80)), dim))
        centers = rng.uniform(-1, 1, size=(m, dim))
        j, d = int(rng.integers(m)), int(rng.integers(dim))
        dist = _dist_matrix(samples, centers, kernel)
        others = dist[:, np.arange(m) != j].min(axis=1, initial=np.inf)
        trial = centers.copy()
        trial[j, d] += float(rng.choice([-1, 1])) * 2.0 ** -int(rng.integers(2, 18))
        col = _dist_matrix(samples, trial[j][None, :], kernel)[:, 0]
        assert np.array_equal(col, _dist_matrix(samples, trial, kernel)[:, j])
        got = float(np.minimum(others, col).max())
        assert got == float(_dist_matrix(samples, trial, kernel).min(1).max())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0, allow_nan=False), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_one_root_per_reduced_value(self, keys, rnd):
        # the l2 search reduces squared distances and roots the result:
        # np.sqrt is correctly rounded, hence monotone, so the root of the
        # max (min) is the max (min) of the roots, also where adjacent keys
        # one ulp apart share a root
        with np.errstate(over="ignore"):  # the float after the largest is inf
            a = np.concatenate([keys, np.nextafter(keys, np.inf), np.nextafter(keys, 0)])
        rnd.shuffle(a)
        assert np.sqrt(a.max()).tobytes() == np.sqrt(a).max().tobytes()
        assert np.sqrt(a.min()).tobytes() == np.sqrt(a).min().tobytes()

    @pytest.mark.parametrize("which", range(len(SEARCH_NORMS)))
    @pytest.mark.parametrize("dim, m", [(2, 1), (2, 4), (3, 5)])
    def test_matches_full_recompute_search(self, which, dim, m):
        # the search runs on keys, the reference on distances
        norm = _norm_for(SEARCH_NORMS[which], dim)
        rng = np.random.default_rng(100 * dim + m)
        samples = rng.uniform(-1, 1, size=(150, dim))
        c0 = rng.uniform(-0.5, 0.5, size=(m, dim))
        got = _pattern_search(samples, c0, _norm_keys(norm), 0.4, np.random.default_rng(3),
                              max_sweeps=12)
        want = _reference_pattern_search(samples, c0, _norm_kernel(norm), 0.4,
                                         np.random.default_rng(3), max_sweeps=12)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


WITNESS_BODIES = {
    "disk": (UnitDisk(), Norm.lp(2)),
    "pball3-2": (PBall(3, 2), Norm.lp(3)),
    "l1ball": (PBall(1, 3), Norm.lp(1)),
    "cube": (cube(3), Norm.lp(INF)),
    "gauge": (UnitDisk(), GAUGE2),
    "gauge3": (cube(3), GAUGE3),
}


# the README disk search's sample count at the default sizes
DISK_SAMPLES = 6144


def _plain_search_on_keys(samples, centers0, keys, r, rng):
    """_plain_pattern_search on the distances of a _norm_keys pair."""
    key, root = keys
    return _plain_pattern_search(samples, centers0, lambda diff: root(key(diff)), r, rng)


def _counted_disk_search(monkeypatch, search):
    """The README's failing disk search at seed 0 run through `search`, and
    the width of each kernel call it made, in order: every key evaluation,
    the distances of the k-center start included.  The samples are drawn
    before counting, so a cold sample cache adds no sampler calls."""
    calls = []

    def counting(norm):
        key, root = _norm_keys(norm)
        return (lambda diff: calls.append(diff.shape[1]) or key(diff)), root

    assert len(_body_samples(UnitDisk(), 4096, 1024, 0)) == DISK_SAMPLES
    monkeypatch.setattr(coverings, "_norm_keys", counting)
    monkeypatch.setattr(coverings, "_pattern_search", search)
    sol = search_ball_covering(UnitDisk(), 2, 0.9, Norm.lp(2), seed=0)
    return sol, calls


class TestWitnessPruning:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(WITNESS_BODIES))
    def test_matches_plain_search(self, kind, seed):
        # up to 16 centers: pool batches span many centers, and moves
        # accepted mid-sweep make the rest of the sweep be batched again
        # the search runs on keys, the plain search on distances
        body, norm = WITNESS_BODIES[kind]
        rng = np.random.default_rng(seed)
        samples = _body_samples(body, 512, 128, seed)
        for m in (1 + seed, 5 + 2 * seed, 12 + 2 * seed):
            r = float(rng.uniform(0.3, 1.0))
            c0 = samples[rng.integers(0, len(samples), size=m)] * 0.5
            got = _pattern_search(samples, c0, _norm_keys(norm), r, np.random.default_rng(seed))
            want = _plain_pattern_search(samples, c0, _norm_kernel(norm), r,
                                         np.random.default_rng(seed))
            assert repr(got[0].tolist()) == repr(want[0].tolist()), m
            assert repr(got[1]) == repr(want[1]), m

    def test_most_trials_skip_the_full_column(self, monkeypatch):
        # the README's failing disk search: a loss of the pool rejection or
        # of the sweep batch leaves the result unchanged, so it is caught
        # by counting kernel calls
        sol, calls = _counted_disk_search(monkeypatch, _pattern_search)
        want, plain = _counted_disk_search(monkeypatch, _plain_search_on_keys)
        trials = plain.count(DISK_SAMPLES)
        assert (sol.centers, sol.search_margin) == (want.centers, want.search_margin)
        assert len(calls) < trials / 2
        assert calls.count(DISK_SAMPLES) < trials / 5

    def test_trials_keep_negative_zero(self):
        # a trial is the center plus its move's offset; -0.0 off the moved
        # coordinate leaves every other coordinate as it was, -0.0 included
        centers = np.array([[-0.0, 0.5], [0.25, -0.0]])
        move_j, _, offsets = _sweep_moves(2, 2, 0.125)
        want = centers[move_j]
        want[np.arange(8), [0, 0, 1, 1] * 2] += [0.125, -0.125] * 4
        got = centers[move_j] + offsets
        assert repr(got.tolist()) == repr(want.tolist())
        assert not offsets.flags.writeable

    def test_kernel_calls_do_not_rise(self, monkeypatch):
        # the pool state kept across batches saves numpy overhead, not
        # kernel work: the search makes the calls it made when the pool
        # state was rebuilt for every batch, 932 of them and 389 full
        _, calls = _counted_disk_search(monkeypatch, _pattern_search)
        assert len(calls) <= 932
        assert calls.count(DISK_SAMPLES) <= 389

    def test_starts_are_built_when_reached(self, monkeypatch):
        # the first start covers, so the k-center start is never built
        def refuse(*args):
            raise AssertionError("k-center start built")

        monkeypatch.setattr(coverings, "_greedy_kcenter", refuse)
        sol = search_ball_covering(cube(3), 2, F(1), Norm.lp(INF))
        assert sol.success


def _reference_margin(P, D, centers, r, norm):
    """The exact margin by one norm_eval per lattice point and center."""
    best = None
    for row in P.tolist():
        pt = tuple(Fraction(v, D) for v in row)
        d = min(norm_eval(vsub(pt, c), norm) for c in centers)
        best = d if best is None else max(best, d)
    return best - r


# facet offsets 9, 27 and 81 at scale 3, so the rows are reweighted to lcm 81
SKEW_GAUGE3 = Norm.gauge(tuple(v for h in ((3, 1, 0), (0, F(2, 3), 1), (1, 0, 4), (1, 1, 1))
                               for v in (h, tuple(-c for c in h))))


# a center denominator that pushes the common denominator past 2^63
Q = int(0.95 * 2 ** 60) | 1

# l1 and l_inf take the same facet-form path as the gauges
FACET_NORMS = [GAUGE3, SKEW_GAUGE3, Norm.lp(1), Norm.lp(INF)]


def _margin_total(projections, D, centers, norm):
    """The bound _exact_margin's docstring gives for every value it forms:
    max(bound*k + wsum*max|C|, k, max|w|, max|C|)."""
    L = math.lcm(D, *(F(v).denominator for c in centers for v in c))
    C = [[int(F(v) * L) for v in c] for c in centers]
    W = norm_facets(norm, len(C[0])).rows
    cmax = max(abs(v) for c in C for v in c)
    return max(projections[1] * (L // D) + max(sum(map(abs, w)) for w in W) * cmax,
               L // D, max(abs(v) for w in W for v in w), cmax)


class TestExactGaugeMargin:
    @pytest.mark.parametrize("bound, want", [
        (0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
        (2 ** 31 - 1, np.int32), (2 ** 31, np.int64), (2 ** 62 - 1, np.int64), (2 ** 62, object),
    ])
    def test_narrowest_type_at_its_boundaries(self, bound, want):
        # the type holds [-bound - 1, bound]; Python ints from 2^62 on
        assert _int_dtype(bound) == want

    @pytest.mark.parametrize("body, norm, centers, want", [
        # k = 3: total 96 of 127
        pytest.param(cube(2), Norm.lp(1), ((F(-1), F(-1)), (F(1, 3), F(2, 3)), (F(1), F(-1, 3))),
                     np.int8, id="int8"),
        # k = 5: k*bound = 80 fits int8, but the center term takes the
        # total to 160, and the distance from (1, 1) to the center is 128/40
        pytest.param(cube(2), Norm.lp(1), ((F(-1), F(-1, 5)),), np.int16, id="int16-by-centers"),
        # k = 75: total 28,800 of 32,767
        pytest.param(PBall(1, 3), Norm.lp(1),
                     ((F(-1), 0, 0), (F(1, 3), F(-2, 25), F(1, 2)), (0, F(24, 25), F(-1, 3))),
                     np.int16, id="int16"),
        # k = 3 * 999,983: totals 1.15e9 and 1.92e9 of 2.15e9
        pytest.param(PBall(1, 3), Norm.lp(1),
                     ((F(1, 999983), 0, 0), (F(-1), F(1, 3), 0), (0, 0, F(1))),
                     np.int32, id="int32"),
        pytest.param(PBall(1, 3), GAUGE3,
                     ((F(1, 999983), 0, 0), (F(-1), F(1, 3), 0), (0, 0, F(1))),
                     np.int32, id="int32-gauge"),
        pytest.param(PBall(1, 3), Norm.lp(1),
                     ((F(1, 2 ** 31 - 1), 0, 0), (F(-1), F(1, 3), 0), (0, 0, F(1))),
                     np.int64, id="int64"),
    ])
    def test_each_width_matches_reference(self, body, norm, centers, want):
        # the margin runs in the narrowest type holding its bound, and a
        # type one step too narrow would wrap near the bound
        P, D = _confirmation_points(body)
        P = P if len(P) < 1000 else P[::23]
        projections = _projections(P, norm)
        assert _int_dtype(_margin_total(projections, D, centers, norm)) == want
        got = _exact_margin(projections, D, _integer_points(centers), F(1, 2), norm)
        assert got == _reference_margin(P, D, centers, F(1, 2), norm)

    @pytest.mark.parametrize("norm", FACET_NORMS)
    @pytest.mark.parametrize("body", [PBall(1, 3), cube(3), PBall(1, 3, radius=F(3, 2))])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_norm_eval_reference(self, norm, body, seed):
        rng = np.random.default_rng(seed)
        P, D = _confirmation_points(body)
        P = P[rng.choice(len(P), size=300, replace=False)]
        m = int(rng.integers(1, 5))
        centers = tuple(tuple(F(int(rng.integers(-12, 13)), int(rng.integers(1, 13)))
                              for _ in range(3)) for _ in range(m))
        got = _exact_margin(_projections(P, norm), D, _integer_points(centers), F(1, 2), norm)
        assert isinstance(got, Fraction)
        assert got == _reference_margin(P, D, centers, F(1, 2), norm)

    @pytest.mark.parametrize("norm", FACET_NORMS)
    def test_beyond_int64(self, norm):
        # the center denominator pushes W.(P*k - C) past the int64 range
        q = int(0.95 * 2 ** 60) | 1
        P, D = _confirmation_points(PBall(1, 3))
        P = P[::97]
        centers = ((F(q - 1, q), F(1, 3), 0), (F(-1, 7), F(-q + 2, q), F(1, q)))
        got = _exact_margin(_projections(P, norm), D, _integer_points(centers), 1, norm)
        assert got == _reference_margin(P, D, centers, 1, norm)

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(INF), GAUGE2])
    @pytest.mark.parametrize("body", [cube(2), cube(2, half=F(3, 2))])
    @pytest.mark.parametrize("k_is_one, centers", [
        # denominators that divide the lattice's, and a center given twice
        pytest.param(True, ((F(1, 4), F(-1, 2)), (0, F(3, 8)), (F(1, 4), F(-1, 2))), id="k=1"),
        pytest.param(False, ((F(1, 3), 0), (F(-2, 5), F(1, 7)), (F(1, 3), 0)), id="k>1"),
        # the common denominator is past the int64 range
        pytest.param(False, ((F(Q - 1, Q), F(1, 3)), (F(-1, 7), F(2 - Q, Q)),
                             (F(-1, 7), F(2 - Q, Q))), id="python-ints"),
    ])
    def test_cached_projections_match_reference(self, norm, body, k_is_one, centers):
        # the cached projections serve every denominator and repeated
        # centers; the whole lattice is checked, not a sample
        P, D = _confirmation_points(body)
        k = math.lcm(D, *(F(v).denominator for c in centers for v in c)) // D
        assert (k == 1) == k_is_one
        got = _exact_margin(_lattice_projections(body, norm), D, _integer_points(centers),
                            F(1, 2), norm)
        assert got == _reference_margin(P, D, centers, F(1, 2), norm)
        assert verify_ball_covering(body, centers, F(1, 2), norm) == got

    def test_projections_cached_per_body_and_norm(self):
        _lattice_projections.cache_clear()
        for norm in (Norm.lp(1), Norm.lp(INF), Norm.lp(1)):
            verify_ball_covering(cube(3), ((F(1, 3), 0, 0), (0, 0, 0)), F(1, 2), norm)
            verify_ball_covering(cube(3), ((F(1, 5), 0, 0),), F(1, 2), norm)
        info = _lattice_projections.cache_info()
        assert info.misses == 2 and info.hits == 4
        WP, _ = _lattice_projections(cube(3), Norm.lp(1))
        assert not WP.flags.writeable

    def test_float_body_rounds_like_gauge_eval(self):
        norm = Norm.gauge(((0.5, 0, 0), (-0.5, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1.25), (0, 0, -1.25)))
        P, D = _confirmation_points(cube(3))
        P = P[::41]
        centers = ((F(1, 3), 0, F(-1, 4)),)
        got = _exact_margin(_projections(P, norm), D, _integer_points(centers), F(1, 3), norm)
        assert isinstance(got, float)
        assert got == _reference_margin(P, D, centers, F(1, 3), norm)

    def test_search_confirms_without_norm_eval(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the gauge margin went through a pointwise norm")

        monkeypatch.setattr(geometry, "norm_eval", refuse)
        monkeypatch.setattr(geometry, "gauge_eval", refuse)
        sol = search_ball_covering(PBall(1, 3), 6, F(2, 3), GAUGE3,
                                   n_boundary=256, n_interior=64)
        assert sol.success
        assert sol.residual_margin == F(-7, 128)
        # the recheck takes the same exact lattice path as the search
        again = verify_ball_covering(PBall(1, 3), sol.centers, F(2, 3), GAUGE3)
        assert isinstance(again, Fraction) and again == sol.residual_margin

    def test_float_radius_gets_its_exact_margin(self):
        # a float r is the rational it denotes: the confirmed margin is
        # exact, as it is for l1 and l_inf
        rf = 2 / 3
        sol = search_ball_covering(PBall(1, 3), 6, rf, GAUGE3,
                                   n_boundary=256, n_interior=64)
        assert sol.success and sol.radius == rf
        assert isinstance(sol.residual_margin, Fraction)
        assert sol.residual_margin == F(-7, 128) + F(2, 3) - Fraction(rf)
        P, D = _confirmation_points(PBall(1, 3))
        assert sol.residual_margin == _reference_margin(P, D, sol.centers, Fraction(rf), GAUGE3)

    def test_smooth_norm_confirms_in_floats(self, monkeypatch):
        # l2 distances are irrational, so the lattice is checked in floats
        # and never walked one Fraction point at a time
        def refuse(*args):
            raise AssertionError("the l2 margin went through a pointwise norm")

        monkeypatch.setattr(geometry, "norm_eval", refuse)
        monkeypatch.setattr(geometry, "pnorm_eval", refuse)
        sol = search_ball_covering(PBall(1, 3), 6, F(3, 4), Norm.lp(2),
                                   n_boundary=256, n_interior=64)
        assert sol.success
        assert isinstance(sol.residual_margin, float)


def _fraction_snaps(centers):
    """Each grid's snap as Fraction tuples, each distinct value once."""
    return list(dict.fromkeys(
        tuple(tuple(F(int(round(float(v) * q)), q) for v in row) for row in centers)
        for q in (3, 6, 12, 24, 48)))


# (2k+1)/2^e times q = 3*2^(e-1) is a tie k' + 1/2, so each grid meets ties;
# near 2^53/3 the products reach the edge of the exact float integers
snap_coordinates = st.one_of(
    st.floats(-2 ** 53 / 3, 2 ** 53 / 3),
    st.builds(lambda k, e: (2 * k + 1) / 2 ** e, st.integers(-2 ** 20, 2 ** 20),
              st.integers(1, 5)),
    st.sampled_from([0.0, -0.0, *(s * 2 ** 53 / q for q in (3, 6, 12, 24, 48) for s in (1, -1))]),
)


class TestSnappedCenters:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(snap_coordinates, min_size=n, max_size=n), min_size=1, max_size=4)))
    @example([[0.5, -0.5, -0.0], [1.5, -2.5, 0.25], [0.125, 1 / 48, -1 / 96]])
    def test_rows_round_like_round(self, centers):
        # one np.rint per grid gives round's ints, ties to even, and the
        # snaps are the distinct values the Fraction snaps were
        snaps = list(_snap_centers(np.asarray(centers, dtype=float)))
        for q, rows in snaps:
            assert rows == tuple(tuple(int(round(float(v) * q)) for v in row) for row in centers)
            assert all(type(v) is int for row in rows for v in row)
        assert [tuple(tuple(F(v, q) for v in row) for row in rows)
                for q, rows in snaps] == _fraction_snaps(centers)

    def test_value_equal_snaps_are_yielded_once(self):
        # on thirds every finer grid gives the thirds' values again; on
        # sixths the thirds round the ties to even and the finer grids
        # repeat the sixths
        thirds = np.array([[1 / 3, -2 / 3, 0.0], [0.0, 1 / 3, 1.0]])
        assert list(_snap_centers(thirds)) == [(3, ((1, -2, 0), (0, 1, 3)))]
        sixths = np.array([[1 / 6, -5 / 6]])
        assert list(_snap_centers(sixths)) == [(3, ((0, -2),)), (6, ((1, -5),))]

    @pytest.mark.parametrize("body, m, r, norm, centers, margin", [
        # the thirds miss by 1/6; the sixths' snap is the first to cover
        (cube(3), 8, F(1, 2), Norm.lp(INF),
         tuple(itertools.product((F(-1, 2), F(1, 2)), repeat=3)), F(0)),
        (PBall(1, 3), 6, F(3, 4), Norm.lp(1),
         tuple(tuple(s * F(int(i == j), 3) for j in range(3)) for i in range(3) for s in (1, -1)),
         F(-1, 12)),
    ], ids=["cube-m8", "l1-m6"])
    def test_search_confirms_on_the_snapped_rows(self, monkeypatch, body, m, r, norm, centers,
                                                 margin):
        # each snap is confirmed on its int rows and the cached lattice
        # projections, never through verify_ball_covering
        def refuse(*args):
            raise AssertionError("a snap went back through verify_ball_covering")

        monkeypatch.setattr(coverings, "verify_ball_covering", refuse)
        sol = search_ball_covering(body, m, r, norm, n_boundary=256, n_interior=64)
        assert sol.centers == centers
        assert all(type(v) is Fraction for c in sol.centers for v in c)
        assert type(sol.residual_margin) is Fraction and sol.residual_margin == margin
