import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import diampart
from diampart import geometry
from diampart.geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    cube,
    gauge_facets,
    norm_eval,
    vsub,
)
from diampart.cli import _coverage_payload
from diampart.numbers import INF
from diampart.serialization import canonical_json
from diampart import coverings
from diampart.coverings import (
    BallCoveringSolution,
    _body_samples,
    _body_vertices,
    _confirmation_points,
    _dist_matrix,
    _exact_margin,
    _halton,
    _norm_kernel,
    _pattern_search,
    _seed_free_samples,
    partition_diameter_ratio,
    scheme_box_tautology,
    search_ball_covering,
    verify_ball_covering,
    verify_covering,
)
from diampart.partitions import (
    PartitionPiece,
    UnitDisk,
    cube_partition,
    disk_partition4,
    simplex_partition,
    simplex_vertex_homothets,
    triangle_partition4,
)

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
        hs = simplex_vertex_homothets(STD_TETRA, F(3, 4))
        rep = verify_covering(STD_TETRA, hs, N=32)
        assert rep.covered

    def test_vertex_pieces_alone_fail(self):
        # the m8 vertex pieces have mu = 9/16, below the 3/4 coverage
        # threshold: without the residual pieces the grid catches the gap
        from diampart.partitions import piece_contains

        pieces = simplex_partition(STD_TETRA, "m8").pieces[:4]
        assert all(p.ratio_bound == F(9, 16) for p in pieces)
        rep = verify_covering(STD_TETRA, pieces, N=16)
        assert not rep.covered
        assert rep.worst_witness is not None
        w, _margin = rep.worst_witness
        # soundness: the witness really avoids every piece
        for p in pieces:
            assert not piece_contains(p, w, STD_TETRA)

    def test_divisor_monotone(self):
        cert = simplex_partition(STD_TETRA, "m8")
        for N in (8, 16, 32, 64):
            rep = verify_covering(cert.parent, cert.pieces, N=N)
            assert rep.covered
            assert rep.resolution == N

    def test_grid_is_cached_and_read_only(self):
        from diampart.coverings import _bary_grid

        grid = _bary_grid(4, 64)
        assert grid is _bary_grid(4, 64)
        assert grid.shape == (4, 47905) and grid.dtype == np.uint8
        assert grid.flags.c_contiguous and (grid.sum(axis=0) == 64).all()
        with pytest.raises(ValueError):
            grid[0, 0] = 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_grid_matches_brute_force(self, k):
        # every vector summing to N, one per column in lexicographic
        # order, and nothing else, in the narrowest dtype that holds N
        import itertools

        from diampart.coverings import _bary_grid

        for N in (0, 1, 2, 5, 256):
            if N == 256 and k > 2:
                continue
            want = [row for row in itertools.product(range(N + 1), repeat=k) if sum(row) == N]
            grid = _bary_grid(k, N)
            assert grid.dtype == np.min_scalar_type(N) and grid.shape == (k, len(want))
            assert [tuple(map(int, col)) for col in grid.T] == want
            assert not grid.flags.writeable


def multiply_form_mask(rows, bounds, N):
    """The grid test _box_mask ran before it compared against integer
    thresholds: row-major int64 rows, lo <= k/N <= hi as k*den vs num*N."""
    mask = np.ones(len(rows), dtype=bool)
    for i, (lo, hi) in enumerate(bounds):
        lo, hi = F(lo), F(hi)
        if lo > 0:
            mask &= rows[:, i] * lo.denominator >= lo.numerator * N
        if hi < 1:
            mask &= rows[:, i] * hi.denominator <= hi.numerator * N
    return mask


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40)


def unit_boxes(k):
    return st.lists(st.tuples(unit_fractions, unit_fractions).map(sorted),
                    min_size=k, max_size=k)


class TestGridKernel:
    """The coordinate-major threshold test against the multiply form."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 7), (3, 64), (3, 255), (3, 256), (3, 300),
                            (4, 1), (4, 7), (4, 64)]).flatmap(
        lambda kn: st.tuples(st.just(kn), unit_boxes(kn[0]))))
    def test_threshold_test_matches_multiply_form(self, case):
        from diampart.coverings import _bary_grid, _box_mask

        (k, N), box = case
        grid = _bary_grid(k, N)
        assert grid.dtype == (np.uint8 if N < 256 else np.uint16)
        want = multiply_form_mask(grid.T.astype(np.int64), box, N)
        assert np.array_equal(_box_mask(grid, box, N), want)

    @pytest.mark.parametrize("N, point, margin", [
        # what the row-major multiply form reported for these grids
        (7, (F(3, 2), F(9, 7)), 0.07142857142857142),
        (300, (F(413, 300), F(59, 50)), 0.10666666666666667),
    ])
    def test_uncovered_witness_unchanged(self, N, point, margin):
        T = Simplex(((0, 0), (3, 1), (F(1, 2), 2)))
        rep = verify_covering(T, triangle_partition4(T).pieces[:3], N=N)
        assert not rep.covered
        assert rep.worst_witness == (point, margin)


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

    def test_missing_piece_detected(self):
        cert = cube_partition(2)
        rep = verify_covering(cert.parent, cert.pieces[:-1], N=8)
        assert not rep.covered
        # the nearest piece is half an axis away from the missing corner's centre
        assert rep.worst_witness == ((F(1, 2), F(1, 2)), 0.5)
        doc = json.loads(canonical_json(_coverage_payload(rep)))
        assert doc["worst_witness"] == {"point": ["1/2", "1/2"], "margin": 0.5}


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

    @pytest.mark.parametrize("which", range(len(SEARCH_NORMS)))
    @pytest.mark.parametrize("dim, m", [(2, 1), (2, 4), (3, 5)])
    def test_matches_full_recompute_search(self, which, dim, m):
        kernel = _norm_kernel(_norm_for(SEARCH_NORMS[which], dim))
        rng = np.random.default_rng(100 * dim + m)
        samples = rng.uniform(-1, 1, size=(150, dim))
        c0 = rng.uniform(-0.5, 0.5, size=(m, dim))
        got = _pattern_search(samples, c0, kernel, 0.4, np.random.default_rng(3), max_sweeps=12)
        want = _reference_pattern_search(samples, c0, kernel, 0.4,
                                         np.random.default_rng(3), max_sweeps=12)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


WITNESS_BODIES = {
    "disk": (UnitDisk(), Norm.lp(2)),
    "pball3-2": (PBall(3, 2), Norm.lp(3)),
    "l1ball": (PBall(1, 3), Norm.lp(1)),
    "cube": (cube(3), Norm.lp(INF)),
    "gauge": (UnitDisk(), GAUGE2),
}


class TestWitnessPruning:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(WITNESS_BODIES))
    def test_matches_plain_search(self, kind, seed):
        body, norm = WITNESS_BODIES[kind]
        kernel = _norm_kernel(norm)
        rng = np.random.default_rng(seed)
        samples = _body_samples(body, 512, 128, seed)
        m = int(rng.integers(1, 7))
        r = float(rng.uniform(0.3, 1.0))
        c0 = samples[rng.integers(0, len(samples), size=m)] * 0.5
        got = _pattern_search(samples, c0, kernel, r, np.random.default_rng(seed))
        want = _plain_pattern_search(samples, c0, kernel, r, np.random.default_rng(seed))
        assert repr(got[0].tolist()) == repr(want[0].tolist())
        assert repr(got[1]) == repr(want[1])

    def test_most_trials_skip_the_full_column(self, monkeypatch):
        # the README's failing disk search: a loss of the witness rejection
        # leaves the result unchanged, so it is caught by counting
        full = len(_body_samples(UnitDisk(), 4096, 1024, 0))
        make_kernel = coverings._norm_kernel

        def counted_search(search):
            calls = []

            def counting(norm):
                kernel = make_kernel(norm)
                return lambda diff: calls.append(diff.shape[1]) or kernel(diff)

            monkeypatch.setattr(coverings, "_norm_kernel", counting)
            monkeypatch.setattr(coverings, "_pattern_search", search)
            sol = search_ball_covering(UnitDisk(), 2, 0.9, Norm.lp(2), seed=0)
            return sol, calls.count(full)

        sol, pruned = counted_search(_pattern_search)
        want, trials = counted_search(_plain_pattern_search)
        assert (sol.centers, sol.search_margin) == (want.centers, want.search_margin)
        assert pruned < trials / 2


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


# l1 and l_inf take the same facet-form path as the gauges
FACET_NORMS = [GAUGE3, SKEW_GAUGE3, Norm.lp(1), Norm.lp(INF)]


class TestExactGaugeMargin:
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
        got = _exact_margin(P, D, centers, F(1, 2), norm)
        assert isinstance(got, Fraction)
        assert got == _reference_margin(P, D, centers, F(1, 2), norm)

    @pytest.mark.parametrize("norm", FACET_NORMS)
    def test_beyond_int64(self, norm):
        # the center denominator pushes W.(P*k - C) past the int64 range
        q = int(0.95 * 2 ** 60) | 1
        P, D = _confirmation_points(PBall(1, 3))
        P = P[::97]
        centers = ((F(q - 1, q), F(1, 3), 0), (F(-1, 7), F(-q + 2, q), F(1, q)))
        got = _exact_margin(P, D, centers, 1, norm)
        assert got == _reference_margin(P, D, centers, 1, norm)

    def test_float_body_rounds_like_gauge_eval(self):
        norm = Norm.gauge(((0.5, 0, 0), (-0.5, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1.25), (0, 0, -1.25)))
        P, D = _confirmation_points(cube(3))
        P = P[::41]
        centers = ((F(1, 3), 0, F(-1, 4)),)
        got = _exact_margin(P, D, centers, F(1, 3), norm)
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
