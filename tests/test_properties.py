"""Property-based checks of the algebraic laws the library relies on."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import diampart

from diampart.bounds import minmax_branches, minmax_epsilon, stability_transfer
from diampart.geometry import (
    Norm,
    Simplex,
    VPolytope,
    affine_rank,
    cross_polytope,
    cube,
    diameter_finite,
    dual_exponent,
    gauge_eval,
    norm_eval,
    pnorm_eval,
    point_in_vpolytope,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)
from diampart.numbers import INF, as_fraction
from diampart.oracle import beta_finite_exact
from diampart.partitions import residual_enclosure, simplex_partition
from diampart.coverings import _norm_kernel, partition_diameter_ratio

F = Fraction

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
small_rationals = st.fractions(min_value=F(1, 100), max_value=1,
                               max_denominator=100)


def vec(dim):
    return st.tuples(*([rationals] * dim))


SKEW_TETRA = Simplex(((0, 0, 0), (3, 1, 0), (-1, 4, 1), (F(1, 2), 1, 5)))
POLY_NORMS = [Norm.lp(1), Norm.lp(INF)]


class TestNormAxioms:
    @settings(max_examples=60, deadline=None)
    @given(vec(3), vec(3), st.sampled_from([1, F(3, 2), 2, 3, INF]))
    def test_triangle_inequality(self, x, y, p):
        lhs = float(pnorm_eval(vadd(x, y), p))
        rhs = float(pnorm_eval(x, p)) + float(pnorm_eval(y, p))
        assert lhs <= rhs + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(vec(3), rationals, st.sampled_from([1, INF]))
    def test_homogeneity_exact_polyhedral(self, x, lam, p):
        assert pnorm_eval(vscale(lam, x), p) == abs(lam) * pnorm_eval(x, p)

    @settings(max_examples=40, deadline=None)
    @given(vec(3))
    def test_p_monotone(self, x):
        ps = [1, 1.2, 1.5, 2, 3, 8, INF]
        vals = [float(pnorm_eval(x, p)) for p in ps]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(vec(3), vec(3), st.sampled_from([1, F(4, 3), 2, 4, INF]))
    def test_holder(self, x, y, p):
        q = dual_exponent(p)
        lhs = abs(float(vdot(x, y)))
        rhs = float(pnorm_eval(x, p)) * float(pnorm_eval(y, q))
        assert lhs <= rhs + 1e-7 * (1 + rhs)

    @settings(max_examples=30, deadline=None)
    @given(vec(2))
    def test_gauge_of_cross_polytope_is_l1(self, x):
        assert gauge_eval(x, cross_polytope(2)) == pnorm_eval(x, 1)

    @settings(max_examples=30, deadline=None)
    @given(vec(2))
    def test_gauge_of_cube_is_linf(self, x):
        assert gauge_eval(x, cube(2)) == pnorm_eval(x, INF)


def lp_gauge(x, verts):
    """Reference gauge: the LP min sum(mu), x = sum mu_j w_j, mu >= 0
    (None when infeasible), by brute force.

    An LP optimum sits at a basic solution, so it is the least sum(mu)
    over the n-subsets of the vertices that give x uniquely with mu >= 0.
    """
    best = None
    for sub in itertools.combinations(verts, len(x)):
        mu = fraction_solve([[w[i] for w in sub] for i in range(len(x))], x)
        if mu is not None and min(mu) >= 0 and (best is None or sum(mu) < best):
            best = sum(mu)
    return best


def symmetric_bodies(dim):
    """Vertex tuples of random origin-symmetric bodies; the tests assume
    full rank."""
    return st.lists(vec(dim), min_size=dim, max_size=dim + 3).map(
        lambda half: tuple(half) + tuple(vneg(h) for h in half))


# the cube [0,2] x [-1,1]^2 has the origin on a facet, so its gauge is
# finite only on a half-space; the simplex holds the origin off-centre
OFF_CENTRE = [
    tuple((1 + a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)),
    ((3, 0, 0), (0, 2, 0), (0, 0, 1), (-1, -1, -1)),
]


class TestFacetFormGauge:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 3, 4]).flatmap(
        lambda n: st.tuples(symmetric_bodies(n), vec(n))))
    def test_matches_lp_on_symmetric_bodies(self, case):
        verts, x = case
        assume(affine_rank([(0,) * len(x), *verts]) == len(x))
        assert gauge_eval(x, VPolytope(verts)) == lp_gauge(x, verts)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(OFF_CENTRE), vec(3))
    def test_matches_lp_off_centre(self, verts, x):
        want = lp_gauge(x, verts)
        if want is None:
            with pytest.raises(ValueError):
                gauge_eval(x, VPolytope(verts))
        else:
            assert gauge_eval(x, VPolytope(verts)) == want

    @settings(max_examples=20, deadline=None)
    @given(symmetric_bodies(3), st.lists(vec(3), min_size=2, max_size=6))
    def test_diameter_is_pairwise_max(self, verts, pts):
        assume(affine_rank([(0, 0, 0), *verts]) == 3)
        body = VPolytope(verts)
        brute = max(gauge_eval(vsub(p, q), body) for p in pts for q in pts)
        got = diameter_finite(pts, Norm.gauge(body))
        assert got == brute and type(got) is Fraction
        # l1 and l_inf take the same width kernel: an int exactly when
        # every coordinate is an int
        ints = [tuple(c.numerator for c in p) for p in pts]
        for p in (1, INF):
            for points, kind in ((pts, Fraction), (ints, int)):
                brute = max(pnorm_eval(vsub(a, b), p) for a in points for b in points)
                got = diameter_finite(points, Norm.lp(p))
                assert got == brute and type(got) is kind

    @settings(max_examples=40, deadline=None)
    @given(symmetric_bodies(3), st.tuples(*[st.floats(-8, 8)] * 3))
    def test_float_input_matches_lp(self, verts, x):
        assume(affine_rank([(0, 0, 0), *verts]) == 3)
        got = gauge_eval(x, VPolytope(verts))
        want = float(lp_gauge(tuple(map(as_fraction, x)), verts))
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_gauge_oracle_cli_leaves_scipy_spatial_unimported(tmp_path):
    problem = tmp_path / "gauge.json"
    problem.write_text(json.dumps({
        "norm": {"kind": "gauge",
                 "vertices": [[2, 0, 1], [-2, 0, -1], [0, 1, 0], [0, -1, 0],
                              [1, 1, 3], [-1, -1, -3]]},
        "points": [[0, 0, 0], [1, "1/2", 2], [3, -1, 0], [-2, 2, 1], [1, 1, 1]],
    }))
    script = ("import sys\n"
              "from diampart.cli import main\n"
              "code = main(['oracle', '--points', sys.argv[1], '--m', '2'])\n"
              "sys.stderr.write(str('scipy.spatial' in sys.modules))\n"
              "sys.exit(code)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(diampart.__file__))
    proc = subprocess.run([sys.executable, "-c", script, str(problem)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["norm"] == "gauge"
    assert proc.stderr == "False"


class TestDiameterLaws:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(vec(2), min_size=2, max_size=6), rationals, vec(2))
    def test_scaling_translation_exact(self, pts, lam, shift):
        for norm in POLY_NORMS:
            base = diameter_finite(pts, norm)
            moved = [vadd(vscale(lam, p), shift) for p in pts]
            assert diameter_finite(moved, norm) == abs(lam) * base


def pairwise_diameter(pts, norm):
    """The pairwise loop diameter_finite ran before its integer width
    kernel: the largest norm of a difference of two points."""
    best = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = norm_eval(vsub(pts[i], pts[j]), norm)
            if best is None or d > best:
                best = d
    return best


def kernel_gauge(dim):
    """A skew symmetric gauge body in R^dim: +-e_i and +-(1, 2, ..., dim)."""
    ends = tuple(range(1, dim + 1))
    verts = cross_polytope(dim).vertices + (ends, vneg(ends))
    return Norm.gauge(tuple(dict.fromkeys(verts)))


coordinates = {
    "int": st.integers(-20, 20),
    "fraction": st.fractions(min_value=-8, max_value=8, max_denominator=24),
    "mixed": st.one_of(st.integers(-20, 20),
                       st.fractions(min_value=-8, max_value=8, max_denominator=24)),
}


def point_sets(kind):
    return st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[coordinates[kind]] * dim), min_size=2, max_size=9))


class TestDiameterKernel:
    """diameter_finite's integer kernels against the pairwise loop."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(coordinates)).flatmap(point_sets))
    def test_matches_pairwise_reference(self, pts):
        all_int = all(type(c) is int for p in pts for c in p)
        norms = [Norm.lp(1), Norm.lp(INF), Norm.lp(2), Norm.lp(3), kernel_gauge(len(pts[0]))]
        for norm in norms:
            got, want = diameter_finite(pts, norm), pairwise_diameter(pts, norm)
            assert got == want, norm
            if norm.kind == "gauge":
                assert type(got) is Fraction
            elif norm.is_polyhedral:
                assert type(got) is (int if all_int else Fraction), norm
            else:  # the same float, bit for bit
                assert type(got) is float and got.hex() == want.hex(), norm

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[st.one_of(st.integers(-20, 20), st.floats(-8, 8))] * dim),
        min_size=2, max_size=6)))
    def test_float_points_are_read_exactly(self, pts):
        # a float is the rational it denotes: the diameter is the rational
        # points' diameter, rounded (the same float, bit for bit, under l_p)
        assume(any(type(c) is float for p in pts for c in p))
        exact = [tuple(map(F, p)) for p in pts]
        for norm in (Norm.lp(1), Norm.lp(INF), Norm.lp(2), Norm.lp(3)):
            got = diameter_finite(pts, norm)
            assert type(got) is float
            assert got.hex() == float(diameter_finite(exact, norm)).hex(), norm


# (norm, dimensions) for every _norm_kernel kind the search uses
SEARCH_KERNELS = {
    "l1": (Norm.lp(1), (2, 3)),
    "l2": (Norm.lp(2), (2, 3)),
    "l3": (Norm.lp(3), (2, 3)),
    "l_inf": (Norm.lp(INF), (2, 3)),
    "gauge2": (kernel_gauge(2), (2,)),
    "gauge3": (kernel_gauge(3), (3,)),
}


class TestSearchKernelColumns:
    """The pattern search rejects a trial at its witness pool alone, with
    all the trials of a sweep in one kernel call; that is exact only if a
    sample's distance is computed on its own, the same bits whatever other
    samples or trials share the kernel call."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(SEARCH_KERNELS)), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3000), st.data())
    def test_subset_of_samples_is_subset_of_distances(self, kind, seed, S, data):
        norm, dims = SEARCH_KERNELS[kind]
        dim = data.draw(st.sampled_from(dims))
        kernel = _norm_kernel(norm)
        rng = np.random.default_rng(seed)
        rows = np.ascontiguousarray(rng.uniform(-2, 2, size=(S, dim)).T)
        c = rng.uniform(-1, 1, size=dim)
        idx = data.draw(st.lists(st.integers(0, S - 1), min_size=1, max_size=8))
        full = kernel(rows - c[:, None])
        assert kernel(rows[:, idx] - c[:, None]).tobytes() == full[idx].tobytes()

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(SEARCH_KERNELS)), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 24), st.integers(1, 64))
    @example("gauge3", 0, 1, 1)
    @example("gauge2", 1, 1, 9)
    @example("gauge3", 2, 17, 1)
    @example("l3", 3, 1, 1)
    def test_trial_batch_is_stacked_trial_calls(self, kind, seed, T, W):
        # the sweep batch: T trials at W pool samples, one (n, T*W) call
        norm, dims = SEARCH_KERNELS[kind]
        dim = dims[seed % len(dims)]
        kernel = _norm_kernel(norm)
        rng = np.random.default_rng(seed)
        rows_ws = rng.uniform(-2, 2, size=(dim, W))
        trials = rng.uniform(-1, 1, size=(T, dim))
        batch = kernel((rows_ws[:, None, :] - trials.T[:, :, None]).reshape(dim, T * W))
        stacked = np.stack([kernel(rows_ws - t[:, None]) for t in trials])
        assert batch.tobytes() == stacked.tobytes()


def _weighted_sum(lam, verts):
    """The point sum_i lam_i * verts_i."""
    return tuple(sum(l * v[k] for l, v in zip(lam, verts)) for k in range(len(verts[0])))


# floats of every scale, subnormals to near overflow, and a few values
# drawn often enough that points repeat and coordinates coincide, so
# low ranks come up
wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-12, -1e-12, 1e308, 5e-324, 0.1 + 0.2, 0.3]))
mixed_scalars = st.one_of(wide_floats, st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
# (dimension 1..4, coordinates all float or mixed)
float_data = st.tuples(st.integers(1, 4), st.sampled_from([wide_floats, mixed_scalars]))


def fraction_rank(rows):
    """Rank by Gauss-Jordan elimination in Fractions, the reference."""
    rows = [[as_fraction(c) for c in r] for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_solve(A, b):
    """The solution of the square system A x = b by Gauss-Jordan
    elimination in Fractions, or None when A is singular: the reference."""
    n = len(A)
    rows = [[as_fraction(c) for c in (*row, rhs)] for row, rhs in zip(A, b)]
    for j in range(n):
        pivot = next((i for i in range(j, n) if rows[i][j]), None)
        if pivot is None:
            return None
        top = [a / rows[pivot][j] for a in rows[pivot]]
        rows[pivot], rows[j] = rows[j], top
        for i in range(n):
            if i != j:
                f = rows[i][j]
                rows[i] = [a - f * c for a, c in zip(rows[i], top)]
    return [row[n] for row in rows]


def fraction_barycentric(verts, x):
    """The affine coefficients of x over the simplex vertices (sum 1),
    by fraction_solve."""
    A = [[v[i] for v in verts] for i in range(len(x))] + [[1] * len(verts)]
    return fraction_solve(A, [*x, 1])


class TestFloatsReadExactly:
    """Float data takes the exact path: ranks are those of the rationals
    the floats denote."""

    @settings(max_examples=150, deadline=None)
    @given(float_data.flatmap(lambda nc: st.lists(
        st.tuples(*[nc[1]] * nc[0]), min_size=1, max_size=6)))
    def test_affine_rank_is_that_of_the_fractions(self, pts):
        exact = [tuple(map(as_fraction, p)) for p in pts]
        want = fraction_rank([vsub(p, exact[0]) for p in exact[1:]])
        assert affine_rank(pts) == affine_rank(exact) == want


def simplex_queries(dim):
    """(vertices, x): a random rational simplex and a point that is
    random or an affine combination of the vertices with small integer
    weights, which puts many points on the boundary."""
    def with_point(verts):
        weights = st.tuples(*[st.integers(-1, 3)] * (dim + 1))
        combos = weights.filter(lambda w: sum(w) != 0).map(
            lambda w: _weighted_sum([F(wi, sum(w)) for wi in w], verts))
        return st.tuples(st.just(verts), st.one_of(vec(dim), combos))
    return st.lists(vec(dim), min_size=dim + 1, max_size=dim + 1).flatmap(with_point)


def cube_queries():
    """(n, half, x) with coordinates random, float or on a cube face."""
    def with_point(n, half):
        coord = st.one_of(rationals, st.floats(-5, 5), st.sampled_from([half, -half]))
        return st.tuples(st.just(n), st.just(half), st.tuples(*[coord] * n))
    halves = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=12)
    return st.tuples(st.integers(1, 4), halves).flatmap(lambda nh: with_point(*nh))


class TestPolytopeMembership:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(simplex_queries))
    def test_simplex_matches_barycentric(self, case):
        verts, x = case
        assume(affine_rank(verts) == len(x))
        inside = min(fraction_barycentric(verts, x)) >= 0
        assert point_in_vpolytope(VPolytope(verts), x) == inside

    @settings(max_examples=60, deadline=None)
    @given(cube_queries())
    def test_cube_matches_coordinate_bounds(self, case):
        n, half, x = case
        assert point_in_vpolytope(cube(n, half), x) == all(abs(c) <= half for c in x)


class TestOracleAgainstConstruction:
    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                              st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=6),
           st.sampled_from([Norm.lp(1), Norm.lp(INF), Norm.lp(2)]))
    def test_eight_parts_beat_nine_sixteenths(self, raw, norm):
        # vertices pinned so the sample's diameter equals the simplex's
        pts = list(SKEW_TETRA.vertices)
        for w in raw:
            total = sum(w) or 1
            lam = tuple(F(c, total) for c in (w if sum(w) else (1, 0, 0, 0)))
            pts.append(_weighted_sum(lam, SKEW_TETRA.vertices))
        res = beta_finite_exact(pts, 8, norm)
        assert float(res.value) <= 9 / 16 + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.lists(vec(2), min_size=2, max_size=7),
           st.integers(1, 4), st.integers(1, 3))
    def test_monotone_in_m(self, pts, m, extra):
        norm = Norm.lp(INF)
        a = beta_finite_exact(pts, m, norm)
        b = beta_finite_exact(pts, m + extra, norm)
        assert float(b.value) <= float(a.value) + 1e-15

    @settings(max_examples=10, deadline=None)
    @given(st.lists(vec(2), min_size=2, max_size=6),
           st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
           vec(2))
    def test_affine_invariance(self, pts, lam, shift):
        norm = Norm.lp(1)
        moved = [vadd(vscale(lam, p), shift) for p in pts]
        assert (beta_finite_exact(pts, 3, norm).value
                == beta_finite_exact(moved, 3, norm).value)


class TestPartitionLaws:
    @settings(max_examples=15, deadline=None)
    @given(st.fractions(min_value=F(26, 100), max_value=F(1, 2),
                        max_denominator=64))
    def test_residual_enclosure_ratio(self, t):
        h = residual_enclosure(SKEW_TETRA, t)
        assert h.ratio == -(4 * t - 1)

    @settings(max_examples=8, deadline=None)
    @given(st.tuples(*(st.integers(-4, 4) for _ in range(12))))
    def test_m8_ratio_under_l1_random_tetra(self, flat):
        verts = ((0, 0, 0), flat[0:3], flat[3:6], flat[6:9])
        try:
            S = Simplex(tuple(map(tuple, verts)))
        except ValueError:
            return  # degenerate draw
        cert = simplex_partition(S, "m8")
        ratio = partition_diameter_ratio(cert, Norm.lp(1))
        assert ratio <= F(9, 16)


def either_mode(values):
    """A rational from the strategy, or its float."""
    return st.tuples(values, st.booleans()).map(lambda t: float(t[0]) if t[1] else t[0])


def assert_mode_rule(got, inputs, formula):
    """Exact when every input is rational; else bit for bit the float the
    all-float formula gives."""
    if all(isinstance(v, Fraction) for v in inputs):
        want, kind = formula(*inputs), Fraction
    else:
        want, kind = formula(*map(float, inputs)), float
    for g, w in zip(got, want):
        assert type(g) is kind and repr(g) == repr(w)


class TestModeRule:
    @settings(max_examples=80, deadline=None)
    @given(either_mode(small_rationals), either_mode(small_rationals),
           either_mode(st.fractions(min_value=F(1, 100), max_value=F(3, 10),
                                    max_denominator=100)))
    def test_minmax_branches(self, eta, ball, eps):
        assert_mode_rule(minmax_branches(eta, ball, eps), (eta, ball, eps),
                         lambda h, b, e: ((1 + 4 * e / (1 - 3 * e)) * h,
                                          2 * (3 - e) / (4 - e) * b))

    @settings(max_examples=80, deadline=None)
    @given(either_mode(st.fractions(min_value=F(101, 100), max_value=8, max_denominator=100)))
    def test_dual_exponent(self, p):
        assert_mode_rule((dual_exponent(p),), (p,), lambda p: (p / (p - 1),))

    @settings(max_examples=80, deadline=None)
    @given(either_mode(small_rationals),
           either_mode(st.fractions(min_value=1, max_value=4, max_denominator=100)))
    def test_stability_transfer(self, beta, gamma):
        assert_mode_rule((stability_transfer(beta, gamma),), (beta, gamma),
                         lambda b, g: (min(type(b)(1), b * g),))


class TestMinmaxLaws:
    @settings(max_examples=40, deadline=None)
    @given(small_rationals, small_rationals)
    def test_branches_monotone(self, eta, ball):
        eps_grid = [F(k, 30) for k in range(1, 10)]
        vals = [minmax_branches(eta, ball, e) for e in eps_grid]
        for (a1, a2), (b1, b2) in zip(vals, vals[1:]):
            assert b1 >= a1 and b2 <= a2

    @settings(max_examples=40, deadline=None)
    @given(small_rationals, small_rationals)
    def test_closed_form_matches_golden(self, eta, ball):
        # minmax_epsilon asserts <= 1e-10 agreement internally
        res = minmax_epsilon(eta, ball)
        assert 0 < float(res.eps_star) < 1 / 3
        assert float(res.bound) >= float(eta) - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(small_rationals, small_rationals, st.fractions(
        min_value=F(1, 50), max_value=F(32, 100), max_denominator=100))
    def test_bound_no_worse_than_any_probe(self, eta, ball, eps):
        res = minmax_epsilon(eta, ball)
        probe = max(*minmax_branches(eta, ball, eps))
        assert float(res.bound) <= float(probe) + 1e-9
