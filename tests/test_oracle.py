import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diampart.geometry import (Norm, _distance_keys, _key_exponent, cross_polytope, cube,
                               diameter_finite, norm_eval, vsub)
from diampart.numbers import INF, float_or_inf, root_float
from diampart.oracle import beta_finite_exact, m_colorable

F = Fraction


def triangle_with_midpoints():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)
    mid = lambda p, q: tuple((x + y) / 2 for x, y in zip(p, q))
    return [a, b, c, mid(a, b), mid(b, c), mid(a, c)]


def part_key(keys, part):
    """The largest key of a pair inside the part (0 for fewer than two points)."""
    return max((keys[pair] for pair in itertools.combinations(sorted(part), 2)), default=0)


def exact_distance(pts, key, keys, norm):
    """The norm of the exact difference of the first pair with this key.
    A float is read as the rational it denotes and an int stays an int, so
    l1 and l_inf give ints on int coordinates, as the oracle reports them."""
    i, j = next(pair for pair, k in keys.items() if k == key)
    p, q = (tuple(F(c) if type(c) is float else c for c in v) for v in (pts[i], pts[j]))
    return norm_eval(vsub(p, q), norm)


def far_pairs(pts, threshold, norm):
    """The edges (i, j), i < j, of points at distance strictly above the
    threshold."""
    return [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if norm_eval(vsub(pts[i], pts[j]), norm) > threshold]


class TestColorability:
    def test_complete_graph_needs_n_colors(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        ok3, _ = m_colorable(4, edges, 3)
        assert not ok3
        ok4, cols = m_colorable(4, edges, 4)
        assert ok4 and len(set(cols)) == 4

    def test_edgeless_one_color(self):
        ok, cols = m_colorable(3, [], 1)
        assert ok and set(cols) == {0}

    def test_triangle_config_below_half_not_4_colorable(self):
        edges = far_pairs(triangle_with_midpoints(), 0.499, Norm.lp(2))
        ok, _ = m_colorable(6, edges, 4)
        assert not ok

    def test_triangle_config_at_half_4_colorable(self):
        edges = far_pairs(triangle_with_midpoints(), 0.5, Norm.lp(2))
        ok, cols = m_colorable(6, edges, 4)
        assert ok
        for i, j in edges:
            assert cols[i] != cols[j]
        assert all(any(i in e for e in edges) for i in range(3))

    def test_coloring_always_proper(self):
        pts = [(0, 0), (3, 0), (0, 4), (3, 4), (1, 1)]
        edges = far_pairs(pts, 3, Norm.lp(1))
        ok, cols = m_colorable(5, edges, 3)
        if ok:
            for i, j in edges:
                assert cols[i] != cols[j]


class TestBetaFinite:
    def test_triangle_midpoints_half_exactly(self):
        # the float triangle is not exactly equilateral: read exactly, the
        # witness's largest squared key is just under 1/4 of the diameter's,
        # and 0.5 is the float nearest the root of that ratio
        pts = triangle_with_midpoints()
        res = beta_finite_exact(pts, 4, Norm.lp(2))
        keys = _distance_keys(pts, Norm.lp(2))
        worst = max(part_key(keys, part) for part in res.witness_partition)
        ratio = F(worst, max(keys.values()))
        assert ratio < F(1, 4)
        assert res.value == 0.5
        below = F(0.5) - F(math.ulp(0.49999999999999994)) / 2
        assert below ** 2 < ratio  # nearer 0.5 than 0.49999999999999994
        assert res.threshold == 0.5 and res.diameter == 1.0
        assert len(res.witness_partition) == 4

    def test_near_tie_under_l2_is_not_merged(self):
        # |p1 - p0| exceeds |p2 - p1| by about 1e-10: only ((0,), (1, 2))
        # attains the threshold
        pts = [(0, 0), (1 + 1e-10, 0), (2 + 1e-10, 0)]
        res = beta_finite_exact(pts, 2, Norm.lp(2))
        assert res.witness_partition == ((0,), (1, 2))
        keys = _distance_keys(pts, Norm.lp(2))
        assert max(part_key(keys, part) for part in res.witness_partition) == keys[1, 2]
        assert res.threshold == float(exact_distance(pts, keys[1, 2], keys, Norm.lp(2)))
        assert res.value == 0.499999999975

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.gauge(cube(2))])
    def test_far_points_are_read_exactly(self, norm):
        # the differences overflow a float; the value (X + 1)/(2X) under
        # l1 and 1/2 under l_inf do not
        X = 1e308
        res = beta_finite_exact([(X, 0), (-X, 0), (0, 1)], 2, norm)
        assert res.value == 0.5 and res.threshold == X and res.diameter == INF
        assert sorted(map(sorted, res.witness_partition)) == [[0, 2], [1]]

    @pytest.mark.parametrize("norm", [Norm.lp(2), Norm.lp(3)])
    def test_far_points_under_integer_p(self, norm):
        # integer keys give the value; the exact diameter 2e308 prints as inf
        X = 1e308
        res = beta_finite_exact([(X, 0), (-X, 0), (0, 1)], 2, norm)
        assert res.value == 0.5 and res.threshold == X and res.diameter == INF
        assert sorted(map(sorted, res.witness_partition)) == [[0, 2], [1]]

    @pytest.mark.parametrize("pts", [[(1e308, 0), (-1e308, 0), (0, 1)],
                                     [(0, 0), (1.7e308, 1.7e308), (1, 1)]])
    def test_float_keys_refuse_an_infinite_distance(self, pts):
        # an inf float key ties with every other, so the value would read 0
        with pytest.raises(OverflowError, match="beyond the float range"):
            beta_finite_exact(pts, 2, Norm.lp(F(5, 2)))

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(2), Norm.lp(3), Norm.lp(F(5, 2)),
                                      Norm.lp(INF), Norm.gauge(cube(2))])
    def test_far_points_never_give_nan(self, norm):
        try:
            res = beta_finite_exact([(1e308, 0), (-1e308, 0), (0, 1)], 2, norm)
        except OverflowError:  # a float distance that leaves the float range
            return
        assert not any(map(math.isnan, (res.value, res.threshold, res.diameter)))

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(INF), Norm.lp(2),
                                      Norm.gauge(cross_polytope(2)),
                                      Norm.gauge([(1.0, 0), (-1.0, 0), (0, 1.0), (0, -1.0)])],
                             ids=["l1", "linf", "l2", "int-gauge", "float-gauge"])
    def test_far_points_have_an_infinite_diameter(self, norm):
        # the exact diameter 2e308 rounds to inf under every norm
        pts = [(1e308, 0.0), (-1e308, 0.0), (0.0, 1.0)]
        assert diameter_finite(pts, norm) == INF
        res = beta_finite_exact(pts, 2, norm)
        assert res.value == 0.5 and res.diameter == INF

    def test_enough_parts_means_zero(self):
        pts = [(0, 0), (5, 1), (2, 2)]
        res = beta_finite_exact(pts, 3, Norm.lp(1))
        assert res.value == 0
        res9 = beta_finite_exact(pts, 9, Norm.lp(INF))
        assert res9.value == 0 and len(res9.witness_partition) == 9

    def test_unit_square_two_parts(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        res = beta_finite_exact(pts, 2, Norm.lp(2))
        assert res.value == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_rectangle_linf_exact_ratio(self):
        pts = [(0, 0), (1, 0), (0, 2), (1, 2)]
        res = beta_finite_exact(pts, 2, Norm.lp(INF))
        assert res.value == F(1, 2)
        assert isinstance(res.value, Fraction)

    def test_witness_realizes_value(self):
        pts = [(0, 0), (4, 1), (1, 3), (2, 2), (5, 5), (0, 3)]
        norm = Norm.lp(1)
        res = beta_finite_exact(pts, 3, norm)
        from diampart.geometry import diameter_finite

        worst = max(
            (diameter_finite([pts[i] for i in part], norm) for part in res.witness_partition if part),
        )
        assert worst == res.value * res.diameter

    def test_monotone_in_m(self):
        pts = [(0, 0), (4, 1), (1, 3), (2, 2), (5, 5), (0, 3), (3, 0)]
        norm = Norm.lp(INF)
        vals = [beta_finite_exact(pts, m, norm).value for m in range(1, 6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_scale_translate_invariance(self):
        pts = [(0, 0), (4, 1), (1, 3), (2, 2)]
        norm = Norm.lp(1)
        base = beta_finite_exact(pts, 2, norm).value
        moved = [(F(-7, 3) * x + 11, F(-7, 3) * y - F(1, 5)) for x, y in pts]
        assert beta_finite_exact(moved, 2, norm).value == base

    def test_single_point(self):
        res = beta_finite_exact([(1, 1)], 2, Norm.lp(2))
        assert res.value == 0

    @pytest.mark.parametrize("norm", [Norm.lp(1), Norm.lp(2), Norm.lp(INF),
                                      Norm.gauge(((1, 0), (-1, 0), (0, 1), (0, -1)))])
    def test_mixed_dimensions_rejected(self, norm):
        # as diameter_finite refuses them, under every norm; zip-truncated
        # differences would give a value
        with pytest.raises(ValueError, match="points differ in dimension"):
            beta_finite_exact([(0, 0), (1,), (2, 2)], 2, norm)

    def test_budget_enforced(self):
        pts = [(i, 0) for i in range(15)]
        with pytest.raises(ValueError):
            beta_finite_exact(pts, 3, Norm.lp(1))
        with pytest.raises(ValueError):
            beta_finite_exact(pts[:5], 10, Norm.lp(1))

    def test_value_is_a_distance_ratio(self):
        pts = [(0, 0), (2, 1), (1, 4), (3, 3), (5, 0)]
        norm = Norm.lp(INF)
        res = beta_finite_exact(pts, 2, norm)
        from diampart.geometry import norm_eval, vsub

        dists = {norm_eval(vsub(p, q), norm) for p in pts for q in pts}
        assert res.threshold in dists
        assert res.value == F(res.threshold, res.diameter)


def brute_force_key(keys, n, m):
    """The least largest in-part key over every assignment of n points to m parts."""
    return min(max((k for (i, j), k in keys.items() if a[i] == a[j]), default=0)
               for a in itertools.product(range(m), repeat=n))


HEXAGON = Norm.gauge(((2, 1), (-2, -1), (1, 2), (-1, -2), (1, -1), (-1, 1)))
coordinates = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6),
                        st.floats(-4, 4, allow_subnormal=False),
                        st.sampled_from([1 + 1e-10, 2 + 1e-10, 1e-12]))


class TestBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=7),
           st.integers(1, 3), st.sampled_from([Norm.lp(1), Norm.lp(2), Norm.lp(3), HEXAGON]))
    @example([(0, 0), (1 + 1e-10, 0), (2 + 1e-10, 0)], 2, Norm.lp(2))
    @example([(0, 0), (0, 1)], 1, Norm.lp(1))  # an int threshold
    def test_threshold_key_is_the_least_over_every_assignment(self, pts, m, norm):
        res = beta_finite_exact(pts, m, norm)
        keys = _distance_keys(pts, norm)
        best = brute_force_key(keys, len(pts), m)
        assert max(part_key(keys, part) for part in res.witness_partition) == best
        assert sorted(i for part in res.witness_partition for i in part) == list(range(len(pts)))
        top = max(keys.values(), default=0)
        rational = all(type(c) is not float for p in pts for c in p)
        out = (lambda x: x) if rational and norm.exact else float_or_inf
        assert repr(res.threshold) == repr(out(
            exact_distance(pts, best, keys, norm) if best else F(0)))
        e = _key_exponent(norm)
        ratio = F(best, top or 1)
        assert res.value == (out(ratio) if e == 1 else root_float(ratio, e))


class TestRounding:
    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=10 ** 6), st.integers(2, 9))
    @example(F(1, 4), 2)
    @example(F(10 ** -400), 3)
    def test_root_float_is_the_nearest_float(self, x, p):
        r = root_float(x, p)
        half_ulp = F(math.ulp(r)) / 2
        assert max(F(r) - half_ulp, 0) ** p <= x <= (F(r) + half_ulp) ** p

    def test_root_float_exact_roots(self):
        assert root_float(F(1, 4), 2) == 0.5 and root_float(F(27, 8), 3) == 1.5
        assert root_float(0, 5) == 0.0

    def test_float_or_inf(self):
        assert float_or_inf(F(10 ** 400, 3)) == INF and float_or_inf(-10 ** 400) == -INF
        assert float_or_inf(F(1, 3)) == 1 / 3 and float_or_inf(2.5) == 2.5
