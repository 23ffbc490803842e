import math
from fractions import Fraction

import pytest

from diampart.geometry import Norm, norm_eval, vsub
from diampart.numbers import INF
from diampart.oracle import beta_finite_exact, m_colorable

F = Fraction


def triangle_with_midpoints():
    a, b, c = (0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)
    mid = lambda p, q: tuple((x + y) / 2 for x, y in zip(p, q))
    return [a, b, c, mid(a, b), mid(b, c), mid(a, c)]


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
        res = beta_finite_exact(triangle_with_midpoints(), 4, Norm.lp(2))
        assert res.value == 0.5
        assert len(res.witness_partition) == 4

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
