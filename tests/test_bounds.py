import math
from fractions import Fraction

import pytest

from diampart.banach_mazur import sandwich_verify
from diampart.bounds import (
    BALL_THRESHOLD,
    BetaBound,
    EpsilonOptResult,
    ProvenanceStep,
    corollary_threshold_check,
    lp_beta8_table,
    minmax_branches,
    minmax_epsilon,
    stability_transfer,
)
from diampart.coverings import verify_covering
from diampart.numbers import INF

F = Fraction


class TestTransferLaws:
    def test_identity_factor(self):
        assert stability_transfer(F(9, 16), 1) == F(9, 16)
        assert stability_transfer(0.7, 1) == 0.7

    def test_exact_saturation_at_seven_57(self):
        eps = F(7, 57)
        gamma = 1 + 4 * eps / (1 - 3 * eps)
        assert gamma == F(16, 9)
        assert stability_transfer(F(9, 16), gamma) == 1

    def test_clamped_to_one(self):
        assert stability_transfer(F(3, 4), 2) == 1
        assert stability_transfer(0.75, 2) == 1.0

    def test_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            stability_transfer(F(1, 2), F(9, 10))
        with pytest.raises(ValueError):
            stability_transfer(F(1, 2), 0.99)

    def test_cube_bm_combination(self):
        # a factor below 2 keeps the half-cube bound informative
        assert stability_transfer(F(1, 2), F(19, 10)) == F(19, 20) < 1

    def test_chain_recording(self):
        chain = []
        stability_transfer(F(1, 2), math.sqrt(342) / 10, chain)
        assert len(chain) == 1
        assert chain[0].kind == "exact"
        assert chain[0].value == pytest.approx(math.sqrt(342) / 20)

    def test_domain_of_beta(self):
        with pytest.raises(ValueError, match="beta_Y must lie in"):
            stability_transfer(0, 1)
        with pytest.raises(ValueError, match="beta_Y must lie in"):
            stability_transfer(1.2, 1)


class TestMinmax:
    def test_l1_ball_case(self):
        res = minmax_epsilon(F(9, 16), F(2, 3))
        assert 0.988 <= float(res.bound) <= 0.990
        assert 0 < float(res.eps_star) < 1 / 3
        assert float(res.bound) == pytest.approx(0.98961, abs=5e-5)

    def test_threshold_exact(self):
        res = minmax_epsilon(F(9, 16), BALL_THRESHOLD)
        assert res.bound == 1
        assert res.eps_star == F(7, 57)
        assert res.branch_values == (F(1), F(1))

    def test_below_threshold_stays_below_one(self):
        res = minmax_epsilon(F(9, 16), 0.67)
        assert float(res.bound) < 1

    def test_above_threshold_crosses_one(self):
        res = minmax_epsilon(F(9, 16), 0.68)
        assert float(res.bound) > 1

    def test_boundary_case_small_ball(self):
        # ball branch below the simplex branch everywhere: limit at 0+
        res = minmax_epsilon(F(9, 16), F(1, 4))
        assert float(res.bound) == pytest.approx(9 / 16, abs=1e-9)
        assert float(res.eps_star) < 1e-9

    def test_branch_monotonicity(self):
        eta, ball = 0.6, 0.55
        prev1 = prev2 = None
        for k in range(1, 100):
            e = k / 300.0
            b1, b2 = minmax_branches(eta, ball, e)
            if prev1 is not None:
                assert b1 >= prev1 and b2 <= prev2
            prev1, prev2 = b1, b2

    def test_bound_below_probes(self):
        res = minmax_epsilon(0.5, 0.6)
        for k in range(1, 50):
            e = k / 150.0
            assert float(res.bound) <= max(
                *minmax_branches(0.5, 0.6, e)) + 1e-12

    @pytest.mark.parametrize("lam", [2.0 ** -900, 1e-300])
    @pytest.mark.parametrize("eta,ball", [(1.0, 1.0), (9 / 16, 2 / 3), (0.5, 0.6), (0.3, 1.0)])
    def test_bound_is_homogeneous_in_tiny_inputs(self, lam, eta, ball):
        # the crossing is found at any scale, not clamped to the edge when
        # the float discriminant would underflow
        want = lam * float(minmax_epsilon(eta, ball).bound)
        got = minmax_epsilon(lam * eta, lam * ball).bound
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_input_validation(self):
        for bad in (0, 1.5, -0.2):
            with pytest.raises(ValueError):
                minmax_epsilon(bad, 0.5)
            with pytest.raises(ValueError):
                minmax_epsilon(0.5, bad)

    def test_result_type_invariants(self):
        with pytest.raises(ValueError):
            EpsilonOptResult(eps_star=0, bound=1, branch_values=(1, 1))
        with pytest.raises(ValueError):
            EpsilonOptResult(eps_star=F(1, 6), bound=2, branch_values=(1, 1))


class TestCorollary:
    def test_exact_identity(self):
        assert corollary_threshold_check() is True

    def test_perturbed_fails(self):
        assert corollary_threshold_check(F(222, 328)) is False
        assert corollary_threshold_check(F(220, 328)) is False

    def test_rewrite_value(self):
        eps = F(7, 57)
        assert 2 - 2 / (4 - eps) == F(328, 221)


class TestLpTable:
    def test_values(self):
        table = lp_beta8_table([1, 1.5, 2, 3, INF])
        vals = [to if isinstance(to, Fraction) else float(to)
                for to in (b.value for b in table)]
        assert vals[0] == pytest.approx(math.sqrt(342) / 20, abs=1e-12)
        assert vals[1] == pytest.approx(math.sqrt(342) / 20, abs=1e-12)
        assert float(vals[0]) <= 0.925
        assert vals[2] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert vals[3] == pytest.approx(3 ** (1 / 3) / 2, abs=1e-12)
        assert vals[4] == F(1, 2)

    def test_piecewise_jump_recorded(self):
        table = lp_beta8_table([1.999, 2])
        low, high = table
        assert float(low.value) == pytest.approx(0.9246621, abs=1e-6)
        assert float(high.value) == pytest.approx(0.8660254, abs=1e-6)

    def test_provenance_reverifies(self):
        for bound in lp_beta8_table([1.3, 2.5]):
            assert bound.provenance
            for step in bound.provenance:
                if step.kind != "verified":
                    continue
                cert = step.certificate
                if hasattr(cert, "gamma"):  # sandwich
                    again = sandwich_verify(cert.inner, cert.outer, cert.gamma)
                    assert again.verified
                    assert float(again.margin_inner) >= -1e-9
                    assert float(again.margin_outer) >= -1e-9
                else:  # partition certificate with coverage
                    rep = verify_covering(cert.parent, cert.pieces, N=32)
                    assert rep.covered

    def test_monotone_for_large_p(self):
        table = lp_beta8_table([2, 2.5, 4, 10, INF])
        vals = [float(b.value) for b in table]
        assert vals == sorted(vals, reverse=True)
        assert all(0.5 <= v <= math.sqrt(3) / 2 + 1e-12 for v in vals)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            lp_beta8_table([0.5])

    def test_step_validation(self):
        with pytest.raises(ValueError):
            ProvenanceStep("x", (), 1, "verified", None)
        with pytest.raises(ValueError):
            ProvenanceStep("x", (), 1, "folklore")
        with pytest.raises(ValueError):
            BetaBound(("lp", 2, 3), 8, 1.5, ())
