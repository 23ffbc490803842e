import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import diampart

from diampart.banach_mazur import (
    BMBoundReport,
    SandwichCertificate,
    bm_upper,
    f_eval,
    f_scan,
    lp_parallelepiped_bound,
    parallelepiped,
    parallelepiped_facets,
    sandwich_verify,
)
from diampart.geometry import PBall, cube, pnorm_eval
from diampart.numbers import INF

F = Fraction


class TestParallelepiped:
    def test_vertices(self):
        Q = parallelepiped()
        vs = set(Q.vertices)
        assert len(vs) == 8
        assert (4, 4, 4) in vs
        assert (-2, 8, -2) in vs
        assert (8, -2, -2) in vs
        assert (-4, -4, -4) in vs

    def test_facet_functionals_exact(self):
        rows = parallelepiped_facets()
        assert (F(3, 20), F(-1, 20), F(3, 20)) in rows  # (15,-5,15)/100
        Q = parallelepiped()
        for g in rows:
            vals = [sum(gc * vc for gc, vc in zip(g, v)) for v in Q.vertices]
            assert set(vals) == {F(1), F(-1)}
            # exactly four vertices on the facet where g evaluates to 1
            assert vals.count(F(1)) == 4

    def test_dependent_spanning_rejected(self):
        with pytest.raises(ValueError):
            parallelepiped_facets(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


class TestSandwichVerify:
    def test_identity(self):
        B = cube(3)
        cert = sandwich_verify(B, B, 1)
        assert cert.verified
        assert cert.margin_inner == 0
        assert cert.margin_outer == 0

    def test_polytopal_outer_needs_gamma_two(self):
        inner = cube(3)
        outer = cube(3, half=2)
        good = sandwich_verify(inner, outer, 2)
        assert good.verified and good.margin_outer == 0
        bad = sandwich_verify(inner, outer, F(3, 2))
        assert not bad.verified
        assert bad.margin_outer == F(3, 2) - 2
        assert bad.witness_outer in outer.vertices

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            sandwich_verify(cube(2), cube(2), 0.5)

    def test_transform_scaling(self):
        # T = diag(1/2): T(B_inf) = half cube, outer = B_inf, gamma = 2
        T = ((F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, F(1, 2)))
        cert = sandwich_verify(cube(3), cube(3), 2, transform=T)
        assert cert.verified
        assert cert.margin_inner == F(1, 2)
        assert cert.margin_outer == 0

    def test_pball_outer_analytic(self):
        # half cube inside the euclidean ball: vertices at distance sqrt(3)/2
        inner = cube(3, half=F(1, 2))
        rows = []
        for i in range(3):
            for s in (1, -1):
                row = [0] * 3
                row[i] = 2 * s
                rows.append(tuple(row))
        cert = sandwich_verify(inner, PBall(p=2, dim=3), 2, facets=rows)
        assert cert.verified
        assert float(cert.margin_inner) == pytest.approx(1 - math.sqrt(3) / 2)
        assert float(cert.margin_outer) == pytest.approx(0.0, abs=1e-12)

    def test_reverify_emitted_certificate(self):
        rep = lp_parallelepiped_bound(1.5)
        c = rep.certificate
        again = sandwich_verify(c.inner, c.outer, c.gamma)  # facet-form route
        assert again.verified
        assert float(again.margin_inner) >= -1e-9
        assert float(again.margin_outer) >= -1e-9


class TestParallelepipedBound:
    def test_p1_exact(self):
        rep = lp_parallelepiped_bound(1)
        assert rep.gamma_bound == F(9, 5)
        assert rep.q == INF
        assert rep.certificate.verified
        assert rep.certificate.margin_inner == 0
        assert rep.certificate.margin_outer == 0

    def test_p2_value(self):
        rep = lp_parallelepiped_bound(2)
        assert float(rep.gamma_bound) == pytest.approx(math.sqrt(342) / 10, abs=1e-12)
        assert rep.certificate.verified

    def test_out_of_range(self):
        for p in (0.5, 2.5, INF):
            with pytest.raises(ValueError):
                lp_parallelepiped_bound(p)

    def test_vertex_max_is_the_284_orbit(self):
        for p in (1, 1.3, 1.7, 2):
            Q = parallelepiped()
            mx = max(float(pnorm_eval(v, p)) for v in Q.vertices)
            assert mx == pytest.approx(float(pnorm_eval((-2, 8, -2), p)), rel=1e-12)
            assert mx == pytest.approx(2 * float(pnorm_eval((1, 1, 4), p)), rel=1e-12)

    def test_custom_spanning_hook(self):
        rep = lp_parallelepiped_bound(2, spanning=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert float(rep.gamma_bound) == pytest.approx(math.sqrt(3))
        assert rep.certificate.verified

    def test_gamma_below_cap_on_grid(self):
        cap = math.sqrt(342) / 10
        for k in range(21):
            p = 1 + k / 20
            assert float(lp_parallelepiped_bound(p).gamma_bound) <= cap + 1e-9


class TestFProfile:
    def test_f1_exact(self):
        assert f_eval(1) == 18

    def test_f2(self):
        assert f_eval(2) == pytest.approx(math.sqrt(342), abs=1e-12)

    def test_identity_with_gamma(self):
        for p in (1.0001, 1.2, 1.5, 1.8, 2.0):
            g = float(lp_parallelepiped_bound(p).gamma_bound)
            assert abs(f_eval(p) - 10 * g) <= 1e-10

    def test_scan_finds_p0(self):
        p0, f0 = f_scan(1.0, 2.0, 1e-4)
        assert p0 == pytest.approx(1.320, abs=1e-3)
        assert f0 == pytest.approx(17.550, abs=1e-3)
        assert f0 < 18 < math.sqrt(342)

    def test_scan_bad_window(self):
        with pytest.raises(ValueError, match="no interior minimum"):
            f_scan(1.9, 2.0, 1e-3)  # f is increasing there, no interior min

    def test_domain(self):
        with pytest.raises(ValueError):
            f_eval(3)


class TestBMUpper:
    def test_p_infinity_trivial(self):
        rep = bm_upper(INF)
        assert rep.gamma_bound == 1
        assert rep.method == "exact_formula"
        assert rep.certificate.verified

    def test_p2_cube_route(self):
        rep = bm_upper(2)
        assert float(rep.gamma_bound) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert rep.method == "exact_formula"
        assert rep.certificate.verified

    def test_p4(self):
        rep = bm_upper(4)
        assert float(rep.gamma_bound) == pytest.approx(3 ** 0.25, abs=1e-12)
        assert rep.certificate.verified

    def test_small_p_stays_under_nine_fifths(self):
        for p in (1, 1.2, 1.5, 1.7, 1.735):
            rep = bm_upper(p)
            assert rep.method == "parallelepiped"
            assert float(rep.gamma_bound) <= 1.8 + 1e-9

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            bm_upper(0.99)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            BMBoundReport(p=2, q=2, gamma_bound=0.5, method="exact_formula")
        with pytest.raises(ValueError):
            BMBoundReport(p=2, q=2, gamma_bound=2, method="magic")


# Under -O every bare assert vanishes; the certificate checks must not.
OPTIMIZED_SCRIPT = """
import sys
from fractions import Fraction
from diampart import banach_mazur, partitions
from diampart.geometry import Simplex

if not sys.flags.optimize:
    raise SystemExit("expected python -O")
S = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
print(banach_mazur.lp_parallelepiped_bound(1.5).certificate.verified)
print(partitions.simplex_partition(S, "m8").ratio)
partitions._SCHEME_RATIO["m8"] = Fraction(1, 2)
try:
    partitions.simplex_partition(S, "m8")
except AssertionError:
    print("scheme ratio checked")
banach_mazur._closed_form_gamma = lambda p, q: 2.0
try:
    banach_mazur.lp_parallelepiped_bound(1.5)
except AssertionError:
    print("closed form checked")
"""


def test_certificate_checks_run_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(diampart.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "True", "9/16", "scheme ratio checked", "closed form checked", ""]
