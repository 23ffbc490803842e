"""End-to-end acceptance checks for the headline constants.

Each test covers one acceptance criterion, prints a single pass/fail
line, and enforces a runtime ceiling alongside the numeric tolerances.
"""

import math
import time
from fractions import Fraction

import numpy as np

from diampart.banach_mazur import f_eval, f_scan, lp_parallelepiped_bound, sandwich_verify
from diampart.bounds import (
    BALL_THRESHOLD,
    corollary_threshold_check,
    lp_beta8_table,
    minmax_branches,
    minmax_epsilon,
)
from diampart.coverings import (
    partition_diameter_ratio,
    search_ball_covering,
    verify_covering,
)
from diampart.geometry import Norm, PBall, Simplex, VPolytope
from diampart.numbers import INF
from diampart.oracle import beta_finite_exact
from diampart.partitions import cube_partition, simplex_partition

F = Fraction
SQRT342 = math.sqrt(342)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _weighted_sum(lam, verts):
    """The point sum_i lam_i * verts_i."""
    return tuple(sum(l * v[k] for l, v in zip(lam, verts)) for k in range(len(verts[0])))


def _random_tetrahedron(rng):
    while True:
        verts = tuple(tuple(int(v) for v in row)
                      for row in rng.integers(-6, 7, size=(4, 3)))
        try:
            return Simplex(verts)
        except ValueError:
            continue


def _random_gauge(rng):
    scale = [int(rng.integers(1, 4)) for _ in range(3)]
    w = tuple(int(v) for v in rng.integers(-3, 4, size=3))
    if w == (0, 0, 0):
        w = (1, 1, 1)
    pts = []
    for i, s in enumerate(scale):
        e = [0, 0, 0]
        e[i] = s
        pts.append(tuple(e))
        pts.append(tuple(-c for c in e))
    pts.append(w)
    pts.append(tuple(-c for c in w))
    return Norm.gauge(VPolytope(tuple(pts)))


def test_criterion_1_threshold_identity():
    corollary_threshold_check()  # warm-up (imports, caches)
    t0 = time.perf_counter()
    ok = corollary_threshold_check()
    elapsed = time.perf_counter() - t0
    factor = 2 * (3 - F(7, 57)) / (4 - F(7, 57))
    ok = ok and factor * F(221, 328) == 1 and elapsed < 1e-3
    _report(1, ok, f"2(3-7/57)/(4-7/57) * 221/328 == 1 exactly, {elapsed * 1e6:.0f} us")


def test_criterion_2_lp_table():
    t0 = time.perf_counter()
    ps = [1, 1.5, 2, 3, INF]
    rows = lp_beta8_table(ps)
    ok = True
    for p, row in zip(ps, rows):
        expected = SQRT342 / 20 if (p != INF and p < 2) else 3 ** (1 / float(p)) / 2 if p != INF else 0.5
        ok = ok and abs(float(row.value) - expected) <= 1e-9
        for step in row.provenance:
            cert = step.certificate
            if cert is None:
                continue
            if hasattr(cert, "gamma"):
                again = sandwich_verify(cert.inner, cert.outer, cert.gamma)
                ok = ok and again.verified and min(map(float, again.margins)) >= -1e-9
            else:
                rep = verify_covering(cert.parent, cert.pieces, N=32)
                ok = ok and rep.covered
    ok = ok and rows[-1].value == F(1, 2)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, f"values sqrt(342)/20 | 3^(1/p)/2 | 1/2 and chains re-verify, {elapsed:.2f} s")


def test_criterion_3_parallelepiped_certificates():
    t0 = time.perf_counter()
    ok = True
    for p in np.linspace(1.0, 2.0, 50):
        rep = lp_parallelepiped_bound(float(p))
        cert = rep.certificate
        gamma = float(rep.gamma_bound)
        ok = ok and cert.verified
        ok = ok and min(map(float, cert.margins)) >= -1e-9
        ok = ok and gamma <= SQRT342 / 10 + 1e-9
        if p <= 1.735:
            ok = ok and gamma <= 1.8 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(3, ok, f"50 sandwich certificates on [1,2], margins >= -1e-9, {elapsed:.2f} s")


def test_criterion_4_distance_scan():
    t0 = time.perf_counter()
    p0, f0 = f_scan()
    elapsed = time.perf_counter() - t0
    ok = abs(p0 - 1.320) <= 1e-3 and abs(f0 - 17.550) <= 1e-3
    ok = ok and f0 < f_eval(2) and abs(f_eval(2) - SQRT342) < 1e-12
    ok = ok and elapsed < 2.0
    _report(4, ok, f"p0={p0:.6f}, f(p0)={f0:.6f} < f(2)={SQRT342:.3f}, {elapsed:.2f} s")


def test_criterion_5_simplex_schemes_random_tetrahedra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260826)
    constants = {"m5": F(3, 5), "m8": F(9, 16), "m9": F(9, 17)}
    ok = True
    for _ in range(100):
        S = _random_tetrahedron(rng)
        norms = [Norm.lp(1), Norm.lp(2), Norm.lp(3), Norm.lp(INF),
                 _random_gauge(rng)]
        for scheme, const in constants.items():
            cert = simplex_partition(S, scheme)
            rep = verify_covering(cert.parent, cert.pieces, N=64)
            ok = ok and rep.covered
            for norm in norms:
                ratio = partition_diameter_ratio(cert, norm)
                if isinstance(ratio, Fraction):
                    ok = ok and ratio == const  # homothet pieces are tight
                else:
                    ok = ok and abs(ratio - float(const)) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(5, ok, f"100 tetrahedra x 5 norms x 3 schemes, ratios tight + N=64 covered, {elapsed:.1f} s")


def test_criterion_6_cube_partition():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        cert = cube_partition(n)
        ok = ok and partition_diameter_ratio(cert, Norm.lp(INF)) == F(1, 2)
        ok = ok and verify_covering(cert.parent, cert.pieces, N=64).covered
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(6, ok, f"half-cube ratio exactly 1/2 for n=1..8, coverage exact, {elapsed:.2f} s")


def test_criterion_7_minmax_epsilon():
    t0 = time.perf_counter()
    res = minmax_epsilon(F(9, 16), F(2, 3))
    ok = 0.988 <= float(res.bound) <= 0.990
    # closed form vs a fine probe grid around the reported minimizer
    probes = [max(map(float, minmax_branches(F(9, 16), F(2, 3), F(k, 3000))))
              for k in range(1, 1000)]
    ok = ok and float(res.bound) <= min(probes) + 1e-9
    sharp = True
    for k in range(1, 1000):
        below = minmax_epsilon(F(9, 16), F(k, 1000)).bound < 1
        sharp = sharp and (below == (F(k, 1000) < BALL_THRESHOLD))
    ok = ok and sharp
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(7, ok, f"bound={float(res.bound):.5f} in [0.988,0.990], sharp at 221/328 on 10^3 grid, {elapsed:.2f} s")


def test_criterion_8_oracle_cross_checks():
    t0 = time.perf_counter()
    # a rational equilateral triangle with its midpoints: squared keys
    # 1/2 against 2, so the value is exactly 1/2
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    mid = lambda p, q: tuple(F(x + y, 2) for x, y in zip(p, q))
    config = [a, b, c, mid(a, b), mid(b, c), mid(a, c)]
    res = beta_finite_exact(config, 4, Norm.lp(2))
    ok = res.value == 0.5

    rng = np.random.default_rng(31415)
    norms = [Norm.lp(1), Norm.lp(2), Norm.lp(INF)]
    for trial in range(50):
        S = _random_tetrahedron(rng)
        pts = list(S.vertices)
        for _ in range(int(rng.integers(0, 11))):
            w = rng.integers(0, 7, size=4)
            total = int(w.sum()) or 1
            lam = tuple(F(int(x), total) for x in (w if w.sum() else [1, 0, 0, 0]))
            pts.append(_weighted_sum(lam, S.vertices))
        val = beta_finite_exact(pts, 8, norms[trial % 3]).value
        ok = ok and float(val) <= 9 / 16 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(8, ok, f"triangle+midpoints m=4 exactly 1/2; 50 random subsets <= 9/16, {elapsed:.1f} s")


def test_criterion_9_ball_covering_search():
    t0 = time.perf_counter()
    sol = search_ball_covering(PBall(1, 3, 1), 8, F(2, 3), Norm.lp(1), seed=0)
    ok = sol.success and float(sol.residual_margin) <= 0
    control = search_ball_covering(PBall(2, 2, 1), 2, 0.9, Norm.lp(2), seed=0)
    ok = ok and not control.success and float(control.residual_margin) > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(9, ok, f"l1 ball m=8 r=2/3 covered (margin {float(sol.residual_margin):.3g}); "
                   f"disk m=2 r=0.9 fails (margin {float(control.residual_margin):.3g}), {elapsed:.1f} s")
