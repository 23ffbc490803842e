"""Sandwich certificates for multiplicative Banach-Mazur upper bounds.

A sandwich certificate witnesses K <= L <= gamma*K for convex bodies K
(the inner polytope) and L (the outer body).  Both inclusions
are checked at extreme points: the first at the vertices of the inner
polytope, the second either at the vertices of a polytopal outer body or
-- for an l_p ball -- analytically through the Hoelder maximizer of each
facet functional, backed by a brute-force sample sweep.

The distinguished instance is the parallelepiped spanned by (3,3,-2),
(-2,3,3), (3,-2,3), which sandwiches the l_p^3 unit ball with factor
gamma(p) = |(1,1,4)|_p * |(3,1,3)|_q / 10 for p in [1,2].
"""

import math
import operator
import random
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Tuple

from .geometry import (
    PBall,
    VPolytope,
    cube,
    dual_exponent,
    gauge_eval,
    gauge_facets,
    pnorm_eval,
)
from .linprog import matrix_rank_exact
from .numbers import (
    INF,
    Scalar,
    VerificationError,
    all_rational,
    as_fraction,
    golden_section_min,
    to_float,
)

SPANNING_DEFAULT: Tuple[tuple, ...] = ((3, 3, -2), (-2, 3, 3), (3, -2, 3))

SQRT342_OVER_10 = math.sqrt(342) / 10.0

# a sandwich holds when both margins are at least -SANDWICH_TOL
SANDWICH_TOL = 1e-9
# boundary points of the sample sweep that backs each Hoelder maximum
SWEEP_SAMPLES = 512


# ---------------------------------------------------------------------------
# certificate types


@dataclass(frozen=True)
class SandwichCertificate:
    """Witness for inner <= outer <= gamma*inner.

    ``margin_inner`` is 1 minus the largest outer-gauge value seen at a
    vertex of the inner body; ``margin_outer`` is gamma
    minus the largest inner-gauge value found over the outer body.
    Nonnegative margins (up to tolerance) mean the sandwich holds.
    """

    inner: VPolytope
    outer: object  # VPolytope or PBall
    gamma: Scalar
    verified: bool = False
    margin_inner: Scalar = 0
    margin_outer: Scalar = 0
    witness_inner: Optional[tuple] = None  # worst inner vertex
    witness_outer: Optional[tuple] = None  # worst point of the outer body

    @property
    def margins(self) -> tuple:
        return (self.margin_inner, self.margin_outer)


@dataclass(frozen=True)
class BMBoundReport:
    p: Scalar
    q: Scalar
    gamma_bound: Scalar
    method: str  # "parallelepiped" or "exact_formula"
    certificate: Optional[SandwichCertificate] = None

    def __post_init__(self):
        if self.method not in ("parallelepiped", "exact_formula"):
            raise ValueError("unknown method %r" % (self.method,))
        if to_float(self.gamma_bound) < 1 - 1e-12:
            raise ValueError("a Banach-Mazur bound below 1 cannot be right")


# ---------------------------------------------------------------------------
# parallelepiped construction


def parallelepiped(spanning: Sequence[Sequence[Scalar]] = SPANNING_DEFAULT) -> VPolytope:
    """Vertex set {sum_i sigma_i c_i : sigma in {-1,1}^k} of the box
    spanned by the given vectors."""
    verts = []
    for signs in product((-1, 1), repeat=len(spanning)):
        v = tuple(
            sum(s * c[i] for s, c in zip(signs, spanning))
            for i in range(len(spanning[0]))
        )
        verts.append(v)
    return VPolytope(tuple(verts))


# ---------------------------------------------------------------------------
# gauge helpers


def _outer_gauge(x, outer) -> Scalar:
    if isinstance(outer, PBall):
        val = pnorm_eval(x, outer.p)
        if all_rational([val, outer.radius]):
            return as_fraction(val) / as_fraction(outer.radius)
        return to_float(val) / to_float(outer.radius)
    return gauge_eval(x, outer)


def _holder_max(f, p, radius):
    """sup of f.x over the radius-R l_p ball, with its maximizer."""
    q = dual_exponent(p)
    val = pnorm_eval(f, q)
    if p == INF:
        point = tuple(radius if c >= 0 else -radius for c in f)
    elif p == 1:
        j = max(range(len(f)), key=lambda i: abs(f[i]))
        point = tuple(
            (radius if f[j] >= 0 else -radius) if i == j else 0
            for i in range(len(f))
        )
    else:
        qf = to_float(q)
        nf = to_float(val)
        if nf == 0:
            point = (0,) * len(f)
        else:
            point = tuple(
                to_float(radius)
                * math.copysign(abs(to_float(c) / nf) ** (qf - 1.0), to_float(c))
                for c in f
            )
    if all_rational([val, radius]):
        return as_fraction(radius) * as_fraction(val), point
    return to_float(radius) * to_float(val), point


def _pball_boundary_samples(ball: PBall, count: int) -> list:
    """Deterministic spread of points on the boundary of an l_p ball:
    Gaussian directions from a fixed seed, scaled onto the sphere."""
    gauss = random.Random(98761234).gauss
    radius = to_float(ball.radius)
    pf = to_float(ball.p)
    out = []
    for _ in range(count):
        d = [gauss(0.0, 1.0) for _ in range(ball.dim)]
        if ball.p == INF:
            size = max(map(abs, d))
        else:
            size = sum(abs(c) ** pf for c in d) ** (1.0 / pf)
        scale = radius / size
        out.append(tuple(c * scale for c in d))
    return out


# ---------------------------------------------------------------------------
# the sandwich check itself


def sandwich_verify(inner: VPolytope, outer, gamma: Scalar) -> SandwichCertificate:
    """Check inner <= outer <= gamma*inner and record margins.

    The inner inclusion is tested at every vertex of the inner polytope.
    The outer inclusion is tested at the vertices of a polytopal outer
    body; for an l_p-ball outer body each facet functional of the inner
    polytope, taken exact from its cached facet form, is maximized
    analytically over the ball (Hoelder), and a deterministic sweep of
    SWEEP_SAMPLES boundary points double-checks the analytic maxima.
    Of tied maximizers the lexicographically largest is the witness, so
    the facet order cannot change it.
    """
    if to_float(gamma) < 1 - 1e-12:
        raise ValueError("gamma must be at least 1")

    # --- inner inclusion: every vertex of inner lies in outer
    worst_in = None
    worst_in_val = None
    for v in inner.vertices:
        mu = _outer_gauge(v, outer)
        if worst_in_val is None or mu > worst_in_val:
            worst_in_val, worst_in = mu, v
    margin_inner = 1 - worst_in_val

    # --- outer inclusion: gauge of inner at outer's extreme points <= gamma
    if isinstance(outer, VPolytope):
        worst_out = None
        worst_out_val = None
        for w in outer.vertices:
            mu = gauge_eval(w, inner)
            if worst_out_val is None or mu > worst_out_val:
                worst_out_val, worst_out = mu, w
    elif isinstance(outer, PBall):
        rows = gauge_facets(inner.vertices).functionals()
        worst_out = None
        worst_out_val = None
        for f in rows:
            sup, point = _holder_max(f, outer.p, outer.radius)
            if (worst_out_val is None or sup > worst_out_val
                    or (sup == worst_out_val and point > worst_out)):
                worst_out_val, worst_out = sup, point
        # second route: brute samples on the ball boundary must not beat it
        F = [[to_float(c) for c in row] for row in rows]
        sampled = max(sum(map(operator.mul, f, x))
                      for x in _pball_boundary_samples(outer, SWEEP_SAMPLES) for f in F)
        if sampled > to_float(worst_out_val) + 1e-7:
            raise VerificationError(
                "sampled gauge %.17g exceeds the analytic maximum %.17g"
                % (sampled, to_float(worst_out_val))
            )
    else:
        raise TypeError("outer body must be a VPolytope or a PBall")
    if all_rational([gamma, worst_out_val]):
        margin_outer = as_fraction(gamma) - as_fraction(worst_out_val)
    else:
        margin_outer = to_float(gamma) - to_float(worst_out_val)

    ok = to_float(margin_inner) >= -SANDWICH_TOL and to_float(margin_outer) >= -SANDWICH_TOL
    return SandwichCertificate(
        inner=inner,
        outer=outer,
        gamma=gamma,
        verified=ok,
        margin_inner=margin_inner,
        margin_outer=margin_outer,
        witness_inner=tuple(worst_in),
        witness_outer=tuple(worst_out) if worst_out is not None else None,
    )


# ---------------------------------------------------------------------------
# the l_p^3 parallelepiped bound


def lp_parallelepiped_bound(
    p: Scalar, spanning: Optional[Sequence[Sequence[Scalar]]] = None
) -> BMBoundReport:
    """Sandwich the l_p^3 ball (p in [1,2]) in the spanned parallelepiped.

    With Q the box spanned by c_1, c_2, c_3 and R = max vertex p-norm,
    Q/R sits inside the unit p-ball, and the ball sits inside alpha*Q
    where alpha = max_i |g_i|_q.  The resulting factor for the default
    spanning vectors is |(1,1,4)|_p * |(3,1,3)|_q / 10.
    """
    pf = to_float(p)
    if not 1 <= pf <= 2:
        raise ValueError("p must lie in [1, 2], got %r" % (p,))
    q = dual_exponent(p)
    custom = spanning is not None
    spanning = tuple(tuple(c) for c in (spanning or SPANNING_DEFAULT))
    k = len(spanning)
    if any(len(c) != k for c in spanning):
        raise ValueError("spanning vectors must form a square system")
    if matrix_rank_exact(spanning) < k:
        raise ValueError("spanning vectors are linearly dependent")
    Q = parallelepiped(spanning)
    rows = gauge_facets(Q.vertices).functionals()

    vertex_norms = [pnorm_eval(v, p) for v in Q.vertices]
    R = max(vertex_norms, key=to_float)
    alpha = max((pnorm_eval(g, q) for g in rows), key=to_float)
    if all_rational([R, alpha]):
        gamma = as_fraction(R) * as_fraction(alpha)
    else:
        gamma = to_float(R) * to_float(alpha)

    if not custom:
        # closed form |(1,1,4)|_p * |(3,1,3)|_q / 10 and the claim that the
        # vertex maximum is the (-2,8,-2) orbit, never beaten by (4,4,4)
        closed = _closed_form_gamma(p, q)
        if abs(to_float(gamma) - to_float(closed)) > 1e-10 * to_float(closed):
            raise VerificationError("gamma %r misses the closed form %r" % (gamma, closed))
        gamma = closed
        special = pnorm_eval((-2, 8, -2), p)
        if to_float(R) > to_float(special) * (1 + 1e-12) or (
                all_rational([special, R]) and as_fraction(R) != as_fraction(special)):
            raise VerificationError("vertex maximum %r is not the (-2,8,-2) orbit %r"
                                 % (R, special))

    cert = sandwich_verify(Q, PBall(p=p, dim=k, radius=R), gamma)
    return BMBoundReport(
        p=p, q=q, gamma_bound=gamma, method="parallelepiped", certificate=cert
    )


def _closed_form_gamma(p, q):
    a = pnorm_eval((1, 1, 4), p)
    b = pnorm_eval((3, 1, 3), q)
    if all_rational([a, b]):
        return as_fraction(a) * as_fraction(b) / 10
    return to_float(a) * to_float(b) / 10.0


# ---------------------------------------------------------------------------
# the scalar profile f(p) = 10 * gamma(p) and its minimizer


def f_eval(p: Scalar) -> Scalar:
    """(4^p + 2)^(1/p) * (2*3^(p/(p-1)) + 1)^((p-1)/p) for p in (1,2].

    At p = 1 the second factor tends to |(3,1,3)|_inf = 3, so f(1) = 18
    exactly.  The second factor is evaluated as 3*(2 + 3^-q)^(1/q) to
    stay finite as q = p/(p-1) blows up near p = 1.
    """
    pf = to_float(p)
    if not 1 <= pf <= 2:
        raise ValueError("f is only used on [1, 2], got %r" % (p,))
    if pf == 1:
        return 18
    qf = pf / (pf - 1.0)
    first = (4.0**pf + 2.0) ** (1.0 / pf)
    second = 3.0 * (2.0 + 3.0 ** (-qf)) ** (1.0 / qf)
    return first * second


def f_scan(lo: float = 1.0, hi: float = 2.0, step: float = 1e-4):
    """Locate the interior minimizer of f on [lo, hi].

    A coarse pass asserts the first differences change sign exactly once
    (decreasing then increasing); golden-section search then refines the
    bracketing interval.  Returns (p0, f(p0)).  A window in which f only
    falls or only rises holds no interior minimum: ValueError.
    """
    if not (1 <= lo < hi <= 2 and step > 0):
        raise ValueError("need 1 <= lo < hi <= 2 and a positive step")
    count = int(math.ceil((hi - lo) / step)) + 1
    ps = [min(lo + k * step, hi) for k in range(count)]
    if ps[-1] < hi:
        ps.append(hi)
    vals = [to_float(f_eval(p)) for p in ps]
    rising = [vals[i + 1] >= vals[i] for i in range(len(vals) - 1)]
    if rising != sorted(rising):
        raise VerificationError("f is not decreasing-then-increasing at this step")
    if True not in rising or False not in rising:
        raise ValueError("no interior minimum between %g and %g" % (lo, hi))
    k = rising.index(True)  # vals[k] <= vals[k+1]; minimum in [k-1, k+1]
    a, b = ps[max(k - 1, 0)], ps[min(k + 1, len(ps) - 1)]
    return golden_section_min(lambda p: to_float(f_eval(p)), a, b)


# ---------------------------------------------------------------------------
# the combined upper bound


def bm_upper(p: Scalar) -> BMBoundReport:
    """Upper bound for the multiplicative BM distance of l_p^3 to l_inf^3.

    For p >= 2 the distance is exactly 3^(1/p); the report cites the
    formula and carries a cube certificate 3^(-1/p)*B_inf <= B_p <=
    3^(1/p)*(3^(-1/p)*B_inf).  For p in [1,2) the parallelepiped bound
    applies, capped by its value at p = 2.
    """
    pf = to_float(p)
    if pf < 1:
        raise ValueError("p must be at least 1")
    if pf >= 2:
        q = dual_exponent(p)
        if p == INF:
            gamma = 1
            half = 1
        else:
            gamma = 3.0 ** (1.0 / pf)
            half = 1.0 / gamma
        cert = sandwich_verify(cube(3, half=half), PBall(p=p, dim=3, radius=1), gamma)
        return BMBoundReport(
            p=p, q=q, gamma_bound=gamma, method="exact_formula", certificate=cert
        )
    report = lp_parallelepiped_bound(p)
    if to_float(report.gamma_bound) > SQRT342_OVER_10:
        capped = sandwich_verify(
            report.certificate.inner,
            report.certificate.outer,
            SQRT342_OVER_10,
        )
        return BMBoundReport(
            p=report.p,
            q=report.q,
            gamma_bound=SQRT342_OVER_10,
            method="parallelepiped",
            certificate=capped,
        )
    return report
