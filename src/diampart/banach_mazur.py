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
from .numbers import (
    INF,
    Scalar,
    VerificationError,
    all_rational,
    golden_section_min,
    is_rational,
    same_mode,
)

SPANNING_DEFAULT: Tuple[tuple, ...] = ((3, 3, -2), (-2, 3, 3), (3, -2, 3))

SQRT342_OVER_10 = math.sqrt(342) / 10.0

# a sandwich holds when both margins are nonnegative, a float margin up
# to -SANDWICH_TOL
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
    Nonnegative margins mean the sandwich holds: exactly for rational
    margins, up to SANDWICH_TOL for float ones.
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
        if float(self.gamma_bound) < 1 - 1e-12:
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
        val, radius = same_mode(pnorm_eval(x, outer.p), outer.radius)
        return val / radius
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
        qf = float(q)
        nf = float(val)
        if nf == 0:
            point = (0,) * len(f)
        else:
            point = tuple(
                float(radius)
                * math.copysign(abs(float(c) / nf) ** (qf - 1.0), float(c))
                for c in f
            )
    return math.prod(same_mode(radius, val)), point


def _pball_boundary_samples(ball: PBall, count: int) -> list:
    """Deterministic spread of points on the boundary of an l_p ball:
    Gaussian directions from a fixed seed, scaled onto the sphere by
    pnorm_eval, which factors out the largest coordinate before any power
    is taken, so a large p does not overflow."""
    gauss = random.Random(98761234).gauss
    radius = float(ball.radius)
    out = []
    for _ in range(count):
        d = [gauss(0.0, 1.0) for _ in range(ball.dim)]
        scale = radius / pnorm_eval(d, ball.p)
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
    if float(gamma) < 1 - 1e-12:
        raise ValueError("gamma must be at least 1")

    # --- inner inclusion: every vertex of inner lies in outer (the first
    # maximal vertex is the witness)
    worst_in_val, worst_in = max(((_outer_gauge(v, outer), v) for v in inner.vertices),
                                 key=operator.itemgetter(0))
    margin_inner = 1 - worst_in_val

    # --- outer inclusion: gauge of inner at outer's extreme points <= gamma
    if isinstance(outer, VPolytope):
        worst_out_val, worst_out = max(((gauge_eval(w, inner), w) for w in outer.vertices),
                                       key=operator.itemgetter(0))
    elif isinstance(outer, PBall):
        rows = gauge_facets(inner.vertices).functionals()
        worst_out_val, worst_out = max(_holder_max(f, outer.p, outer.radius) for f in rows)
        # second route: brute samples on the ball boundary must not beat it
        F = [[float(c) for c in row] for row in rows]
        sampled = max(sum(map(operator.mul, f, x))
                      for x in _pball_boundary_samples(outer, SWEEP_SAMPLES) for f in F)
        if sampled > float(worst_out_val) + 1e-7:
            raise VerificationError(
                "sampled gauge %.17g exceeds the analytic maximum %.17g"
                % (sampled, float(worst_out_val))
            )
    else:
        raise TypeError("outer body must be a VPolytope or a PBall")
    g, w = same_mode(gamma, worst_out_val)
    margin_outer = g - w

    ok = all(m >= 0 if is_rational(m) else float(m) >= -SANDWICH_TOL
             for m in (margin_inner, margin_outer))
    return SandwichCertificate(
        inner=inner,
        outer=outer,
        gamma=gamma,
        verified=ok,
        margin_inner=margin_inner,
        margin_outer=margin_outer,
        witness_inner=tuple(worst_in),
        witness_outer=tuple(worst_out),
    )


# ---------------------------------------------------------------------------
# the l_p^3 parallelepiped bound


def lp_parallelepiped_bound(p: Scalar) -> BMBoundReport:
    """Sandwich the l_p^3 ball (p in [1,2]) in the spanned parallelepiped.

    With Q the box spanned by c_1, c_2, c_3 and R = max vertex p-norm,
    Q/R sits inside the unit p-ball, and the ball sits inside alpha*Q
    where alpha = max_i |g_i|_q.  The resulting factor for the spanning
    vectors SPANNING_DEFAULT is |(1,1,4)|_p * |(3,1,3)|_q / 10.
    """
    pf = float(p)
    if not 1 <= pf <= 2:
        raise ValueError("p must lie in [1, 2], got %r" % (p,))
    q = dual_exponent(p)
    Q = parallelepiped(SPANNING_DEFAULT)
    R = max((pnorm_eval(v, p) for v in Q.vertices), key=float)

    # the vertex maximum is the (-2,8,-2) orbit, never beaten by (4,4,4)
    special = pnorm_eval((-2, 8, -2), p)
    if float(R) > float(special) * (1 + 1e-12) or (
            all_rational([special, R]) and R != special):
        raise VerificationError("vertex maximum %r is not the (-2,8,-2) orbit %r"
                                % (R, special))

    # the closed form |(1,1,4)|_p * |(3,1,3)|_q / 10 against the outer
    # bound R * max_i |g_i|_q that the certificate measures
    gamma = _closed_form_gamma(p, q)
    cert = sandwich_verify(Q, PBall(p=p, dim=3, radius=R), gamma)
    if abs(float(cert.margin_outer)) > 1e-10 * float(gamma):
        raise VerificationError("gamma %r misses the closed form %r"
                                % (gamma - cert.margin_outer, gamma))
    return BMBoundReport(
        p=p, q=q, gamma_bound=gamma, method="parallelepiped", certificate=cert
    )


def _closed_form_gamma(p, q):
    return math.prod(same_mode(pnorm_eval((1, 1, 4), p), pnorm_eval((3, 1, 3), q))) / 10


# ---------------------------------------------------------------------------
# the scalar profile f(p) = 10 * gamma(p) and its minimizer


def f_eval(p: Scalar) -> Scalar:
    """(4^p + 2)^(1/p) * (2*3^(p/(p-1)) + 1)^((p-1)/p) for p in (1,2].

    At p = 1 the second factor tends to |(3,1,3)|_inf = 3, so f(1) = 18
    exactly.  The second factor is evaluated as 3*(2 + 3^-q)^(1/q) to
    stay finite as q = p/(p-1) blows up near p = 1.
    """
    pf = float(p)
    if not 1 <= pf <= 2:
        raise ValueError("f is only used on [1, 2], got %r" % (p,))
    if pf == 1:
        return 18
    qf = pf / (pf - 1.0)
    first = (4.0**pf + 2.0) ** (1.0 / pf)
    second = 3.0 * (2.0 + 3.0 ** (-qf)) ** (1.0 / qf)
    return first * second


# Most points one f_scan pass may evaluate; the cost grows like 1/step.
MAX_SCAN_POINTS = 10 ** 6


def f_scan(lo: float = 1.0, hi: float = 2.0, step: float = 1e-4):
    """Locate the interior minimizer of f on [lo, hi].

    A coarse pass asserts the first differences change sign exactly once
    (decreasing then increasing); golden-section search then refines the
    bracketing interval.  Returns (p0, f(p0)).  A window in which f only
    falls or only rises holds no interior minimum: ValueError.
    """
    if not (1 <= lo < hi <= 2 and 0 < step < math.inf
            and (hi - lo) / step <= MAX_SCAN_POINTS - 1):
        raise ValueError("need 1 <= lo < hi <= 2 and a finite positive step giving at most %d "
                         "scan points" % MAX_SCAN_POINTS)
    count = int(math.ceil((hi - lo) / step)) + 1
    ps = [min(lo + k * step, hi) for k in range(count)]
    if ps[-1] < hi:
        ps.append(hi)
    vals = [float(f_eval(p)) for p in ps]
    rising = [vals[i + 1] >= vals[i] for i in range(len(vals) - 1)]
    if rising != sorted(rising):
        raise VerificationError("f is not decreasing-then-increasing at this step")
    if True not in rising or False not in rising:
        raise ValueError("no interior minimum between %g and %g" % (lo, hi))
    k = rising.index(True)  # vals[k] <= vals[k+1]; minimum in [k-1, k+1]
    a, b = ps[max(k - 1, 0)], ps[min(k + 1, len(ps) - 1)]
    return golden_section_min(lambda p: float(f_eval(p)), a, b)


# ---------------------------------------------------------------------------
# the combined upper bound


def bm_upper(p: Scalar) -> BMBoundReport:
    """Upper bound for the multiplicative BM distance of l_p^3 to l_inf^3.

    For p >= 2 the distance is exactly 3^(1/p); the report cites the
    formula and carries a cube certificate 3^(-1/p)*B_inf <= B_p <=
    3^(1/p)*(3^(-1/p)*B_inf).  For p in [1,2) the parallelepiped bound
    applies; it stays below its value sqrt(342)/10 at p = 2.
    """
    pf = float(p)
    if not pf >= 1:
        raise ValueError("p must be at least 1, got %s" % (p,))
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
    return lp_parallelepiped_bound(p)
