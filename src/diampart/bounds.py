"""Combining certified ingredients into diameter-partition bounds.

A transfer law scales a known bound by a body-approximation factor
gamma, the epsilon min-max optimizer balances a simplex branch against a
ball branch, and the l_p^3 table chains the cube construction with the
sandwich certificates into the piecewise bound

    beta(l_p^3, 8) <= sqrt(342)/20        for p in [1, 2),
    beta(l_p^3, 8) <= 3^(1/p) / 2         for p in [2, inf].

The 221/328 threshold is the exact point where the min-max bound stops
being informative (equals 1) when the simplex constant is 9/16.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .banach_mazur import SQRT342_OVER_10, bm_upper
from .coverings import partition_diameter_ratio, verify_covering
from .geometry import Norm
from .numbers import (
    INF,
    Scalar,
    VerificationError,
    as_fraction,
    golden_section_min,
    is_rational,
    same_mode,
    sqrt_exact,
)
from .partitions import cube_partition

BALL_THRESHOLD = Fraction(221, 328)  # ball-branch value with eta = 9/16
EPS_STAR_REFERENCE = Fraction(7, 57)

_KINDS = ("verified", "cited", "exact")


# ---------------------------------------------------------------------------
# provenance plumbing


@dataclass(frozen=True)
class ProvenanceStep:
    formula: str
    inputs: tuple  # pairs (name, value)
    value: Scalar
    kind: str  # "verified" | "cited" | "exact"
    certificate: object = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown provenance kind %r" % (self.kind,))
        if self.kind == "verified" and self.certificate is None:
            raise ValueError("a verified step must carry its certificate")


@dataclass(frozen=True)
class BetaBound:
    space: tuple  # e.g. ("lp", p, 3)
    m: int
    value: Scalar
    provenance: Tuple[ProvenanceStep, ...]

    def __post_init__(self):
        v = float(self.value)
        if not 0 < v <= 1:
            raise ValueError("a diameter-partition bound lives in (0, 1]")


@dataclass(frozen=True)
class EpsilonOptResult:
    eps_star: Scalar
    bound: Scalar
    branch_values: tuple  # (simplex-branch value, ball-branch value)

    def __post_init__(self):
        e = float(self.eps_star)
        if not 0 < e < Fraction(1, 3):
            raise ValueError("eps_star must lie in (0, 1/3)")
        if self.bound != max(self.branch_values, key=float):
            raise ValueError("bound must be the larger branch at eps_star")


# ---------------------------------------------------------------------------
# transfer laws


def stability_transfer(beta_Y: Scalar, gamma: Scalar, chain: Optional[list] = None) -> Scalar:
    """A Banach-Mazur factor gamma between spaces turns a bound for Y
    into min(1, gamma * bound) for X."""
    if float(gamma) < 1:
        raise ValueError("a Banach-Mazur factor is never below 1")
    if not 0 < float(beta_Y) <= 1:
        raise ValueError("beta_Y must lie in (0, 1]")
    b, g = same_mode(beta_Y, gamma)
    value = min(type(b)(1), b * g)
    if chain is not None:
        chain.append(
            ProvenanceStep(
                formula="min(1, gamma*beta_Y)",
                inputs=(("beta_Y", beta_Y), ("gamma", gamma)),
                value=value,
                kind="exact",
            )
        )
    return value


# ---------------------------------------------------------------------------
# the epsilon min-max


def minmax_branches(eta: Scalar, beta_ball: Scalar, eps: Scalar) -> tuple:
    """The two competing values at a given eps in (0, 1/3):
    (1 + 4eps/(1-3eps)) * eta  versus  2(3-eps)/(4-eps) * beta_ball."""
    h, b, e = same_mode(eta, beta_ball, eps)
    return (1 + 4 * e / (1 - 3 * e)) * h, 2 * (3 - e) / (4 - e) * b


_EDGE = 1e-12  # open-interval stand-off; the endpoints are never evaluated


def minmax_epsilon(eta: Scalar, beta_ball: Scalar) -> EpsilonOptResult:
    """Minimize max(simplex branch, ball branch) over eps in (0, 1/3).

    The simplex branch increases and the ball branch decreases, so the
    optimum sits at their crossing when one exists inside the interval;
    equating the branches reduces to the quadratic

        (eta + 6b) eps^2 - (3 eta + 20 b) eps + (6b - 4 eta) = 0,

    solved exactly when the discriminant is a perfect square.  When the
    simplex branch already dominates at 0+ the infimum is the left
    boundary limit and the result is reported just inside the interval.
    A golden-section sweep cross-checks the closed form to a relative
    1e-10 (an absolute 1e-10 for a bound above 1).
    """
    if not 0 < float(eta) <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if not 0 < float(beta_ball) <= 1:
        raise ValueError("beta_ball must lie in (0, 1]")
    h, b, edge = same_mode(eta, beta_ball, Fraction(1, 10**12))
    eps = _crossing_eps(h, b) if 6 * b > 4 * h else edge
    b1, b2 = minmax_branches(h, b, eps)
    bound = max(b1, b2, key=float)

    h, b = float(eta), float(beta_ball)
    _, golden = golden_section_min(lambda e: max(minmax_branches(h, b, e)),
                                   _EDGE, 1.0 / 3.0 - _EDGE)
    if abs(golden - float(bound)) > 1e-10 * min(1.0, float(bound)):
        raise VerificationError(
            "closed form %.17g disagrees with golden section %.17g"
            % (float(bound), golden)
        )
    return EpsilonOptResult(eps_star=eps, bound=bound, branch_values=(b1, b2))


def _crossing_eps(h, b):
    """The smaller root of the crossing quadratic, in the mode of h and b;
    in floats when the discriminant is not a rational square, then kept
    just inside (0, 1/3).  An exact root needs no such guard: with
    6b > 4h the quadratic takes 6b - 4h > 0 at eps = 0 and -44h/9 < 0 at
    eps = 1/3, so its smaller root lies strictly between.  Float h and b
    are first scaled by the power of two that puts max(h, b) in [1/2, 1),
    so that the discriminant does not underflow; the root does not depend
    on the scale."""
    if not is_rational(h):
        shift = -math.frexp(max(h, b))[1]
        h, b = math.ldexp(h, shift), math.ldexp(b, shift)
    a, mid, c = h + 6 * b, 3 * h + 20 * b, 6 * b - 4 * h
    disc = mid * mid - 4 * a * c
    root = sqrt_exact(disc) if is_rational(disc) else math.sqrt(disc)
    if root is None:
        return _crossing_eps(float(h), float(b))
    eps = (mid - root) / (2 * a)
    return eps if is_rational(eps) else min(max(eps, _EDGE), 1.0 / 3.0 - _EDGE)


# ---------------------------------------------------------------------------
# the 221/328 identity


def corollary_threshold_check(ball_beta: Scalar = BALL_THRESHOLD) -> bool:
    """Exact rational check of the threshold identity at eps = 7/57.

    Verifies 2*(3 - 7/57)/(4 - 7/57) * ball_beta == 1, that the rewrite
    2 - 2/(4 - eps) agrees with the factor, and that the min-max bound
    at (9/16, ball_beta) equals 1 exactly with eps* = 7/57.
    """
    eps = EPS_STAR_REFERENCE
    b = as_fraction(ball_beta)
    factor = 2 * (3 - eps) / (4 - eps)
    if factor != Fraction(328, 221):
        return False
    if factor != 2 - 2 / (4 - eps):
        return False
    if factor * b != 1:
        return False
    res = minmax_epsilon(Fraction(9, 16), b)
    return res.bound == 1 and res.eps_star == eps


# ---------------------------------------------------------------------------
# the l_p^3 table


def _cube_halving_step() -> ProvenanceStep:
    cert = cube_partition(3)
    report = verify_covering(cert.parent, cert.pieces, N=64)
    if not report.covered:
        raise VerificationError("the half-cube pieces failed to cover the cube")
    ratio = partition_diameter_ratio(cert, Norm.lp(INF))
    if ratio != Fraction(1, 2):
        raise VerificationError("the half-cube diameter ratio is not 1/2")
    return ProvenanceStep(
        formula="beta(l_inf^3, 8) = 1/2 by the 2^3 half-cube partition",
        inputs=(("n", 3), ("m", 8)),
        value=ratio,
        kind="verified",
        certificate=cert,
    )


def lp_beta8_table(p_values: Sequence[Scalar]) -> List[BetaBound]:
    """The piecewise bound on beta(l_p^3, 8) for each requested p.

    p in [1,2) gets the uniform parallelepiped value sqrt(342)/20; p in
    [2,inf] gets 3^(1/p)/2.  Every entry chains the verified half-cube
    construction with a verified sandwich certificate and the transfer
    law.
    """
    base = _cube_halving_step()
    out = []
    for p in p_values:
        chain = [base]
        report = bm_upper(p)
        if not report.certificate.verified:
            raise VerificationError("sandwich certificate failed at p=%r" % (p,))
        chain.append(
            ProvenanceStep(
                formula="d_BM(l_p^3, l_inf^3) <= gamma via sandwich",
                inputs=(("p", p), ("method", report.method)),
                value=report.gamma_bound,
                kind="verified",
                certificate=report.certificate,
            )
        )
        if float(p) < 2:
            # the parallelepiped factor is uniform on [1,2): cap at p=2
            if float(report.gamma_bound) > SQRT342_OVER_10 + 1e-9:
                raise VerificationError("parallelepiped factor exceeded its cap")
            chain.append(
                ProvenanceStep(
                    formula="gamma(p) <= sqrt(342)/10 on [1,2)",
                    inputs=(("gamma", report.gamma_bound),),
                    value=SQRT342_OVER_10,
                    kind="exact",
                )
            )
            gamma = SQRT342_OVER_10
        else:
            gamma = report.gamma_bound
        value = stability_transfer(base.value, gamma, chain)
        out.append(
            BetaBound(space=("lp", p, 3), m=8, value=value, provenance=tuple(chain))
        )
    return out
