"""Constructive diameter partitions, covering certificates, and the
bound algebra that combines them.

The library builds the classical small-piece partitions (triangle
midpoints, simplex vertex-homothet schemes with 5/8/9 pieces, half-cube
and disk-quadrant schemes), certifies their coverage and diameter
ratios, verifies Banach-Mazur sandwich certificates for l_p^3, and
assembles everything into explicit upper bounds such as
beta(l_p^3, 8) <= sqrt(342)/20 for p in [1, 2).
"""

from .banach_mazur import (
    BMBoundReport,
    SandwichCertificate,
    bm_upper,
    f_eval,
    f_scan,
    lp_parallelepiped_bound,
    sandwich_verify,
)
from .bounds import (
    BetaBound,
    EpsilonOptResult,
    corollary_threshold_check,
    lp_beta8_table,
    minmax_epsilon,
    stability_transfer,
)
from .coverings import (
    BallCoveringSolution,
    CoverageReport,
    partition_diameter_ratio,
    search_ball_covering,
    verify_ball_covering,
    verify_covering,
)
from .geometry import (
    Homothet,
    Norm,
    PBall,
    Simplex,
    VPolytope,
    cube,
    cross_polytope,
    diameter_finite,
    dual_exponent,
    norm_eval,
    pnorm_eval,
    polytope_diameter,
)
from .numbers import INF, VerificationError
from .oracle import beta_finite_exact, m_colorable
from .partitions import (
    PartitionCertificate,
    cube_partition,
    disk_partition4,
    simplex_partition,
    triangle_partition4,
)

__version__ = "0.1.0"  # the only copy: pyproject.toml reads it

__all__ = [
    "BMBoundReport",
    "BallCoveringSolution",
    "BetaBound",
    "CoverageReport",
    "EpsilonOptResult",
    "Homothet",
    "INF",
    "Norm",
    "PBall",
    "PartitionCertificate",
    "SandwichCertificate",
    "Simplex",
    "VPolytope",
    "VerificationError",
    "beta_finite_exact",
    "bm_upper",
    "corollary_threshold_check",
    "cross_polytope",
    "cube",
    "cube_partition",
    "diameter_finite",
    "disk_partition4",
    "dual_exponent",
    "f_eval",
    "f_scan",
    "lp_beta8_table",
    "lp_parallelepiped_bound",
    "m_colorable",
    "minmax_epsilon",
    "norm_eval",
    "partition_diameter_ratio",
    "pnorm_eval",
    "polytope_diameter",
    "sandwich_verify",
    "search_ball_covering",
    "simplex_partition",
    "stability_transfer",
    "triangle_partition4",
    "verify_ball_covering",
    "verify_covering",
]
