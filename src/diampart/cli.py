"""Command-line front end.

Every subcommand prints one JSON report envelope: the command, the
echoed inputs, the results payload, an evidence level (exact |
grid-certified | sampled | cited), and optional timings.  Reports are
byte-stable for fixed inputs and seeds; timings are off by default for
exactly that reason.  Exit status: 0 on success, 2 when a verification
fails, 1 on usage errors.  A failed certificate check (VerificationError)
also exits 2, with the message as the results and null inputs and
evidence level.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

from .banach_mazur import bm_upper, f_scan
from .bounds import corollary_threshold_check, lp_beta8_table, minmax_epsilon
from .coverings import (
    scheme_box_tautology,
    partition_diameter_ratio,
    search_ball_covering,
    verify_covering,
)
from .geometry import Homothet, Norm, PBall, Simplex, cube
from .numbers import INF, VerificationError, is_rational, parse_scalar
from .oracle import beta_finite_exact
from .partitions import (
    SectorRegion,
    cube_partition,
    disk_partition4,
    simplex_partition,
    triangle_partition4,
)
from .serialization import canonical_json, load_problem, norm_from_spec, read_json

STD_TRIANGLE = Simplex(((0, 0), (1, 0), (0, 1)))
STD_TETRA = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))

_LEVELS = ("exact", "grid-certified", "sampled", "cited")


def _error_line(message) -> int:
    """Write the one "diampart: error:" line, each line break in the
    message (an echoed argument may hold one) written as a literal \\n;
    return exit status 1."""
    sys.stderr.write("diampart: error: %s\n" % "\\n".join(str(message).splitlines()))
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    verification failures, so remap to 1.  A usage error is reported like
    any other error: one "diampart: error:" line."""

    def error(self, message):
        raise SystemExit(_error_line(message))


def _weakest(levels) -> str:
    worst = 0
    for lv in levels:
        worst = max(worst, _LEVELS.index(lv))
    return _LEVELS[worst]


def _scalar_arg(text):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %d" % value)
    return value


def _norm_arg(text: str) -> Norm:
    """A p value ("1", "2", "inf", "3/2"), else a norm-spec file path."""
    try:
        p = parse_scalar(text)
    except ValueError:
        try:
            raw = read_json(text)
            # a file holds either a bare norm spec or a problem with a "norm" section
            if isinstance(raw, dict) and "norm" in raw:
                raw = raw["norm"]
            return norm_from_spec(raw)
        except (ValueError, OSError, KeyError) as exc:
            raise argparse.ArgumentTypeError("%s: %s" % (text, exc))
    try:
        return Norm.lp(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# payload helpers


def _coverage_payload(report):
    witness = None
    if report.worst_witness is not None:
        point, margin = report.worst_witness
        witness = {"point": list(point), "margin": margin}
    return {
        "mode": report.mode,
        "resolution": report.resolution,
        "covered": report.covered,
        "worst_witness": witness,
        "tolerance": report.tolerance,
    }


def _piece_payload(piece):
    desc = piece.description
    out = {"ratio_bound": piece.ratio_bound}
    if isinstance(desc, Homothet):
        out["homothet"] = {
            "ratio": desc.ratio,
            "translation": list(desc.translation),
        }
    elif isinstance(desc, SectorRegion):
        out["sector"] = {"angle_lo": desc.angle_lo, "angle_hi": desc.angle_hi}
    if piece.bary_bounds is not None:
        out["bary_bounds"] = [list(b) for b in piece.bary_bounds]
    return out


def _certificate_payload(cert):
    return {
        "gamma": cert.gamma,
        "verified": cert.verified,
        "margin_inner": cert.margin_inner,
        "margin_outer": cert.margin_outer,
        "witness_inner": list(cert.witness_inner) if cert.witness_inner else None,
        "witness_outer": list(cert.witness_outer) if cert.witness_outer else None,
    }


def _step_payload(step):
    return {
        "formula": step.formula,
        "inputs": {k: v for k, v in step.inputs},
        "value": step.value,
        "kind": step.kind,
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, results, evidence_level, ok)


def _run_partition_simplex(args):
    cert = simplex_partition(STD_TETRA, "m%d" % args.m)
    ok, conditions = scheme_box_tautology(cert)
    results = {
        "scheme": cert.scheme,
        "m": cert.m,
        "ratio": cert.ratio,
        "pieces": [_piece_payload(p) for p in cert.pieces],
        "tautology": {"ok": ok, "conditions": list(conditions)},
    }
    evidence = "exact"
    if args.verify:
        report = verify_covering(cert.parent, cert.pieces, N=args.verify)
        results["coverage"] = _coverage_payload(report)
        ok = ok and report.covered
        evidence = "grid-certified"
    if args.norm is not None:
        results["diameter_ratio"] = partition_diameter_ratio(cert, args.norm)
        results["norm"] = args.norm.label()
    inputs = {"m": args.m, "verify": args.verify,
              "norm": args.norm.label() if args.norm else None}
    return inputs, results, evidence, ok


def _run_partition_cube(args):
    cert = cube_partition(args.n)
    report = verify_covering(cert.parent, cert.pieces, N=64)
    ratio = partition_diameter_ratio(cert, Norm.lp(INF))
    ok = report.covered and ratio == Fraction(1, 2)
    results = {
        "n": args.n,
        "m": cert.m,
        "ratio": cert.ratio,
        "diameter_ratio_linf": ratio,
        "coverage": _coverage_payload(report),
    }
    return {"n": args.n}, results, "grid-certified", ok


def _run_partition_triangle(args):
    cert = triangle_partition4(STD_TRIANGLE)
    ok, conditions = scheme_box_tautology(cert)
    report = verify_covering(cert.parent, cert.pieces, N=64)
    results = {
        "scheme": cert.scheme,
        "m": cert.m,
        "ratio": cert.ratio,
        "pieces": [_piece_payload(p) for p in cert.pieces],
        "tautology": {"ok": ok, "conditions": list(conditions)},
        "coverage": _coverage_payload(report),
    }
    return {}, results, "grid-certified", ok and report.covered


def _run_partition_disk(args):
    cert = disk_partition4()
    report = verify_covering(cert.parent, cert.pieces, N=args.samples, seed=args.seed)
    ratio = partition_diameter_ratio(cert, Norm.lp(2))
    results = {
        "scheme": cert.scheme,
        "m": cert.m,
        "ratio": cert.ratio,
        "diameter_ratio_l2": ratio,
        "pieces": [_piece_payload(p) for p in cert.pieces],
        "coverage": _coverage_payload(report),
    }
    inputs = {"samples": args.samples, "seed": args.seed}
    return inputs, results, "sampled", report.covered


_SEARCH_BODIES = {
    "l1ball": (lambda: PBall(p=1, dim=3), Norm.lp(1)),
    "cube": (lambda: cube(3), Norm.lp(INF)),
    "disk": (lambda: PBall(2, 2), Norm.lp(2)),
}


def _run_cover_search(args):
    body_fn, norm = _SEARCH_BODIES[args.body]
    sol = search_ball_covering(body_fn(), m=args.m, r=args.r, norm=norm,
                               seed=args.seed)
    results = {
        "body": args.body,
        "m": args.m,
        "radius": sol.radius,
        "norm": norm.label(),
        "centers": [list(c) for c in sol.centers],
        "residual_margin": sol.residual_margin,
        "success": sol.success,
    }
    evidence = "exact" if is_rational(sol.residual_margin) else "sampled"
    inputs = {"body": args.body, "m": args.m, "r": args.r, "seed": args.seed}
    return inputs, results, evidence, sol.success


def _bm_level(method: str, gamma) -> str:
    """The evidence level of a Banach-Mazur bound: exact when gamma is
    rational, cited when it leans on the exact-distance formula, else
    carried by a sandwich certificate checked on a grid."""
    if is_rational(gamma):
        return "exact"
    return "cited" if method == "exact_formula" else "grid-certified"


def _run_bm_bound(args):
    report = bm_upper(args.p)
    cert = report.certificate
    results = {
        "p": report.p,
        "q": report.q,
        "gamma": report.gamma_bound,
        "method": report.method,
        "certificate": _certificate_payload(cert) if cert else None,
    }
    ok = cert.verified if cert is not None else True
    return {"p": args.p}, results, _bm_level(report.method, report.gamma_bound), ok


def _run_bm_scan(args):
    p0, f0 = f_scan(args.lo, args.hi, args.step)
    results = {"p0": p0, "f_p0": f0, "gamma_p0": f0 / 10.0}
    inputs = {"lo": args.lo, "hi": args.hi, "step": args.step}
    return inputs, results, "sampled", True


def _run_beta_table(args):
    p_values = [parse_scalar(tok) for tok in args.p_list.split(",") if tok]
    if not p_values:
        raise ValueError("--p-list names no p")
    table = lp_beta8_table(p_values)
    rows = []
    levels = []
    for bound in table:
        p = bound.space[1]
        # the half-cube step is grid-certified; the sandwich step is the
        # Banach-Mazur bound of bm bound
        sandwich = bound.provenance[1]
        level = _weakest(["grid-certified",
                          _bm_level(dict(sandwich.inputs)["method"], sandwich.value)])
        rows.append({
            "p": p,
            "value": bound.value,
            "m": bound.m,
            "evidence": level,
            "provenance": [_step_payload(s) for s in bound.provenance],
        })
        levels.append(level)
    inputs = {"space": "lp3", "m": 8, "p_list": args.p_list}
    return inputs, {"rows": rows}, _weakest(levels), True


def _run_beta_minmax(args):
    res = minmax_epsilon(args.eta, args.ball)
    results = {
        "eps_star": res.eps_star,
        "bound": res.bound,
        "branch_simplex": res.branch_values[0],
        "branch_ball": res.branch_values[1],
    }
    evidence = "exact" if is_rational(res.bound) else "sampled"
    inputs = {"eta": args.eta, "ball": args.ball}
    return inputs, results, evidence, True


def _run_check(args):
    holds = corollary_threshold_check()
    results = {
        "name": args.name,
        "holds": holds,
        "eps_star": Fraction(7, 57),
        "threshold": Fraction(221, 328),
    }
    return {"name": args.name}, results, "exact", holds


def _run_oracle(args):
    problem = load_problem(args.points)
    points = problem["points"]
    if points is None:
        raise ValueError("points file carries no \"points\" section")
    norm = args.norm or problem["norm"] or Norm.lp(2)
    res = beta_finite_exact(points, args.m, norm)
    results = {
        "value": res.value,
        "threshold": res.threshold,
        "diameter": res.diameter,
        "m": args.m,
        "norm": norm.label(),
        "witness_partition": [sorted(part) for part in res.witness_partition],
    }
    evidence = "exact" if is_rational(res.value) else "sampled"
    inputs = {"points": os.path.basename(args.points), "m": args.m,
              "norm": norm.label()}
    return inputs, results, evidence, True


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="diampart",
                     description="diameter-partition constructions, "
                                 "certificates, and bound tables")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report bytes to FILE")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (report is then "
                             "no longer byte-stable)")
    sub = parser.add_subparsers(required=True)

    part = sub.add_parser("partition", help="build and verify a partition")
    psub = part.add_subparsers(required=True)
    ps = psub.add_parser("simplex", help="tetrahedron scheme with 5/8/9 pieces")
    ps.add_argument("--m", type=int, choices=(5, 8, 9), required=True)
    ps.add_argument("--norm", type=_norm_arg, default=None,
                    help="p value or norm-spec file for a diameter ratio")
    ps.add_argument("--verify", type=_positive_int, metavar="N", default=0,
                    help="exact barycentric grid check with divisor N")
    ps.set_defaults(handler=_run_partition_simplex, command="partition simplex")
    pc = psub.add_parser("cube", help="2^n half-cube partition")
    pc.add_argument("--n", type=int, required=True)
    pc.set_defaults(handler=_run_partition_cube, command="partition cube")
    pt = psub.add_parser("triangle", help="midpoint triangle partition")
    pt.set_defaults(handler=_run_partition_triangle, command="partition triangle")
    pd = psub.add_parser("disk", help="disk quadrant partition")
    pd.add_argument("--samples", type=_positive_int, default=2048)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(handler=_run_partition_disk, command="partition disk")

    cover = sub.add_parser("cover", help="ball-covering search")
    csub = cover.add_subparsers(required=True)
    cs = csub.add_parser("search", help="cover a body by m balls of radius r")
    cs.add_argument("--body", choices=sorted(_SEARCH_BODIES), required=True)
    cs.add_argument("--m", type=int, required=True)
    cs.add_argument("--r", type=_scalar_arg, required=True)
    cs.add_argument("--seed", type=int, default=0)
    cs.set_defaults(handler=_run_cover_search, command="cover search")

    bm = sub.add_parser("bm", help="Banach-Mazur upper bounds")
    bsub = bm.add_subparsers(required=True)
    bb = bsub.add_parser("bound", help="distance bound for l_p^3 vs l_inf^3")
    bb.add_argument("--p", type=_scalar_arg, required=True)
    bb.set_defaults(handler=_run_bm_bound, command="bm bound")
    bs = bsub.add_parser("scan", help="minimize the parallelepiped profile")
    bs.add_argument("--lo", type=float, default=1.0)
    bs.add_argument("--hi", type=float, default=2.0)
    bs.add_argument("--step", type=float, default=1e-4)
    bs.set_defaults(handler=_run_bm_scan, command="bm scan")

    beta = sub.add_parser("beta", help="combined diameter-partition bounds")
    tsub = beta.add_subparsers(required=True)
    bt = tsub.add_parser("table", help="the piecewise beta(l_p^3, 8) table")
    bt.add_argument("--p-list", dest="p_list", default="1,2,inf")
    bt.set_defaults(handler=_run_beta_table, command="beta table")
    bmx = tsub.add_parser("minmax", help="epsilon min-max of the two branches")
    bmx.add_argument("--eta", type=_scalar_arg, required=True)
    bmx.add_argument("--ball", type=_scalar_arg, required=True)
    bmx.set_defaults(handler=_run_beta_minmax, command="beta minmax")

    check = sub.add_parser("check", help="exact identity checks")
    check.add_argument("name", choices=("corollary-221-328",))
    check.set_defaults(handler=_run_check, command="check")

    oracle = sub.add_parser("oracle", help="exact beta for a finite point set")
    oracle.add_argument("--points", required=True, metavar="FILE")
    oracle.add_argument("--m", type=int, required=True)
    oracle.add_argument("--norm", type=_norm_arg, default=None)
    oracle.set_defaults(handler=_run_oracle, command="oracle")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        try:
            inputs, results, evidence, ok = args.handler(args)
        except VerificationError as exc:
            inputs, results, evidence, ok = None, {"verification_error": str(exc)}, None, False
        elapsed = time.perf_counter() - started
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "results": results,
            "evidence_level": evidence,
            "timings": {"total_s": elapsed} if args.timings else None,
        }
        text = canonical_json(envelope) + "\n"
        # the file is written first, so a bad path leaves stdout empty
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        return _error_line(exc)
    sys.stdout.write(text)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
