"""Canonical report rendering and the body/norm/points file format.

Reports must be byte-stable across runs, so the JSON writer here is
deliberately pedantic: keys are sorted, floats are printed with 17
significant digits, rationals become "num/den" strings, and infinity is
the string "inf".  The same conventions are accepted on the way in.
"""

import json
import math
from fractions import Fraction

from .geometry import Norm, PBall, Simplex, VPolytope, cube
from .numbers import INF, parse_scalar


# ---------------------------------------------------------------------------
# canonical writer


def _format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("NaN has no place in a report")
    return "%.17g" % x


def canonical_json(obj, indent: int = 0) -> str:
    """Render to JSON text with deterministic bytes."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, Fraction):
        return '"%d/%d"' % (obj.numerator, obj.denominator)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(str(k) for k in obj)
        if len(keys) != len(obj):
            raise ValueError("duplicate keys after stringification")
        lookup = {str(k): v for k, v in obj.items()}
        parts = [
            '%s%s: %s'
            % (inner, json.dumps(k), canonical_json(lookup[k], indent + 1))
            for k in keys
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [inner + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError("cannot serialize %s" % type(obj).__name__)


# ---------------------------------------------------------------------------
# norm and body specs


def norm_to_spec(norm: Norm) -> dict:
    if norm.kind == "p":
        return {"kind": "p", "p": norm.p}
    return {"kind": "gauge", "vertices": [list(v) for v in norm.body.vertices]}


def norm_from_spec(spec: dict) -> Norm:
    kind = spec.get("kind")
    if kind == "p":
        return Norm.lp(parse_scalar(spec["p"]))
    if kind == "gauge":
        return Norm.gauge(VPolytope(parse_points(spec["vertices"])))
    raise ValueError("unknown norm kind %r" % (kind,))


def body_to_spec(body) -> dict:
    if isinstance(body, Simplex):
        return {"kind": "simplex", "vertices": [list(v) for v in body.vertices]}
    if isinstance(body, VPolytope):
        return {"kind": "vpolytope", "vertices": [list(v) for v in body.vertices]}
    if isinstance(body, PBall):
        return {"kind": "pball", "p": body.p, "dim": body.dim, "radius": body.radius}
    raise TypeError("cannot describe body of type %s" % type(body).__name__)


def body_from_spec(spec: dict):
    kind = spec.get("kind")
    if kind == "simplex":
        return Simplex(parse_points(spec["vertices"]))
    if kind == "vpolytope":
        return VPolytope(parse_points(spec["vertices"]))
    if kind == "cube":
        half = parse_scalar(spec.get("half", 1))
        return cube(int(spec["n"]), half=half)
    if kind == "pball":
        return PBall(
            p=parse_scalar(spec["p"]),
            dim=int(spec["dim"]),
            radius=parse_scalar(spec.get("radius", 1)),
        )
    raise ValueError("unknown body kind %r" % (kind,))


def parse_points(rows) -> tuple:
    points = tuple(tuple(parse_scalar(c) for c in row) for row in rows)
    dims = sorted({len(p) for p in points})
    if len(dims) > 1:
        raise ValueError("points have mixed dimensions %s" % dims)
    if any(isinstance(c, float) and not math.isfinite(c) for p in points for c in p):
        raise ValueError("point coordinates must be finite")
    return points


def load_problem(path: str) -> dict:
    """Read a body/norm/points file; missing sections come back as None."""
    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    out = {}
    out["norm"] = norm_from_spec(raw["norm"]) if "norm" in raw else None
    out["body"] = body_from_spec(raw["body"]) if "body" in raw else None
    out["points"] = parse_points(raw["points"]) if "points" in raw else None
    return out
