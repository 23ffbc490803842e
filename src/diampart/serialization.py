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
from .numbers import parse_scalar


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


def _require_object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(spec).__name__))
    return spec


def _field(spec: dict, what: str, key: str):
    """spec[key], or a ValueError naming the spec's kind and the key."""
    if key not in spec:
        raise ValueError('a "%s" %s spec needs "%s"' % (spec["kind"], what, key))
    return spec[key]


def _int_field(spec: dict, what: str, key: str) -> int:
    """spec[key] as a JSON integer; a list, float, bool or string is a
    ValueError naming the spec's kind and the key."""
    value = _field(spec, what, key)
    if type(value) is not int:
        raise ValueError('a "%s" %s spec needs an integer "%s", got %s'
                         % (spec["kind"], what, key, type(value).__name__))
    return value


def norm_from_spec(spec: dict) -> Norm:
    kind = _require_object(spec, "a norm spec").get("kind")
    if kind == "p":
        return Norm.lp(parse_scalar(_field(spec, "norm", "p")))
    if kind == "gauge":
        return Norm.gauge(VPolytope(parse_points(_field(spec, "norm", "vertices"))))
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
    kind = _require_object(spec, "a body spec").get("kind")
    if kind == "simplex":
        return Simplex(parse_points(_field(spec, "body", "vertices")))
    if kind == "vpolytope":
        return VPolytope(parse_points(_field(spec, "body", "vertices")))
    if kind == "cube":
        half = parse_scalar(spec.get("half", 1))
        return cube(_int_field(spec, "body", "n"), half=half)
    if kind == "pball":
        return PBall(
            p=parse_scalar(_field(spec, "body", "p")),
            dim=_int_field(spec, "body", "dim"),
            radius=parse_scalar(spec.get("radius", 1)),
        )
    raise ValueError("unknown body kind %r" % (kind,))


def parse_points(rows) -> tuple:
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("points must be a list of coordinate lists")
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
        raw = _require_object(json.load(fh), "a problem file")
    out = {}
    out["norm"] = norm_from_spec(raw["norm"]) if "norm" in raw else None
    out["body"] = body_from_spec(raw["body"]) if "body" in raw else None
    out["points"] = parse_points(raw["points"]) if "points" in raw else None
    return out
