"""Canonical report rendering and the norm/points file format.

Reports must be byte-stable across runs, so the JSON writer here is
deliberately pedantic: keys are sorted, floats are printed with 17
significant digits, rationals become "num/den" strings, and infinity is
the string "inf".  The same conventions are accepted on the way in.
"""

import json
import math
from fractions import Fraction

from .geometry import Norm, VPolytope
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
# norm specs


def _require_object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(spec).__name__))
    return spec


def _field(spec: dict, key: str):
    """spec[key], or a ValueError naming the spec's kind and the key."""
    if key not in spec:
        raise ValueError('a "%s" norm spec needs "%s"' % (spec["kind"], key))
    return spec[key]


def norm_from_spec(spec: dict) -> Norm:
    kind = _require_object(spec, "a norm spec").get("kind")
    if kind == "p":
        return Norm.lp(parse_scalar(_field(spec, "p")))
    if kind == "gauge":
        return Norm.gauge(VPolytope(parse_points(_field(spec, "vertices"))))
    raise ValueError("unknown norm kind %r" % (kind,))


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


def read_json(path: str):
    """The JSON value in an ASCII file; nesting too deep to parse is a
    ValueError, like any other malformed file."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_problem(path: str) -> dict:
    """Read a norm/points file: its "norm" and "points" sections, each None
    when missing.  Other keys are ignored."""
    raw = _require_object(read_json(path), "a problem file")
    return {"norm": norm_from_spec(raw["norm"]) if "norm" in raw else None,
            "points": parse_points(raw["points"]) if "points" in raw else None}
