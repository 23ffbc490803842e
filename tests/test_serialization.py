import json
import math
from fractions import Fraction

import pytest

from diampart.geometry import Norm, PBall, Simplex, VPolytope, cube
from diampart.numbers import INF
from diampart.serialization import (
    body_from_spec,
    body_to_spec,
    canonical_json,
    load_problem,
    norm_from_spec,
    norm_to_spec,
    parse_points,
)

F = Fraction


class TestCanonicalJson:
    def test_scalars(self):
        assert canonical_json(3) == "3"
        assert canonical_json(F(2, 3)) == '"2/3"'
        assert canonical_json(True) == "true"
        assert canonical_json(None) == "null"
        assert canonical_json(INF) == '"inf"'
        assert canonical_json(-INF) == '"-inf"'

    def test_float_17_digits(self):
        assert canonical_json(math.sqrt(2)) == "1.4142135623730951"
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(2.0) == "2"

    def test_keys_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": 2})
        b = canonical_json({"a": 2, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_output_is_valid_json(self):
        doc = {"x": [1, F(1, 3), 0.5], "y": {"nested": [INF]}, "z": "s"}
        parsed = json.loads(canonical_json(doc))
        assert parsed["x"] == [1, "1/3", 0.5]
        assert parsed["y"]["nested"] == ["inf"]

    def test_empty_containers(self):
        assert canonical_json({}) == "{}"
        assert canonical_json([]) == "[]"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestNormSpecs:
    def test_lp_roundtrip(self):
        for p in (1, 2, F(3, 2), INF):
            spec = norm_to_spec(Norm.lp(p))
            back = norm_from_spec(json.loads(canonical_json(spec)))
            assert back.kind == "p" and back.p == p

    def test_gauge_roundtrip(self):
        n = Norm.gauge(cube(2))
        spec = norm_to_spec(n)
        back = norm_from_spec(json.loads(canonical_json(spec)))
        assert back.kind == "gauge"
        assert set(back.body.vertices) == set(cube(2).vertices)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm_from_spec({"kind": "mystery"})


class TestBodySpecs:
    def test_simplex_roundtrip(self):
        s = Simplex(((0, 0), (1, 0), (0, F(1, 2))))
        back = body_from_spec(json.loads(canonical_json(body_to_spec(s))))
        assert isinstance(back, Simplex)
        assert back.vertices == s.vertices

    def test_pball_roundtrip(self):
        b = PBall(p=F(3, 2), dim=3, radius=F(2, 3))
        back = body_from_spec(json.loads(canonical_json(body_to_spec(b))))
        assert back == b

    def test_cube_spec(self):
        c = body_from_spec({"kind": "cube", "n": 2, "half": "1/2"})
        assert isinstance(c, VPolytope)
        assert set(c.vertices) == {(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)),
                                   (F(-1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            body_from_spec({"kind": "torus"})

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "cube"}, 'a "cube" body spec needs "n"'),
        ({"kind": "pball", "p": 2}, 'a "pball" body spec needs "dim"'),
        ({"kind": "simplex"}, 'a "simplex" body spec needs "vertices"'),
    ])
    def test_missing_key_names_kind_and_key(self, spec, message):
        with pytest.raises(ValueError, match=message):
            body_from_spec(spec)

    @pytest.mark.parametrize("kind, key, value", [
        ("cube", "n", [3]), ("cube", "n", 2.5), ("cube", "n", 2.0), ("cube", "n", True),
        ("cube", "n", "3"), ("cube", "n", math.inf), ("pball", "dim", [3]),
        ("pball", "dim", 3.0), ("pball", "dim", False), ("pball", "dim", "2"),
    ])
    def test_integer_field_must_be_an_integer(self, kind, key, value):
        spec = {"kind": kind, "p": 2, key: value}
        with pytest.raises(ValueError, match='a "%s" body spec needs an integer "%s", got %s'
                           % (kind, key, type(value).__name__)):
            body_from_spec(spec)


class TestProblemFiles:
    def test_load(self, tmp_path):
        doc = {
            "norm": {"kind": "p", "p": "inf"},
            "body": {"kind": "simplex", "vertices": [[0, 0], [1, 0], [0, 1]]},
            "points": [["1/2", 0], [0, "1/3"]],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        got = load_problem(str(path))
        assert got["norm"].p == INF
        assert isinstance(got["body"], Simplex)
        assert got["points"] == ((F(1, 2), 0), (0, F(1, 3)))

    def test_missing_sections_are_none(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"points": [[1, 2]]}')
        got = load_problem(str(path))
        assert got["norm"] is None and got["body"] is None
        assert got["points"] == ((1, 2),)

    def test_parse_points_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_points([[0, 0], [1], [2, 2]])

    def test_parse_points_exact(self):
        pts = parse_points([["2/4", "3"], [1.5, "-7/3"]])
        assert pts[0] == (F(1, 2), 3)
        assert pts[1][0] == 1.5 and pts[1][1] == F(-7, 3)

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400", INF, float("nan")])
    def test_parse_points_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            parse_points([[0, 0], [bad, 1]])

    def test_parse_points_keeps_huge_rationals(self):
        assert parse_points([[10 ** 400, "1/%d" % 10 ** 400]]) == (
            (10 ** 400, F(1, 10 ** 400)),)
