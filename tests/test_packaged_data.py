"""The shipped covering fixture must keep re-verifying from a cold load."""

import json
from fractions import Fraction
from importlib import resources

from diampart.coverings import verify_ball_covering
from diampart.geometry import PBall
from diampart.numbers import parse_scalar
from diampart.serialization import norm_from_spec


def _load_fixture():
    ref = resources.files("diampart") / "data" / "l1ball_8cover.json"
    return json.loads(ref.read_text())


def test_fixture_reverifies_exactly():
    raw = _load_fixture()
    body = PBall(1, 3)
    norm = norm_from_spec(raw["norm"])
    centers = [tuple(parse_scalar(c) for c in row) for row in raw["centers"]]
    r = parse_scalar(raw["r"])

    assert len(centers) == raw["m"] == 8
    margin = verify_ball_covering(body, centers, r, norm)
    assert margin == Fraction(0)
    assert margin <= parse_scalar(raw["residual_margin"])


def test_fixture_radius_is_two_thirds_of_diameter_half():
    raw = _load_fixture()
    assert parse_scalar(raw["r"]) == Fraction(2, 3)
    assert raw["body"] == {"kind": "pball", "p": 1, "dim": 3, "radius": 1}
