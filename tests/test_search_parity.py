"""Search results pinned bit for bit.

`search_parity.json` records, for each case below, the repr of the
centers, radius, residual margin and search margin that
`search_ball_covering` returned when the fixture was captured.  A change
to the distance kernel, the samplers or the start heuristics that moves
any of them, even in the last bit, fails here.

Regenerate the fixture only for a change that is meant to alter search
results:  PYTHONPATH=src python tests/test_search_parity.py
"""
import json
import os
from fractions import Fraction

import pytest

from diampart.coverings import search_ball_covering
from diampart.geometry import Norm, PBall, cube
from diampart.numbers import INF
from diampart.partitions import UnitDisk

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_parity.json")

GAUGE2 = Norm.gauge(((2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (-1, -1)))
GAUGE3 = Norm.gauge(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2),
                     (0, 0, -2), (1, 1, 1), (-1, -1, -1)))

BODIES = {
    "l1ball": (lambda: PBall(p=1, dim=3), Norm.lp(1)),
    "cube": (lambda: cube(3), Norm.lp(INF)),
    "disk": (UnitDisk, Norm.lp(2)),
}

# The benchmark's sampled-search table: (body, m, r).
SEARCH_TABLE = (
    ("l1ball", 8, Fraction(2, 3)),
    ("l1ball", 6, Fraction(3, 4)),
    ("cube", 8, Fraction(1, 2)),
    ("cube", 2, Fraction(1)),
    ("disk", 3, 0.9),
    ("disk", 4, 0.8),
    ("disk", 2, 0.9),
)


def _cases():
    cases = {}
    for kind, m, r in SEARCH_TABLE:
        make, norm = BODIES[kind]
        for seed in range(4):
            cases["%s-m%d-r%s-seed%d" % (kind, m, r, seed)] = (
                make, m, r, norm, dict(seed=seed))
    cases["gauge2-disk-m3"] = (UnitDisk, 3, 0.9, GAUGE2, dict(seed=0))
    # m=2 moves in the last bit when the gauge contraction order changes
    for m, r in ((2, Fraction(1)), (4, Fraction(3, 4))):
        cases["gauge3-cube-m%d" % m] = (lambda: cube(3), m, r, GAUGE3,
                                        dict(seed=0, n_boundary=256, n_interior=64))
    cases["l3-pball2-m4"] = (lambda: PBall(3, 2), 4, 0.8, Norm.lp(3), dict(seed=0))
    return cases


CASES = _cases()


def _record(case):
    make, m, r, norm, kwargs = case
    sol = search_ball_covering(make(), m, r, norm, **kwargs)
    return {"centers": repr(sol.centers), "radius": repr(sol.radius),
            "residual_margin": repr(sol.residual_margin),
            "search_margin": repr(sol.search_margin)}


def _fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_fixture(name):
    assert _record(CASES[name]) == _fixture()[name]


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump({name: _record(case) for name, case in sorted(CASES.items())},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
