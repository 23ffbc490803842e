"""The README commands print the committed report bytes.

Each fixed README command of ``workloads.CLI_COMMANDS`` runs in process
through ``cli.main``; its stdout must equal perfbench/golden/<name>.out
byte for byte, with the expected exit code.  The oracle command reads
each of the benchmark's generated problem files
(``workloads.oracle_problem``), written under the name the benchmark
gives it, since the report echoes its basename.
"""
import json
import os
import sys
from fractions import Fraction

import pytest

from diampart.cli import main
from diampart.coverings import verify_ball_covering
from diampart.geometry import Norm, PBall
from diampart.numbers import parse_scalar

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
GOLDEN = os.path.join(PERFBENCH, "golden")

sys.path.insert(0, PERFBENCH)  # for workloads' own tracer import
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

# the README commands the cli-cold workload runs; its "oracle" entry
# stands for one command per generated problem file, tested below
README_COMMANDS = [c for c in workloads.CLI_COMMANDS if c[1] is not None]


def assert_golden(capsysbinary, name, argv, code):
    assert main(argv) == code
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()


@pytest.mark.parametrize("name, argv, code", README_COMMANDS, ids=[c[0] for c in README_COMMANDS])
def test_report_bytes_match_golden(capsysbinary, name, argv, code):
    assert_golden(capsysbinary, name, argv, code)


@pytest.mark.parametrize("variant", range(workloads.ORACLE_VARIANTS))
def test_oracle_report_bytes_match_golden(capsysbinary, tmp_path, variant):
    path = tmp_path / ("oracle_gauge_%d.json" % variant)
    path.write_text(json.dumps(workloads.oracle_problem(variant)))
    assert_golden(capsysbinary, "oracle-gauge-%d" % variant,
                  ["oracle", "--points", str(path), "--m", "4"], 0)


def test_l1ball_cover_golden_reverifies_exactly():
    # the golden report is the record of the l1-ball 8-cover at r = 2/3:
    # its centers recheck from the file alone to the margin it states
    with open(os.path.join(GOLDEN, "cover-search-l1ball.out")) as fh:
        results = json.load(fh)["results"]
    centers = [tuple(map(parse_scalar, row)) for row in results["centers"]]
    r = parse_scalar(results["radius"])
    assert (len(centers), r, results["norm"]) == (8, Fraction(2, 3), "l1")
    margin = verify_ball_covering(PBall(1, 3), centers, r, Norm.lp(1))
    assert margin == parse_scalar(results["residual_margin"]) == 0
