"""The README commands print the committed report bytes.

Each fixed README command runs in process through ``cli.main``; its
stdout must equal perfbench/golden/<name>.out byte for byte, with the
expected exit code.  The oracle command reads each of the benchmark's
generated problem files (``workloads.oracle_problem``), written under
the name the benchmark gives it, since the report echoes its basename.
"""
import json
import os
import sys

import pytest

from diampart.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
GOLDEN = os.path.join(PERFBENCH, "golden")

sys.path.insert(0, PERFBENCH)  # for workloads' own tracer import
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

README_COMMANDS = [
    ("partition-simplex", ["partition", "simplex", "--m", "8", "--verify", "64", "--norm", "1"], 0),
    ("partition-cube", ["partition", "cube", "--n", "3"], 0),
    ("partition-triangle", ["partition", "triangle"], 0),
    ("partition-disk", ["partition", "disk", "--samples", "4096", "--seed", "0"], 0),
    ("cover-search-l1ball", ["cover", "search", "--body", "l1ball", "--m", "8", "--r", "2/3",
                             "--seed", "0"], 0),
    ("cover-search-disk", ["cover", "search", "--body", "disk", "--m", "2", "--r", "0.9"], 2),
    ("bm-bound", ["bm", "bound", "--p", "1.5"], 0),
    ("bm-scan", ["bm", "scan", "--lo", "1.0", "--hi", "2.0", "--step", "1e-4"], 0),
    ("beta-table", ["beta", "table", "--p-list", "1,1.5,2,3,inf"], 0),
    ("beta-minmax", ["beta", "minmax", "--eta", "9/16", "--ball", "2/3"], 0),
    ("check-corollary", ["check", "corollary-221-328"], 0),
]


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
