import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from diampart.bounds import minmax_epsilon
from diampart.cli import main
from test_imports import NUMPY_FREE_COMMANDS, PACKAGE_DIR


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_failing(capsys, argv):
    """Exit code and captured output of a run that may stop in argparse."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


# body sections a problem file may carry: no command reads one, so the
# oracle ignores each, malformed or not
IGNORED_BODIES = [
    '{"kind": "cube", "n": [3]}',
    '{"kind": "cube", "n": 2.5}',
    '{"kind": "cube", "n": true}',
    '{"kind": "cube", "n": "3"}',
    '{"kind": "cube", "n": 1e400}',
    '{"kind": "pball", "p": 2, "dim": [3]}',
    '{"kind": "pball", "p": 2, "dim": 2.5}',
    # 2^24 vertices, were the body built
    '{"kind": "cube", "n": 24}',
]

# spec files that lack a key their kind needs, or nest too deeply, and
# what the error must name
DEEP_JSON = "[" * 100000 + "]" * 100000
NAMED_CAUSE = {
    DEEP_JSON: "JSON nested too deeply",
    '{"kind": "p"}': 'a "p" norm spec needs "p"',
    '{"points": [[0, 0], [1, 0]], "norm": {"kind": "gauge"}}':
        'a "gauge" norm spec needs "vertices"',
}

# a failed certificate check under python -O, which strips assert
# statements: a scheme ratio the pieces do not attain, or m8 tail boxes
# that leave their homothets (test_partitions.widened_m8_tails)
OPTIMIZED_SCRIPT = """
import sys
from fractions import Fraction
from diampart import partitions
from diampart.cli import main

if __debug__:
    raise SystemExit("not run under python -O")
if sys.argv[1] == "ratio":
    partitions._SCHEME_RATIO["m8"] = Fraction(1, 2)
else:
    from test_partitions import widened_m8_tails
    partitions._scheme_pieces = widened_m8_tails(partitions._scheme_pieces)
raise SystemExit(main(["partition", "simplex", "--m", "8"]))
"""


def parse(out: str) -> dict:
    return json.loads(out)


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _ = run_cli(capsys, "check", "corollary-221-328")
        assert code == 0

    def test_verification_failure_is_two(self, capsys):
        code, out = run_cli(capsys, "cover", "search", "--body", "disk",
                            "--m", "2", "--r", "0.9")
        assert code == 2
        doc = parse(out)
        assert doc["results"]["success"] is False
        assert doc["results"]["residual_margin"] > 0

    @pytest.mark.parametrize("case, message", [
        ("ratio", "m8 pieces do not attain the scheme ratio 1/2"),
        ("tails", "m8 pieces: a box leaves its homothet of ratio -9/16"),
    ])
    def test_certificate_checks_run_under_python_O(self, case, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(PACKAGE_DIR),
                                             os.path.dirname(os.path.abspath(__file__))])
        proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, case], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert parse(proc.stdout)["results"] == {"verification_error": message}

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "simplex", "--m", "7"])
        assert exc.value.code == 1

    def test_no_subcommand_is_one(self, capsys):
        code, captured = run_failing(capsys, [])
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")

    def test_missing_file_is_one(self, capsys):
        code = main(["oracle", "--points", "/no/such/file.json", "--m", "2"])
        assert code == 1

    @pytest.mark.parametrize("p", ["nan", "0.5"])
    def test_p_outside_one_to_inf_names_the_cause(self, capsys, p):
        # NaN is refused by Norm itself, not later by a float-to-int conversion
        code, captured = run_failing(capsys, ["partition", "simplex", "--m", "8", "--norm", p])
        assert code == 1
        assert captured.out == ""
        assert captured.err == "diampart: error: argument --norm: p-norm needs p in [1, inf]\n"

    @pytest.mark.parametrize("argv, cause", [
        (["bm", "scan", "--step", "inf"], "a finite positive step"),
        (["bm", "bound", "--p", "nan"], "p must be at least 1, got nan"),
        (["beta", "table", "--p-list", "nan"], "p must be at least 1, got nan"),
    ], ids=["scan-step-inf", "bound-p-nan", "table-p-list-nan"])
    def test_non_finite_argument_names_its_constraint(self, capsys, argv, cause):
        code, captured = run_failing(capsys, argv)
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error: ")
        assert cause in lines[0]

    def test_ragged_points_are_one(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"points": [[0, 0], [1], [2, 2]]}))
        code = main(["oracle", "--points", str(path), "--m", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")

    @pytest.mark.parametrize("m, r", [("2", "nan"), ("2", "inf"), ("2", "0"),
                                      ("2", "1e400"), ("0", "1/2"), ("-1", "1/2")])
    def test_cover_search_bad_m_or_r_is_one(self, capsys, m, r):
        code = main(["cover", "search", "--body", "cube", "--m", m, "--r", r])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")

    @pytest.mark.parametrize("argv", [
        ["partition", "simplex", "--m", "8", "--verify", "-3"],
        ["partition", "simplex", "--m", "8", "--verify", "0"],
        ["partition", "disk", "--samples", "0"],
        ["partition", "disk", "--samples", "-5"],
        ["bm", "scan", "--lo", "1.5", "--hi", "2"],
        ["partition"],
        ["beta"],
        ["--out", "/nonexistent/dir/x.json", "check", "corollary-221-328"],
        # inputs whose work has no bound: a 167,668,501-point grid,
        # 150,000,000 disk samples, a 1,000,001-point scan, a scan whose
        # point count overflows a float
        ["partition", "simplex", "--m", "8", "--verify", "1000"],
        ["partition", "disk", "--samples", "100000000"],
        ["bm", "scan", "--step", "1e-6"],
        ["bm", "scan", "--step", "1e-320"],
        # integers too large for a float
        ["bm", "bound", "--p", str(10 ** 400)],
        ["beta", "minmax", "--eta", str(10 ** 400), "--ball", "1/2"],
        ["beta", "minmax", "--eta", "1/2", "--ball", str(10 ** 400)],
        ["beta", "table", "--p-list", str(10 ** 400)],
        ["partition", "simplex", "--m", "5", "--norm", str(10 ** 400)],
        # a p-list with no p checks nothing
        ["beta", "table", "--p-list", ""],
        ["beta", "table", "--p-list", ","],
    ])
    def test_bad_input_is_one_error_line(self, capsys, argv):
        code, captured = run_failing(capsys, argv)
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")

    @pytest.mark.parametrize("text, argv", [
        # a norm file whose top level is not an object
        ("[1, 2]", ["partition", "simplex", "--m", "8", "--norm", "FILE"]),
        # a norm file without the "p" its kind needs
        ('{"kind": "p"}', ["partition", "simplex", "--m", "8", "--norm", "FILE"]),
        # a problem file whose norm section is not an object
        ('{"points": [[0, 0], [1, 0]], "norm": 5}', ["oracle", "--points", "FILE", "--m", "2"]),
        # a problem file that is not an object
        ("5", ["oracle", "--points", "FILE", "--m", "2"]),
        # a problem file whose gauge norm has no vertices
        ('{"points": [[0, 0], [1, 0]], "norm": {"kind": "gauge"}}',
         ["oracle", "--points", "FILE", "--m", "2"]),
        # malformed numbers: a zero denominator, a list, null, a bare number
        # where points belong
        ('{"points": [["1/0", 0], [0, 0]]}', ["oracle", "--points", "FILE", "--m", "2"]),
        ('{"kind": "p", "p": "1/0"}', ["partition", "simplex", "--m", "8", "--norm", "FILE"]),
        ('{"points": [[[1], 2], [0, 0]]}', ["oracle", "--points", "FILE", "--m", "2"]),
        ('{"points": [[0, 0], [1, 0]], "norm": {"kind": "p", "p": [2]}}',
         ["oracle", "--points", "FILE", "--m", "2"]),
        ('{"points": [[0, 0], [1, 0]], "norm": {"kind": "gauge", "vertices": 5}}',
         ["oracle", "--points", "FILE", "--m", "2"]),
        ('{"kind": "p", "p": null}', ["partition", "simplex", "--m", "8", "--norm", "FILE"]),
    ] + [
        # nesting too deep for the JSON parser, as a problem and as a norm file
        pytest.param(DEEP_JSON, ["oracle", "--points", "FILE", "--m", "2"], id="deep-points"),
        pytest.param(DEEP_JSON, ["partition", "simplex", "--m", "8", "--norm", "FILE"],
                     id="deep-norm"),
    ])
    def test_bad_spec_file_is_one_error_line(self, capsys, tmp_path, text, argv):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, captured = run_failing(capsys, [str(path) if a == "FILE" else a for a in argv])
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")
        assert "_norm_arg" not in lines[0]  # the cause, not argparse's fallback
        if text in NAMED_CAUSE:
            assert NAMED_CAUSE[text] in lines[0]

    @pytest.mark.parametrize("body", IGNORED_BODIES)
    def test_oracle_ignores_a_body_section(self, capsys, tmp_path, body):
        path = tmp_path / "problem.json"
        runs = []
        for extra in ("", ', "body": ' + body):
            path.write_text('{"points": [[0, 0], [2, 0], [0, 1]]%s}' % extra)
            runs.append(run_cli(capsys, "oracle", "--points", str(path), "--m", "2"))
        assert runs[1] == runs[0]
        assert runs[0][0] == 0

    @pytest.mark.parametrize("points", [
        "[[0, 0], [1e400, 0], [0, 1]]",
        "[[0, 0], [1e400, 0], [0, 1], [1, 1]]",
        '[[0, 0], ["inf", 0], [0, 1]]',
    ])
    def test_non_finite_points_are_one(self, capsys, tmp_path, points):
        # 1e400 parses as an infinite float: refused, not a wrong answer
        # with exit 0 or a traceback from the report writer
        path = tmp_path / "huge.json"
        path.write_text('{"points": %s}' % points)
        code, captured = run_failing(capsys, ["oracle", "--points", str(path), "--m", "2"])
        assert code == 1
        assert captured.out == ""
        assert captured.err == "diampart: error: point coordinates must be finite\n"

    def test_failed_certificate_check_is_two_with_a_report(self, capsys, monkeypatch):
        from diampart import partitions

        monkeypatch.setitem(partitions._SCHEME_RATIO, "m8", Fraction(1, 2))
        code, captured = run_failing(capsys, ["partition", "simplex", "--m", "8"])
        assert code == 2
        assert captured.err == ""
        doc = parse(captured.out)
        assert doc["command"] == "partition simplex"
        assert doc["inputs"] is None and doc["evidence_level"] is None
        assert doc["results"] == {
            "verification_error": "m8 pieces do not attain the scheme ratio 1/2"}

    def test_zero_denominator_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cover", "search", "--body", "cube", "--m", "2", "--r", "1/0"])
        assert exc.value.code == 1
        assert "error: argument --r" in capsys.readouterr().err


class TestEnvelope:
    def test_fields_present(self, capsys):
        _, out = run_cli(capsys, "check", "corollary-221-328")
        doc = parse(out)
        assert set(doc) == {"command", "inputs", "results",
                            "evidence_level", "timings"}
        assert doc["evidence_level"] == "exact"
        assert doc["timings"] is None

    def test_byte_stable(self, capsys):
        _, first = run_cli(capsys, "beta", "minmax", "--eta", "9/16",
                           "--ball", "2/3")
        _, second = run_cli(capsys, "beta", "minmax", "--eta", "9/16",
                            "--ball", "2/3")
        assert first == second

    def test_out_writes_same_bytes(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        _, out = run_cli(capsys, "--out", str(target), "partition", "cube",
                         "--n", "2")
        assert target.read_text() == out

    def test_timings_opt_in(self, capsys):
        _, out = run_cli(capsys, "--timings", "check", "corollary-221-328")
        doc = parse(out)
        assert doc["timings"]["total_s"] >= 0


class TestCommands:
    def test_corollary(self, capsys):
        _, out = run_cli(capsys, "check", "corollary-221-328")
        doc = parse(out)
        assert doc["results"]["holds"] is True
        assert doc["results"]["eps_star"] == "7/57"

    def test_beta_table(self, capsys):
        code, out = run_cli(capsys, "beta", "table", "--p-list", "1,2,inf")
        assert code == 0
        rows = parse(out)["results"]["rows"]
        assert [r["p"] for r in rows] == [1, 2, "inf"]
        assert rows[0]["value"] == pytest.approx(0.9246621, abs=1e-6)
        assert rows[0]["value"] <= 0.925
        assert rows[1]["value"] == pytest.approx(0.8660254, abs=1e-6)
        assert rows[2]["value"] == "1/2"
        assert rows[0]["evidence"] == "grid-certified"
        assert rows[1]["evidence"] == "cited"
        assert rows[2]["evidence"] == "grid-certified"

    def test_bm_scan(self, capsys):
        code, out = run_cli(capsys, "bm", "scan", "--lo", "1.2", "--hi",
                            "1.5", "--step", "1e-3")
        assert code == 0
        res = parse(out)["results"]
        assert res["p0"] == pytest.approx(1.320, abs=1e-3)
        assert res["f_p0"] == pytest.approx(17.550, abs=1e-3)

    def test_bm_bound(self, capsys):
        code, out = run_cli(capsys, "bm", "bound", "--p", "2")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["gamma"] == pytest.approx(math.sqrt(3))
        assert doc["results"]["method"] == "exact_formula"
        assert doc["results"]["certificate"]["verified"] is True
        assert doc["evidence_level"] == "cited"

    def test_bm_bound_p1_exact(self, capsys):
        _, out = run_cli(capsys, "bm", "bound", "--p", "1")
        doc = parse(out)
        assert doc["results"]["gamma"] == "9/5"
        assert doc["evidence_level"] == "exact"

    def test_bm_bound_p_inf_exact(self, capsys):
        # gamma = 1 is rational, so the cited formula is not needed; beta
        # table's p = inf row stays grid-certified through its half-cube step
        _, out = run_cli(capsys, "bm", "bound", "--p", "inf")
        doc = parse(out)
        assert doc["results"]["gamma"] == 1
        assert doc["results"]["method"] == "exact_formula"
        assert doc["evidence_level"] == "exact"

    @pytest.mark.parametrize("p", ["600", "1000", "1e300"])
    def test_bm_bound_large_p(self, capsys, p):
        # the boundary sweep does not overflow raising a coordinate to p
        code, out = run_cli(capsys, "bm", "bound", "--p", p)
        assert code == 0
        doc = parse(out)
        assert doc["results"]["certificate"]["verified"] is True
        assert doc["results"]["gamma"] == 3 ** (1 / float(p))

    def test_partition_simplex_with_verify(self, capsys):
        code, out = run_cli(capsys, "partition", "simplex", "--m", "9",
                            "--verify", "17", "--norm", "inf")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["ratio"] == "9/17"
        assert doc["results"]["m"] == 9
        assert doc["results"]["coverage"]["covered"] is True
        assert doc["results"]["tautology"]["ok"] is True
        assert doc["evidence_level"] == "grid-certified"
        assert len(doc["results"]["pieces"]) == 9

    def test_partition_simplex_tautology_only(self, capsys):
        _, out = run_cli(capsys, "partition", "simplex", "--m", "5")
        doc = parse(out)
        assert "coverage" not in doc["results"]
        assert doc["evidence_level"] == "exact"

    def test_partition_triangle(self, capsys):
        code, out = run_cli(capsys, "partition", "triangle")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["ratio"] == "1/2"
        assert doc["results"]["m"] == 4

    def test_partition_cube(self, capsys):
        code, out = run_cli(capsys, "partition", "cube", "--n", "4")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["m"] == 16
        assert doc["results"]["diameter_ratio_linf"] == "1/2"

    def test_partition_disk(self, capsys):
        code, out = run_cli(capsys, "partition", "disk", "--samples", "512")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["ratio"] == pytest.approx(math.sqrt(2) / 2)
        assert doc["evidence_level"] == "sampled"

    def test_partition_disk_checks_the_samples_asked_for(self, capsys):
        # 8 boundary and 2 interior points plus the random ones: no floor
        code, out = run_cli(capsys, "partition", "disk", "--samples", "8")
        assert code == 0
        doc = parse(out)
        assert doc["inputs"]["samples"] == 8
        assert doc["results"]["coverage"]["resolution"] < 256

    def test_cover_search_cube(self, capsys):
        code, out = run_cli(capsys, "cover", "search", "--body", "cube",
                            "--m", "8", "--r", "1/2")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["success"] is True
        assert doc["evidence_level"] == "exact"
        centers = {tuple(c) for c in map(tuple, doc["results"]["centers"])}
        assert len(centers) == 8

    def test_oracle(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({
            "norm": {"kind": "p", "p": "inf"},
            "points": [[0, 0], [1, 0], [0, 2], [1, 2]],
        }))
        code, out = run_cli(capsys, "oracle", "--points", str(path), "--m", "2")
        assert code == 0
        doc = parse(out)
        assert doc["results"]["value"] == "1/2"
        assert doc["evidence_level"] == "exact"
        assert len(doc["results"]["witness_partition"]) == 2

    def test_norm_p_value_is_not_read_as_a_file(self, capsys, tmp_path, monkeypatch):
        # a file named "2" in the working directory does not shadow p = 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "2").write_text("not a norm spec")
        (tmp_path / "pts.json").write_text(json.dumps({"points": [[0, 0], [3, 4], [6, 0]]}))
        code, out = run_cli(capsys, "oracle", "--points", "pts.json", "--m", "2", "--norm", "2")
        assert code == 0
        assert parse(out)["results"]["norm"] == "l2"
        assert parse(out)["results"]["diameter"] == 6.0

    @pytest.mark.parametrize("norm", [{"kind": "p", "p": 1},
                                      {"kind": "gauge", "vertices": [[1, 1], [1, -1],
                                                                     [-1, 1], [-1, -1]]}])
    def test_oracle_far_points(self, capsys, tmp_path, norm):
        # the differences overflow a float, the value 1/2 does not
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"norm": norm, "points": [[1e308, 0], [-1e308, 0], [0, 1]]}))
        code, out = run_cli(capsys, "oracle", "--points", str(path), "--m", "2")
        assert code == 0
        results = parse(out)["results"]
        assert results["value"] == 0.5 and results["diameter"] == "inf"

    def test_oracle_far_points_under_l2(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"points": [[1e308, 0], [-1e308, 0], [0, 1]]}))
        code, out = run_cli(capsys, "oracle", "--points", str(path), "--m", "2", "--norm", "2")
        assert code == 0
        results = parse(out)["results"]
        assert results["value"] == 0.5 and results["diameter"] == "inf"

    def test_oracle_far_points_under_a_float_gauge(self, capsys, tmp_path):
        # the polyhedral diameter rounds to inf, as it does under l2
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "norm": {"kind": "gauge", "vertices": [[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]},
            "points": [[1e308, 0], [-1e308, 0], [0, 1]]}))
        code, out = run_cli(capsys, "oracle", "--points", str(path), "--m", "2")
        assert code == 0
        results = parse(out)["results"]
        assert results["value"] == 0.5 and results["diameter"] == "inf"

    @pytest.mark.parametrize("points", [[[1e308, 0], [-1e308, 0], [0, 1]],
                                        [[0, 0], [1.7e308, 1.7e308], [1, 1]]])
    def test_oracle_float_keys_beyond_the_float_range(self, capsys, tmp_path, points):
        # p = 5/2 keys pairs by float distances: an infinite one is refused
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"points": points}))
        code, captured = run_failing(capsys, ["oracle", "--points", str(path), "--m", "2",
                                              "--norm", "5/2"])
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "diampart: error: a distance under l5/2 is beyond the float range"]

    def test_beta_minmax_exact_threshold(self, capsys):
        _, out = run_cli(capsys, "beta", "minmax", "--eta", "9/16",
                         "--ball", "221/328")
        doc = parse(out)
        assert doc["results"]["bound"] == "1/1"
        assert doc["results"]["eps_star"] == "7/57"
        assert doc["evidence_level"] == "exact"

    def test_beta_table_rejects_other_space(self, capsys):
        # the table is built for l_p^3 and m = 8 only, so it takes no --space
        with pytest.raises(SystemExit) as exc:
            main(["beta", "table", "--space", "lq4"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("diampart: error:")


# argv values a user can mistype or a script can pass through unchecked
HOSTILE_TOKENS = ["nan", "inf", "-inf", "1/0", "-1/0", "nan/2", "1e400", "-1e400", "1e-400",
                  "", " ", "9" * 400, "-" + "9" * 400, "9" * 5000, "5e-324", "-5e-324",
                  "1e308", "0", "-0", "-1", "1/3", "0x1p3", "1\n2", "1\r2", "1\u20282", "\x00", "é"]
# coordinates of a problem file: JSON numbers of every scale, strings,
# and values that are no number at all
HOSTILE_NUMBERS = [0, 2, -3, 10 ** 400, 1e308, 5e-324, 1e-300, 0.1 + 0.2, 0.3, "1/3", "0.5",
                   math.inf, math.nan]
HOSTILE_COORDS = HOSTILE_NUMBERS + [-1e308, "1/0", "inf", "", None, True, [], {}]
ENVELOPE_KEYS = {"command", "inputs", "results", "evidence_level", "timings"}
# the README's two cover searches and the cube search whose first start covers
COVER_SEARCH_COMMANDS = [
    ["cover", "search", "--body", "l1ball", "--m", "8", "--r", "2/3", "--seed", "0"],
    ["cover", "search", "--body", "disk", "--m", "2", "--r", "0.9"],
    ["cover", "search", "--body", "cube", "--m", "2", "--r", "1"],
]
# the partition commands with a sample count or a grid size: sampled disk
# coverage (numpy kernels) and the exact barycentric grid (integer code)
SIZED_PARTITION_COMMANDS = [
    ["partition", "disk", "--samples", "4096", "--seed", "0"],
    ["partition", "simplex", "--m", "8", "--verify", "64", "--norm", "1"],
]


# inputs inside every command's domain, at the edges of the float range
WELL_POSED_P = ["1", "1.0000000001", "2", "600", "1000", "1e300", "inf"]
WELL_POSED_MINMAX = [("1e-300", "1e-300"), ("1", "1e-300"), ("1e-300", "1"), ("1", "1")]


def _negated(c):
    return "-" + c if isinstance(c, str) else -c


@st.composite
def hostile_problems(draw):
    """A problem file's JSON text: points of one dimension with hostile
    coordinates, and no norm, an l_p norm or a symmetric gauge of
    hostile scale along each axis."""
    dim = draw(st.integers(1, 3))
    coord = st.sampled_from(HOSTILE_COORDS)
    problem = {"points": draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                       min_size=1, max_size=5))}
    kind = draw(st.sampled_from(["none", "p", "gauge"]))
    if kind == "p":
        problem["norm"] = {"kind": "p", "p": draw(coord)}
    elif kind == "gauge":
        axes = draw(st.lists(st.sampled_from(HOSTILE_NUMBERS), min_size=dim, max_size=dim))
        verts = [[a if j == i else 0 for j in range(dim)] for i, a in enumerate(axes)]
        problem["norm"] = {"kind": "gauge",
                           "vertices": verts + [[_negated(c) for c in v] for v in verts]}
    return json.dumps(problem)


def run_in_process(argv):
    """(exit code, stdout, stderr) of one in-process run; a warning counts
    as stderr output, as it would in a fresh process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


def well_posed_report(argv):
    """The report of an input that must not be refused: exit 0 or 2, no
    error line, the same bytes on a second run."""
    code, out, err = run_in_process(argv)
    assert code in (0, 2) and err == "", (argv, code, err)
    assert run_in_process(argv) == (code, out, err), argv
    return json.loads(out)


def check_outcome(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and err == lines[0] + "\n", (argv, err)
        assert err.startswith("diampart: error: "), (argv, err)
    else:
        assert err == "", (argv, err)
        assert set(json.loads(out)) == ENVELOPE_KEYS
    assert run_in_process(argv) == (code, out, err), argv


class TestHostileInput:
    """Every input ends in a report with exit 0 or 2 or in one error line
    with exit 1, the same bytes on every run."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_readme_commands_with_a_hostile_token(self, tmp_path, data):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"points": [[0, 0], [1, "1/2"], [3, -1], [-2, 2]]}))
        argv = [str(problem) if a is None else a for a in data.draw(
            st.sampled_from(NUMPY_FREE_COMMANDS))]
        argv[data.draw(st.integers(0, len(argv) - 1))] = data.draw(
            st.sampled_from(HOSTILE_TOKENS))
        check_outcome(argv)

    @pytest.mark.parametrize("p", WELL_POSED_P)
    @pytest.mark.parametrize("command", [["bm", "bound", "--p"], ["beta", "table", "--p-list"]],
                             ids=lambda c: " ".join(c[:2]))
    def test_well_posed_p_is_never_refused(self, command, p):
        well_posed_report(command + [p])

    @pytest.mark.parametrize("eta,ball", WELL_POSED_MINMAX)
    def test_well_posed_minmax_is_never_refused(self, eta, ball):
        bound = well_posed_report(["beta", "minmax", "--eta", eta, "--ball", ball])["results"]["bound"]
        # homogeneous of degree 1: the bound at (eta, ball) is s times the
        # bound at (eta/s, ball/s), s = max(eta, ball)
        h, b = float(eta), float(ball)
        s = max(h, b)
        assert float(Fraction(bound)) == pytest.approx(
            s * float(minmax_epsilon(h / s, b / s).bound), rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(COVER_SEARCH_COMMANDS), st.data())
    def test_cover_search_with_a_hostile_token(self, argv, data):
        argv = list(argv)
        argv[data.draw(st.integers(0, len(argv) - 1))] = data.draw(
            st.sampled_from(HOSTILE_TOKENS))
        check_outcome(argv)

    @pytest.mark.parametrize("command", SIZED_PARTITION_COMMANDS, ids=lambda c: c[1])
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_numpy_partition_with_a_hostile_token(self, command, data):
        argv = list(command)
        argv[data.draw(st.integers(0, len(argv) - 1))] = data.draw(
            st.sampled_from(HOSTILE_TOKENS))
        check_outcome(argv)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hostile_problems(), st.integers(1, 4))
    # the +-1e308 gauge: read exactly, with no overflow warning on stderr
    @example(json.dumps({"norm": {"kind": "gauge",
                                  "vertices": [[0, 1], [0, -1], [1e308, 0], [-1e308, 0]]},
                         "points": [[0, 0], [1, 0], [0, 1], [2, 3]]}), 2)
    def test_oracle_problem_with_hostile_coordinates(self, tmp_path, text, m):
        problem = tmp_path / "problem.json"
        problem.write_text(text)
        check_outcome(["oracle", "--points", str(problem), "--m", str(m)])
