import json
import math
from fractions import Fraction

import pytest

from diampart.cli import main


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


# body sections whose integer field is not a JSON integer, and the error
BAD_INTEGER_FIELDS = [
    ('"cube", "n": [3]', 'a "cube" body spec needs an integer "n", got list'),
    ('"cube", "n": 2.5', 'a "cube" body spec needs an integer "n", got float'),
    ('"cube", "n": true', 'a "cube" body spec needs an integer "n", got bool'),
    ('"cube", "n": "3"', 'a "cube" body spec needs an integer "n", got str'),
    ('"cube", "n": 1e400', 'a "cube" body spec needs an integer "n", got float'),
    ('"pball", "p": 2, "dim": [3]', 'a "pball" body spec needs an integer "dim", got list'),
    ('"pball", "p": 2, "dim": 2.5', 'a "pball" body spec needs an integer "dim", got float'),
]
BAD_BODY_PROBLEM = '{"points": [[0, 0], [1, 0]], "body": {"kind": %s}}'

# spec files that lack a key their kind needs, or hold a malformed
# integer field, and what the error must name
NAMED_CAUSE = {
    '{"kind": "p"}': 'a "p" norm spec needs "p"',
    '{"points": [[0, 0], [1, 0]], "norm": {"kind": "gauge"}}':
        'a "gauge" norm spec needs "vertices"',
    **{BAD_BODY_PROBLEM % body: message for body, message in BAD_INTEGER_FIELDS},
}


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
        # a body section whose integer field is not a JSON integer
        (BAD_BODY_PROBLEM % body, ["oracle", "--points", "FILE", "--m", "2"])
        for body, _ in BAD_INTEGER_FIELDS
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
        code, out = run_cli(capsys, "beta", "table", "--space", "lp3",
                            "--m", "8", "--p-list", "1,2,inf")
        assert code == 0
        rows = parse(out)["results"]["rows"]
        assert [r["p"] for r in rows] == [1, 2, "inf"]
        assert rows[0]["value"] == pytest.approx(0.9246621, abs=1e-6)
        assert rows[0]["value"] <= 0.925
        assert rows[1]["value"] == pytest.approx(0.8660254, abs=1e-6)
        assert rows[2]["value"] == "1/2"
        assert rows[0]["evidence"] == "grid-certified"
        assert rows[1]["evidence"] == "cited"

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

    def test_beta_minmax_exact_threshold(self, capsys):
        _, out = run_cli(capsys, "beta", "minmax", "--eta", "9/16",
                         "--ball", "221/328")
        doc = parse(out)
        assert doc["results"]["bound"] == "1/1"
        assert doc["results"]["eps_star"] == "7/57"
        assert doc["evidence_level"] == "exact"

    def test_beta_table_rejects_other_space(self, capsys):
        assert main(["beta", "table", "--space", "lq4"]) == 1
