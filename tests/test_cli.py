import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphdefect
from sphdefect import cli
from sphdefect.harmonics import GauntTable, gaunt_table


def run(argv, capsys):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlumbing:
    def test_usage_error_exit_2(self):
        # an unknown command, and a flag the CLI no longer has
        for argv in (["no-such-command"],
                     ["mc-clt", "--d", "2", "--l", "4", "--method", "spectral-basis"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["constant", "--d", "2"],
                                      ["lemcg", "--d", "2", "--l", "2"]])
    def test_payload_commands_refuse_csv(self, argv, capsys):
        # one JSON object has no CSV form: a usage error, not a traceback
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        code, out, _ = run(argv + ["--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["fmt"] == "json"

    def test_missing_required_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["variance"])  # --d is required
        assert exc.value.code == 2

    def test_bad_range_syntax_exit_2(self, capsys):
        code, _, err = run(["variance", "--d", "2", "--l-range", "10:2"], capsys)
        assert code == 2
        assert "range" in err

    def test_l_and_range_mutually_exclusive(self, capsys):
        code, _, err = run(["variance", "--d", "2", "--l", "4",
                            "--l-range", "2:8:2"], capsys)
        assert code == 2
        assert "exactly one" in err

    def test_capability_refusal_exit_2(self, capsys):
        code, _, err = run(["gaunt", "--d", "2", "--l", "65"], capsys)
        assert code == 2
        assert "l <= 64" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_version_matches_pyproject(self):
        # the package version is written in two places; they must agree
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert declared is not None
        assert declared.group(1) == sphdefect.__version__

    def test_console_entry_point(self):
        # module execution path used by the installed script
        proc = subprocess.run(
            [sys.executable, "-m", "sphdefect.cli", "facile", "--q", "1",
             "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "holds_diag" in proc.stdout


def _header(out):
    """The run's config object, from a CSV header line or a JSON document."""
    if out.startswith("{"):
        return json.loads(out)["config"]
    line = next(x for x in out.splitlines() if x.startswith("# config: "))
    return json.loads(line.split("# config: ", 1)[1])


@pytest.mark.parametrize("argv,flag", [
    (["variance", "--d", "2", "--l", "4"], ["--q-max", "64"]),
    (["constant", "--d", "2", "--method", "series", "--q-terms", "20",
      "--n-lobes", "10"], ["--n-lobes", "12"]),
    (["ccoef", "--d", "2", "--q", "1"], ["--method", "closed"]),
    (["lemcg", "--d", "2", "--l", "2"], ["--l", "4"]),
    (["circulant", "--d", "2", "--l", "2"], ["--d", "3"]),
    (["mc-clt", "--d", "2", "--l", "4", "--n", "20"],
     ["--dump-realizations", "dump.csv"]),
    (["moments", "--d", "2", "--l", "4", "--k", "3"], ["--k", "5"]),
    (["moments", "--d", "2", "--l", "4", "--k", "3"], ["--range", "full"]),
    (["moments", "--d", "2", "--l", "4", "--k-range", "2:3"], ["--k-range", "2:4"]),
    (["facile", "--q", "1"], ["--p", "2"]),
    (["selftest", "--criteria", "9"], ["--criteria", "1"]),
])
def test_header_records_every_flag(argv, flag, capsys, tmp_path, monkeypatch):
    # two runs that differ in one flag must not print the same config (a
    # repeated flag overrides the earlier value)
    monkeypatch.setenv("SPHDEFECT_OUTPUT_DIR", str(tmp_path))
    code_a, out_a, _ = run(argv + ["--no-timestamp"], capsys)
    code_b, out_b, _ = run(argv + flag + ["--no-timestamp"], capsys)
    assert (code_a, code_b) == (0, 0)
    a, b = _header(out_a), _header(out_b)
    assert a != b
    assert set(cli._SHARED_KEYS) <= set(a) and set(cli._SHARED_KEYS) <= set(b)


class TestVariance:
    def test_csv_schema_and_header(self, capsys):
        code, out, err = run(["variance", "--d", "2", "--l-range", "2:6:2",
                              "--tol", "1e-4", "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# sphdefect ")
        assert lines[1].startswith("# config: ")
        config = json.loads(lines[1].split("# config: ", 1)[1])
        assert config["command"] == "variance"
        assert config["d"] == 2
        assert config["l_range"] == "2:6:2"
        assert lines[2] == ("l,variance,l_pow_d_variance,tail_bound,"
                            "q_used,tol_achieved")
        assert len(lines) == 6
        row = lines[3].split(",")
        assert int(row[0]) == 2
        assert float(row[1]) == pytest.approx(1.91482, rel=1e-4)

    def test_byte_identical_reruns(self, capsys):
        argv = ["variance", "--d", "2", "--l", "4", "--tol", "1e-4",
                "--no-timestamp"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["circulant", "--d", "2", "--l-range", "2:6:2", "--no-timestamp"],
        ["lemcg", "--d", "3", "--l", "2", "--no-timestamp"],
        ["gaunt", "--d", "2", "--l", "4"],
        ["mc-clt", "--d", "2", "--l", "6", "--n", "40", "--no-timestamp"],
    ], ids=lambda argv: argv[0])
    def test_byte_identical_reruns_per_command(self, argv, capsys):
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert (code1, code2) == (0, 0)
        assert out1 and out1 == out2

    def test_timestamp_line_present_by_default(self, capsys):
        code, out, _ = run(["variance", "--d", "2", "--l", "4",
                            "--tol", "1e-4"], capsys)
        assert code == 0
        assert "# timestamp: " in out

    def test_json_format(self, capsys):
        code, out, _ = run(["variance", "--d", "2", "--l", "4", "--tol", "1e-4",
                            "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "variance"
        assert doc["result"][0]["l"] == 4
        assert doc["result"][0]["tol_achieved"] is True

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPHDEFECT_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run(["variance", "--d", "2", "--l", "4", "--tol", "1e-4",
                            "--no-timestamp", "-o", "sub/v.csv"], capsys)
        assert code == 0
        assert out == ""
        assert (tmp_path / "sub" / "v.csv").exists()

    def test_default_tolerance_certifies_at_l400(self, capsys):
        code, out, err = run(["variance", "--d", "2", "--l", "400",
                              "--no-timestamp"], capsys)
        assert code == 0
        row = out.splitlines()[3].split(",")
        assert row[-1] == "true"
        assert float(row[3]) <= 1e-8 * float(row[1])
        assert "not certified" not in err

    def test_missed_tolerance_note(self, capsys):
        code, out, err = run(["variance", "--d", "2", "--l", "4", "--tol", "1e-15",
                              "--no-timestamp"], capsys)
        assert code == 0
        assert "certified bracket width" in err

    def test_odd_degree_rows_are_zero(self, capsys):
        code, out, _ = run(["variance", "--d", "2", "--l", "5", "--tol", "1e-4",
                            "--no-timestamp"], capsys)
        assert code == 0
        row = out.splitlines()[3].split(",")
        assert float(row[1]) == 0.0
        assert float(row[3]) == 0.0

    @pytest.mark.parametrize("l", ["20", "5"])
    @pytest.mark.parametrize("q_max", ["0", "-3"])
    def test_order_below_one_exit_2(self, l, q_max, capsys):
        # an order of 0 is refused, not replaced by the planned default
        code, out, err = run(["variance", "--d", "2", "--l", l, "--q-max", q_max,
                              "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "q_max >= 1" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_exit_2(self, tol, capsys):
        # NaN used to pass the planner and print a bracket; 0 and -1 ran to
        # the order cap only to report tol_achieved false
        code, out, err = run(["variance", "--d", "2", "--l", "4", "--tol", tol,
                              "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "finite tol > 0" in err

    @pytest.mark.parametrize("l", ["3", "4"])
    @pytest.mark.parametrize("d", ["1", "-4"])
    def test_dimension_below_two_exit_2(self, d, l, capsys):
        # odd l is refused too, not answered with a certified 0
        code, out, err = run(["variance", "--d", d, "--l", l, "--no-timestamp"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "d >= 2" in err


class TestCcoef:
    @pytest.mark.parametrize("d", ["1", "0", "-1"])
    def test_dimension_below_two_exit_2(self, d, capsys):
        code, out, err = run(["ccoef", "--d", d, "--q", "1", "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "d >= 2" in err


class TestConstant:
    def test_both_methods_json(self, capsys):
        code, out, _ = run(["constant", "--d", "2", "--no-timestamp"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r["consistent"] is True
        assert r["exceeds_lower_bound"] is True
        assert r["series"]["value"] == pytest.approx(12.1114, rel=1e-4)
        assert r["disagreement"] <= r["combined_error_estimate"]
        assert r["lower_bound"] == pytest.approx(6.1584, rel=1e-4)

    def test_single_method(self, capsys):
        code, out, _ = run(["constant", "--d", "3", "--method", "integral",
                            "--no-timestamp"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert "series" not in r
        assert r["integral"]["value"] == pytest.approx(63.4661, rel=1e-4)

    @pytest.mark.parametrize("flags,message", [
        (["--d", "2", "--q-terms", "0"], "q_terms >= 1"),
        (["--d", "2", "--n-lobes", "1"], "n_lobes >= 2"),
        (["--d", "2", "--n-lobes", "0"], "n_lobes >= 2"),
        (["--d", "1"], "d >= 2"),
    ])
    def test_bad_arguments_exit_2(self, flags, message, capsys):
        code, out, err = run(["constant", *flags, "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_disagreement_exit_1(self, capsys, monkeypatch):
        # force a fake inflated series estimate through the plumbing
        real = cli.constant_estimate

        def skewed(d, method, **kw):
            est = real(d, method, **kw)
            if method == "series":
                return est.__class__(d=est.d, method=est.method,
                                     value=est.value + 1.0,
                                     error_estimate=est.error_estimate,
                                     params=est.params)
            return est

        monkeypatch.setattr(cli, "constant_estimate", skewed)
        code, out, err = run(["constant", "--d", "2", "--no-timestamp"], capsys)
        assert code == 1
        assert "disagree" in err
        assert json.loads(out)["result"]["consistent"] is False


class TestGaunt:
    def test_table_roundtrips_through_cli_file(self, capsys, tmp_path):
        path = tmp_path / "g24.txt"
        code, _, err = run(["gaunt", "--d", "2", "--l", "4",
                            "-o", str(path)], capsys)
        assert code == 0
        assert "canonical nonzero" in err
        back = GauntTable.load(str(path))
        assert np.array_equal(back.coefficients,
                              gaunt_table(2, 4).coefficients)

    def test_output_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "new" / "deeper" / "g22.txt"
        code, out, err = run(["gaunt", "--d", "2", "--l", "2",
                              "-o", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text() == gaunt_table(2, 2).to_text()
        assert "canonical nonzero" in err

    def test_stdout_text_format(self, capsys):
        code, out, _ = run(["gaunt", "--d", "2", "--l", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2 2 5 6"

    def test_no_timestamp_accepted_and_changes_nothing(self, capsys):
        # scripts pass --no-timestamp to every command; the table has no
        # timestamp line, so the output is the same byte for byte
        code, plain, plain_err = run(["gaunt", "--d", "2", "--l", "6"], capsys)
        assert code == 0
        code, flagged, flagged_err = run(["gaunt", "--d", "2", "--l", "6",
                                          "--no-timestamp"], capsys)
        assert code == 0
        assert flagged == plain and flagged_err == plain_err
        assert plain == gaunt_table(2, 6).to_text()


class TestDiagnostics:
    def test_lemcg_pass_exit_0(self, capsys):
        code, out, _ = run(["lemcg", "--d", "2", "--l", "4",
                            "--no-timestamp"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r["pass"] is True
        assert r["max_offdiag_residual"] < 1e-9

    def test_lemcg_failure_exit_1(self, capsys, monkeypatch):
        real = cli.lemcg_check
        monkeypatch.setattr(cli, "lemcg_check",
                            lambda table: real(table) + 1e-6)
        code, out, err = run(["lemcg", "--d", "2", "--l", "2",
                              "--no-timestamp"], capsys)
        assert code == 1
        assert "diagnostic" in err
        assert json.loads(out)["result"]["pass"] is False

    def test_circulant_csv(self, capsys):
        code, out, _ = run(["circulant", "--d", "2", "--l-range", "2:4:2",
                            "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "l,sum,closed_form,rel_err,g"
        for line in lines[3:]:
            assert float(line.split(",")[3]) < 1e-9

    def test_facile_table_and_exit(self, capsys):
        code, out, _ = run(["facile", "--q-max", "4", "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 + 10  # all (q, p) with 1 <= q <= p <= 4
        assert all(line.split(",")[4] == "true" for line in lines[3:])


class TestMcClt:
    def test_json_run(self, capsys):
        code, out, err = run(["mc-clt", "--d", "2", "--l", "8", "--n", "60",
                              "--seed", "5", "--no-timestamp"], capsys)
        assert code == 0
        r = json.loads(out)["result"]
        assert r[0]["l"] == 8
        assert r[0]["n_realizations"] == 60

    def test_odd_skip_warning(self, capsys):
        code, out, err = run(["mc-clt", "--d", "2", "--l-range", "7:8",
                              "--n", "40", "--no-timestamp"], capsys)
        assert code == 0
        assert "skipping odd l=7" in err
        assert len(json.loads(out)["result"]) == 1

    def test_all_odd_is_usage_error(self, capsys):
        code, _, err = run(["mc-clt", "--d", "2", "--l", "7", "--n", "40"],
                           capsys)
        assert code == 2
        assert "no even l" in err

    def test_grid_over_budget_exit_2(self, capsys):
        # refused from the point count, before the 500,001-node polar rule
        code, out, err = run(["mc-clt", "--d", "2", "--l", "4", "--n", "10",
                              "--grid-degree", "1000000", "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_degree_over_basis_range_exit_2(self, capsys):
        # refused from the basis range, before the 5,606,442-point grid
        code, out, err = run(["mc-clt", "--d", "3", "--l", "14", "--n", "10",
                              "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "d=3 basis supports 0 <= l <= 12" in err

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(["mc-clt", "--d", "2", "--l", "4", "--n", "10",
                              "--seed", "-1", "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "need master_seed >= 0, got -1" in err

    def test_dimension_without_grid_exit_2(self, capsys):
        code, out, err = run(["mc-clt", "--d", "4", "--l", "4", "--n", "10",
                              "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "d in {2, 3}, got d=4" in err

    def test_dump_realizations(self, capsys, tmp_path):
        path = tmp_path / "defects.csv"
        code, _, _ = run(["mc-clt", "--d", "2", "--l", "8", "--n", "30",
                          "--no-timestamp", "--dump-realizations", str(path)],
                         capsys)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[2] == "realization,defect,normalized_defect"
        assert len(lines) == 3 + 30


class TestMoments:
    def test_half_range_values(self, capsys):
        code, out, _ = run(["moments", "--d", "2", "--l", "4",
                            "--k-range", "2:3", "--no-timestamp"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[3:]]
        from sphdefect.spherequad import gegenbauer_moment
        assert float(rows[0][1]) == pytest.approx(gegenbauer_moment(2, 4, 2),
                                                  rel=1e-15)
        assert float(rows[1][1]) == pytest.approx(gegenbauer_moment(2, 4, 3),
                                                  rel=1e-15)


class TestSelftest:
    def test_subset_passes(self, capsys):
        code, out, err = run(["selftest", "--criteria", "1,9",
                              "--no-timestamp"], capsys)
        assert code == 0
        assert "all 2 criteria passed" in err
        lines = out.splitlines()
        assert lines[2] == "criterion,name,passed,detail"
        assert len(lines) == 5

    def test_unknown_criterion_exit_2(self, capsys):
        code, _, err = run(["selftest", "--criteria", "42"], capsys)
        assert code == 2
        assert "unknown criteria" in err

    def test_failure_exit_1(self, capsys, monkeypatch):
        from sphdefect import acceptance

        def broken():
            return acceptance.CriterionResult(1, "forced", False, "injected")

        monkeypatch.setattr(acceptance, "CRITERIA", (broken,))
        code, out, err = run(["selftest", "--no-timestamp"], capsys)
        assert code == 1
        assert "FAILED" in err
