"""CLI surface: scenario tables, formats, seeds, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from qfoundry import cli
from qfoundry.report import format_number


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json_table(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def table_value(payload, quantity):
    for row in payload["rows"]:
        if row[0] == quantity:
            return row[1]
    raise KeyError(quantity)


class TestScenarioTables:
    def test_kcbs_default_contains_quantum_value(self, tmp_path, capsys):
        out = tmp_path / "kcbs.json"
        code, _, _ = run_cli(["kcbs", "--output", str(out)], capsys)
        assert code == 0
        payload = load_json_table(out)
        assert abs(table_value(payload, "s_kcbs") - (5.0 - 4.0 * math.sqrt(5.0))) < 1e-9
        assert table_value(payload, "classical_minimum") == -3.0
        assert payload["meta"]["scenario"] == "kcbs"
        assert "provenance" in payload["meta"]
        assert "seed" in payload["meta"]
        assert "toolkit_version" in payload["meta"]

    def test_leggett_scan_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            ["leggett", "--scan-phi", "0:90:0.5", "--format", "csv", "--output", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "phi_deg,s_qm,bound,violation"
        assert len(lines) == 1 + 181 + 1  # header + rows + trailing newline
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.0
        # sidecar metadata for CSV
        sidecar = json.loads((tmp_path / "scan.csv.meta.json").read_text())
        assert abs(sidecar["argmax_phi_deg"] - sidecar["stationarity_root_deg"]) <= 0.5
        assert sidecar["max_violation"] > 0.10

    def test_hardy_at_45_degrees_gives_zero_p4(self, tmp_path, capsys):
        out = tmp_path / "hardy.json"
        code, _, _ = run_cli(["hardy", "--gamma", "45", "--output", str(out)], capsys)
        assert code == 0
        payload = load_json_table(out)
        row = payload["rows"][0]
        columns = payload["columns"]
        assert row[columns.index("p4")] < 1e-12

    def test_hom_reports_null_coincidence(self, tmp_path, capsys):
        out = tmp_path / "hom.json"
        code, _, _ = run_cli(["hom", "--output", str(out)], capsys)
        assert code == 0
        payload = load_json_table(out)
        assert payload["meta"]["coincidence_probability"] == 0.0
        occupations = {(row[0], row[1]) for row in payload["rows"]}
        assert occupations == {(2, 0), (0, 2)}

    def test_polarization_scan_stdout(self, capsys):
        code, out, _ = run_cli(["polarization-qm", "--scan-theta", "0:180:45"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["theta_rel_deg", "p_same", "p_both_pass", "cos2_theta"]
        assert len(payload["rows"]) == 5

    def test_lhv_table_lists_eight_rows(self, capsys):
        code, out, _ = run_cli(["lhv-table"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8
        assert payload["meta"]["p_same_minimum_exact"] == "1/3"
        assert abs(payload["meta"]["p_same_weighted"] - 0.5) < 1e-15

    def test_chsh_singlet(self, tmp_path, capsys):
        out = tmp_path / "chsh.json"
        code, _, _ = run_cli(["chsh", "--state", "singlet", "--output", str(out)], capsys)
        assert code == 0
        payload = load_json_table(out)
        assert abs(table_value(payload, "s_max") - 2.0 * math.sqrt(2.0)) < 1e-6

    def test_noon_single_photon_reports_entropy(self, capsys):
        code, out, _ = run_cli(["noon", "--n", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["meta"]["entanglement_entropy_bits"] - 1.0) < 1e-9

    def test_popper_scenario(self, capsys):
        code, out, _ = run_cli(["popper", "--sigma-plus", "1.0", "--sigma-minus", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(table_value(payload, "product_conditional") - 0.5) < 1e-3
        assert table_value(payload, "product_unconditioned") > 0.5

    def test_tlm_default_is_singlet_optimal(self, capsys):
        code, out, _ = run_cli(["tlm"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert table_value(payload, "satisfied") is True
        assert abs(table_value(payload, "lhs") - table_value(payload, "rhs")) < 1e-12
        assert abs(table_value(payload, "chsh_value") - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_leggett_model_mode(self, capsys):
        code, out, _ = run_cli(
            [
                "leggett",
                "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "1,0,0",
                "--samples", "10000", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(table_value(payload, "mean_ab_analytic") + 1.0) < 1e-12
        assert abs(table_value(payload, "mean_ab_mc") + 1.0) < 1e-9


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0",
                "--samples", "200000", "--seed", "17"]
        assert cli.main(args + ["--output", str(out_a)]) == 0
        assert cli.main(args + ["--output", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_environment_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QFOUNDRY_SEED", "424242")
        code, out, _ = run_cli(["kcbs"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 424242

    def test_numbers_rendered_with_17_significant_digits(self, capsys):
        code, out, _ = run_cli(["kcbs"], capsys)
        assert code == 0
        assert "-3.9442719099991" in out


class TestExitCodes:
    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(["popper", "--width", "-1.0"], capsys)
        assert code == 2
        assert "width" in err

    def test_bad_scan_spec_exits_2(self, capsys):
        code, _, err = run_cli(["leggett", "--scan-phi", "10:5:1"], capsys)
        assert code == 2
        assert "--scan-phi" in err

    def test_inconsistent_model_exits_3(self, capsys):
        code, _, err = run_cli(
            ["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "0,0,1", "--b", "0,0,1"],
            capsys,
        )
        assert code == 3
        assert "consistency" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["kcbs", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_incomplete_model_flags_exit_2(self, capsys):
        code, _, err = run_cli(["leggett", "--u", "0,0,1"], capsys)
        assert code == 2
        assert "--u" in err or "model mode" in err


class TestScanSpec:
    def test_scan_never_passes_upper_bound(self, capsys):
        code, out, _ = run_cli(["polarization-qm", "--scan-theta", "0:1:0.4"], capsys)
        assert code == 0
        thetas = [row[0] for row in json.loads(out)["rows"]]
        assert thetas == [0.0, 0.4, 0.8]

    def test_leggett_scan_step_not_dividing_range(self, capsys):
        code, out, err = run_cli(["leggett", "--scan-phi", "0:180:70"], capsys)
        assert code == 0, err
        assert [row[0] for row in json.loads(out)["rows"]] == [0.0, 70.0, 140.0]

    def test_default_leggett_scan_ends_at_90(self, capsys):
        code, out, _ = run_cli(["leggett"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 9001
        assert rows[-1][0] == 90.0

    def test_non_finite_scan_bound_exits_2(self, capsys):
        code, _, err = run_cli(["hardy", "--scan-gamma", "0:inf:1"], capsys)
        assert code == 2
        assert "finite" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["polarization-qm", "--theta-rel", "nan"],
            ["chsh", "--state", "partial", "--gamma", "inf"],
            ["hardy", "--gamma", "nan"],
            ["popper", "--sigma-plus", "nan"],
            ["tlm", "--c00", "nan"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be a finite number" in err

    def test_non_finite_weights_exit_2(self, capsys):
        code, out, err = run_cli(["lhv-table", "--weights", "nan,0,0,0,0,0,0,1"], capsys)
        assert code == 2
        assert out == ""
        assert "non-finite weights" in err

    def test_non_finite_vector_exits_2_naming_flag(self, capsys):
        code, out, err = run_cli(["leggett", "--u", "nan,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --u: ")
        assert "finite" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_format_number_refuses_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            format_number(value)


class TestJobs:
    MODEL = ["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "1000"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(self.MODEL + ["--jobs", jobs])
        assert excinfo.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_jobs_sets_substreams(self, capsys):
        _, one, _ = run_cli(self.MODEL + ["--jobs", "1"], capsys)
        _, three, _ = run_cli(self.MODEL + ["--jobs", "3"], capsys)
        _, three_again, _ = run_cli(self.MODEL + ["--jobs", "3"], capsys)
        assert three == three_again
        assert table_value(json.loads(one), "mean_a_mc") != table_value(json.loads(three), "mean_a_mc")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qfoundry.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "qfoundry" in result.stdout


def test_no_scenario_loads_scipy():
    # a fresh interpreter: other tests in this process may have loaded scipy
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import qfoundry, qfoundry.cli as cli

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        codes = [
            run(["kcbs"]),
            run(["popper", "--sigma-plus", "1.0", "--sigma-minus", "0.5", "--width", "0.5"]),
            run(["chsh"]),
            run(["chsh", "--state", "partial", "--gamma", "22.5"]),
        ]
        scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
        print(json.dumps({"codes": codes, "scipy": scipy}))
        """
    )
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}
