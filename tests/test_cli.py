"""CLI surface: scenario tables, formats, seeds, exit codes."""

import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundry import cli, fock, hvmodels, inequalities, popper, qcore
from qfoundry.report import format_number, render_json

# leggett model mode; add --samples N to sample
MODEL = ["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0"]


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

    def test_csv_without_output_writes_the_sidecar_to_stderr(self, tmp_path, capsys):
        argv = ["leggett", "--scan-phi", "0:90:10", "--format", "csv"]
        out = tmp_path / "scan.csv"
        assert run_cli([*argv, "--output", str(out)], capsys) == (0, "", "")
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 0
        assert stdout == out.read_bytes().decode("utf-8")
        assert stderr == (tmp_path / "scan.csv.meta.json").read_bytes().decode("utf-8")

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

    def test_chsh_product_state_reaches_the_local_bound(self, capsys):
        code, out, _ = run_cli(["chsh", "--state", "product"], capsys)
        assert code == 0
        assert table_value(json.loads(out), "s_max") == 2.0

    def test_noon_single_photon_reports_entropy(self, capsys):
        code, out, _ = run_cli(["noon", "--n", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["meta"]["entanglement_entropy_bits"] - 1.0) < 1e-9

    def test_noon_photon_number_has_no_cap(self, capsys):
        code, out, err = run_cli(["noon", "--n", "1000000000"], capsys)
        assert (code, err) == (0, "")
        r = 1.0 / math.sqrt(2.0)
        assert json.loads(out)["rows"] == [["|0,1000000000>", r, 0], ["|1000000000,0>", r, 0]]

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

    def test_seed_comes_from_the_flag_alone(self, capsys, monkeypatch):
        # the run's bytes depend on its argv only: a QFOUNDRY_SEED in the environment is ignored
        sampled = MODEL + ["--samples", "1000"]
        monkeypatch.delenv("QFOUNDRY_SEED", raising=False)
        unset = run_cli(sampled, capsys)
        monkeypatch.setenv("QFOUNDRY_SEED", "5")
        assert run_cli(sampled, capsys) == unset
        code, out, _ = unset
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 2026
        _, reseeded, _ = run_cli(sampled + ["--seed", "5"], capsys)
        means = ("mean_a_mc", "mean_b_mc", "mean_ab_mc")
        assert [table_value(json.loads(reseeded), m) for m in means] != [table_value(json.loads(out), m) for m in means]

    @pytest.mark.parametrize("command", ["verify", "kcbs", "leggett"])
    @pytest.mark.parametrize("value", ["-1", "1e3", "abc"])
    def test_seed_flag_must_be_a_non_negative_integer(self, command, value, capsys):
        # verify --seed -1 ran and failed criteria 4 and 6; kcbs --seed -1 exited 0 recording seed -1
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, f"--seed={value}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: must be an integer of at least 0, got {value!r}" in captured.err

    def test_numbers_rendered_with_17_significant_digits(self, capsys):
        code, out, _ = run_cli(["kcbs"], capsys)
        assert code == 0
        assert "-3.9442719099991" in out


class TestVerifyCommand:
    def test_stdout_times_each_check_and_the_report_keeps_its_bytes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(["verify", "--seed", "17", "--output", str(out)], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 13
        for criterion, line in enumerate(lines[:12], start=1):
            assert re.fullmatch(rf"criterion {criterion:02d} PASS .*\] \(\d+ ms\)", line), line
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert all(set(check) == {"criterion", "name", "passed", "expected", "measured"} for check in payload["checks"])
        # without criterion 12, the report is the golden core report of this seed
        core = dict(payload, checks=payload["checks"][:11])
        golden = pathlib.Path(__file__).parent / "golden" / "verify_report_seed17.json"
        assert (render_json(core) + "\n").encode("utf-8") == golden.read_bytes()


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

    def test_slit_far_outside_the_pair_exits_2(self, capsys):
        # the conditional wavefunction underflows to zero on every grid point
        code, out, err = run_cli(["popper", "--center", "50", "--width", "0.1"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: conditional wavefunction vanishes on the grid\n"


class TestErrorMessages:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["tlm", "--c01", "-1.5"], "1.5"),
            (["lhv-table", "--weights=-0.5,1.5,0,0,0,0,0,0"], "-0.5"),
            # this warned of an overflow in the sum, then refused a sum of inf
            (["lhv-table", "--weights", "1e308,1e308,0,0,0,0,0,0"], "at most 1, got max 1e+308"),
        ],
        ids=["tlm", "lhv-table", "lhv-table-oversized"],
    )
    @pytest.mark.filterwarnings("error")
    def test_offending_value_is_a_plain_number(self, argv, value, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert value in err
        assert "np." not in err and not re.search(r"\b(nan|inf)\b", err)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["noon", "--n", "0"], "--n:"),
            ([*MODEL, "--samples=-5"], "--samples"),
            (["leggett", "--samples=-5"], "--samples"),
            (["popper", "--points", "2"], "--points"),
            (["popper", "--points=-1"], "--points"),
            (["popper", "--points", "64", "--extent=-1"], "--extent"),
            # these two ended in numpy's _ArrayMemoryError and an OverflowError traceback, exit 1
            (["leggett", "--scan-phi", "0:1e12:1"], "--scan-phi: '0:1e12:1' has more than MAX_SCAN_POINTS = 100000"),
            (["hardy", "--scan-gamma", "0:1e300:1e-300"], "--scan-gamma: '0:1e300:1e-300' has more than MAX_SCAN"),
            (["polarization-qm", "--scan-theta=-1.7e308:1.7e308:1"], "--scan-theta: '-1.7e308:1.7e308:1' has more"),
            (["leggett", "--scan-phi", "0:100000:1"], "--scan-phi: '0:100000:1' has more than MAX_SCAN_POINTS"),
            # these three named the library's parameter, in radians
            (["hardy", "--gamma", "91"], "--gamma: angles must lie in [0, 90] degrees, got 91.0"),
            (["hardy", "--scan-gamma=-5:10:5"], "--scan-gamma: angles must lie in [0, 90] degrees, got -5.0"),
            (["leggett", "--scan-phi", "0:200:10"], "--scan-phi: angles must lie in [0, 180] degrees, got 190.0"),
        ],
        ids=[
            "noon",
            "samples-model",
            "samples-scan",
            "points",
            "points-negative",
            "extent",
            "scan-memory-error",
            "scan-overflow-error",
            "scan-span-overflows",
            "scan-cap-plus-one",
            "gamma-past-90",
            "scan-gamma-below-0",
            "scan-phi-past-180",
        ],
    )
    def test_out_of_range_values_name_their_flag(self, argv, flag, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value of a typed flag
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err
        # the library's own parameter wording, which names no flag
        for phrase in ("n_max =", "n_samples", "grid needs", "extent must be positive and finite", "outside [0, pi"):
            assert phrase not in captured.err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["popper", "--extent", "50"], ["--extent", "--points"]),
            (["leggett", "--samples", "5"], ["--samples", "--u"]),
            ([*MODEL, "--scan-phi", "0:10:1"], ["--scan-phi", "--u"]),
            (["chsh", "--gamma", "10"], ["--gamma", "--state partial"]),
            (["chsh", "--state", "product", "--gamma", "10"], ["--gamma", "--state partial"]),
            (["hardy", "--gamma", "10", "--scan-gamma", "0:45:15"], ["--gamma", "--scan-gamma"]),
            (["polarization-qm", "--theta-rel", "30", "--scan-theta", "0:90:45"], ["--theta-rel", "--scan-theta"]),
        ],
        ids=[
            "extent-without-points",
            "samples-without-model",
            "scan-phi-with-model",
            "gamma-with-singlet",
            "gamma-with-product",
            "gamma-with-scan",
            "theta-rel-with-scan",
        ],
    )
    def test_a_flag_the_scenario_would_ignore_exits_2(self, argv, flags, capsys):
        # these printed the automatic grid, the phi scan, the model table, the
        # chsh optimum or the scan as if the flag were absent
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert all(flag in err for flag in flags), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["popper", "--width=1e300"],
            ["popper", "--width=1e300", "--profile", "hard"],
            ["popper", "--sigma-plus=1e300"],
            ["popper", "--sigma-minus=1e-200", "--points", "1024", "--extent=1e-300"],
        ],
        ids=["width", "hard-width", "sigma-plus", "tiny-sigma-minus"],
    )
    def test_popper_scale_whose_square_overflows_exits_2(self, argv, capsys):
        # these ended in OverflowError or ZeroDivisionError tracebacks and exit 1
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "square" in err

    # a numpy warning then raises instead of printing before the refusal
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["popper", "--points", "4", "--extent", "1e308"], ["popper", "--points", "8", "--center", "1.7e308"]],
        ids=["extent", "derived-extent"],
    )
    def test_popper_grid_whose_span_overflows_exits_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: grid extent ") and err.count("\n") == 1 and "Warning" not in err, err


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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1:2", "--scan-phi must look like lo:hi:step, got '1:2'"),
            ("a:2:1", "--scan-phi: non-numeric bound in 'a:2:1'"),
        ],
        ids=["two-parts", "non-numeric"],
    )
    def test_malformed_scan_exits_2(self, spec, message, capsys):
        code, out, err = run_cli(["leggett", "--scan-phi", spec], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_scan_at_the_cap_is_accepted(self):
        points = cli._parse_scan(f"0:{cli.MAX_SCAN_POINTS - 1}:1", "--scan-phi")
        assert len(points) == cli.MAX_SCAN_POINTS
        assert points[-1] == cli.MAX_SCAN_POINTS - 1

    def test_values_starting_with_a_dash_need_the_equals_form(self, capsys):
        code, out, _ = run_cli(["polarization-qm", "--scan-theta=-90:90:30"], capsys)
        assert code == 0
        assert [row[0] for row in json.loads(out)["rows"]] == [-90.0, -60.0, -30.0, 0.0, 30.0, 60.0, 90.0]
        model = ["leggett", "--u", "0,0,1", "--v", "0,0,1", "--b", "0,1,0"]
        code, out, _ = run_cli(model + ["--a=-1,0,0"], capsys)
        assert code == 0
        assert table_value(json.loads(out), "mean_a_analytic") == 0.0
        with pytest.raises(SystemExit) as excinfo:
            cli.main(model + ["--a", "-1,0,0"])
        assert excinfo.value.code == 2
        assert "argument --a: expected one argument" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (["popper", "--width", "abc"], "--width: must be a finite number, got 'abc'"),
            (["noon", "--n", "abc"], "--n: must be an integer of at least 1, got 'abc'"),
        ],
        ids=["popper", "noon"],
    )
    def test_non_numeric_flag_exits_2_stating_the_rule(self, argv, rule, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert rule in err
        assert "finite_float" not in err and "positive_int" not in err

    def test_non_finite_weights_exit_2(self, capsys):
        code, out, err = run_cli(["lhv-table", "--weights", "nan,0,0,0,0,0,0,1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --weights: ")
        assert "finite" in err

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


class TestFlags:
    COMMON = {"--output", "--seed", "--format"}

    def flags(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--help"])
        assert excinfo.value.code == 0
        return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))

    @pytest.mark.parametrize("command", list(cli.SCENARIOS))
    def test_every_scenario_takes_the_common_flags(self, command, capsys):
        flags = self.flags(command, capsys)
        assert self.COMMON <= flags
        assert not flags & {"--jobs", "--n-max"}

    def test_scenario_flag_count(self):
        # the values of --jobs and --n-max are derived: the sample count fixes the
        # Monte Carlo substreams, and every truncation from 2 up gives the same HOM rows
        assert sum(len(scenario.flags) for scenario in cli.SCENARIOS.values()) == 25

    def test_verify_takes_only_seed_and_output(self, capsys):
        assert self.flags("verify", capsys) == {"--help", "--output", "--seed"}

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["kcbs", "--jobs", "2"], "--jobs 2"),
            (["verify", "--format", "csv"], "--format csv"),
            ([*MODEL, "--samples", "1000", "--jobs", "3"], "--jobs 3"),
            (["hom", "--n-max", "2"], "--n-max 2"),
        ],
        ids=["kcbs", "verify", "leggett-jobs", "hom-n-max"],
    )
    def test_removed_flags_exit_2(self, argv, unrecognized, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err


class TestSubstreams:
    SAMPLED = [*MODEL, "--samples", "3000001"]

    def test_any_pool_size_gives_the_same_bytes(self, monkeypatch, capsys):
        # 3 000 001 samples derive three substreams, whatever the thread count
        outputs = set()
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(hvmodels, "pool_size", lambda tasks, workers=workers: min(tasks, workers))
            code, out, _ = run_cli(self.SAMPLED, capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_params_record_only_the_inputs(self, capsys):
        code, out, _ = run_cli(self.SAMPLED, capsys)
        assert code == 0
        assert json.loads(out)["meta"]["params"] == {
            "u": "0,0,1", "v": "0,0,1", "a": "1,0,0", "b": "0,1,0", "samples": 3000001,
        }


class TestProvenance:
    """Every ``module.name`` a provenance entry cites exists in that module, and a cited function runs."""

    MODULES = {"qcore": qcore, "hvmodels": hvmodels, "inequalities": inequalities, "fock": fock, "popper": popper}
    # each scenario's default, and leggett model mode
    RUNS = pytest.mark.parametrize(
        "argv", [*([name] for name in cli.SCENARIOS), [*MODEL, "--samples", "1000"]], ids=[*cli.SCENARIOS, "leggett-model"]
    )

    def cited(self, argv, capsys):
        """(module, name) of every library name the provenance of ``qfoundry argv`` cites."""
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        provenance = json.loads(out)["meta"]["provenance"]
        cited = re.findall(rf"\b({'|'.join(self.MODULES)})\.(\w+)", " ".join(provenance.values()))
        assert cited, provenance
        return cited

    @RUNS
    def test_provenance_names_existing_code(self, argv, capsys):
        for module, name in self.cited(argv, capsys):
            assert hasattr(self.MODULES[module], name), f"{module}.{name}"

    @pytest.fixture
    def called(self, monkeypatch):
        """The ``module.function`` names of the library functions called while the test runs.

        Each public function of the five library modules is wrapped, and every
        qfoundry module attribute bound to it is rebound to the wrapper, as the
        benchmark tracer's ``install()`` does.
        """
        names = set()

        def recorder(name, fn):
            @functools.wraps(fn)
            def record(*args, **kwargs):
                names.add(name)
                return fn(*args, **kwargs)

            return record

        wrappers = {}
        for layer, module in self.MODULES.items():
            for name, value in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = (value, recorder(f"{layer}.{name}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name == "qfoundry" or module_name.startswith("qfoundry."):
                for name, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        monkeypatch.setattr(module, name, wrapper)
        return names

    @RUNS
    def test_every_cited_function_is_called(self, argv, called, capsys):
        functions = {
            f"{module}.{name}"
            for module, name in self.cited(argv, capsys)
            if inspect.isfunction(getattr(self.MODULES[module], name))  # a class or a constant is not a call
        }
        assert functions
        assert functions <= called, sorted(functions - called)


def run_fresh_interpreter(*args, environ=None):
    """Run ``python args`` in a new process that imports qfoundry from this checkout.

    The process gets ``environ``, by default this one's environment, with the checkout on PYTHONPATH.
    """
    environ = os.environ if environ is None else environ
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result


def test_console_entry_point_runs():
    assert "qfoundry" in run_fresh_interpreter("-m", "qfoundry.cli", "--version").stdout


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
    result = run_fresh_interpreter("-c", script)
    assert json.loads(result.stdout) == {"codes": [0, 0, 0, 0], "scipy": []}


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    # a finder that refuses scipy turns any import of it, however deep, into a failure
    script = textwrap.dedent(
        """
        import contextlib, io, json, os, sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"scipy is blocked: {name}")

        sys.meta_path.insert(0, RefuseScipy())
        import qfoundry.cli as cli

        tmp = sys.argv[1]
        argvs = [["verify", "--output", os.path.join(tmp, "verify.json")]]
        argvs += [[name, "--output", os.path.join(tmp, name + ".json")] for name in cli.SCENARIOS]
        argvs.append(["leggett", "--format", "csv", "--output", os.path.join(tmp, "leggett.csv")])
        codes = {}
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[" ".join(argv[:-2])] = cli.main(argv)
        scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({"codes": codes, "scipy": scipy}))
        """
    )
    result = json.loads(run_fresh_interpreter("-c", script, str(tmp_path)).stdout)
    assert result["scipy"] == []
    assert set(result["codes"]) == {"verify", *cli.SCENARIOS, "leggett --format csv"}
    assert all(code == 0 for code in result["codes"].values()), result["codes"]


def test_start_up_loads_only_what_a_scenario_uses():
    # only the verify subcommand needs qfoundry.verify and its hashlib (OpenSSL); no module
    # imports concurrent.futures (check 4 runs on hvmodels.parallel_map, plain threading), and
    # the name stays in the list as a guard against one that would pull it, and logging, into
    # start-up; a bare package import loads no submodule
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import qfoundry

        bare = sorted(m for m in sys.modules if m.startswith("qfoundry."))
        import qfoundry.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            codes = {name: cli.main([name]) for name in cli.SCENARIOS}
        unused = sorted(m for m in ("qfoundry.verify", "hashlib", "concurrent.futures") if m in sys.modules)
        print(json.dumps({"bare": bare, "codes": codes, "unused": unused}))
        """
    )
    result = json.loads(run_fresh_interpreter("-c", script).stdout)
    assert result["bare"] == []
    assert result["codes"] == {name: 0 for name in cli.SCENARIOS}
    assert result["unused"] == []


def test_kcbs_loads_only_inequalities_and_qcore():
    # the other library modules load inside the scenarios that call them; hvmodels loads fractions only to build a Fraction
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import qfoundry.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["kcbs"])
        modules = sorted(m for m in sys.modules if m.startswith("qfoundry"))
        print(json.dumps({"code": code, "modules": modules, "fractions": "fractions" in sys.modules}))
        """
    )
    assert json.loads(run_fresh_interpreter("-c", script).stdout) == {
        "code": 0,
        "modules": ["qfoundry", "qfoundry.cli", "qfoundry.inequalities", "qfoundry.qcore", "qfoundry.report"],
        "fractions": False,
    }


def test_leggett_model_mode_loads_no_fractions():
    # hvmodels builds a Fraction only for the lhv-table rows, so the sampling run leaves fractions unloaded
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import qfoundry.cli as cli

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        model = run(["leggett", "--u", "0,0,1", "--v", "0,0,1", "--a", "1,0,0", "--b", "0,1,0", "--samples", "1000"])
        after_model = "fractions" in sys.modules
        table = run(["lhv-table"])
        print(json.dumps({"codes": [model[0], table[0]], "fractions": after_model, "table": table[1]}))
        """
    )
    result = json.loads(run_fresh_interpreter("-c", script).stdout)
    golden = (pathlib.Path(__file__).parent / "golden" / "scenario_lhv_table.json").read_text(encoding="utf-8")
    assert result == {"codes": [0, 0], "fractions": False, "table": golden}


# the peak RSS in MiB and the exit code of each CLI argv, each run as its own process and read with os.wait4;
# a process's ru_maxrss counts the memory of the process that spawned it, so a small interpreter spawns them
PEAK_RSS_PROBE = textwrap.dedent(
    """
    import json, os, sys

    peaks = []
    for argv in json.loads(sys.argv[1]):
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qfoundry.cli", *argv], os.environ)
        _, status, usage = os.wait4(pid, 0)
        peaks.append([usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)])  # Linux reports KiB
    print(json.dumps(peaks))
    """
)


def test_the_largest_scan_process_holds_no_list_per_row(tmp_path):
    # kcbs holds the interpreter, numpy and the cli; each bound is a scan's excess over it in MiB.  The
    # 100 000-row leggett scan's 11.6 MB of JSON adds about 32 MiB, and a table holding one list of Python
    # floats per row added about 56 MiB.  The 90 000-row hardy scan (14.2 MB of JSON) measured 57.1 MiB and
    # the 89 996-row polarization-qm scan (10.5 MB) 33.8 MiB; their bounds are those plus about 20 %
    bounds = {"leggett": 45, "hardy": 69, "polarization-qm": 41}
    argvs = [
        ["kcbs", "--output", str(tmp_path / "kcbs.json")],
        ["leggett", "--scan-phi", "0:99.999:0.001", "--output", str(tmp_path / "leggett.json")],
        ["hardy", "--scan-gamma", "0:89.999:0.001", "--output", str(tmp_path / "hardy.json")],
        ["polarization-qm", "--scan-theta", "0:179.99:0.002", "--output", str(tmp_path / "polarization.json")],
    ]
    (kcbs, kcbs_code), *scans = json.loads(run_fresh_interpreter("-c", PEAK_RSS_PROBE, json.dumps(argvs)).stdout)
    assert kcbs_code == 0
    for (name, bound), (peak, code) in zip(bounds.items(), scans):
        assert code == 0, name
        assert peak - kcbs < bound, (name, peak, kcbs)


def test_cli_grid_cap_and_model_error_are_the_libraries():
    # the cli reads both from the package, so that start-up loads neither popper nor hvmodels
    assert cli.MAX_GRID_POINTS == popper.MAX_GRID_POINTS == 1 << 20
    assert cli.ModelInconsistentError is hvmodels.ModelInconsistentError


# a finder that records OPENBLAS_NUM_THREADS when numpy is first imported, then
# the thread count after the import of the cli
BLAS_PROBE = textwrap.dedent(
    """
    import json, os, sys

    class RecordBlasThreads:
        seen = []

        def find_spec(self, name, path=None, target=None):
            if name == "numpy" and not self.seen:
                self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

    sys.meta_path.insert(0, RecordBlasThreads())
    import qfoundry.cli

    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if sys.platform.startswith("linux") and os.path.isdir(tasks) else None
    print(json.dumps({"seen": RecordBlasThreads.seen, "threads": threads}))
    """
)


@pytest.mark.parametrize("user_value", [None, "3"])
def test_cli_runs_one_blas_thread_unless_the_user_sets_it(user_value):
    # this process imported cli, which may have set the variable; each child starts without it
    environ = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if user_value is not None:
        environ["OPENBLAS_NUM_THREADS"] = user_value
    result = json.loads(run_fresh_interpreter("-c", BLAS_PROBE, environ=environ).stdout)
    assert result["seen"] == [user_value or "1"]
    if user_value is None and result["threads"] is not None:
        assert result["threads"] == 1


# CLI fuzz: every scenario flag of cli.SCENARIOS plus --format and --seed, with finite,
# extreme, non-finite, empty and malformed values
MALFORMED = ["", " ", "abc", "1,2", "0x10", "1e", "--", "1:2", "None"]
NUMBERS = ["0", "-0", "1", "-1", "0.5", "22.5", "45", "90", "120", "-90", "1e-320", "1e300", "-1e300", "1.7976931348623157e308"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "-1e400"]
# small values, and the first value past each cap; --samples and --n have no cap,
# so the large --samples is the first count that derives two substreams, and the
# large --n is a photon number of a billion
COUNTS = {
    "--samples": [-1, 0, 1, 2, 3, 1000, hvmodels.SHARD_SAMPLES + 1],
    "--points": [-1, 0, 2, 4, 5, 64, popper.MAX_GRID_POINTS + 1],
    "--n": [-1, 0, 1, 2, 3, 10, 10**9],
    "--seed": [-1, 0, 1, 17, 2026, 2**32 - 1, 2**32, 2**64, 10**30],
}
# the ends and steps draw scans of at most 13 points, or far more than the cap
SCAN_ENDS = ["-90", "0", "10", "90", "-1e300", "1e300", "1.7976931348623157e308", "nan", "inf", "", "abc"]
SCAN_STEPS = ["0", "-1", "1e-300", "15", "30", "45", "1e300", "inf"]
VECTORS = ["0,0,1", "1,0,0", "0,1,0", "-1,0,0", "0,-1,0", "1,1,0", "0,0,0", "nan,0,1", "inf,0,0", "1,0", "1,0,0,0",
           "1e308,1e308,0", "1e-320,0,0", "1e-170,1e-170,0"]
WEIGHTS = ["0.125," * 7 + "0.125", "1,0,0,0,0,0,0,0", "0.5,0.5,0,0,0,0,0,0", "-0.5,1.5,0,0,0,0,0,0",
           "nan,0,0,0,0,0,0,1", "inf,0,0,0,0,0,0,0", "1e-320,1,0,0,0,0,0,0", "1,1,1,1,1,1,1,1", "1,2"]


VECTOR_FLAGS = ("--u", "--v", "--a", "--b")


def number_lists(size):
    return st.lists(st.sampled_from(NUMBERS), min_size=size, max_size=size).map(",".join)


def flag_values(flag, options):
    junk = st.sampled_from(MALFORMED + NON_FINITE)
    if "choices" in options:
        return st.sampled_from(options["choices"]) | junk
    if options.get("type") is cli.finite_float:
        return st.sampled_from(NUMBERS) | st.floats().map(repr) | junk
    if options.get("type") in (int, cli.positive_int, cli.seed_int):
        return st.sampled_from(COUNTS[flag]).map(str) | junk
    if flag.startswith("--scan-"):
        scans = st.tuples(st.sampled_from(SCAN_ENDS), st.sampled_from(SCAN_ENDS), st.sampled_from(SCAN_STEPS))
        return scans.map(":".join) | junk
    if flag == "--weights":
        return st.sampled_from(WEIGHTS) | number_lists(8) | junk
    if flag in VECTOR_FLAGS:
        return st.sampled_from(VECTORS) | number_lists(3) | junk
    raise AssertionError(f"no fuzz values for {flag}")


@st.composite
def scenario_argv(draw):
    command = draw(st.sampled_from(sorted(cli.SCENARIOS)))
    options = {
        **dict(cli.SCENARIOS[command].flags),
        "--format": dict(choices=("json", "csv")),
        "--seed": dict(type=cli.seed_int),
    }
    flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    return [command] + [f"{flag}={draw(flag_values(flag, options[flag]))}" for flag in flags]


@st.composite
def model_argv(draw):
    """leggett with all four model vectors set, so each one reaches MeasurementSetting.normalized."""
    vectors = st.sampled_from(VECTORS) | number_lists(3)
    argv = ["leggett"] + [f"{flag}={draw(vectors)}" for flag in VECTOR_FLAGS]
    if draw(st.booleans()):
        argv.append(f"--samples={draw(st.sampled_from(COUNTS['--samples']))}")
    return argv


def refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_every_flag_has_fuzz_values():
    for scenario in cli.SCENARIOS.values():
        for flag, options in scenario.flags:
            flag_values(flag, options)


@settings(max_examples=300)
@given(scenario_argv() | model_argv())
def test_fuzzed_argv_gives_parseable_output_or_a_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    # any warning fails the example; a filterwarnings mark would also turn the
    # warnings of hypothesis's own failure report into errors and abort the run
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        if "--format=csv" in argv:
            assert len({len(row) for row in csv.reader(io.StringIO(out))}) == 1
            json.loads(err, parse_constant=refuse_constant)
        else:
            json.loads(out, parse_constant=refuse_constant)
    else:
        assert out == "" and err
    # a message may quote the argument it refuses ('nan'); nothing else may show a non-finite number
    unquoted = re.sub(r"'[^']*'", "''", out + err)
    assert not re.search(r"\b(nan|inf|infinity)\b|np\.", unquoted, re.IGNORECASE), unquoted[-500:]
