"""Scenario runner: maps named subcommands onto the toolkit modules.

Angles are accepted in degrees and converted to radians internally.  Every
result table records the seed, grid parameters and toolkit version, plus a
provenance map naming the module operation behind each column.  Exit codes:
0 success, 2 parameter/validation error, 3 model inconsistency (the
crypto-nonlocal construction has no valid intervals for the requested
settings).  The seed default comes from QFOUNDRY_SEED when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, fock, hvmodels, inequalities, popper, qcore, verify
from .hvmodels import LeggettModelParams, ModelInconsistentError
from .qcore import MeasurementSetting
from .report import ResultTable, render_table_csv, render_table_csv_sidecar, render_table_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _default_seed() -> int:
    raw = os.environ.get("QFOUNDRY_SEED")
    if raw is None:
        return verify.DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"QFOUNDRY_SEED must be an integer, got {raw!r}") from exc


def _parse_scan(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must look like lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"{name}: non-numeric bound in {spec!r}") from exc
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"{name}: bounds and step must be finite, got {spec!r}")
    if step <= 0.0 or hi < lo:
        raise ValueError(f"{name}: need lo <= hi and step > 0, got {spec!r}")
    # the epsilon absorbs rounding in (hi - lo) / step without ever adding a
    # point past hi
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_vector(spec: str, name: str) -> MeasurementSetting:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"{name} must be three comma-separated components, got {spec!r}")
    try:
        return MeasurementSetting.normalized([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _meta(scenario: str, args, params: dict, provenance: dict) -> dict:
    return {
        "scenario": scenario,
        "toolkit_version": __version__,
        "seed": int(args.seed),
        "params": params,
        "provenance": provenance,
    }


def _scenario_lhv_table(args) -> ResultTable:
    if args.weights is None:
        table = hvmodels.LocalHVTable.uniform()
        weights_spec = "uniform"
    else:
        parts = args.weights.split(",")
        if len(parts) != 8:
            raise ValueError(f"--weights needs 8 comma-separated values, got {len(parts)}")
        table = hvmodels.LocalHVTable(np.array([float(p) for p in parts]))
        weights_spec = args.weights
    minimum = hvmodels.lhv_minimum_same_probability()
    meta = _meta(
        "lhv-table",
        args,
        {"weights": weights_spec},
        {
            "outcome_*": "hvmodels.LOCAL_HV_ROWS",
            "same_fraction": "hvmodels.row_same_fraction",
            "weight": "hvmodels.LocalHVTable",
        },
    )
    meta["p_same_weighted"] = hvmodels.lhv_same_probability(table)
    meta["p_same_minimum"] = float(minimum)
    meta["p_same_minimum_exact"] = f"{minimum.numerator}/{minimum.denominator}"
    result = ResultTable(
        meta,
        ["row", "outcome_0deg", "outcome_plus120deg", "outcome_minus120deg", "same_fraction", "weight"],
    )
    for i, row in enumerate(hvmodels.LOCAL_HV_ROWS):
        result.add_row(i + 1, row[0], row[1], row[2], float(hvmodels.row_same_fraction(row)), float(table.weights[i]))
    return result


def _scenario_polarization(args) -> ResultTable:
    if args.scan_theta is not None:
        thetas = _parse_scan(args.scan_theta, "--scan-theta")
    else:
        thetas = np.array([args.theta_rel])
    meta = _meta(
        "polarization-qm",
        args,
        {"theta_rel_deg": None if args.scan_theta else args.theta_rel, "scan_theta": args.scan_theta},
        {
            "p_same": "inequalities.qm_same_polarization_probability",
            "p_both_pass": "inequalities.qm_same_polarization_probability",
            "cos2_theta": "analytic cross-check cos^2(theta)",
        },
    )
    meta["lhv_bound"] = 1.0 / 3.0
    result = ResultTable(meta, ["theta_rel_deg", "p_same", "p_both_pass", "cos2_theta"])
    for theta_deg in thetas:
        theta = math.radians(float(theta_deg))
        p_same, p_both = inequalities.qm_same_polarization_probability(theta)
        result.add_row(float(theta_deg), p_same, p_both, math.cos(theta) ** 2)
    return result


def _chsh_state(args) -> qcore.StateVector:
    if args.state == "singlet":
        return qcore.singlet()
    if args.state == "product":
        return qcore.basis_state((2, 2), (0, 0))
    gamma = math.radians(args.gamma)
    amplitudes = np.array([0.0, math.cos(gamma), -math.sin(gamma), 0.0], dtype=complex)
    return qcore.StateVector((2, 2), amplitudes)


def _scenario_chsh(args) -> ResultTable:
    state = _chsh_state(args)
    optimum = inequalities.chsh_optimize(state)
    meta = _meta(
        "chsh",
        args,
        {"state": args.state, "gamma_deg": args.gamma if args.state == "partial" else None},
        {
            "s_max": "inequalities.chsh_optimize",
            "setting components": "inequalities.chsh_optimize",
            "correlator c_ij": "inequalities.setting_correlation",
        },
    )
    meta["tsirelson_bound"] = inequalities.TSIRELSON_BOUND
    result = ResultTable(meta, ["quantity", "value"])
    result.add_row("s_max", optimum.s_max)
    for label, pair in (("a", optimum.settings_a), ("b", optimum.settings_b)):
        for k, setting in enumerate(pair):
            for axis, component in zip("xyz", setting.direction):
                result.add_row(f"{label}{k}_{axis}", float(component))
    for i in range(2):
        for j in range(2):
            result.add_row(f"c_{i}{j}", float(optimum.record.c[i, j]))
    return result


def _scenario_leggett(args) -> ResultTable:
    model_flags = [args.u, args.v, args.a, args.b]
    if any(f is not None for f in model_flags):
        if any(f is None for f in model_flags):
            raise ValueError("model mode needs all of --u, --v, --a, --b")
        params = LeggettModelParams(
            _parse_vector(args.u, "--u"),
            _parse_vector(args.v, "--v"),
            _parse_vector(args.a, "--a"),
            _parse_vector(args.b, "--b"),
        )
        meta = _meta(
            "leggett",
            args,
            {"u": args.u, "v": args.v, "a": args.a, "b": args.b, "samples": args.samples},
            {"mean_*": "hvmodels.leggett_expectations", "stderr_*": "hvmodels.leggett_expectations"},
        )
        result = ResultTable(meta, ["quantity", "value"])
        analytic = hvmodels.leggett_expectations(params, method="analytic")
        result.add_row("mean_a_analytic", analytic.mean_a)
        result.add_row("mean_b_analytic", analytic.mean_b)
        result.add_row("mean_ab_analytic", analytic.mean_ab)
        if args.samples:
            sampled = hvmodels.leggett_expectations(
                params,
                method="monte-carlo",
                n_samples=args.samples,
                seed=args.seed,
                shards=args.jobs,
            )
            result.add_row("mean_a_mc", sampled.mean_a)
            result.add_row("mean_b_mc", sampled.mean_b)
            result.add_row("mean_ab_mc", sampled.mean_ab)
            result.add_row("stderr_a", sampled.stderr_a)
            result.add_row("stderr_b", sampled.stderr_b)
            result.add_row("stderr_ab", sampled.stderr_ab)
        return result

    phis_deg = _parse_scan(args.scan_phi, "--scan-phi")
    scan = inequalities.leggett_violation_scan(np.deg2rad(phis_deg))
    meta = _meta(
        "leggett",
        args,
        {"scan_phi_deg": args.scan_phi},
        {
            "s_qm": "inequalities.leggett_quantum_value",
            "bound": "inequalities.leggett_bound",
            "violation": "inequalities.leggett_violation_scan",
        },
    )
    meta["argmax_phi_deg"] = math.degrees(scan.argmax_phi)
    meta["max_violation"] = scan.max_violation
    meta["stationarity_root_deg"] = math.degrees(inequalities.leggett_violation_argmax_oracle())
    result = ResultTable(meta, ["phi_deg", "s_qm", "bound", "violation"])
    for k in range(scan.phi.size):
        result.add_row(
            float(phis_deg[k]), float(scan.s_qm[k]), float(scan.bound[k]), float(scan.violation[k])
        )
    return result


def _scenario_kcbs(args) -> ResultTable:
    config = inequalities.kcbs_build_pentagram()
    value = inequalities.kcbs_value(config)
    meta = _meta(
        "kcbs",
        args,
        {},
        {
            "s_kcbs": "inequalities.kcbs_value",
            "classical_minimum": "inequalities.kcbs_classical_minimum",
            "direction components": "inequalities.kcbs_build_pentagram",
        },
    )
    result = ResultTable(meta, ["quantity", "value"])
    result.add_row("s_kcbs", value)
    result.add_row("classical_minimum", float(inequalities.kcbs_classical_minimum()))
    result.add_row("quantum_closed_form", inequalities.KCBS_QUANTUM_VALUE)
    result.add_row("max_adjacent_dot", config.max_adjacent_dot())
    for j in range(5):
        for axis, component in zip("xyz", config.directions[j]):
            result.add_row(f"l{j}_{axis}", float(component))
    return result


def _scenario_hardy(args) -> ResultTable:
    if args.scan_gamma is not None:
        gammas = _parse_scan(args.scan_gamma, "--scan-gamma")
    else:
        gammas = np.array([args.gamma])
    meta = _meta(
        "hardy",
        args,
        {"gamma_deg": None if args.scan_gamma else args.gamma, "scan_gamma": args.scan_gamma},
        {
            "p1..p4": "inequalities.hardy_probabilities",
            "p4_closed_form": "inequalities.hardy_fourth_probability_closed_form",
        },
    )
    result = ResultTable(meta, ["gamma_deg", "p1", "p2", "p3", "p4", "p4_closed_form"])
    for gamma_deg in gammas:
        gamma = math.radians(float(gamma_deg))
        config = inequalities.HardyConfiguration(gamma)
        p1, p2, p3, p4 = inequalities.hardy_probabilities(config)
        result.add_row(
            float(gamma_deg), p1, p2, p3, p4, inequalities.hardy_fourth_probability_closed_form(gamma)
        )
    return result


def _scenario_hom(args) -> ResultTable:
    output = fock.hong_ou_mandel_output(n_max=args.n_max)
    meta = _meta(
        "hom",
        args,
        {"n_max": args.n_max},
        {
            "amplitude": "fock.apply_rotation on |1,1> through the 45-degree PBS",
            "probability": "|amplitude|^2",
        },
    )
    meta["coincidence_probability"] = fock.coincidence_probability(output)
    meta["basis"] = "rotated modes (A, D)"
    result = ResultTable(meta, ["n_a", "n_b", "amplitude_real", "amplitude_imag", "probability"])
    for n_a, n_b, amplitude in output.occupied():
        result.add_row(n_a, n_b, amplitude.real, amplitude.imag, abs(amplitude) ** 2)
    return result


def _scenario_noon(args) -> ResultTable:
    n_max = max(args.n, fock.DEFAULT_N_MAX)
    state = fock.noon_state(args.n, n_max)
    meta = _meta(
        "noon",
        args,
        {"n": args.n},
        {
            "amplitude": "fock.noon_state",
            "atom rows": "fock.photon_atoms_entangle",
            "entropy": "eigenvalues of qcore.partial_trace",
        },
    )
    result = ResultTable(meta, ["basis_label", "amplitude_real", "amplitude_imag"])
    for n_a, n_b, amplitude in state.occupied():
        result.add_row(f"|{n_a},{n_b}>", amplitude.real, amplitude.imag)
    if args.n == 1:
        atoms = fock.photon_atoms_entangle(fock.noon_state(1, 1))
        labels = ["|gg>", "|ge>", "|eg>", "|ee>"]
        for label, amplitude in zip(labels, atoms.amplitudes):
            result.add_row(label, float(amplitude.real), float(amplitude.imag))
        reduced = qcore.partial_trace(atoms.density(), 0)
        eigenvalues = np.linalg.eigvalsh(reduced.matrix).real
        entropy = float(-sum(v * math.log2(v) for v in eigenvalues if v > 1e-15))
        meta["reduced_eigenvalues"] = [float(v) for v in eigenvalues]
        meta["entanglement_entropy_bits"] = entropy
    return result


def _scenario_popper(args) -> ResultTable:
    state = popper.GaussianPairState(args.sigma_plus, args.sigma_minus)
    slit = popper.SlitCondition(args.width, args.center, args.profile)
    grid = popper.GridSpec(args.points, args.extent) if args.points else popper.GridSpec.auto(state, slit)
    conditional = popper.conditional_uncertainties(state, slit, grid)
    unconditioned = popper.unconditioned_uncertainties(state)
    x, _ = grid.resolve(state, slit)
    meta = _meta(
        "popper",
        args,
        {
            "sigma_plus": args.sigma_plus,
            "sigma_minus": args.sigma_minus,
            "width": args.width,
            "center": args.center,
            "profile": args.profile,
            "grid_points": grid.points,
            "grid_extent": float(-x[0]),
        },
        {
            "conditional rows": "popper.conditional_uncertainties",
            "unconditioned rows": "popper.unconditioned_uncertainties",
        },
    )
    meta["uncertainty_bound"] = popper.UNCERTAINTY_BOUND
    result = ResultTable(meta, ["quantity", "value"])
    result.add_row("dx2_given_x1", conditional.position_spread)
    result.add_row("dp2_given_x1", conditional.momentum_spread)
    result.add_row("product_conditional", conditional.product)
    result.add_row("product_conditional_over_bound", conditional.product / popper.UNCERTAINTY_BOUND)
    result.add_row("dx2_unconditioned", unconditioned.position_spread)
    result.add_row("dp2_unconditioned", unconditioned.momentum_spread)
    result.add_row("product_unconditioned", unconditioned.product)
    return result


def _scenario_tlm(args) -> ResultTable:
    c = np.array([[args.c00, args.c01], [args.c10, args.c11]])
    record = inequalities.CorrelationRecord(c)
    outcome = inequalities.tlm_check(record)
    meta = _meta(
        "tlm",
        args,
        {"c00": args.c00, "c01": args.c01, "c10": args.c10, "c11": args.c11},
        {"lhs/rhs": "inequalities.tlm_check"},
    )
    result = ResultTable(meta, ["quantity", "value"])
    result.add_row("lhs", outcome.lhs)
    result.add_row("rhs", outcome.rhs)
    result.add_row("margin", outcome.rhs - outcome.lhs)
    result.add_row("satisfied", outcome.satisfied)
    result.add_row("chsh_value", inequalities.chsh_value(record))
    return result


SCENARIOS = {
    "lhv-table": _scenario_lhv_table,
    "polarization-qm": _scenario_polarization,
    "chsh": _scenario_chsh,
    "leggett": _scenario_leggett,
    "kcbs": _scenario_kcbs,
    "hardy": _scenario_hardy,
    "hom": _scenario_hom,
    "noon": _scenario_noon,
    "popper": _scenario_popper,
    "tlm": _scenario_tlm,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfoundry",
        description="Entanglement scenario runner: hidden-variable models, inequality bounds, "
        "Fock-space interference and conditional uncertainty.",
    )
    parser.add_argument("--version", action="version", version=f"qfoundry {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="result file path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default: QFOUNDRY_SEED or 2026)")
    common.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        help="number of RNG substreams for Monte Carlo sampling (default 1); "
        "a different value gives different sampled values",
    )

    sub = subparsers.add_parser("lhv-table", parents=[common], help="eight-row local hidden-variable table")
    sub.add_argument("--weights", help="8 comma-separated row weights (default: uniform)")

    sub = subparsers.add_parser("polarization-qm", parents=[common], help="quantum same-outcome probability")
    sub.add_argument("--theta-rel", type=finite_float, default=120.0, help="relative polarizer angle in degrees")
    sub.add_argument("--scan-theta", help="lo:hi:step scan in degrees")

    sub = subparsers.add_parser("chsh", parents=[common], help="CHSH optimization over settings")
    sub.add_argument("--state", choices=("singlet", "product", "partial"), default="singlet")
    sub.add_argument("--gamma", type=finite_float, default=22.5, help="partial-state angle in degrees")

    sub = subparsers.add_parser("leggett", parents=[common], help="Leggett bound scan or model evaluation")
    sub.add_argument("--scan-phi", default="0:90:0.01", help="lo:hi:step phi scan in degrees")
    sub.add_argument("--u", help="initial polarization of A, e.g. 0,0,1 (model mode)")
    sub.add_argument("--v", help="initial polarization of B (model mode)")
    sub.add_argument("--a", help="analyzer setting of A (model mode)")
    sub.add_argument("--b", help="analyzer setting of B (model mode)")
    sub.add_argument("--samples", type=int, default=0, help="Monte Carlo samples (model mode; 0 = analytic only)")

    subparsers.add_parser("kcbs", parents=[common], help="pentagram contextuality value")

    sub = subparsers.add_parser("hardy", parents=[common], help="four-probability non-separability test")
    sub.add_argument("--gamma", type=finite_float, default=22.5, help="state angle in degrees")
    sub.add_argument("--scan-gamma", help="lo:hi:step scan in degrees")

    sub = subparsers.add_parser("hom", parents=[common], help="two-photon interference at the 45-degree PBS")
    sub.add_argument("--n-max", type=int, default=2, help="Fock truncation")

    sub = subparsers.add_parser("noon", parents=[common], help="N00N state and the path-marker atoms")
    sub.add_argument("--n", type=int, default=1, help="photon number N")

    sub = subparsers.add_parser("popper", parents=[common], help="conditional uncertainty after a slit")
    sub.add_argument("--sigma-plus", type=finite_float, default=1.0)
    sub.add_argument("--sigma-minus", type=finite_float, default=0.5)
    sub.add_argument("--width", type=finite_float, default=0.5)
    sub.add_argument("--center", type=finite_float, default=0.0)
    sub.add_argument("--profile", choices=("gaussian", "hard"), default="gaussian")
    sub.add_argument("--points", type=int, default=0, help=f"grid points (0 = auto; at most {popper.MAX_GRID_POINTS})")
    sub.add_argument("--extent", type=finite_float, default=None, help="half-width of the grid")

    sub = subparsers.add_parser("tlm", parents=[common], help="quantum-realizability check for correlators")
    r = 1.0 / math.sqrt(2.0)
    sub.add_argument("--c00", type=finite_float, default=r)
    sub.add_argument("--c01", type=finite_float, default=r)
    sub.add_argument("--c10", type=finite_float, default=r)
    sub.add_argument("--c11", type=finite_float, default=-r)

    sub = subparsers.add_parser("verify", parents=[common], help="run every acceptance check")
    return parser


def _emit(table: ResultTable, args) -> None:
    if args.format == "json":
        text = render_table_json(table)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return
    text = render_table_csv(table)
    sidecar = render_table_csv_sidecar(table)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with open(args.output + ".meta.json", "w", encoding="utf-8", newline="") as handle:
            handle.write(sidecar)
    else:
        sys.stdout.write(text)
        sys.stderr.write(sidecar)


def _run_verify(args) -> int:
    results, report = verify.run_all_checks(args.seed)
    for result in results:
        print(f"{result.line()} ({result.elapsed_ms:.0f} ms)")
    output = args.output or "qfoundry_verify.json"
    with open(output, "w", encoding="utf-8", newline="") as handle:
        handle.write(report)
    all_passed = all(r.passed for r in results)
    print(f"{'all checks passed' if all_passed else 'CHECK FAILURES PRESENT'}; report: {output}")
    return EXIT_OK if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.command == "verify":
            return _run_verify(args)
        table = SCENARIOS[args.command](args)
        _emit(table, args)
        return EXIT_OK
    except ModelInconsistentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
