"""Scenario runner: maps named subcommands onto the toolkit modules.

Angles are accepted in degrees and converted to radians internally.  Every
result table records the seed, grid parameters and toolkit version, plus a
provenance map naming the module operation behind each column.  Exit codes:
0 success, 2 parameter/validation error, 3 model inconsistency (the
crypto-nonlocal construction has no valid intervals for the requested
settings).  The seed is --seed, an integer >= 0, else 2026.
CSV metadata goes to a ``<output>.meta.json`` sidecar, or without
``--output`` to stderr while the CSV goes to stdout.

Every run is one short process whose largest matrix is 16 x 16, too small
for BLAS threads to help, while OpenBLAS's worker thread spins after numpy
loads: about 130 ms of CPU per process on a 2-vCPU machine.  So this module
sets OPENBLAS_NUM_THREADS to 1 before it imports numpy, unless the variable
is already set, in which case the user's value is kept.  The library modules
set nothing process-wide.  Each library module is imported inside the
scenarios that call it, so a run loads only the modules its scenario uses;
``ModelInconsistentError``, which ``main`` catches, and ``MAX_GRID_POINTS``,
which the ``--points`` help quotes, live in the package itself.
"""

from __future__ import annotations

import argparse
import collections
import math
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy first loads OpenBLAS

import numpy as np  # noqa: E402

from . import DEFAULT_SEED, MAX_GRID_POINTS, ModelInconsistentError, __version__  # noqa: E402
from .report import ResultTable, render_table_csv, render_table_csv_sidecar, render_table_json  # noqa: E402

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3
# Defaults the scenarios apply themselves, so that a flag the chosen mode
# would ignore can be refused.  Angles are in degrees.
DEFAULT_SCAN_PHI = "0:90:0.01"  # the leggett phi scan
DEFAULT_THETA_REL = 120.0  # polarization-qm without --scan-theta
DEFAULT_GAMMA = 22.5  # the chsh partial state and hardy without --scan-gamma
# the most points a lo:hi:step scan may have.  A 100 000-row leggett scan is
# 11.6 MB of JSON: 0.4-0.5 s and a peak RSS of 63 MB as one process (2 vCPUs, Python 3.11)
MAX_SCAN_POINTS = 100_000


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
    # point past hi; the span is capped while still a float, as it may be inf
    span = (hi - lo) / step + 1e-9
    if span >= MAX_SCAN_POINTS:
        raise ValueError(f"{name}: {spec!r} has more than MAX_SCAN_POINTS = {MAX_SCAN_POINTS} points")
    return lo + step * np.arange(math.floor(span) + 1)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: refused below with the same rule
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``, refused with a message stating that rule."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1  # not an integer at all: refused below with the same rule
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {minimum}, got {text!r}")
        return value

    return parse


# argparse types: the photon number of noon --n, and the RNG seed of --seed
positive_int = _int_at_least(1)
seed_int = _int_at_least(0)


def _parse_numbers(spec: str, name: str, count: int) -> list[float]:
    """``count`` comma-separated finite numbers; a refusal quotes ``spec`` as given."""
    try:
        values = [finite_float(part) for part in spec.split(",")]
    except argparse.ArgumentTypeError:
        values = []
    if len(values) != count:
        raise ValueError(f"{name}: need {count} comma-separated finite numbers, got {spec!r}")
    return values


def _parse_vector(spec: str, name: str):
    from .qcore import MeasurementSetting

    components = _parse_numbers(spec, name, 3)
    try:
        return MeasurementSetting.normalized(components)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _points(scan: str | None, scan_flag: str, single: float | None, single_flag: str, default: float) -> np.ndarray:
    """Angles in degrees: the ``scan_flag`` lo:hi:step scan when given, else ``single`` or ``default``."""
    if scan is None:
        return np.array([default if single is None else single])
    if single is not None:
        raise ValueError(
            f"{scan_flag} sets the scan and cannot be combined with {single_flag}; got {single_flag} {single}"
        )
    return _parse_scan(scan, scan_flag)


def _radians(degrees: np.ndarray, flag: str, upper_deg: float) -> np.ndarray:
    """``degrees`` in radians; one outside [0, upper_deg] beyond the library's rounding slack is refused naming ``flag``."""
    from . import inequalities

    radians = np.deg2rad(degrees)
    outside = (radians < -inequalities.DOMAIN_ATOL) | (radians > math.radians(upper_deg) + inequalities.DOMAIN_ATOL)
    if outside.any():
        raise ValueError(f"{flag}: angles must lie in [0, {upper_deg:g}] degrees, got {degrees[outside][0].item()!r}")
    return radians


def _table(args, params: dict, provenance: dict, columns: list[str], data, **extra) -> ResultTable:
    """The scenario's table; ``data`` holds one sequence per column, as the scenario computed it."""
    meta = {
        "scenario": args.command,
        "toolkit_version": __version__,
        "seed": int(args.seed),
        "params": params,
        "provenance": provenance,
        **extra,
    }
    return ResultTable(meta, columns, list(data))


def _quantities(args, params: dict, provenance: dict, values: dict, **extra) -> ResultTable:
    return _table(args, params, provenance, ["quantity", "value"], zip(*values.items()), **extra)


def _scenario_lhv_table(args) -> ResultTable:
    from . import hvmodels

    if args.weights is None:
        table = hvmodels.LocalHVTable.uniform()
    else:
        weights = _parse_numbers(args.weights, "--weights", 8)
        try:
            table = hvmodels.LocalHVTable(np.array(weights))
        except ValueError as exc:
            raise ValueError(f"--weights: {exc}") from exc
    minimum = hvmodels.lhv_minimum_same_probability()
    rows = []
    for i, row in enumerate(hvmodels.LOCAL_HV_ROWS):
        rows.append((i + 1, *row, float(hvmodels.row_same_fraction(row)), float(table.weights[i])))
    return _table(
        args,
        {"weights": "uniform" if args.weights is None else args.weights},
        {
            "outcome_*": "hvmodels.LOCAL_HV_ROWS",
            "same_fraction": "hvmodels.row_same_fraction",
            "weight": "hvmodels.LocalHVTable",
        },
        ["row", "outcome_0deg", "outcome_plus120deg", "outcome_minus120deg", "same_fraction", "weight"],
        zip(*rows),
        p_same_weighted=hvmodels.lhv_same_probability(table),
        p_same_minimum=float(minimum),
        p_same_minimum_exact=f"{minimum.numerator}/{minimum.denominator}",
    )


def _scenario_polarization(args) -> ResultTable:
    from . import inequalities

    thetas_deg = _points(args.scan_theta, "--scan-theta", args.theta_rel, "--theta-rel", DEFAULT_THETA_REL)
    p_same, p_both = inequalities.qm_same_polarization_probability(np.deg2rad(thetas_deg))
    cos2_theta = [math.cos(math.radians(theta_deg)) ** 2 for theta_deg in thetas_deg.tolist()]
    return _table(
        args,
        {"theta_rel_deg": None if args.scan_theta else thetas_deg[0].item(), "scan_theta": args.scan_theta},
        {
            "p_same": "inequalities.qm_same_polarization_probability",
            "p_both_pass": "inequalities.qm_same_polarization_probability",
            "cos2_theta": "analytic cross-check cos^2(theta)",
        },
        ["theta_rel_deg", "p_same", "p_both_pass", "cos2_theta"],
        [thetas_deg, p_same, p_both, cos2_theta],
        lhv_bound=1.0 / 3.0,
    )


def _chsh_state(state: str, gamma_deg: float | None):
    from . import qcore

    if state == "singlet":
        return qcore.singlet()
    if state == "product":
        return qcore.StateVector((2, 2), [1.0, 0.0, 0.0, 0.0])
    gamma = math.radians(gamma_deg)
    amplitudes = np.array([0.0, math.cos(gamma), -math.sin(gamma), 0.0], dtype=complex)
    return qcore.StateVector((2, 2), amplitudes)


def _scenario_chsh(args) -> ResultTable:
    from . import inequalities

    gamma_deg = None
    if args.state == "partial":
        gamma_deg = DEFAULT_GAMMA if args.gamma is None else args.gamma
    elif args.gamma is not None:
        raise ValueError(f"--gamma sets the partial state's angle and needs --state partial; got --state {args.state}")
    optimum = inequalities.chsh_optimize(_chsh_state(args.state, gamma_deg))
    values = {"s_max": optimum.s_max}
    for label, pair in (("a", optimum.settings_a), ("b", optimum.settings_b)):
        for k, setting in enumerate(pair):
            for axis, component in zip("xyz", setting.direction):
                values[f"{label}{k}_{axis}"] = float(component)
    for (i, j), c in np.ndenumerate(optimum.record):
        values[f"c_{i}{j}"] = float(c)
    return _quantities(
        args,
        {"state": args.state, "gamma_deg": gamma_deg},
        {
            "s_max": "inequalities.chsh_optimize",
            "setting components": "inequalities.chsh_optimize",
            "correlator c_ij": "inequalities.setting_correlation",
        },
        values,
        tsirelson_bound=inequalities.TSIRELSON_BOUND,
    )


def _scenario_leggett(args) -> ResultTable:
    model_flags = [args.u, args.v, args.a, args.b]
    if args.samples < 0 or (args.samples and all(f is None for f in model_flags)):
        raise ValueError(f"--samples must be 0, or positive with --u, --v, --a and --b; got {args.samples}")
    if any(f is not None for f in model_flags):
        if any(f is None for f in model_flags):
            raise ValueError("model mode needs all of --u, --v, --a, --b")
        if args.scan_phi is not None:
            raise ValueError(
                "--scan-phi sets the phi scan and cannot be combined with --u, --v, --a, --b; "
                f"got --scan-phi {args.scan_phi!r}"
            )
        from . import hvmodels

        params = hvmodels.LeggettModelParams(
            _parse_vector(args.u, "--u"),
            _parse_vector(args.v, "--v"),
            _parse_vector(args.a, "--a"),
            _parse_vector(args.b, "--b"),
        )
        analytic = hvmodels.leggett_expectations(params, method="analytic")
        values = {
            "mean_a_analytic": analytic.mean_a,
            "mean_b_analytic": analytic.mean_b,
            "mean_ab_analytic": analytic.mean_ab,
        }
        recorded = {"u": args.u, "v": args.v, "a": args.a, "b": args.b, "samples": args.samples}
        if args.samples:
            sampled = hvmodels.leggett_expectations(params, method="monte-carlo", n_samples=args.samples, seed=args.seed)
            values["mean_a_mc"] = sampled.mean_a
            values["mean_b_mc"] = sampled.mean_b
            values["mean_ab_mc"] = sampled.mean_ab
            values["stderr_a"] = sampled.stderr_a
            values["stderr_b"] = sampled.stderr_b
            values["stderr_ab"] = sampled.stderr_ab
        return _quantities(
            args,
            recorded,
            {"mean_*": "hvmodels.leggett_expectations", "stderr_*": "hvmodels.leggett_expectations"},
            values,
        )

    from . import inequalities

    scan_phi = DEFAULT_SCAN_PHI if args.scan_phi is None else args.scan_phi
    phis_deg = _parse_scan(scan_phi, "--scan-phi")
    scan = inequalities.leggett_violation_scan(_radians(phis_deg, "--scan-phi", 180.0))
    return _table(
        args,
        {"scan_phi_deg": scan_phi},
        {
            "s_qm": "inequalities.leggett_quantum_value",
            "bound": "inequalities.leggett_bound",
            "violation": "inequalities.leggett_violation_scan",
        },
        ["phi_deg", "s_qm", "bound", "violation"],
        [phis_deg, scan.s_qm, scan.bound, scan.violation],
        argmax_phi_deg=math.degrees(scan.argmax_phi),
        max_violation=scan.max_violation,
        stationarity_root_deg=math.degrees(inequalities.leggett_violation_argmax_oracle()),
    )


def _scenario_kcbs(args) -> ResultTable:
    from . import inequalities

    directions, state = inequalities.kcbs_build_pentagram()
    values = {
        "s_kcbs": inequalities.kcbs_value(directions, state),
        "classical_minimum": float(inequalities.kcbs_classical_minimum()),
        "quantum_closed_form": inequalities.KCBS_QUANTUM_VALUE,
        "max_adjacent_dot": inequalities.max_adjacent_dot(directions),
    }
    for j in range(5):
        for axis, component in zip("xyz", directions[j]):
            values[f"l{j}_{axis}"] = float(component)
    return _quantities(
        args,
        {},
        {
            "s_kcbs": "inequalities.kcbs_value",
            "classical_minimum": "inequalities.kcbs_classical_minimum",
            "direction components": "inequalities.kcbs_build_pentagram",
        },
        values,
    )


def _scenario_hardy(args) -> ResultTable:
    from . import inequalities

    gammas_deg = _points(args.scan_gamma, "--scan-gamma", args.gamma, "--gamma", DEFAULT_GAMMA)
    gamma_flag = "--gamma" if args.scan_gamma is None else "--scan-gamma"
    probabilities = inequalities.hardy_probabilities(_radians(gammas_deg, gamma_flag, 90.0))
    closed_form = [
        inequalities.hardy_fourth_probability_closed_form(math.radians(gamma_deg)) for gamma_deg in gammas_deg.tolist()
    ]
    return _table(
        args,
        {"gamma_deg": None if args.scan_gamma else gammas_deg[0].item(), "scan_gamma": args.scan_gamma},
        {
            "p1..p4": "inequalities.hardy_probabilities",
            "p4_closed_form": "inequalities.hardy_fourth_probability_closed_form",
        },
        ["gamma_deg", "p1", "p2", "p3", "p4", "p4_closed_form"],
        [gammas_deg, *probabilities, closed_form],
    )


def _scenario_hom(args) -> ResultTable:
    from . import fock

    output = fock.hong_ou_mandel_output()
    return _table(
        args,
        {},
        {
            "amplitude": "fock.apply_rotation on |1,1> through the 45-degree PBS",
            "probability": "|amplitude|^2",
        },
        ["n_a", "n_b", "amplitude_real", "amplitude_imag", "probability"],
        zip(*[(n_a, n_b, amplitude.real, amplitude.imag, abs(amplitude) ** 2) for n_a, n_b, amplitude in output.occupied()]),
        coincidence_probability=fock.coincidence_probability(output),
        basis="rotated modes (A, D)",
    )


def _scenario_noon(args) -> ResultTable:
    from . import fock, qcore

    state = fock.noon_state(args.n)
    rows = [(f"|{n_a},{n_b}>", amplitude.real, amplitude.imag) for n_a, n_b, amplitude in state.occupied()]
    extra = {}
    if args.n == 1:
        atoms = fock.photon_atoms_entangle(state)
        for label, amplitude in zip(["|gg>", "|ge>", "|eg>", "|ee>"], atoms.amplitudes):
            rows.append((label, float(amplitude.real), float(amplitude.imag)))
        eigenvalues = np.linalg.eigvalsh(qcore.partial_trace(atoms, 0))
        extra["reduced_eigenvalues"] = [float(v) for v in eigenvalues]
        extra["entanglement_entropy_bits"] = float(-sum(v * math.log2(v) for v in eigenvalues if v > 1e-15))
    return _table(
        args,
        {"n": args.n},
        {
            "amplitude": "fock.noon_state",
            "atom rows": "fock.photon_atoms_entangle",
            "entropy": "eigenvalues of qcore.partial_trace",
        },
        ["basis_label", "amplitude_real", "amplitude_imag"],
        zip(*rows),
        **extra,
    )


def _scenario_popper(args) -> ResultTable:
    from . import popper

    state = popper.GaussianPairState(args.sigma_plus, args.sigma_minus)
    slit = popper.SlitCondition(args.width, args.center, args.profile)
    if args.points and not 4 <= args.points <= MAX_GRID_POINTS:
        raise ValueError(f"--points must be 0 or 4 to MAX_GRID_POINTS = {MAX_GRID_POINTS}, got {args.points}")
    if args.extent is not None and (args.extent <= 0.0 or not args.points):
        raise ValueError(f"--extent must be positive and needs --points, got --extent {args.extent} --points {args.points}")
    grid = popper.GridSpec(args.points, args.extent) if args.points else popper.GridSpec.auto(state, slit)
    conditional = popper.conditional_uncertainties(state, slit, grid)
    unconditioned = popper.unconditioned_uncertainties(state)
    x, _ = grid.resolve(state, slit)
    return _quantities(
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
        {
            "dx2_given_x1": conditional.position_spread,
            "dp2_given_x1": conditional.momentum_spread,
            "product_conditional": conditional.product,
            "product_conditional_over_bound": conditional.product / popper.UNCERTAINTY_BOUND,
            "dx2_unconditioned": unconditioned.position_spread,
            "dp2_unconditioned": unconditioned.momentum_spread,
            "product_unconditioned": unconditioned.product,
        },
        uncertainty_bound=popper.UNCERTAINTY_BOUND,
    )


def _scenario_tlm(args) -> ResultTable:
    from . import inequalities

    c = np.array([[args.c00, args.c01], [args.c10, args.c11]])
    outcome = inequalities.tlm_check(c)
    return _quantities(
        args,
        {"c00": args.c00, "c01": args.c01, "c10": args.c10, "c11": args.c11},
        {"lhs/rhs": "inequalities.tlm_check"},
        {
            "lhs": outcome.lhs,
            "rhs": outcome.rhs,
            "margin": outcome.rhs - outcome.lhs,
            "satisfied": outcome.satisfied,
            "chsh_value": inequalities.chsh_value(c),
        },
    )


# subcommand -> its help line, the function computing its table, and its own flags as (name, add_argument keywords)
Scenario = collections.namedtuple("Scenario", "help run flags")
SCENARIOS = {
    "lhv-table": Scenario("eight-row local hidden-variable table", _scenario_lhv_table, [
        ("--weights", dict(help="8 comma-separated row weights (default: uniform)")),
    ]),
    "polarization-qm": Scenario("quantum same-outcome probability", _scenario_polarization, [
        ("--theta-rel", dict(type=finite_float, help=f"relative polarizer angle in degrees (default {DEFAULT_THETA_REL})")),
        ("--scan-theta", dict(help="lo:hi:step scan in degrees")),
    ]),
    "chsh": Scenario("CHSH optimization over settings", _scenario_chsh, [
        ("--state", dict(choices=("singlet", "product", "partial"), default="singlet")),
        ("--gamma", dict(type=finite_float, help=f"partial-state angle in degrees (default {DEFAULT_GAMMA})")),
    ]),
    "leggett": Scenario("Leggett bound scan or model evaluation", _scenario_leggett, [
        ("--scan-phi", dict(help=f"lo:hi:step phi scan in degrees (scan mode; default {DEFAULT_SCAN_PHI})")),
        ("--u", dict(help="initial polarization of A, e.g. 0,0,1 (model mode)")),
        ("--v", dict(help="initial polarization of B (model mode)")),
        ("--a", dict(help="analyzer setting of A (model mode)")),
        ("--b", dict(help="analyzer setting of B (model mode)")),
        ("--samples", dict(type=int, default=0, help="Monte Carlo samples (model mode; 0 = analytic only)")),
    ]),
    "kcbs": Scenario("pentagram contextuality value", _scenario_kcbs, []),
    "hardy": Scenario("four-probability non-separability test", _scenario_hardy, [
        ("--gamma", dict(type=finite_float, help=f"state angle in degrees (default {DEFAULT_GAMMA})")),
        ("--scan-gamma", dict(help="lo:hi:step scan in degrees")),
    ]),
    "hom": Scenario("two-photon interference at the 45-degree PBS", _scenario_hom, []),
    "noon": Scenario("N00N state and the path-marker atoms", _scenario_noon, [
        ("--n", dict(type=positive_int, default=1, help="photon number N")),
    ]),
    "popper": Scenario("conditional uncertainty after a slit", _scenario_popper, [
        ("--sigma-plus", dict(type=finite_float, default=1.0)),
        ("--sigma-minus", dict(type=finite_float, default=0.5)),
        ("--width", dict(type=finite_float, default=0.5)),
        ("--center", dict(type=finite_float, default=0.0)),
        ("--profile", dict(choices=("gaussian", "hard"), default="gaussian")),
        ("--points", dict(type=int, default=0, help=f"grid points (0 = auto; at most {MAX_GRID_POINTS})")),
        ("--extent", dict(type=finite_float, default=None, help="half-width of the grid")),
    ]),
    "tlm": Scenario("quantum-realizability check for correlators", _scenario_tlm, [
        ("--c00", dict(type=finite_float, default=1.0 / math.sqrt(2.0))),
        ("--c01", dict(type=finite_float, default=1.0 / math.sqrt(2.0))),
        ("--c10", dict(type=finite_float, default=1.0 / math.sqrt(2.0))),
        ("--c11", dict(type=finite_float, default=-1.0 / math.sqrt(2.0))),
    ]),
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
    common.add_argument("--output", help="result file path (default: stdout; verify: qfoundry_verify.json)")
    common.add_argument(
        "--seed", type=seed_int, default=DEFAULT_SEED, help=f"RNG seed, an integer >= 0 (default: {DEFAULT_SEED})"
    )
    for name, scenario in SCENARIOS.items():
        sub = subparsers.add_parser(name, parents=[common], help=scenario.help)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, options in scenario.flags:
            sub.add_argument(flag, **options)
    subparsers.add_parser("verify", parents=[common], help="run every acceptance check")
    return parser


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _emit(table: ResultTable, args) -> None:
    if args.format == "json":
        text, sidecar = render_table_json(table), ""
    else:
        text, sidecar = render_table_csv(table), render_table_csv_sidecar(table)
    if not args.output:
        sys.stdout.write(text)
        sys.stderr.write(sidecar)
        return
    _write(args.output, text)
    if sidecar:
        _write(args.output + ".meta.json", sidecar)


def _run_verify(args) -> int:
    from . import verify  # the checks' own imports stay off every scenario's start-up

    results, report = verify.run_all_checks(args.seed)
    for result in results:
        print(f"{result.line()} ({result.elapsed_ms:.0f} ms)")
    output = args.output or "qfoundry_verify.json"
    _write(output, report)
    all_passed = all(r.passed for r in results)
    print(f"{'all checks passed' if all_passed else 'CHECK FAILURES PRESENT'}; report: {output}")
    return EXIT_OK if all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if isinstance(value, list):  # argparse in Python 3.11 parses --flag=-- as [], skipping type and choices
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    try:
        if args.command == "verify":
            return _run_verify(args)
        _emit(SCENARIOS[args.command].run(args), args)
        return EXIT_OK
    except ModelInconsistentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
