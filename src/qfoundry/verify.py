"""Acceptance checks: every headline number, rerun from scratch.

Each check recomputes one quantitative claim end to end and returns
``(passed, expected, measured)``: the verdict, the criterion's stated
tolerance and the measured values.  :data:`CORE_CHECKS` gives each of the
eleven core checks its criterion number and name, and only
``run_core_checks`` and ``run_all_checks`` pair them into a
:class:`CheckResult`.  ``run_all_checks`` adds criterion 12, which re-runs
the whole battery and byte-compares the rendered reports.  All randomness
derives from the single seed argument, so reports are reproducible byte
for byte.  The CLI imports this module only for its ``verify`` subcommand.

Check 4 runs its 97 independent Leggett scenarios on one thread per usable
CPU (:func:`hvmodels.parallel_map`).  Each scenario has its own seed and the
results are reduced in scenario order, so the report bytes are the same for
any CPU count.  ``run_core_checks`` records each check's wall time in
``CheckResult.elapsed_ms``; the CLI prints it, and the report leaves it out.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import DEFAULT_SEED, __version__, fock, hvmodels, inequalities, popper, qcore
from .hvmodels import LeggettModelParams, MeasurementSetting
from .report import render_json


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    expected: str
    measured: dict = field(default_factory=dict)
    # wall time of the check; shown on the CLI line, never in the report
    elapsed_ms: float | None = field(default=None, compare=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{k}={v}" for k, v in self.measured.items())
        return f"criterion {self.criterion:02d} {status} {self.name}: {details} [expected: {self.expected}]"


def check_lhv_bound(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 1: exact vertex minimization of the same-outcome probability."""
    minimum = hvmodels.lhv_minimum_same_probability()
    passed = minimum == Fraction(1, 3) and abs(float(minimum) - 1.0 / 3.0) < 1e-15
    return (
        passed,
        "exactly 1/3 over the 8 vertices",
        dict(minimum=f"{minimum.numerator}/{minimum.denominator}", minimum_float=float(minimum)),
    )


def check_polarization_contradiction(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 2: quantum same-outcome probability at 2*pi/3 undercuts 1/3."""
    p_same, p_both_pass = inequalities.qm_same_polarization_probability(2.0 * np.pi / 3.0)
    quoted = 0.125  # the printed value, = the both-pass probability
    threshold = 1.0 / 3.0 - 0.05
    passed = p_same < threshold and p_both_pass < threshold and quoted < threshold
    return (
        passed,
        "every reading below 1/3 by more than 0.05",
        dict(p_same=p_same, p_both_pass=p_both_pass, quoted_value=quoted, lhv_bound=1.0 / 3.0),
    )


def check_singlet_reduction(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 3: partial trace of the singlet is I/2 in both bases."""
    half_identity = np.eye(2) / 2.0
    errors = []
    singlet_z = qcore.singlet()
    # the same state assembled in the |+->, |-+> basis
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    amplitudes = (np.kron(plus, minus) - np.kron(minus, plus)) / np.sqrt(2.0)
    singlet_pm = qcore.StateVector((2, 2), amplitudes)
    for state in (singlet_z, singlet_pm):
        for keep in (0, 1):
            reduced = qcore.partial_trace(state, keep)
            errors.append(float(np.max(np.abs(reduced - half_identity))))
    max_error = max(errors)
    return (
        max_error < 1e-12,
        "max elementwise error below 1e-12 in z and +- bases",
        dict(max_error=max_error),
    )


def _perpendicular_frame(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    seed_axis = np.array([0.0, 0.0, 1.0]) if abs(w[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = seed_axis - (seed_axis @ w) * w
    e1 = e1 / np.linalg.norm(e1)
    return e1, np.cross(w, e1)


def leggett_grid_scenarios(n: int = 97) -> list[LeggettModelParams]:
    """Deterministic consistent parameter sets covering all three means.

    Built on the Fibonacci-sphere grid; scenarios cycle through three
    families: analyzers in the plane perpendicular to u = v (nontrivial
    <AB>), a free u.a with orthogonal b and v (nontrivial <A>), and the
    mirror construction for <B>.  Every family satisfies the consistency
    inequality by construction.
    """
    points = hvmodels.fibonacci_sphere(n)
    scenarios = []
    for i in range(n):
        g = points[i]
        if i % 3 == 0:
            e1, e2 = _perpendicular_frame(g)
            theta = 2.0 * np.pi * i / n
            u = v = MeasurementSetting(g)
            a = MeasurementSetting.normalized(e1)
            b = MeasurementSetting.normalized(np.cos(theta) * e1 + np.sin(theta) * e2)
        elif i % 3 == 1:
            u = MeasurementSetting(g)
            a = MeasurementSetting(points[(i + 29) % n])
            b = MeasurementSetting.normalized(_perpendicular_frame(a.direction)[0])
            v = MeasurementSetting.normalized(_perpendicular_frame(b.direction)[0])
        else:
            v = MeasurementSetting(g)
            b = MeasurementSetting(points[(i + 57) % n])
            a = MeasurementSetting.normalized(_perpendicular_frame(b.direction)[0])
            u = MeasurementSetting.normalized(_perpendicular_frame(a.direction)[0])
        scenarios.append(LeggettModelParams(u, v, a, b))
    return scenarios


LEGGETT_SAMPLES = 1_000_000  # Monte Carlo draws per check-4 scenario


def _leggett_scenario(params: LeggettModelParams, seed: int) -> tuple[float, float]:
    """Analytic error and worst Monte Carlo gap (in standard errors) of one scenario."""
    analytic = hvmodels.leggett_expectations(params, method="analytic")
    analytic_error = max(
        abs(analytic.mean_a - params.ua),
        abs(analytic.mean_b - params.vb),
        abs(analytic.mean_ab + params.ab),
    )
    sampled = hvmodels.leggett_expectations(
        params, method="monte-carlo", n_samples=LEGGETT_SAMPLES, seed=seed
    )
    worst_sigma = 0.0
    for mean, ref, stderr in (
        (sampled.mean_a, analytic.mean_a, sampled.stderr_a),
        (sampled.mean_b, analytic.mean_b, sampled.stderr_b),
        (sampled.mean_ab, analytic.mean_ab, sampled.stderr_ab),
    ):
        gap = abs(mean - ref)
        sigmas = 0.0 if gap <= 1e-12 else (gap / stderr if stderr > 0.0 else math.inf)
        worst_sigma = max(worst_sigma, sigmas)
    return analytic_error, worst_sigma


def check_leggett_model(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 4: analytic means match the dot products; sampler agrees.

    Scenario i is seeded ``seed * 1000 + i``; the scenarios run on
    :func:`hvmodels.parallel_map` threads, since numpy's draws and
    comparisons release the GIL.
    """
    scenarios = leggett_grid_scenarios(97)
    seeds = [seed * 1000 + i for i in range(len(scenarios))]
    errors, sigmas = zip(*hvmodels.parallel_map(_leggett_scenario, scenarios, seeds))
    analytic_error, worst_sigma = max(errors), max(sigmas)
    passed = analytic_error < 1e-12 and worst_sigma < 5.0
    return (
        passed,
        "analytic error < 1e-12 on 97 scenarios; MC gaps < 5 stderr at 1e6 samples",
        dict(analytic_error=analytic_error, worst_mc_sigmas=worst_sigma, n_samples=LEGGETT_SAMPLES),
    )


def check_leggett_violation(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 5: scan locates the violation maximum at the stationary phi."""
    phi = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, 0.01))
    scan = inequalities.leggett_violation_scan(phi)
    argmax_deg = math.degrees(scan.argmax_phi)
    oracle_deg = math.degrees(inequalities.leggett_violation_argmax_oracle())
    passed = (
        scan.max_violation > 0.10
        and abs(argmax_deg - oracle_deg) <= 0.5
        and abs(argmax_deg - 18.8) <= 1.0
    )
    return (
        passed,
        "max gap > 0.10 at phi within 0.5 deg of the sin(phi/2)=1/(2 pi) root and 1.0 deg of 18.8",
        dict(
            max_violation=scan.max_violation,
            argmax_deg=argmax_deg,
            oracle_deg=oracle_deg,
            quoted_deg=18.8,
        ),
    )


# sigma_k (x) sigma_l as 4x4 matrices, indexed [k, l]
_PAULI_PAIRS = np.einsum("kuv,lwx->kluwvx", qcore.PAULIS, qcore.PAULIS).reshape(3, 3, 4, 4)
_CORRELATOR_BLOCK = 1024  # rows per block of _random_correlator_batch's einsum and contraction


def _random_correlator_batch(seed: int, trials: int) -> np.ndarray:
    """Correlator tables e[n, i, j] for random two-qubit states and settings.

    Each state's correlation tensor T[n, k, l] = Re <psi| sigma_k (x) sigma_l |psi>
    is contracted with its settings, e[n, i, j] = a_ni . T_n . b_nj, block by block
    into the output, so the complex intermediates hold one block of rows at a time.
    """
    rng = np.random.default_rng(seed)
    psi = np.empty((trials, 4), dtype=complex)
    psi.real = rng.normal(size=(trials, 4))
    psi.imag = rng.normal(size=(trials, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    settings_a = rng.normal(size=(trials, 2, 3))
    settings_a /= np.linalg.norm(settings_a, axis=2, keepdims=True)
    settings_b = rng.normal(size=(trials, 2, 3))
    settings_b /= np.linalg.norm(settings_b, axis=2, keepdims=True)
    e = np.empty((trials, 2, 2))
    for lo in range(0, trials, _CORRELATOR_BLOCK):
        rows = slice(lo, lo + _CORRELATOR_BLOCK)
        tensor = np.real(np.einsum("np,klpq,nq->nkl", psi[rows].conj(), _PAULI_PAIRS, psi[rows]))
        np.matmul(settings_a[rows] @ tensor, settings_b[rows].transpose(0, 2, 1), out=e[rows])
    return e


def check_chsh(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 6: singlet optimum reaches 2 sqrt(2); random states never exceed it.

    The 1e4 random configurations come from :func:`_random_correlator_batch`,
    which contracts each state's correlation tensor with its settings.
    """
    optimum = inequalities.chsh_optimize(qcore.singlet())
    singlet_error = abs(optimum.s_max - inequalities.TSIRELSON_BOUND)

    trials = 10_000
    e = _random_correlator_batch(seed, trials)
    combos = np.stack(
        [
            e[:, 0, 0] + e[:, 0, 1] + e[:, 1, 0] - e[:, 1, 1],
            e[:, 0, 0] + e[:, 0, 1] - e[:, 1, 0] + e[:, 1, 1],
            e[:, 0, 0] - e[:, 0, 1] + e[:, 1, 0] + e[:, 1, 1],
            -e[:, 0, 0] + e[:, 0, 1] + e[:, 1, 0] + e[:, 1, 1],
        ]
    )
    max_random = float(np.max(np.abs(combos)))
    passed = singlet_error < 1e-6 and max_random <= inequalities.TSIRELSON_BOUND + 1e-9
    return (
        passed,
        "singlet within 1e-6 of 2 sqrt(2); 1e4 random configurations below 2 sqrt(2) + 1e-9",
        dict(
            s_singlet=optimum.s_max,
            singlet_error=singlet_error,
            max_random=max_random,
            bound=inequalities.TSIRELSON_BOUND,
            trials=trials,
        ),
    )


def check_kcbs(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 7: pentagram orthogonality, quantum value, classical minimum."""
    directions, state = inequalities.kcbs_build_pentagram()
    adjacency = inequalities.max_adjacent_dot(directions)
    value = inequalities.kcbs_value(directions, state)
    value_error = abs(value - inequalities.KCBS_QUANTUM_VALUE)
    classical = inequalities.kcbs_classical_minimum()
    passed = adjacency < 1e-12 and value_error < 1e-9 and classical == -3
    return (
        passed,
        "adjacent dots < 1e-12; value = 5 - 4 sqrt(5) within 1e-9; classical minimum -3",
        dict(
            max_adjacent_dot=adjacency,
            quantum_value=value,
            value_error=value_error,
            classical_minimum=classical,
        ),
    )


def check_hardy(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 8: zero conditions and the fourth probability on a gamma grid."""
    grid = np.linspace(0.02, np.pi / 2.0 - 0.02, 50)
    p1, p2, p3, p4 = inequalities.hardy_probabilities(grid)
    max_zero = np.max([p1, p2, p3])
    closed = [inequalities.hardy_fourth_probability_closed_form(gamma) for gamma in grid.tolist()]
    max_p4_error = np.max(np.abs(p4 - closed))
    reference = inequalities.hardy_probabilities(math.radians(22.5))[3]
    classical_ok = inequalities.hardy_classical_fourth_zero()
    passed = (
        max_zero < 1e-12
        and max_p4_error < 1e-10
        and abs(reference - 0.0876) <= 1e-4
        and classical_ok
    )
    return (
        passed,
        "three zeros < 1e-12 and p4 within 1e-10 of closed form on 50 gammas; p4(22.5 deg) = 0.0876 +- 1e-4",
        dict(
            max_zero_probability=max_zero,
            max_p4_error=max_p4_error,
            p4_at_22_5_deg=reference,
            classical_implication=classical_ok,
        ),
    )


def check_tlm(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 9: quantum records satisfy TLM, the PR box violates it.

    The 1e4 quantum records are :func:`_random_correlator_batch` tables drawn
    from ``seed + 1``, clipped to [-1, 1] against rounding.
    """
    trials = 10_000
    e = np.clip(_random_correlator_batch(seed + 1, trials), -1.0, 1.0)
    lhs, rhs = inequalities.tlm_sides(e)
    worst_margin = float(np.max(lhs - rhs))
    pr_box = inequalities.tlm_check(np.array([[1.0, 1.0], [1.0, -1.0]]))
    r = 1.0 / math.sqrt(2.0)
    singlet_optimal = inequalities.tlm_check(np.array([[r, r], [r, -r]]))
    equality_gap = abs(singlet_optimal.lhs - singlet_optimal.rhs)
    passed = (
        worst_margin <= 1e-12
        and pr_box.lhs - pr_box.rhs == 2.0
        and not pr_box.satisfied
        and equality_gap < 1e-12
    )
    return (
        passed,
        "1e4 quantum records satisfy TLM within 1e-12; PR box violates by 2; singlet record at equality",
        dict(
            worst_quantum_margin=worst_margin,
            pr_box_lhs=pr_box.lhs,
            pr_box_rhs=pr_box.rhs,
            singlet_equality_gap=equality_gap,
            trials=trials,
        ),
    )


def check_hom(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 10: the 45-degree PBS maps |1,1> to (|2,0> - |0,2>)/sqrt(2)."""
    output = fock.hong_ou_mandel_output()
    r = 1.0 / math.sqrt(2.0)
    err_20 = abs(output.amplitude(2, 0) - r)
    err_02 = abs(output.amplitude(0, 2) + r)
    err_11 = abs(output.amplitude(1, 1))
    coincidence = fock.coincidence_probability(output)
    passed = err_20 < 1e-12 and err_02 < 1e-12 and err_11 < 1e-12 and coincidence == 0.0
    return (
        passed,
        "amplitudes +-1/sqrt(2) on (2,0)/(0,2) and 0 on (1,1) within 1e-12; zero coincidence",
        dict(
            error_20=err_20, error_02=err_02, error_11=err_11, coincidence=coincidence
        ),
    )


POPPER_SIGMAS = (0.6, 0.8, 1.0, 1.3, 1.7)
POPPER_WIDTHS = (0.3, 0.5, 0.8, 1.2, 2.0)


def check_popper(seed: int = DEFAULT_SEED) -> tuple[bool, str, dict]:
    """Criterion 11: Gaussian-slit conditioning saturates the bound everywhere."""
    worst_product_dev = 0.0
    min_product = math.inf
    worst_doubling = 0.0
    for sigma_plus in POPPER_SIGMAS:
        for sigma_minus in POPPER_SIGMAS:
            state = popper.GaussianPairState(sigma_plus, sigma_minus)
            pairs, batches, reports = [], {}, {}
            for width in POPPER_WIDTHS:
                slit = popper.SlitCondition(width)
                grid = popper.GridSpec.auto(state, slit, oversample=1.0)
                pairs.append(((slit, grid), (slit, popper.GridSpec(grid.points * 2, grid.extent))))
                for batch_slit, batch_grid in pairs[-1]:
                    batches.setdefault(batch_grid, []).append(batch_slit)
            # one call per (state, grid): the doubled grid of one width is often the base grid of another
            for grid, slits in batches.items():
                reports.update(zip([(s, grid) for s in slits], popper.conditional_uncertainties(state, slits, grid)))
            for base_key, doubled_key in pairs:
                base, doubled = reports[base_key], reports[doubled_key]
                worst_product_dev = max(worst_product_dev, abs(base.product - 0.5))
                min_product = min(min_product, base.product)
                worst_doubling = max(
                    worst_doubling,
                    abs(base.position_spread - doubled.position_spread)
                    / doubled.position_spread,
                    abs(base.momentum_spread - doubled.momentum_spread)
                    / doubled.momentum_spread,
                )
    narrow_state = popper.GaussianPairState(1.0, 0.5)
    wide_slit = popper.SlitCondition(0.5)
    narrow_slit = popper.SlitCondition(0.05)
    wide = popper.conditional_uncertainties(
        narrow_state, wide_slit, popper.GridSpec.auto(narrow_state, wide_slit, oversample=1.0)
    )
    narrow = popper.conditional_uncertainties(
        narrow_state, narrow_slit, popper.GridSpec.auto(narrow_state, narrow_slit, oversample=1.0)
    )
    narrowing_shift = abs(wide.product - narrow.product)
    passed = (
        worst_product_dev <= 1e-3
        and min_product >= 0.5 - 1e-3
        and worst_doubling < 1e-4
        and narrowing_shift <= 1e-3
    )
    return (
        passed,
        "product = 1/2 within 1e-3 on the 5x5x5 grid, stable under grid doubling (1e-4) and 10x narrowing (1e-3)",
        dict(
            worst_product_deviation=worst_product_dev,
            min_product=min_product,
            worst_grid_doubling_change=worst_doubling,
            narrowing_shift=narrowing_shift,
            position_spread_wide=wide.position_spread,
            position_spread_narrow=narrow.position_spread,
        ),
    )


CORE_CHECKS: tuple[tuple[int, str, object], ...] = (
    (1, "lhv-minimum", check_lhv_bound),
    (2, "polarization-contradiction", check_polarization_contradiction),
    (3, "singlet-reduction", check_singlet_reduction),
    (4, "leggett-model", check_leggett_model),
    (5, "leggett-violation", check_leggett_violation),
    (6, "chsh-tsirelson", check_chsh),
    (7, "kcbs-pentagram", check_kcbs),
    (8, "hardy-probabilities", check_hardy),
    (9, "tlm-quantum-set", check_tlm),
    (10, "hong-ou-mandel", check_hom),
    (11, "popper-conditional", check_popper),
)


def _run(criterion: int, name: str, check, *args) -> CheckResult:
    """``check(*args)`` as the timed result line of criterion ``criterion``."""
    start = time.perf_counter()
    try:
        passed, expected, measured = check(*args)
    except Exception as exc:  # a tampered or broken module must fail its line, not the run
        passed, expected, measured = False, "check executed without raising", {"error": f"{type(exc).__name__}: {exc}"}
    return CheckResult(criterion, name, passed, expected, measured, (time.perf_counter() - start) * 1e3)


def run_core_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [_run(criterion, name, check, seed) for criterion, name, check in CORE_CHECKS]


def render_report(results: list[CheckResult], seed: int) -> str:
    payload = {
        "seed": int(seed),
        "toolkit_version": __version__,
        "all_passed": all(r.passed for r in results),
        "checks": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "expected": r.expected,
                "measured": r.measured,
            }
            for r in results
        ],
    }
    return render_json(payload) + "\n"


def check_determinism(seed: int, first_report: str) -> tuple[bool, str, dict]:
    """Criterion 12: rerunning the whole battery reproduces the report bytes."""
    rerun = render_report(run_core_checks(seed), seed)
    digest_a = hashlib.sha256(first_report.encode()).hexdigest()
    digest_b = hashlib.sha256(rerun.encode()).hexdigest()
    return (
        rerun == first_report,
        "byte-identical reports for identical seeds",
        dict(first_sha256=digest_a[:16], rerun_sha256=digest_b[:16]),
    )


def run_all_checks(seed: int = DEFAULT_SEED) -> tuple[list[CheckResult], str]:
    """All twelve checks plus the final rendered report."""
    core = run_core_checks(seed)
    results = core + [_run(12, "determinism", check_determinism, seed, render_report(core, seed))]
    return results, render_report(results, seed)
