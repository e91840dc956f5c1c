"""Verifier behavior: fault injection, report rendering, failure surfacing."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundry import hvmodels, inequalities, qcore, verify


def test_tampered_kcbs_state_fails_with_reported_delta(monkeypatch):
    # same pentagram directions, probe state knocked off the symmetry axis:
    # the check must fail and carry the measured deviation
    genuine = inequalities.kcbs_build_pentagram()

    def tampered():
        return inequalities.KcbsConfiguration(genuine.directions, np.array([1.0, 0.0, 0.0]))

    monkeypatch.setattr(inequalities, "kcbs_build_pentagram", tampered)
    passed, _, measured = verify.check_kcbs()
    assert not passed
    assert measured["value_error"] > 0.1


def test_tampered_kcbs_angle_fails_via_orthogonality(monkeypatch):
    # perturbing the cone angle breaks adjacent compatibility; the run must
    # surface the failure instead of crashing
    def tampered():
        theta = np.arccos(np.sqrt(0.44))
        j = np.arange(5)
        azimuth = 4.0 * np.pi * j / 5.0
        directions = np.stack(
            [
                np.sin(theta) * np.cos(azimuth),
                np.sin(theta) * np.sin(azimuth),
                np.full(5, np.cos(theta)),
            ],
            axis=1,
        )
        return inequalities.KcbsConfiguration(directions, np.array([0.0, 0.0, 1.0]))

    monkeypatch.setattr(inequalities, "kcbs_build_pentagram", tampered)
    monkeypatch.setattr(
        verify,
        "CORE_CHECKS",
        tuple(entry for entry in verify.CORE_CHECKS if entry[1] == "kcbs-pentagram"),
    )
    results = verify.run_core_checks()
    assert len(results) == 1
    kcbs_result = results[0]
    assert not kcbs_result.passed
    assert "not orthogonal" in kcbs_result.measured["error"]


def test_report_renders_all_criteria():
    results = [verify.CheckResult(c, name, *fn()) for c, name, fn in verify.CORE_CHECKS if c in (1, 7, 10)]
    report = verify.render_report(results, seed=1)
    assert report.endswith("\n")
    assert '"criterion": 1' in report
    assert '"criterion": 7' in report
    assert '"all_passed": true' in report
    # rendering is pure: same inputs, same bytes
    assert report == verify.render_report(results, seed=1)


def test_check_lines_are_one_per_criterion():
    criterion, name, check = verify.CORE_CHECKS[0]
    line = verify.CheckResult(criterion, name, *check()).line()
    assert line.startswith("criterion 01 PASS")
    assert "expected" in line


def test_leggett_check_is_the_same_for_any_pool_size(monkeypatch):
    measured = {}
    for workers in (1, 2):
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks, workers=workers: min(tasks, workers))
        measured[workers] = verify.check_leggett_model(7)[2]
    assert measured[1] == measured[2]


def test_pool_size_is_one_thread_per_cpu_at_most_one_per_scenario(monkeypatch):
    # only the size is computed; no thread is started
    for cpus, expected in ((4096, 97), (2, 2), (1, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert hvmodels.pool_size(97) == expected


def random_draws(seed, trials):
    """The states and settings ``_random_correlator_batch`` draws, in its order."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(trials, 4)) + 1j * rng.normal(size=(trials, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    settings_a = rng.normal(size=(trials, 2, 3))
    settings_a /= np.linalg.norm(settings_a, axis=2, keepdims=True)
    settings_b = rng.normal(size=(trials, 2, 3))
    settings_b /= np.linalg.norm(settings_b, axis=2, keepdims=True)
    return psi, settings_a, settings_b


def joint_operator_oracle(seed, trials):
    """Correlator tables from the full (n, 2, 2, 4, 4) joint-operator tensor."""
    psi, settings_a, settings_b = random_draws(seed, trials)
    ops_a = np.einsum("nik,kuv->niuv", settings_a, qcore.PAULIS)
    ops_b = np.einsum("njk,kuv->njuv", settings_b, qcore.PAULIS)
    joint = np.einsum("niuv,njwx->nijuwvx", ops_a, ops_b).reshape(trials, 2, 2, 4, 4)
    return np.real(np.einsum("np,nijpq,nq->nij", psi.conj(), joint, psi))


class TestCorrelatorBatch:
    @pytest.mark.parametrize("trials", [1, 7, 10_000])
    @pytest.mark.parametrize("seed", [2026, 2027, 17, 18, 99, 100])
    def test_matches_joint_operator_oracle(self, seed, trials):
        e = verify._random_correlator_batch(seed, trials)
        assert e.shape == (trials, 2, 2)
        np.testing.assert_allclose(e, joint_operator_oracle(seed, trials), rtol=0.0, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_each_table_is_the_born_rule_correlation(self, seed, trials):
        e = verify._random_correlator_batch(seed, trials)
        for psi, pair_a, pair_b, table in zip(*random_draws(seed, trials), e):
            state = qcore.StateVector((2, 2), psi)
            for i, a in enumerate(pair_a):
                for j, b in enumerate(pair_b):
                    expected = inequalities.setting_correlation(
                        state, qcore.MeasurementSetting(a), qcore.MeasurementSetting(b)
                    )
                    assert abs(table[i, j] - expected) <= 1e-14

    def test_peak_memory_stays_small(self):
        # the joint-operator tensor alone is 10.2 MB at 1e4 trials
        tracemalloc.start()
        try:
            verify._random_correlator_batch(2026, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 1024 * 1024
