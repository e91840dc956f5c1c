"""Verifier behavior: fault injection, report rendering, failure surfacing."""

import os

import numpy as np

from qfoundry import hvmodels, inequalities, verify


def test_tampered_kcbs_state_fails_with_reported_delta(monkeypatch):
    # same pentagram directions, probe state knocked off the symmetry axis:
    # the check must fail and carry the measured deviation
    genuine = inequalities.kcbs_build_pentagram()

    def tampered():
        return inequalities.KcbsConfiguration(genuine.directions, np.array([1.0, 0.0, 0.0]))

    monkeypatch.setattr(inequalities, "kcbs_build_pentagram", tampered)
    result = verify.check_kcbs()
    assert not result.passed
    assert result.measured["value_error"] > 0.1


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
    results = [verify.check_lhv_bound(), verify.check_kcbs(), verify.check_hom()]
    report = verify.render_report(results, seed=1)
    assert report.endswith("\n")
    assert '"criterion": 1' in report
    assert '"criterion": 7' in report
    assert '"all_passed": true' in report
    # rendering is pure: same inputs, same bytes
    assert report == verify.render_report(results, seed=1)


def test_check_lines_are_one_per_criterion():
    result = verify.check_lhv_bound()
    line = result.line()
    assert line.startswith("criterion 01 PASS")
    assert "expected" in line


def test_leggett_check_is_the_same_for_any_pool_size(monkeypatch):
    measured = {}
    for workers in (1, 2):
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks, workers=workers: min(tasks, workers))
        measured[workers] = verify.check_leggett_model(7).measured
    assert measured[1] == measured[2]


def test_pool_size_is_one_thread_per_cpu_at_most_one_per_scenario(monkeypatch):
    # only the size is computed; no thread is started
    for cpus, expected in ((4096, 97), (2, 2), (1, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        assert hvmodels.pool_size(97) == expected
