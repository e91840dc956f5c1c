"""Acceptance battery: one test per criterion, each printing a verdict line.

Runs every check from :mod:`qfoundry.verify` at its stated tolerance and
enforces the stated runtime budgets.  The determinism criterion re-runs the
whole battery and byte-compares the rendered reports, so the full session
executes the core checks twice by design.
"""

import time

import pytest

from qfoundry import verify

SEED = verify.DEFAULT_SEED

# stated runtime budgets in seconds; criteria without one are unbounded
RUNTIME_BUDGETS = {1: 1.0, 2: 1.0, 4: 5.0, 5: 10.0, 6: 5.0, 7: 1.0, 8: 5.0, 9: 2.0, 11: 10.0}


@pytest.fixture(scope="session")
def core_run():
    """Single timed execution of the eleven core checks."""
    results = {}
    for criterion, _name, fn in verify.CORE_CHECKS:
        start = time.perf_counter()
        result = fn(SEED)
        results[criterion] = (result, time.perf_counter() - start)
    return results


@pytest.mark.parametrize("criterion", [entry[0] for entry in verify.CORE_CHECKS])
def test_criterion(core_run, criterion):
    result, elapsed = core_run[criterion]
    print(result.line())
    assert result.passed, result.line()
    budget = RUNTIME_BUDGETS.get(criterion)
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {criterion} took {elapsed:.2f}s, budget {budget:.0f}s"
        )


def test_criterion_12_determinism(core_run):
    first = verify.render_report([core_run[c][0] for c, _, _ in verify.CORE_CHECKS], SEED)
    result = verify.check_determinism(SEED, first)
    print(result.line())
    assert result.passed, result.line()
