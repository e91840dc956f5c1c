"""Hidden-variable models: half-plane rule, LHV table, crypto-nonlocal model."""

import inspect
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import random_setting

from qfoundry import hvmodels, verify
from qfoundry.hvmodels import (
    LOCAL_HV_ROWS,
    LeggettModelParams,
    LocalHVTable,
    ModelInconsistentError,
    fibonacci_sphere,
    leggett_expectations,
    leggett_outcomes,
    lhv_minimum_same_probability,
    lhv_same_probability,
    poincare_outcome,
    row_same_fraction,
)
from qfoundry.qcore import MeasurementSetting


def in_plane_params(theta_a=0.0, theta_b=0.0):
    """u = v = z-hat with both analyzers in the perpendicular plane."""
    z = MeasurementSetting([0.0, 0.0, 1.0])
    a = MeasurementSetting([np.cos(theta_a), np.sin(theta_a), 0.0])
    b = MeasurementSetting([np.cos(theta_b), np.sin(theta_b), 0.0])
    return LeggettModelParams(z, z, a, b)


class TestPoincareLambda:
    """The half-plane rule poincare_outcome at y-hat, as a function of its hidden variable: azimuth 2 pi lambda."""

    X = MeasurementSetting([1.0, 0.0, 0.0])
    Y = MeasurementSetting([0.0, 1.0, 0.0])

    def test_upper_half_plane(self):
        assert poincare_outcome(self.Y, 0.25) == +1

    def test_lower_half_plane(self):
        assert poincare_outcome(self.Y, 0.75) == -1

    def test_boundaries_belong_to_first_case(self):
        assert poincare_outcome(self.Y, 0.0) == +1
        assert poincare_outcome(self.Y, 0.5) == +1

    def test_quarter_turns_at_x_and_y(self):
        # w perpendicular to the setting is a tie and gives +1 (x-hat at 1/4 and 3/4,
        # y-hat at 0, 1/2 and 1); lambda = 1 is the azimuth of lambda = 0
        quarters = [0.0, 0.25, 0.5, 0.75, 1.0]
        for setting, expected in ((self.X, [1, 1, -1, 1, 1]), (self.Y, [1, 1, 1, -1, 1])):
            assert poincare_outcome(setting, quarters).tolist() == expected
            assert [int(poincare_outcome(setting, lam)) for lam in quarters] == expected

    def test_domain_check(self):
        # the lambda check of leggett_outcomes, NaN included
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                poincare_outcome(self.Y, bad)


class TestLocalHVTable:
    def test_rows_enumerate_all_assignments(self):
        assert len(set(LOCAL_HV_ROWS)) == 8
        assert all(set(row) <= {-1, +1} for row in LOCAL_HV_ROWS)
        # "pass everywhere" first, the last setting varying fastest
        assert LOCAL_HV_ROWS == (
            (+1, +1, +1), (+1, +1, -1), (+1, -1, +1), (+1, -1, -1),
            (-1, +1, +1), (-1, +1, -1), (-1, -1, +1), (-1, -1, -1),
        )

    def test_row_fractions_match_enumeration(self):
        # rows 1 and 8 (all equal) agree on every pair; the rest on exactly one
        expected = [1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3),
                    Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 1]
        assert [row_same_fraction(r) for r in LOCAL_HV_ROWS] == expected

    def test_uniform_weights_give_half(self):
        assert abs(lhv_same_probability(LocalHVTable.uniform()) - 0.5) < 1e-15

    def test_vertex_rows(self):
        vertices = np.eye(len(LOCAL_HV_ROWS))
        assert abs(lhv_same_probability(LocalHVTable(vertices[1])) - 1.0 / 3.0) < 1e-15
        assert abs(lhv_same_probability(LocalHVTable(vertices[0])) - 1.0) < 1e-15

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LocalHVTable(np.full(8, 0.25))
        with pytest.raises(ValueError):
            LocalHVTable(np.array([1.5, -0.5, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="expected 8 weights, got 4"):
            LocalHVTable(np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_must_be_finite(self, bad):
        # NaN passes both the sign and the sum test, so it needs its own check
        with pytest.raises(ValueError, match="non-finite weights"):
            LocalHVTable(np.array([bad, 0, 0, 0, 0, 0, 0, 1.0]))

    def test_minimum_is_exactly_one_third(self):
        assert lhv_minimum_same_probability() == Fraction(1, 3)

    def test_affine_in_weights_and_vertex_minimum(self):
        rng = np.random.default_rng(41)
        fractions = np.array([float(row_same_fraction(r)) for r in LOCAL_HV_ROWS])
        vertex_min = float(lhv_minimum_same_probability())
        for _ in range(200):
            w1 = rng.dirichlet(np.ones(8))
            w2 = rng.dirichlet(np.ones(8))
            t = rng.random()
            mixed = LocalHVTable(t * w1 + (1.0 - t) * w2)
            affine = t * lhv_same_probability(LocalHVTable(w1)) + (1.0 - t) * lhv_same_probability(
                LocalHVTable(w2)
            )
            assert abs(lhv_same_probability(mixed) - affine) < 1e-12
            assert lhv_same_probability(mixed) >= vertex_min - 1e-12
            assert abs(lhv_same_probability(LocalHVTable(w1)) - w1 @ fractions) < 1e-15


class TestLeggettOutcomes:
    def test_aligned_initial_polarization(self):
        # u = a makes lambda_A = 1; keep b orthogonal to both a and v so the
        # interval construction stays consistent
        z = MeasurementSetting([0.0, 0.0, 1.0])
        x = MeasurementSetting([1.0, 0.0, 0.0])
        y = MeasurementSetting([0.0, 1.0, 0.0])
        params = LeggettModelParams(z, y, z, x)
        for lam in (0.0, 0.3, 0.9, 0.999):
            assert leggett_outcomes(params, lam)[0] == +1

    def test_orthogonal_initial_polarization(self):
        params = in_plane_params(0.0, np.pi / 2.0)  # u perpendicular to a
        assert leggett_outcomes(params, 0.3)[0] == +1
        assert leggett_outcomes(params, 0.7)[0] == -1

    def test_perpendicular_plane_always_consistent(self):
        # the constructor refuses inconsistent settings, so building each set is the check
        rng = np.random.default_rng(43)
        for _ in range(300):
            lambda_a, x1, x2 = hvmodels.leggett_thresholds(in_plane_params(*rng.uniform(0.0, 2.0 * np.pi, size=2)))
            assert 0.0 <= x1 <= lambda_a <= x2 <= 1.0

    def test_inconsistent_settings_raise(self):
        z = MeasurementSetting([0.0, 0.0, 1.0])
        x = MeasurementSetting([1.0, 0.0, 0.0])
        message = (
            r"^settings violate the model consistency condition \|a\.b \+- u\.a\| <= 1 -\+ v\.b "
            r"\(u\.a = 1, v\.b = 1, a\.b = 1\)$"
        )
        with pytest.raises(ModelInconsistentError, match=message):
            LeggettModelParams(z, z, z, z)  # x2 = 3/2 > 1
        # the second branch alone: |a.b - u.a| = 1 > 1 + v.b = 0
        with pytest.raises(ModelInconsistentError, match="a.b = 0"):
            LeggettModelParams(z, x, z, MeasurementSetting([-1.0, 0.0, 0.0]))

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            leggett_outcomes(in_plane_params(), 1.5)
        # one bad value anywhere in an array refuses the whole array
        for bad in (np.nan, -1e-300, 1.0 + 1e-15, np.inf):
            lambdas = np.linspace(0.0, 1.0, 9)
            lambdas[4] = bad
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                leggett_outcomes(in_plane_params(), lambdas)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 2.0 * np.pi),
        st.floats(0.0, 2.0 * np.pi),
        st.floats(0.0, np.pi),
        st.floats(0.0, np.pi),
        st.integers(1, 4096),
    )
    def test_midpoint_grid_means_match_analytic(self, theta_a, theta_b, tilt_u, tilt_v, n):
        # analyzers in the xy-plane, u tilted towards x and v towards y; each
        # threshold moves a midpoint-grid mean by at most 2/n, and AB changes at three
        try:
            params = LeggettModelParams(
                MeasurementSetting([np.sin(tilt_u), 0.0, np.cos(tilt_u)]),
                MeasurementSetting([0.0, np.sin(tilt_v), np.cos(tilt_v)]),
                MeasurementSetting([np.cos(theta_a), np.sin(theta_a), 0.0]),
                MeasurementSetting([np.cos(theta_b), np.sin(theta_b), 0.0]),
            )
        except ModelInconsistentError:
            assume(False)
        analytic = leggett_expectations(params, method="analytic")
        a_out, b_out = leggett_outcomes(params, (np.arange(n) + 0.5) / n)
        assert abs(a_out.mean() - analytic.mean_a) <= 8.0 / n
        assert abs(b_out.mean() - analytic.mean_b) <= 8.0 / n
        assert abs((a_out * b_out).mean() - analytic.mean_ab) <= 8.0 / n

    def test_tie_break_closed_intervals(self):
        params = in_plane_params(0.0, np.pi / 2.0)
        lambda_a, x1, x2 = hvmodels.leggett_thresholds(params)
        assert leggett_outcomes(params, lambda_a)[0] == +1
        assert leggett_outcomes(params, x1)[1] == +1
        assert leggett_outcomes(params, x2)[1] == +1


class TestLeggettExpectations:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"method": "exact"}, "unknown method 'exact'"),
            ({"method": "monte-carlo", "n_samples": 0}, "n_samples must be positive"),
            ({"method": "monte-carlo", "n_samples": 10, "shards": 0}, "shards must be positive"),
        ],
        ids=["method", "n-samples", "shards"],
    )
    def test_refuses_a_bad_argument(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            leggett_expectations(in_plane_params(), **kwargs)

    def test_perfectly_aligned_analyzers(self):
        result = leggett_expectations(in_plane_params(0.3, 0.3))
        assert abs(result.mean_ab + 1.0) < 1e-12

    def test_orthogonal_analyzers(self):
        result = leggett_expectations(in_plane_params(0.0, np.pi / 2.0))
        assert abs(result.mean_ab) < 1e-12

    def test_malus_law_on_random_valid_configurations(self):
        # free u.a via orthogonal b and v; model must return u.a exactly
        rng = np.random.default_rng(47)
        for _ in range(1000):
            u = random_setting(rng)
            a = random_setting(rng)
            helper = random_setting(rng).direction
            b_raw = np.cross(a.direction, helper)
            if np.linalg.norm(b_raw) < 1e-6:
                continue
            b = MeasurementSetting.normalized(b_raw)
            v = MeasurementSetting.normalized(np.cross(b.direction, helper))
            params = LeggettModelParams(u, v, a, b)
            result = leggett_expectations(params)
            assert abs(result.mean_a - params.ua) < 1e-12
            assert abs(result.mean_b - params.vb) < 1e-12
            assert abs(result.mean_ab + params.ab) < 1e-12

    def test_monte_carlo_matches_analytic_within_errors(self):
        params = in_plane_params(0.0, 1.1)
        analytic = leggett_expectations(params)
        sampled = leggett_expectations(params, method="monte-carlo", n_samples=1_000_000, seed=99)
        for mean, ref, err in (
            (sampled.mean_a, analytic.mean_a, sampled.stderr_a),
            (sampled.mean_b, analytic.mean_b, sampled.stderr_b),
            (sampled.mean_ab, analytic.mean_ab, sampled.stderr_ab),
        ):
            assert abs(mean - ref) < 5.0 * err + 1e-12

    def test_half_overlap_malus_case(self):
        # u.a = 0.5 exactly; analytic mean is the overlap, sampler agrees
        # within three standard errors at 1e6 samples
        u = MeasurementSetting([0.5, 0.0, np.sqrt(0.75)])
        a = MeasurementSetting([1.0, 0.0, 0.0])
        b = MeasurementSetting([0.0, 1.0, 0.0])
        v = MeasurementSetting([0.0, 0.0, 1.0])
        params = LeggettModelParams(u, v, a, b)
        analytic = leggett_expectations(params)
        assert abs(analytic.mean_a - 0.5) < 1e-12
        sampled = leggett_expectations(params, method="monte-carlo", n_samples=1_000_000, seed=12)
        assert abs(sampled.mean_a - 0.5) < 3.0 * sampled.stderr_a

    def test_monte_carlo_rate_scales_with_samples(self):
        params = in_plane_params(0.0, 0.8)
        analytic = leggett_expectations(params).mean_ab
        for n in (10_000, 1_000_000):
            sampled = leggett_expectations(params, method="monte-carlo", n_samples=n, seed=7)
            assert abs(sampled.mean_ab - analytic) < 5.0 * sampled.stderr_ab + 1e-12
            assert abs(sampled.stderr_ab - np.sqrt((1.0 - analytic**2) / n)) < 1e-3

    def test_monte_carlo_deterministic_for_fixed_seed(self):
        params = in_plane_params(0.2, 1.0)
        first = leggett_expectations(params, method="monte-carlo", n_samples=50_000, seed=5)
        second = leggett_expectations(params, method="monte-carlo", n_samples=50_000, seed=5)
        assert first == second

    def test_sharded_sampling_deterministic_and_sane(self):
        params = in_plane_params(0.2, 1.0)
        analytic = leggett_expectations(params)
        a = leggett_expectations(params, method="monte-carlo", n_samples=200_001, seed=5, shards=4)
        b = leggett_expectations(params, method="monte-carlo", n_samples=200_001, seed=5, shards=4)
        assert a == b
        assert abs(a.mean_ab - analytic.mean_ab) < 5.0 * a.stderr_ab + 1e-12

    @pytest.mark.parametrize("index", [1, 20, 39, 58, 77])
    def test_monte_carlo_law_over_seeds(self, index):
        # each outcome is a +-1 variable, so a seed's sample mean of n draws has
        # mean m and variance (1 - m^2)/n whatever random stream realises it
        params = verify.leggett_grid_scenarios(97)[index]
        analytic = leggett_expectations(params)
        n, seeds = 20_000, range(400)
        means = np.array([
            leggett_expectations(params, method="monte-carlo", n_samples=n, seed=seed)[:3] for seed in seeds
        ])
        exact = np.array(analytic[:3])
        variance = (1.0 - exact**2) / n
        z = (means.mean(axis=0) - exact) / np.sqrt(variance / len(seeds))
        assert np.all(np.abs(z) < 5.0)
        ratio = means.var(axis=0, ddof=1) / variance
        assert np.all((0.75 <= ratio) & (ratio <= 1.25))


def drawn_lambdas(rng, count):
    """The sampler's ``count`` hidden variables k / 2^32: both 32-bit halves of each raw word, low half first."""
    words = rng.bit_generator.random_raw((count + 1) // 2)
    k = np.stack([words & 0xFFFF_FFFF, words >> 32], axis=1).reshape(-1)[:count]
    return k * 2.0**-32


def float_reference_sampler(params, n_samples, seed, shards):
    """Sample means of the model's rule, ``hvmodels.leggett_outcomes``, on each shard's whole draw at once."""
    if shards == 1:
        generators = [np.random.default_rng(seed)]
        counts = [n_samples]
    else:
        generators = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(shards)]
        base, extra = divmod(n_samples, shards)
        counts = [base + (1 if i < extra else 0) for i in range(shards)]
    sum_a = sum_b = sum_ab = 0
    for rng, count in zip(generators, counts):
        a_out, b_out = hvmodels.leggett_outcomes(params, drawn_lambdas(rng, count))
        sum_a += int(a_out.sum())
        sum_b += int(b_out.sum())
        sum_ab += int((a_out * b_out).sum())
    means = (sum_a / n_samples, sum_b / n_samples, sum_ab / n_samples)
    stderrs = tuple(float(np.sqrt(max(0.0, 1.0 - m * m) / n_samples)) for m in means)
    return means, stderrs


class TestChunkedSampler:
    CHUNK = hvmodels.SAMPLE_CHUNK
    HALF = CHUNK // 2
    # chunk boundaries, the same offsets around half a chunk (a partial last
    # chunk) and around 2^20, a whole number of chunks
    SIZES = sorted(
        {1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7}
        | {HALF - 1, HALF, HALF + 1, 3 * HALF + 7}
        | {2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7}
    )

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("n_samples", SIZES)
    def test_identical_to_float_reference(self, n_samples, shards):
        params = in_plane_params(0.2, 1.0)
        result = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=11, shards=shards)
        means, stderrs = float_reference_sampler(params, n_samples, 11, shards)
        assert (result.mean_a, result.mean_b, result.mean_ab) == means
        assert (result.stderr_a, result.stderr_b, result.stderr_ab) == stderrs

    def test_more_shards_than_samples(self):
        params = in_plane_params(0.0, 0.7)
        result = leggett_expectations(params, method="monte-carlo", n_samples=2, seed=4, shards=3)
        means, _ = float_reference_sampler(params, 2, 4, 3)
        assert (result.mean_a, result.mean_b, result.mean_ab) == means

    def test_memory_bounded_by_one_chunk(self):
        # drawing 8 * 2^20 lambdas at once would take 64 MB for the draw alone;
        # one chunk's 2^16 raw words and its mask take 0.63 MB, and the peak
        # measured 0.63 MB warm and 1.25 MB as the first draw of a fresh process
        params = in_plane_params(0.2, 1.0)
        tracemalloc.start()
        try:
            leggett_expectations(params, method="monte-carlo", n_samples=8 * 2**20, seed=3, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    X = MeasurementSetting([1.0, 0.0, 0.0])
    Y = MeasurementSetting([0.0, 1.0, 0.0])
    Z = MeasurementSetting([0.0, 0.0, 1.0])
    MINUS_X = MeasurementSetting([-1.0, 0.0, 0.0])
    MINUS_Y = MeasurementSetting([0.0, -1.0, 0.0])

    # (u, v, a, b) at the edges of the consistent region, with the exact
    # thresholds (lambda_A, x1, x2) each one must produce
    BOUNDARY_SETTINGS = {
        "u.a=+1": ((Z, Y, Z, X), (1.0, 0.5, 1.0)),
        "u.a=-1": ((MINUS_X, Y, X, Z), (0.0, 0.0, 0.5)),
        "v.b=+1": ((Y, Z, X, Z), (0.5, 0.0, 1.0)),
        "v.b=-1": ((Y, MINUS_Y, X, Y), (0.5, 0.5, 0.5)),
        "x1=lambda_A": ((Z, Z, X, X), (0.5, 0.5, 1.0)),
        "lambda_A=x2": ((Z, Z, X, MINUS_X), (0.5, 0.0, 0.5)),
    }

    @pytest.mark.parametrize("case", sorted(BOUNDARY_SETTINGS))
    def test_boundary_settings_identical_to_float_reference(self, case):
        settings, thresholds = self.BOUNDARY_SETTINGS[case]
        params = LeggettModelParams(*settings)
        assert hvmodels.leggett_thresholds(params) == thresholds
        n_samples = self.CHUNK + 1
        result = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=13)
        means, stderrs = float_reference_sampler(params, n_samples, 13, 1)
        assert (result.mean_a, result.mean_b, result.mean_ab) == means
        assert (result.stderr_a, result.stderr_b, result.stderr_ab) == stderrs

    @pytest.mark.parametrize(
        "thresholds",
        [(0.3, 0.4, 0.6), (0.7, 0.4, 0.6), (0.5, 0.6, 0.4), (0.2, 0.6, 0.4), (0.8, 0.6, 0.4)],
    )
    def test_counts_need_no_threshold_order(self, monkeypatch, thresholds):
        # the count algebra must not assume x1 <= lambda_A <= x2; consistency
        # allows 1e-12 of slack, and these orders exercise it grossly
        monkeypatch.setattr(hvmodels, "leggett_thresholds", lambda params: thresholds)
        params = in_plane_params(0.2, 1.0)
        n_samples = self.CHUNK + 1
        result = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=17, shards=2)
        means, _ = float_reference_sampler(params, n_samples, 17, 2)
        assert (result.mean_a, result.mean_b, result.mean_ab) == means

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_any_thread_count_identical_to_float_reference(self, monkeypatch, shards, threads):
        # shards run on parallel_map threads; the summed integer counts must
        # not depend on how many threads there are or which finishes first
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: threads)
        params = in_plane_params(0.2, 1.0)
        n_samples = 3 * self.CHUNK + 7
        result = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=23, shards=shards)
        means, stderrs = float_reference_sampler(params, n_samples, 23, shards)
        assert (result.mean_a, result.mean_b, result.mean_ab) == means
        assert (result.stderr_a, result.stderr_b, result.stderr_ab) == stderrs

    @pytest.mark.parametrize("at", ["lambda_A", "x1", "x2"])
    def test_a_threshold_on_a_drawn_lambda_is_inside_its_interval(self, monkeypatch, at):
        # a threshold on the 2^-32 grid ties with a draw: put it exactly on a
        # value the stream draws, the high half of a full chunk's last word and
        # the low half of an odd chunk's last word
        n_samples = self.CHUNK + 1
        lambdas = drawn_lambdas(np.random.default_rng(19), n_samples)
        params = in_plane_params(0.2, 1.0)
        for drawn in (float(lambdas[self.CHUNK - 1]), float(lambdas[self.CHUNK])):
            thresholds = {"lambda_A": (drawn, 0.2, 0.8), "x1": (0.5, drawn, 0.9), "x2": (0.5, 0.1, drawn)}[at]
            monkeypatch.setattr(hvmodels, "leggett_thresholds", lambda params: thresholds)
            result = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=19)
            means, _ = float_reference_sampler(params, n_samples, 19, 1)
            assert (result.mean_a, result.mean_b, result.mean_ab) == means

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from(["below", "on", "above"]),
        st.lists(st.integers(0, 2**32 - 1), max_size=40),
        st.sampled_from([None, 0.0, 1.0, -1e-12, 1.0 + 1e-12]),
    )
    def test_integer_cutoffs_count_like_float_comparisons(self, k0, step, ks, fixed):
        # thresholds on the grid and one float64 step either side, the ends of
        # [0, 1], and the 1e-12 of slack consistency allows outside them
        grid = k0 * 2.0**-32
        neighbours = {"below": np.nextafter(grid, -1.0), "on": grid, "above": np.nextafter(grid, 2.0)}
        t = neighbours[step] if fixed is None else fixed
        near = (min(max(k0 + d, 0), 2**32 - 1) for d in (-1, 0, 1))
        k = np.array(sorted({0, 2**32 - 1, *ks, *near}), dtype=np.uint32)
        lam = k * 2.0**-32
        hits = np.empty(k.size, dtype=bool)
        plus_a, below_x1, upto_x2 = (hvmodels._count_below(k, c, hits) for c in hvmodels._cutoffs(t, t, t))
        assert plus_a == upto_x2 == int(np.count_nonzero(lam <= t))
        assert below_x1 == int(np.count_nonzero(lam < t))

    @pytest.mark.parametrize("n_samples", [1, HALF - 1, 3 * HALF + 7, CHUNK - 1, 3 * CHUNK + 7])
    def test_two_lambdas_per_raw_word(self, n_samples):
        # the sampler uses ceil(n / 2) raw words and nothing else of the stream
        rng = np.random.default_rng(29)
        hvmodels._shard_counts(rng, n_samples, 0.5, 0.25, 0.75)
        expected = np.random.default_rng(29)
        expected.bit_generator.advance((n_samples + 1) // 2)
        assert rng.bit_generator.state == expected.bit_generator.state


class TestDerivedShards:
    @pytest.mark.parametrize("n_samples", [2**20, 2**20 + 1, 3_000_001])
    def test_sample_count_fixes_the_substreams(self, n_samples):
        # one substream per SHARD_SAMPLES = 2^20 draws: 1, 2 and 3 of them here
        params = in_plane_params(0.2, 1.0)
        derived = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=31)
        shards = -(-n_samples // 2**20)
        explicit = leggett_expectations(params, method="monte-carlo", n_samples=n_samples, seed=31, shards=shards)
        assert derived == explicit

    def test_substream_count_is_capped(self, monkeypatch):
        # with one substream per sample, 300 samples would spawn 300 generators
        monkeypatch.setattr(hvmodels, "SHARD_SAMPLES", 1)
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: min(tasks, 2))
        spawned = []
        parallel_map = hvmodels.parallel_map

        def recording_map(fn, generators, counts):
            spawned.append(len(generators))
            return parallel_map(fn, generators, counts)

        monkeypatch.setattr(hvmodels, "parallel_map", recording_map)
        params = in_plane_params(0.2, 1.0)
        derived = leggett_expectations(params, method="monte-carlo", n_samples=300, seed=31)
        explicit = leggett_expectations(params, method="monte-carlo", n_samples=300, seed=31, shards=hvmodels.MAX_SHARDS)
        assert spawned == [hvmodels.MAX_SHARDS, hvmodels.MAX_SHARDS]
        assert derived == explicit


class TestParallelMap:
    def test_results_keep_input_order_with_concurrent_workers(self, monkeypatch):
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: 3)
        # the first three jobs can only pass the barrier together, which
        # needs three workers running at once; later jobs finish first
        barrier = threading.Barrier(3)

        def job(index, value):
            if index < 3:
                barrier.wait(timeout=10)
            else:
                threading.Event().wait(0.001 * (8 - index))
            return value, threading.get_ident()

        results = hvmodels.parallel_map(job, range(8), "abcdefgh")
        assert [value for value, _ in results] == list("abcdefgh")
        assert len({ident for _, ident in results[:3]}) == 3
        assert threading.get_ident() in {ident for _, ident in results}

    def test_every_job_runs_once_under_frequent_thread_switches(self, monkeypatch):
        # more workers than cores, switching every microsecond: a lost or
        # repeated job index would show up as a missing or doubled run
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: 8)
        runs = [0] * 2000
        lock = threading.Lock()

        def job(index):
            with lock:
                runs[index] += 1
            return index

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = hvmodels.parallel_map(job, range(len(runs)))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(len(runs)))
        assert runs == [1] * len(runs)

    def test_zips_iterables_and_handles_no_jobs(self):
        assert hvmodels.parallel_map(pow, [2, 3, 4], [5, 2, 1]) == [32, 9, 4]
        assert hvmodels.parallel_map(pow, [], []) == []

    def test_reraises_the_first_failed_job_after_joining(self, monkeypatch):
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: 2)
        threads_before = threading.active_count()

        def job(index):
            if index in (2, 4):
                raise ValueError(f"job {index} failed")
            return index

        with pytest.raises(ValueError, match="job 2 failed"):
            hvmodels.parallel_map(job, range(6))
        assert threading.active_count() == threads_before

    def test_worker_w_runs_jobs_w_mod_pool_size_and_stops_at_its_failure(self, monkeypatch):
        monkeypatch.setattr(hvmodels, "pool_size", lambda tasks: 3)
        # jobs 0, 1 and 2 pass the barrier together, so the three workers are
        # alive at once and their thread idents are distinct
        barrier = threading.Barrier(3)

        def job(index):
            if index < 3:
                barrier.wait(timeout=10)
            return threading.get_ident()

        threads_before = threading.active_count()
        idents = hvmodels.parallel_map(job, range(7))
        assert threading.active_count() == threads_before
        assert idents[0] == threading.get_ident()  # the calling thread is worker 0
        assert len(set(idents[:3])) == 3
        assert idents == [idents[i % 3] for i in range(7)]

        ran = []

        def failing_job(index):
            if index == 0:
                raise ValueError("job 0 failed")
            ran.append(index)  # list.append is atomic under the GIL
            return index

        with pytest.raises(ValueError, match="job 0 failed"):
            hvmodels.parallel_map(failing_job, range(7))
        # worker 0 stops at job 0, so its jobs 3 and 6 never run; workers 1 and 2 run all of theirs
        assert sorted(ran) == [1, 2, 4, 5]


class TestOutcomeRules:
    X = MeasurementSetting([1.0, 0.0, 0.0])
    Y = MeasurementSetting([0.0, 1.0, 0.0])
    Z = MeasurementSetting([0.0, 0.0, 1.0])

    def test_local_rule_ignores_remote_setting(self):
        # locality is structural: the local rule takes one setting and lambda
        assert list(inspect.signature(poincare_outcome).parameters) == ["setting", "lam"]

    def test_local_rule_reproduces_half_plane_assignment(self):
        lambdas = np.linspace(0.0, 0.9999, 500)
        # +1 on the closed upper half-plane: azimuth 2 pi lambda in [0, pi]
        expected = [+1 if lam <= 0.5 else -1 for lam in lambdas]
        assert poincare_outcome(self.Y, lambdas).tolist() == expected

    def test_rule_outcomes_are_binary(self):
        # +-1 integers of lambda's shape, for a scalar and for an array
        rng = np.random.default_rng(53)
        for lam in (rng.random(), rng.random((10, 100))):
            for _ in range(20):
                params = in_plane_params(*rng.uniform(0.0, 2.0 * np.pi, size=2))
                for outcomes in (poincare_outcome(random_setting(rng), lam), *leggett_outcomes(params, lam)):
                    assert outcomes.shape == np.shape(lam)
                    assert np.issubdtype(outcomes.dtype, np.integer)
                    assert set(np.unique(outcomes).tolist()) <= {-1, 1}

    def test_crypto_nonlocal_rule_never_sees_remote_outcome(self):
        # outcome independence is structural: the signature carries no
        # outcome argument at all
        assert list(inspect.signature(leggett_outcomes).parameters) == ["params", "lam"]

    def test_crypto_nonlocal_rule_depends_on_both_settings(self):
        lambdas = np.linspace(0.0, 1.0, 101)
        a_first, b_first = leggett_outcomes(LeggettModelParams(self.Z, self.Z, self.X, self.X), lambdas)
        a_second, b_second = leggett_outcomes(LeggettModelParams(self.Z, self.Z, self.X, self.Y), lambdas)
        _, b_third = leggett_outcomes(LeggettModelParams(self.Z, self.Z, self.Y, self.Y), lambdas)
        assert (b_first != b_second).any()  # B changes with b
        assert (b_second != b_third).any()  # and with the remote setting a
        assert (a_first == a_second).all()  # A = +1 on [0, lambda_A] whatever b is


def test_fibonacci_sphere_properties():
    points = fibonacci_sphere(97)
    assert points.shape == (97, 3)
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    # deterministic
    np.testing.assert_array_equal(points, fibonacci_sphere(97))
    with pytest.raises(ValueError, match="n must be positive"):
        fibonacci_sphere(0)
    # reasonable spread: no two points closer than ~ average spacing / 4
    gram = points @ points.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 0.999
