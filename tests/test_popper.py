"""Conditional and marginal uncertainties of the entangled Gaussian pair."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundry import cli, popper, verify
from qfoundry.popper import (
    MAX_GRID_POINTS,
    GaussianPairState,
    GridSpec,
    SlitCondition,
    UnderResolvedGridError,
    conditional_uncertainties,
    unconditioned_uncertainties,
)


def grid_marginal_oracle(state, n=512):
    """Marginal spreads of particle 2 computed by brute-force quadrature.

    Independent of the closed forms: builds |psi|^2 on a 2-d grid for the
    position variance and integrates |d psi / d x2|^2 (spectral derivative
    row by row) for the momentum variance of the reduced mixed state.
    """
    extent = 8.0 * max(state.sigma_plus, state.sigma_minus)
    dx = 2.0 * extent / n
    x = -extent + dx * np.arange(n)
    x1 = x[:, None]
    x2 = x[None, :]
    alpha, beta = state.exponent_coefficients()
    psi = state.normalization * np.exp(-alpha * (x1**2 + x2**2) - beta * x1 * x2)
    density = psi**2
    rho2 = density.sum(axis=0) * dx
    mean = (x * rho2).sum() * dx
    var_x = (x**2 * rho2).sum() * dx - mean**2
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    dpsi = np.fft.ifft(1j * k[None, :] * np.fft.fft(psi, axis=1), axis=1)
    var_p = float(np.sum(np.abs(dpsi) ** 2)) * dx * dx
    return math.sqrt(var_x), math.sqrt(var_p)


def dense_norm_drift_oracle(state, x, dx):
    """|discrete 2-d norm - 1| summed over the full N x N grid, 256 rows at a time."""
    alpha, beta = state.exponent_coefficients()
    weights = np.exp(-2.0 * alpha * x * x)
    total = 0.0
    for lo in range(0, x.size, 256):
        kernel = np.exp(-2.0 * beta * np.outer(x[lo : lo + 256], x))
        total += float(weights[lo : lo + 256] @ (kernel @ weights))
    norm = state.normalization**2 * total * dx * dx
    return abs(norm - 1.0)


def dense_conditional_oracle(state, slit, x, dx):
    """Normalized psi_2 from the dense exp(-beta x1 x2) kernel, 256 rows at a time."""
    alpha, beta = state.exponent_coefficients()
    envelope = np.exp(-alpha * x * x)
    row_weights = slit.amplitude_profile(x) * envelope
    psi2 = np.zeros(x.size)
    for lo in range(0, x.size, 256):
        kernel = np.exp(-beta * np.outer(x[lo : lo + 256], x))
        psi2 += row_weights[lo : lo + 256] @ kernel
    psi2 *= envelope * dx * state.normalization
    return psi2 / math.sqrt(float(np.sum(psi2 * psi2)) * dx)


def gaussian_slit_kappa(state, width):
    """psi_2 ~ exp(-kappa x^2) for a Gaussian slit, by completing the square (no grid)."""
    alpha, beta = state.exponent_coefficients()
    return alpha - beta**2 / (4.0 * (alpha + 1.0 / (4.0 * width * width)))


def traced_peak(fn, *args):
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestUnconditioned:
    def test_symmetric_pair_saturates(self):
        report = unconditioned_uncertainties(GaussianPairState(1.0, 1.0))
        assert abs(report.product - 0.5) < 1e-15

    def test_entangled_pair_exceeds_bound(self):
        # frozen pre-build oracle: (sp^2 + sm^2) / (4 sp sm) = 1.0625
        report = unconditioned_uncertainties(GaussianPairState(2.0, 0.5))
        assert abs(report.product - 1.0625) < 1e-15
        assert report.product > 0.5

    def test_scale_invariance_of_product(self):
        base = unconditioned_uncertainties(GaussianPairState(1.3, 0.4))
        scaled = unconditioned_uncertainties(GaussianPairState(3.9, 1.2))
        assert abs(base.product - scaled.product) < 1e-14

    @pytest.mark.parametrize("sp,sm", [(1.0, 1.0), (2.0, 0.5), (0.7, 1.4)])
    def test_matches_grid_quadrature_oracle(self, sp, sm):
        state = GaussianPairState(sp, sm)
        report = unconditioned_uncertainties(state)
        dx_oracle, dp_oracle = grid_marginal_oracle(state)
        assert abs(report.position_spread - dx_oracle) < 1e-6
        assert abs(report.momentum_spread - dp_oracle) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPairState(0.0, 1.0)
        with pytest.raises(ValueError):
            GaussianPairState(1.0, -0.3)


class TestConditional:
    def test_gaussian_slit_saturates_bound(self):
        state = GaussianPairState(1.0, 0.5)
        slit = SlitCondition(0.4)
        report = conditional_uncertainties(state, slit, GridSpec.auto(state, slit))
        assert abs(report.product - 0.5) < 1e-3
        assert report.product >= 0.5 - 1e-3

    def test_product_state_unchanged_by_conditioning(self):
        state = GaussianPairState(0.9, 0.9)
        slit = SlitCondition(0.3)
        conditional = conditional_uncertainties(state, slit, GridSpec.auto(state, slit))
        marginal = unconditioned_uncertainties(state)
        assert abs(conditional.position_spread - marginal.position_spread) < 1e-6
        assert abs(conditional.momentum_spread - marginal.momentum_spread) < 1e-6

    def test_narrowing_slit_localizes_but_keeps_product(self):
        state = GaussianPairState(1.0, 0.5)
        wide = SlitCondition(0.5)
        narrow = SlitCondition(0.05)
        wide_report = conditional_uncertainties(state, wide, GridSpec.auto(state, wide))
        narrow_report = conditional_uncertainties(state, narrow, GridSpec.auto(state, narrow))
        assert narrow_report.position_spread < wide_report.position_spread
        assert abs(wide_report.product - narrow_report.product) < 1e-3

    def test_off_center_slit_supported(self):
        state = GaussianPairState(1.0, 0.5)
        slit = SlitCondition(0.4, center=1.5)
        report = conditional_uncertainties(state, slit, GridSpec.auto(state, slit))
        assert abs(report.product - 0.5) < 1e-3

    def test_hard_slit_broadens_momentum_beyond_matched_gaussian(self):
        for sp, sm, width in [(1.0, 0.5, 1.0), (0.8, 1.6, 0.9), (1.3, 0.6, 1.5)]:
            state = GaussianPairState(sp, sm)
            hard = SlitCondition(width, profile="hard")
            # a Gaussian slit's intensity variance is width^2, a hard slit's width^2 / 12
            matched = SlitCondition(math.sqrt(width**2 / 12.0))
            assert abs(matched.width**2 - width**2 / 12.0) < 1e-15
            hard_report = conditional_uncertainties(state, hard, GridSpec.auto(state, hard))
            gauss_report = conditional_uncertainties(state, matched, GridSpec.auto(state, matched))
            assert hard_report.momentum_spread > gauss_report.momentum_spread
            assert hard_report.product >= 0.5 - 1e-3

    def test_grid_doubling_convergence(self):
        state = GaussianPairState(1.0, 0.6)
        slit = SlitCondition(0.4, center=0.3)
        grid = GridSpec.auto(state, slit, oversample=1.0)
        base = conditional_uncertainties(state, slit, grid)
        doubled = conditional_uncertainties(state, slit, GridSpec(grid.points * 2, grid.extent))
        assert abs(base.position_spread - doubled.position_spread) / doubled.position_spread < 1e-4
        assert abs(base.momentum_spread - doubled.momentum_spread) / doubled.momentum_spread < 1e-4

    def test_under_resolved_spacing_rejected(self):
        state = GaussianPairState(1.0, 0.5)
        slit = SlitCondition(0.05)
        with pytest.raises(UnderResolvedGridError, match="grid spacing"):
            conditional_uncertainties(state, slit, GridSpec(256))

    def test_norm_drift_detected_for_truncated_domain(self):
        # 16 points per scale but the domain cuts the wavefunction off
        state = GaussianPairState(1.0, 1.0)
        slit = SlitCondition(1.0)
        with pytest.raises(UnderResolvedGridError, match="norm drift"):
            conditional_uncertainties(state, slit, GridSpec(64, extent=2.0))

    def test_slit_must_overlap_grid(self):
        state = GaussianPairState(1.0, 1.0)
        slit = SlitCondition(0.5, center=50.0, profile="hard")
        with pytest.raises(ValueError):
            conditional_uncertainties(state, slit, GridSpec(2048, extent=8.0))

    def test_slit_validation(self):
        with pytest.raises(ValueError):
            SlitCondition(-1.0)
        with pytest.raises(ValueError):
            SlitCondition(1.0, profile="triangular")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_value_types_reject_non_finite(self, bad):
        for make in (
            lambda: GaussianPairState(bad, 1.0),
            lambda: GaussianPairState(1.0, bad),
            lambda: SlitCondition(bad),
            lambda: SlitCondition(0.5, bad),
            lambda: GridSpec(16, bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()

    @pytest.mark.parametrize("scale", [1e155, 1e300, 1e-155, 1e-300])
    def test_spreads_need_finite_squares_and_reciprocal_squares(self, scale):
        # 1 / (8 sigma**2) of 1e-200 raised ZeroDivisionError, which is not a ValueError
        for make in (lambda: GaussianPairState(scale, 1.0), lambda: GaussianPairState(1.0, scale)):
            with pytest.raises(ValueError, match="reciprocal squares"):
                make()

    @pytest.mark.parametrize("profile", ["gaussian", "hard"])
    @pytest.mark.parametrize("width", [1e155, 1e300])
    def test_slit_width_needs_a_finite_square(self, width, profile):
        # width**2 of 1e300 raised OverflowError, which is not a ValueError
        with pytest.raises(ValueError, match="finite square"):
            SlitCondition(width, profile=profile)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_value_types_accept_scales_with_finite_squares(self, scale):
        state = GaussianPairState(scale, scale)
        slit = SlitCondition(scale)
        assert all(math.isfinite(c) for c in state.exponent_coefficients())
        assert 0.0 < slit.width**2 < math.inf

    @pytest.mark.parametrize("sp,sm", [(20.0, 0.5), (0.5, 20.0)])
    def test_extreme_spread_ratio_matches_grid_free_kappa(self, sp, sm):
        # spread ratio 40: every factor of the FFT kernel is <= 1, so nothing
        # overflows; NaN spreads would fail the <= comparisons
        state = GaussianPairState(sp, sm)
        report = conditional_uncertainties(state, SlitCondition(0.5), GridSpec(16384))
        kappa = gaussian_slit_kappa(state, 0.5)
        dx_exact, dp_exact = 1.0 / (2.0 * math.sqrt(kappa)), math.sqrt(kappa)
        assert abs(report.position_spread - dx_exact) <= 1e-10 * dx_exact
        assert abs(report.momentum_spread - dp_exact) <= 1e-10 * dp_exact

    def test_more_extreme_ratios_end_in_a_clean_error(self):
        # ratios 1e6 and 4000: refused before any NaN can appear
        slit = SlitCondition(0.5)
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            GridSpec.auto(GaussianPairState(1e3, 1e-3), slit)
        with pytest.raises(UnderResolvedGridError, match="grid spacing"):
            conditional_uncertainties(GaussianPairState(200.0, 0.05), slit, GridSpec(65536))

    def test_gaussian_conditional_matches_closed_form_spreads(self):
        # with aperture amplitude exp(-(x1)^2/(4 w^2)) the conditional state
        # is Gaussian; its variance follows from completing the square, and
        # the grid computation must reproduce it
        sp, sm, w = 1.2, 0.4, 0.5
        state = GaussianPairState(sp, sm)
        slit = SlitCondition(w)
        alpha, beta = state.exponent_coefficients()
        tau = 1.0 / (4.0 * w * w)
        # psi2 ~ exp(-(alpha - beta^2/(4 (alpha + tau))) x2^2)
        coeff = alpha - beta**2 / (4.0 * (alpha + tau))
        expected_dx = math.sqrt(1.0 / (4.0 * coeff))
        report = conditional_uncertainties(state, slit, GridSpec.auto(state, slit))
        assert abs(report.position_spread - expected_dx) < 1e-6
        assert abs(report.product - 0.5) < 1e-6


# Agreement of two auto-grid solves of states that should give the same
# spreads.  An auto grid cuts the pair state at eight spreads, where the
# norm-drift check still allows 1e-6, so the spreads agree to that cut, not to
# rounding: over 4 500 uniform draws from the ranges below the worst relative
# change of a Gaussian slit's spreads with its centre was 5.2e-11 (an earlier
# measurement read 2.1e-12), and over 3 000 the lowest hard-slit product was
# 2.4e-14 under 1/2.  The bound leaves a factor of about 20.
AUTO_GRID_RTOL = 1e-9
spreads = st.floats(0.6, 1.7)


class TestConditionalProperties:
    @settings(max_examples=60, deadline=None)
    @given(spreads, spreads, st.floats(0.3, 2.0), st.floats(-2.0, 2.0))
    def test_gaussian_slit_spreads_do_not_depend_on_its_centre(self, sp, sm, width, center):
        # shifting a Gaussian aperture shifts the Gaussian conditional state without reshaping it
        state = GaussianPairState(sp, sm)
        centred, shifted = SlitCondition(width), SlitCondition(width, center)
        base = conditional_uncertainties(state, centred, GridSpec.auto(state, centred))
        moved = conditional_uncertainties(state, shifted, GridSpec.auto(state, shifted))
        assert abs(moved.position_spread - base.position_spread) <= AUTO_GRID_RTOL * base.position_spread
        assert abs(moved.momentum_spread - base.momentum_spread) <= AUTO_GRID_RTOL * base.momentum_spread

    @settings(max_examples=60, deadline=None)
    @given(spreads, spreads, st.floats(0.05, 4.0), st.floats(-2.0, 2.0))
    def test_hard_slit_respects_the_uncertainty_bound(self, sp, sm, width, center):
        # Heisenberg's bound holds for every state, so for the hard slit's
        # non-Gaussian conditional state too; a narrow slit nearly saturates it
        state = GaussianPairState(sp, sm)
        slit = SlitCondition(width, center, "hard")
        report = conditional_uncertainties(state, slit, GridSpec.auto(state, slit))
        assert report.product >= popper.UNCERTAINTY_BOUND * (1.0 - AUTO_GRID_RTOL)


def _verify_style_grids():
    """Base and doubled auto grids as the acceptance battery builds them, N <= 4096."""
    for sp, sm in [(0.6, 1.7), (1.7, 0.6), (1.0, 1.0), (1.3, 0.8), (0.8, 0.6)]:
        state = GaussianPairState(sp, sm)
        for width in (0.3, 0.8, 2.0):
            slit = SlitCondition(width)
            grid = GridSpec.auto(state, slit, oversample=1.0)
            for spec in (grid, GridSpec(grid.points * 2, grid.extent)):
                if spec.points <= 4096:
                    yield state, slit, spec


class TestNormDrift:
    def test_matches_dense_oracle_on_verify_grids(self):
        cases = list(_verify_style_grids())
        assert len({spec.points for _, _, spec in cases}) >= 3
        for state, slit, spec in cases:
            x, dx = spec.resolve(state, slit)
            assert abs(popper._grid_norm_drift(state, x, dx) - dense_norm_drift_oracle(state, x, dx)) < 1e-13

    def test_matches_dense_oracle_off_centre_slit(self):
        state = GaussianPairState(1.0, 0.6)
        slit = SlitCondition(0.4, center=1.5)
        x, dx = GridSpec.auto(state, slit).resolve(state, slit)
        assert abs(popper._grid_norm_drift(state, x, dx) - dense_norm_drift_oracle(state, x, dx)) < 1e-13

    def test_matches_dense_oracle_on_truncated_domain(self):
        state = GaussianPairState(1.0, 1.0)
        slit = SlitCondition(1.0)
        x, dx = GridSpec(64, extent=2.0).resolve(state, slit)
        drift = popper._grid_norm_drift(state, x, dx)
        assert abs(drift - dense_norm_drift_oracle(state, x, dx)) < 1e-13
        assert drift > 0.08

    def test_memory_is_linear_in_grid_points(self):
        # one row block of the dense kernel alone would take 32 MB here
        state = GaussianPairState(1.0, 0.5)
        x, dx = GridSpec(8192, extent=8.0).resolve(state, SlitCondition(1.0))
        tracemalloc.start()
        try:
            popper._grid_norm_drift(state, x, dx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


def _kernel_cases():
    """beta < 0, > 0 and = 0; Gaussian and hard slits; centres 0 and 0.7; auto and doubled grids."""
    for sp, sm in [(1.0, 0.5), (0.5, 1.0), (0.8, 0.8)]:
        state = GaussianPairState(sp, sm)
        for width, profile in [(0.4, "gaussian"), (0.9, "hard")]:
            for center in (0.0, 0.7):
                slit = SlitCondition(width, center, profile)
                grid = GridSpec.auto(state, slit)
                for spec in (grid, GridSpec(grid.points * 2, grid.extent)):
                    yield state, slit, spec


class TestConditionalKernel:
    def test_matches_dense_oracle(self):
        # the slits of _kernel_cases that share a grid go in one batch, each row against its oracle
        cases = list(_kernel_cases())
        assert {np.sign(state.exponent_coefficients()[1]) for state, _, _ in cases} == {-1.0, 0.0, 1.0}
        batches = {}
        for state, slit, spec in cases:
            batches.setdefault((state, spec), []).append(slit)
        assert max(len(slits) for slits in batches.values()) > 1
        for (state, spec), slits in batches.items():
            assert spec.points <= 8192
            x, dx = spec.resolve(state, slits[0])
            psis = popper._conditional_wavefunction(state, slits, x, dx)
            assert psis.shape == (len(slits), x.size)
            for slit, psi in zip(slits, psis):
                oracle = dense_conditional_oracle(state, slit, x, dx)
                assert np.max(np.abs(psi - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_gaussian_slit_matches_grid_free_kappa(self):
        # on every state and width of the acceptance battery, centred and off centre, each
        # slit on its own auto grid (the popper CLI's default); slits whose grids coincide share a call
        worst = 0.0
        for sp in verify.POPPER_SIGMAS:
            for sm in verify.POPPER_SIGMAS:
                state = GaussianPairState(sp, sm)
                batches = {}
                for width in verify.POPPER_WIDTHS:
                    for center in (0.0, 0.7):
                        slit = SlitCondition(width, center)
                        batches.setdefault(GridSpec.auto(state, slit), []).append(slit)
                for grid, slits in batches.items():
                    for slit, report in zip(slits, conditional_uncertainties(state, slits, grid)):
                        kappa = gaussian_slit_kappa(state, slit.width)
                        dx_exact, dp_exact = 1.0 / (2.0 * math.sqrt(kappa)), math.sqrt(kappa)
                        worst = max(
                            worst,
                            abs(report.position_spread - dx_exact) / dx_exact,
                            abs(report.momentum_spread - dp_exact) / dp_exact,
                        )
        assert worst < 1e-10

    @pytest.mark.parametrize("sp,sm", [(1.0, 0.5), (0.5, 1.0)])
    def test_memory_is_linear_in_grid_points(self, sp, sm):
        # one 64-row block of the dense kernel at N = 2^16 alone is 32 MB
        state = GaussianPairState(sp, sm)
        slit = SlitCondition(0.5)
        x, dx = GridSpec(1 << 16, extent=8.0).resolve(state, slit)
        peak, psi = traced_peak(popper._conditional_wavefunction, state, [slit], x, dx)
        assert psi.shape == (1, x.size)
        assert peak < 16 * 1024 * 1024


def _check_11_batches():
    """(state, grid, slits) of the acceptance battery's popper check, grouped as it groups them."""
    for sp in verify.POPPER_SIGMAS:
        for sm in verify.POPPER_SIGMAS:
            state = GaussianPairState(sp, sm)
            batches = {}
            for width in verify.POPPER_WIDTHS:
                slit = SlitCondition(width)
                grid = GridSpec.auto(state, slit, oversample=1.0)
                for spec in (grid, GridSpec(grid.points * 2, grid.extent)):
                    batches.setdefault(spec, []).append(slit)
            for spec, slits in batches.items():
                yield state, spec, slits


class TestSlitBatch:
    def test_check_11_batches_equal_the_single_slit_calls(self):
        batches = list(_check_11_batches())
        assert (len(batches), sum(len(slits) for _, _, slits in batches)) == (89, 250)
        for state, spec, slits in batches:
            reports = conditional_uncertainties(state, slits, spec)
            assert reports == tuple(conditional_uncertainties(state, slit, spec) for slit in slits)

    @pytest.mark.parametrize("sp,sm", [(1.0, 0.5), (0.5, 1.0), (0.8, 0.8)], ids=["beta<0", "beta>0", "beta=0"])
    def test_hard_and_off_centre_slits_equal_the_single_slit_calls(self, sp, sm):
        state = GaussianPairState(sp, sm)
        slits = [SlitCondition(0.4), SlitCondition(0.9, 0.7, "hard"), SlitCondition(0.5, -1.5), SlitCondition(0.4)]
        spec = GridSpec(4096, extent=12.0)
        reports = conditional_uncertainties(state, slits, spec)
        assert isinstance(reports, tuple) and reports[0] == reports[3]
        assert reports == tuple(conditional_uncertainties(state, slit, spec) for slit in slits)
        assert conditional_uncertainties(state, slits[:1], spec) == reports[:1]

    def test_equal_offsets_share_the_auto_extent(self):
        state = GaussianPairState(1.0, 0.6)
        slits = [SlitCondition(0.4, 1.5), SlitCondition(0.4, -1.5)]
        reports = conditional_uncertainties(state, slits, GridSpec(4096))
        assert reports == tuple(conditional_uncertainties(state, slit, GridSpec(4096)) for slit in slits)

    @pytest.mark.parametrize("slits", [[SlitCondition(0.4), SlitCondition(0.4, 1.5)], []], ids=["centres", "empty"])
    def test_slits_on_different_grids_are_refused(self, slits):
        with pytest.raises(ValueError, match=r"must resolve to one grid \(a GridSpec extent, or equal \|center\|\)"):
            conditional_uncertainties(GaussianPairState(1.0, 0.5), slits, GridSpec(4096))

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_an_under_resolved_slit_anywhere_is_refused(self, where):
        slits = [SlitCondition(0.5), SlitCondition(0.3)]
        slits.insert(where, SlitCondition(0.05))
        with pytest.raises(UnderResolvedGridError, match="smallest scale 0.05 / 16"):
            conditional_uncertainties(GaussianPairState(1.0, 0.5), slits, GridSpec(256))

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_slit_off_the_grid_anywhere_is_refused(self, where):
        slits = [SlitCondition(0.5, profile="hard"), SlitCondition(0.3, 2.0, "hard")]
        slits.insert(where, SlitCondition(0.7, 50.0, "hard"))
        with pytest.raises(ValueError, match=r"^slit aperture does not overlap the grid \(slit of width 0.7\)$") as caught:
            conditional_uncertainties(GaussianPairState(1.0, 1.0), slits, GridSpec(2048, extent=8.0))
        assert caught.type is ValueError
        # the single-slit call keeps its message
        with pytest.raises(ValueError, match="^slit aperture does not overlap the grid$"):
            conditional_uncertainties(GaussianPairState(1.0, 1.0), slits[where], GridSpec(2048, extent=8.0))


class TestGridBound:
    def test_cap_is_accepted_and_cap_plus_one_rejected(self):
        assert GridSpec(MAX_GRID_POINTS).points == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            GridSpec(MAX_GRID_POINTS + 1)

    @pytest.mark.filterwarnings("error")
    def test_grid_whose_span_overflows_is_refused_without_a_warning(self):
        state = GaussianPairState(1.0, 0.5)
        with pytest.raises(ValueError, match=r"grid extent 1e\+308"):
            conditional_uncertainties(state, SlitCondition(0.5), GridSpec(8, 1e308))
        with pytest.raises(ValueError, match=r"grid extent 1.7e\+308"):
            conditional_uncertainties(state, SlitCondition(0.5, center=1.7e308), GridSpec(8))

    def test_auto_grid_beyond_cap_rejected(self):
        state = GaussianPairState(1.0, 0.5)
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            GridSpec.auto(state, SlitCondition(1e-6))

    @pytest.mark.parametrize(
        "argv",
        [["popper", "--points", str(MAX_GRID_POINTS + 1)], ["popper", "--width", "1e-6"], ["popper", "--width", "1e-320"]],
        ids=["points", "width", "subnormal-width"],
    )
    def test_cli_exits_2_without_allocating(self, argv, capsys):
        peak, code = traced_peak(cli.main, argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "MAX_GRID_POINTS" in captured.err
        assert not re.search(r"\b(inf|nan)\b", captured.err, re.IGNORECASE), captured.err
        assert peak < 1024 * 1024
