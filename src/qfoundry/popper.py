"""Gaussian model of the ghost-diffraction conditional-uncertainty setup.

A pair of particles entangled in position and transverse momentum is
modeled by the double-Gaussian wavefunction (hbar = 1)

    psi(x1, x2) = C exp(-(x1 + x2)^2 / (8 sigma_plus^2))
                    exp(-(x1 - x2)^2 / (8 sigma_minus^2)),

whose center-of-mass and relative coordinates have spreads sigma_plus and
sigma_minus; the pair is entangled iff the two spreads differ.  Particle 1
passing a slit is modeled as a coherent projection onto the aperture
amplitude profile: the conditional wavefunction of particle 2 is

    psi_2(x2) = integral dx1 T(x1) psi(x1, x2),

normalized on the grid.  Position spread comes from the direct second
moment, momentum spread from the discrete Fourier transform.  A Gaussian
aperture keeps the conditional state Gaussian, so the uncertainty product
saturates at exactly 1/2 no matter how narrow the slit; a hard aperture
broadens the momentum spread beyond the variance-matched Gaussian slit but
still respects the bound.

Before conditioning, the discrete 2-d norm of psi on the N-point grid is
checked against 1.  |psi|^2 factorizes as f(x1 + x2) g(x1 - x2) with
f(s) = exp(-s^2 / (4 sigma_plus^2)) and g(d) = exp(-d^2 / (4 sigma_minus^2)),
so the N x N double sum reduces to one sum over grid diagonals of g times
windows of prefix sums of f: O(N) time and memory.

One call may condition many slits on one grid: the norm check and the kernel
spectrum are shared, and each slit's psi_2 is one row of a batched O(N log N)
FFT convolution that drops no grid point: with b = |beta|,
exp(-beta x1 x2) = exp(b (x1^2 + x2^2) / 2) exp(-b (x1 -+ x2)^2 / 2) (the i*j split
of Bluestein's chirp-z transform), and the first factor joins the envelope in the
damping exp(-(alpha - b/2) x^2), alpha - b/2 > 0.  Grids hold at most MAX_GRID_POINTS.

Slit width conventions: for the Gaussian profile ``width`` is the standard
deviation of the intensity profile (amplitude exp(-(x - c)^2 / (4 w^2)));
for the hard profile it is the full aperture width (intensity variance
w^2 / 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MAX_GRID_POINTS

UNCERTAINTY_BOUND = 0.5
_MIN_POINTS_PER_SCALE = 16
_NORM_DRIFT_TOL = 1e-6


class UnderResolvedGridError(ValueError):
    """The discretization cannot faithfully represent the requested scales."""


def _square_finite(scale) -> bool:
    """Whether ``scale`` > 0 and ``scale**2`` is finite (a Python float power raises past that)."""
    return 0.0 < scale < math.inf and float(scale) * float(scale) < math.inf


@dataclass(frozen=True)
class GaussianPairState:
    """Spreads of the center-of-mass (+) and relative (-) coordinates."""

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self):
        if not all(_square_finite(s) and _square_finite(1.0 / s) for s in (self.sigma_plus, self.sigma_minus)):
            raise ValueError(
                "spreads must be positive with finite squares and reciprocal squares, "
                f"got {self.sigma_plus!r}, {self.sigma_minus!r}"
            )
        object.__setattr__(self, "sigma_plus", float(self.sigma_plus))
        object.__setattr__(self, "sigma_minus", float(self.sigma_minus))

    def exponent_coefficients(self) -> tuple[float, float]:
        """(alpha, beta) with psi = C exp(-alpha (x1^2 + x2^2) - beta x1 x2)."""
        alpha = 1.0 / (8.0 * self.sigma_plus**2) + 1.0 / (8.0 * self.sigma_minus**2)
        beta = 1.0 / (4.0 * self.sigma_plus**2) - 1.0 / (4.0 * self.sigma_minus**2)
        return alpha, beta

    @property
    def normalization(self) -> float:
        return 1.0 / math.sqrt(2.0 * math.pi * self.sigma_plus * self.sigma_minus)


@dataclass(frozen=True)
class SlitCondition:
    """Aperture on particle 1: center, width scale and profile shape."""

    width: float
    center: float = 0.0
    profile: str = "gaussian"

    def __post_init__(self):
        # a width too small to square is left to the grid checks, which refuse it
        if not (_square_finite(self.width) and math.isfinite(self.center)):
            raise ValueError(
                "slit needs a width > 0 with a finite square and a finite center, "
                f"got {self.width!r}, {self.center!r}"
            )
        if self.profile not in ("gaussian", "hard"):
            raise ValueError(f"unknown slit profile {self.profile!r}")
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "center", float(self.center))

    def amplitude_profile(self, x: np.ndarray) -> np.ndarray:
        if self.profile == "gaussian":
            return np.exp(-((x - self.center) ** 2) / (4.0 * self.width**2))
        return (np.abs(x - self.center) <= self.width / 2.0).astype(float)


def _extent(state: GaussianPairState, slit: SlitCondition, extent: float | None = None) -> float:
    """Grid half-width: ``extent`` if set, else eight of the wider spread plus the slit's offset."""
    return extent or 8.0 * max(state.sigma_plus, state.sigma_minus) + abs(slit.center)


def _smallest_scale(state: GaussianPairState, slit: SlitCondition) -> float:
    """Shortest length the grid must resolve."""
    return min(state.sigma_plus, state.sigma_minus, slit.width)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with 4 to ``MAX_GRID_POINTS`` samples over [-extent, extent)."""

    points: int
    extent: float | None = None

    def __post_init__(self):
        if not 4 <= self.points <= MAX_GRID_POINTS:
            raise ValueError(f"grid needs 4 to MAX_GRID_POINTS = {MAX_GRID_POINTS} points, got {self.points}")
        if self.extent is not None and not 0.0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent!r}")
        object.__setattr__(self, "points", int(self.points))

    def resolve(self, state: GaussianPairState, slit: SlitCondition):
        extent = _extent(state, slit, self.extent)
        if not 2.0 * extent < math.inf:
            raise ValueError(f"grid extent {extent!r} is too large: the span 2 * extent overflows")
        dx = 2.0 * extent / self.points
        x = -extent + dx * np.arange(self.points)
        return x, dx

    @classmethod
    def auto(cls, state: GaussianPairState, slit: SlitCondition, oversample: float = 2.0) -> "GridSpec":
        """Power-of-two grid resolving every scale with headroom."""
        extent = _extent(state, slit)
        smallest = _smallest_scale(state, slit)
        needed = 2.0 * extent * _MIN_POINTS_PER_SCALE * oversample / smallest
        if needed > MAX_GRID_POINTS:
            count = f"{needed:.3g} >" if math.isfinite(needed) else "more than"
            raise ValueError(f"scale {smallest:.3g} needs {count} MAX_GRID_POINTS = {MAX_GRID_POINTS} grid points")
        points = 1 << max(4, math.ceil(math.log2(needed)))
        return cls(points, extent)


@dataclass(frozen=True)
class UncertaintyReport:
    position_spread: float
    momentum_spread: float

    @property
    def product(self) -> float:
        return self.position_spread * self.momentum_spread


def _check_resolution(state: GaussianPairState, slit: SlitCondition, dx: float) -> None:
    smallest = _smallest_scale(state, slit)
    if dx > smallest / _MIN_POINTS_PER_SCALE:
        raise UnderResolvedGridError(
            f"grid spacing {dx:.6g} exceeds smallest scale {smallest:.6g} / "
            f"{_MIN_POINTS_PER_SCALE}; increase points or shrink extent"
        )


def _grid_norm_drift(state: GaussianPairState, x: np.ndarray, dx: float) -> float:
    """|discrete 2-d norm - 1| of the analytically normalized pair state.

    |psi|^2 = C^2 f(s) g(d) with s = x1 + x2, d = x1 - x2,
    f(s) = exp(-s^2 / (4 sigma_plus^2)) and g(d) = exp(-d^2 / (4 sigma_minus^2)).
    Grid pairs (i, j) with difference m = i - j have index sums
    k = i + j = |m|, |m| + 2, ..., 2N - 2 - |m|, so the sum along each
    diagonal is g(m dx) times a window of the prefix sums of f over the
    indices of one parity.  The double sum costs O(N) time and memory.
    """
    n = x.size
    s = 2.0 * x[0] + dx * np.arange(2 * n - 1)
    f = np.exp(-s * s / (4.0 * state.sigma_plus**2))
    even = np.concatenate(([0.0], np.cumsum(f[0::2])))
    odd = np.concatenate(([0.0], np.cumsum(f[1::2])))
    m = np.arange(n)
    p = m // 2
    window = np.where(m % 2 == 0, even[n - p] - even[p], odd[n - 1 - p] - odd[p])
    diagonals = np.exp(-((dx * m) ** 2) / (4.0 * state.sigma_minus**2)) * window
    total = float(diagonals[0]) + 2.0 * float(np.sum(diagonals[1:]))
    norm = state.normalization**2 * total * dx * dx
    return abs(norm - 1.0)


def _conditional_wavefunction(
    state: GaussianPairState, slits, x: np.ndarray, dx: float
) -> np.ndarray:
    """Normalized psi_2 of each slit, one row each, from one zero-padded rfft/irfft; see the module docstring.

    The damping exp(-(alpha - |beta|/2) x^2) weights the slit profiles and the output; the
    slits share one kernel spectrum.  O(N log N) time and O(N) memory per slit.
    """
    alpha, beta = state.exponent_coefficients()
    damping = np.exp(-(alpha - 0.5 * abs(beta)) * x * x)
    source = np.array([slit.amplitude_profile(x) for slit in slits]) * damping
    empty = source.max(axis=1) == 0.0
    if empty.any():
        where = f" (slit of width {slits[int(np.argmax(empty))].width:.6g})" if len(slits) > 1 else ""
        raise ValueError("slit aperture does not overlap the grid" + where)
    n = x.size
    if beta > 0.0:  # g of x1 + x2 = 2 x_0 + (i + j) dx: convolve the reversed source
        source, u = source[:, ::-1], 2.0 * x[0] + dx * np.arange(2 * n - 1)
    else:  # g of x1 - x2 = (j - i) dx
        u = dx * np.arange(1 - n, n)
    size = 1 << (2 * n - 2).bit_length()  # >= 2N - 1, so the slice below does not wrap
    spectrum = np.fft.rfft(source, size) * np.fft.rfft(np.exp(-0.5 * abs(beta) * u * u), size)
    psi2 = np.fft.irfft(spectrum, size)[:, n - 1 : 2 * n - 1] * damping * dx * state.normalization
    norm = np.sqrt(np.sum(psi2 * psi2, axis=1) * dx)
    if not norm.all():
        raise ValueError("conditional wavefunction vanishes on the grid")
    return psi2 / norm[:, None]


def _moments(x: np.ndarray, density: np.ndarray, dx: float) -> np.ndarray:
    total = np.sum(density, axis=-1) * dx
    mean = np.sum(x * density, axis=-1) * dx / total
    second = np.sum(x * x * density, axis=-1) * dx / total
    return np.sqrt(np.maximum(0.0, second - mean * mean))


def _momentum_spread(psi: np.ndarray, dx: float) -> np.ndarray:
    n = psi.shape[-1]
    transform = np.fft.fft(psi) * dx / math.sqrt(2.0 * math.pi)
    p = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    dp = 2.0 * np.pi / (n * dx)
    return _moments(p, np.abs(transform) ** 2, dp)


def conditional_uncertainties(state: GaussianPairState, slit, grid: GridSpec):
    """Spreads of particle 2 after particle 1 is projected onto the slit.

    ``slit`` is one :class:`SlitCondition`, giving one :class:`UncertaintyReport`,
    or a sequence of slits that resolve to one grid, giving a tuple with a report
    per slit.  A batch checks the norm drift once and conditions every slit in one
    pass; each report has the bytes of its single-slit call.

    Raises :class:`UnderResolvedGridError` when the grid has fewer than 16
    points per smallest length scale or when the discrete norm of the pair
    state drifts from 1 by more than 1e-6.
    """
    slits = (slit,) if isinstance(slit, SlitCondition) else tuple(slit)
    if len({_extent(state, s, grid.extent) for s in slits}) != 1:
        raise ValueError("the slits of one call must resolve to one grid (a GridSpec extent, or equal |center|)")
    x, dx = grid.resolve(state, slits[0])
    _check_resolution(state, min(slits, key=lambda s: s.width), dx)
    drift = _grid_norm_drift(state, x, dx)
    if drift > _NORM_DRIFT_TOL:
        raise UnderResolvedGridError(
            f"discrete norm drift {drift:.3g} exceeds {_NORM_DRIFT_TOL}; "
            "grid extent or spacing is insufficient"
        )
    psi2 = _conditional_wavefunction(state, slits, x, dx)
    reports = tuple(map(UncertaintyReport, _moments(x, psi2 * psi2, dx).tolist(), _momentum_spread(psi2, dx).tolist()))
    return reports[0] if isinstance(slit, SlitCondition) else reports


def unconditioned_uncertainties(state: GaussianPairState) -> UncertaintyReport:
    """Marginal spreads of particle 2 with no measurement on particle 1.

    Closed forms of the double-Gaussian marginals:
    dx2 = sqrt((sigma_plus^2 + sigma_minus^2) / 2) and
    dp2 = sqrt(1/(8 sigma_plus^2) + 1/(8 sigma_minus^2)); the product
    (sigma_plus^2 + sigma_minus^2) / (4 sigma_plus sigma_minus) reaches 1/2
    only when the spreads coincide.
    """
    sp, sm = state.sigma_plus, state.sigma_minus
    position = math.sqrt((sp * sp + sm * sm) / 2.0)
    momentum = math.sqrt(1.0 / (8.0 * sp * sp) + 1.0 / (8.0 * sm * sm))
    return UncertaintyReport(position, momentum)
