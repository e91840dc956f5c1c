"""Evaluators and optimizers for the inequality bounds.

Covers the local-hidden-variable vs quantum polarization contradiction, the
CHSH expression and its quantum maximum (Tsirelson bound 2*sqrt(2)), the
crypto-nonlocal (Leggett) inequality and its violation scan, the
five-measurement pentagram contextuality test on a qutrit, the TLM
quantum-realizability condition for 2x2 correlator tables, and the
four-probability non-separability argument for a two-degree-of-freedom
single-particle state.

Every quantum number produced here goes through the Born rule in
:mod:`qfoundry.qcore`: the polarization, four-probability and pentagram
probabilities through :func:`qcore.product_probability`, one array call for
a whole scan of angles or all five pentagram directions, and the CHSH
correlators through :func:`qcore.expectation`.
Closed forms appear only as the bounds themselves, as documented
cross-checks, or to choose the CHSH-optimal settings, which follow exactly
from the singular values of the correlation matrix.  Only
:func:`minimize` loads scipy, which qfoundry does not declare and must be
installed separately; nothing in qfoundry calls it (ROADMAP items 1b, 1c).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import qcore
from .qcore import MeasurementSetting, Observable, StateVector

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
KCBS_QUANTUM_VALUE = 5.0 - 4.0 * math.sqrt(5.0)


# Needs scipy installed separately, and nothing in qfoundry calls it: it is kept only for
# perfbench/tracer.py to wrap and count Nelder-Mead evaluations, until ROADMAP items 1b and 1c.
def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call so that importing qfoundry does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _correlator_tables(c) -> np.ndarray:
    """``c`` as a float array of 2x2 correlator tables c[..., i, j], refused unless every entry is in [-1, 1] (up to 1e-12)."""
    c = np.asarray(c, dtype=float)
    if c.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 correlator tables, got shape {c.shape}")
    if c.size and not np.max(np.abs(c)) <= 1.0 + 1e-12:
        raise ValueError(f"correlators must lie in [-1, 1], got max |c| = {float(np.max(np.abs(c)))!r}")
    return c


def chsh_value(c) -> float:
    """S = c00 + c01 + c10 - c11 of a 2x2 correlator table (no clamping)."""
    c = _correlator_tables(c)
    return float(c[..., 0, 0] + c[..., 0, 1] + c[..., 1, 0] - c[..., 1, 1])


# the correlated pair (|HH> + |VV>)/sqrt(2), |H> = |0> and |V> = |1>, as its amplitude matrix psi[i, j]
_CORRELATED_PAIR = np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2.0)
_CORRELATED_PAIR.setflags(write=False)


def qm_same_polarization_probability(theta_rel):
    """Born-rule outcome statistics for the correlated pair at relative angle, elementwise.

    Polarizer 1 sits at 0, polarizer 2 at ``theta_rel`` (physical polarizer
    angle, radians; a float or an array).  Returns ``(p_same, p_both_pass)``
    where p_same counts both-pass plus both-blocked, each the product
    projector onto the two pass kets or the two perpendicular block kets;
    analytically p_same = cos^2(theta) and p_both_pass = cos^2(theta)/2.
    """
    theta = np.asarray(theta_rel, dtype=float)
    pass_2 = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    block_2 = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    p_both_pass = qcore.product_probability(_CORRELATED_PAIR, [1.0, 0.0], pass_2)
    p_both_block = qcore.product_probability(_CORRELATED_PAIR, [0.0, 1.0], block_2)
    return p_both_pass + p_both_block, p_both_pass


def correlation_matrix(state: StateVector) -> np.ndarray:
    """3x3 real matrix T[i, j] = <sigma_i x sigma_j> for a two-qubit state."""
    if state.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {state.dims}")
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            op = Observable(np.kron(qcore.PAULIS[i], qcore.PAULIS[j]))
            t[i, j] = qcore.expectation(state, op)
    return t


def setting_correlation(state: StateVector, a: MeasurementSetting, b: MeasurementSetting) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi>."""
    op = Observable(np.kron(qcore.spin_observable(a).matrix, qcore.spin_observable(b).matrix))
    return qcore.expectation(state, op)


class ChshOptimum(NamedTuple):
    s_max: float
    settings_a: tuple[MeasurementSetting, MeasurementSetting]
    settings_b: tuple[MeasurementSetting, MeasurementSetting]
    record: np.ndarray  # the 2x2 correlator table at the optimum, clipped to [-1, 1], read-only


def _chsh_planar_frames(state: StateVector):
    """Singular frames of the correlation matrix; optima live in the top-2 planes."""
    t = correlation_matrix(state)
    u, s, vt = np.linalg.svd(t)
    return t, u, s, vt


def chsh_optimize(state: StateVector) -> ChshOptimum:
    """Maximize the CHSH value over four measurement settings, in closed form.

    With T = U diag(s) V^t the correlation matrix and s0 >= s1 its top two
    singular values, the maximum is 2 sqrt(s0^2 + s1^2) (Horodecki,
    Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  It is reached at
    a0 = u_0, a1 = u_1 and b0, b1 = cos(t) v_0 +- sin(t) v_1 with
    t = atan2(s1, s0); the returned value is re-evaluated through the full
    Born-rule machinery on these unit vectors.
    """
    _, u, s, vt = _chsh_planar_frames(state)
    theta = math.atan2(float(s[1]), float(s[0]))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    settings_a = (MeasurementSetting.normalized(u[:, 0]), MeasurementSetting.normalized(u[:, 1]))
    settings_b = (
        MeasurementSetting.normalized(cos_t * vt[0] + sin_t * vt[1]),
        MeasurementSetting.normalized(cos_t * vt[0] - sin_t * vt[1]),
    )
    c = np.array(
        [[setting_correlation(state, ai, bj) for bj in settings_b] for ai in settings_a]
    )
    record = np.clip(c, -1.0, 1.0)
    record.setflags(write=False)
    return ChshOptimum(chsh_value(record), settings_a, settings_b, record)


def chsh_planar_grid_value(state: StateVector) -> float:
    """Independent grid-search oracle for the CHSH maximum.

    Scans Alice's two planar angles on a 1-degree grid and maximizes over
    Bob's settings exactly: for fixed a0, a1 the optimum is
    |T^t (a0 + a1)| + |T^t (a0 - a1)|.  Shares no code path with
    :func:`chsh_optimize` beyond the correlation matrix itself.
    """
    t, u, _, _ = _chsh_planar_frames(state)
    angles = np.deg2rad(np.arange(360.0))
    vecs = np.outer(np.cos(angles), u[:, 0]) + np.outer(np.sin(angles), u[:, 1])
    ta = vecs @ t  # row p: T^t a(alpha_p)
    # |ta_p +- ta_q|^2 for all pairs, summed one component at a time: the same
    # sums as a norm over a (360, 360, 3) array, in a quarter of the time
    sums = sum(np.square(column[:, None] + column) for column in ta.T)
    diffs = sum(np.square(column[:, None] - column) for column in ta.T)
    return float(np.max(np.sqrt(sums) + np.sqrt(diffs)))


# slack for degree-to-radian rounding at the interval endpoints
DOMAIN_ATOL = 1e-9


def _in_domain(values, name: str, upper: float, upper_text: str) -> np.ndarray:
    """``values`` as a float array, refused unless it is non-empty and lies in [0, upper]."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError(f"{name} is empty")
    lo, hi = values.min(), values.max()
    if not (-DOMAIN_ATOL <= lo and hi <= upper + DOMAIN_ATOL):
        raise ValueError(f"{name} in [{float(lo)!r}, {float(hi)!r}] outside [0, {upper_text}]")
    return values


def leggett_bound(phi: float | np.ndarray) -> float | np.ndarray:
    """Crypto-nonlocal upper bound 4 - (4/pi)|sin(phi/2)| for phi in [0, pi], elementwise."""
    return 4.0 - (4.0 / np.pi) * np.abs(np.sin(_in_domain(phi, "phi", np.pi, "pi") / 2.0))


def leggett_quantum_value(phi: float | np.ndarray) -> float | np.ndarray:
    """Quantum value |2(cos(phi) + 1)| of the same two-term combination, elementwise."""
    return np.abs(2.0 * (np.cos(_in_domain(phi, "phi", np.pi, "pi")) + 1.0))


class LeggettScan(NamedTuple):
    """Tabulated quantum value vs bound over a phi grid (radians)."""

    phi: np.ndarray
    s_qm: np.ndarray
    bound: np.ndarray
    violation: np.ndarray

    @property
    def argmax_phi(self) -> float:
        return float(self.phi[int(np.argmax(self.violation))])

    @property
    def max_violation(self) -> float:
        return float(np.max(self.violation))


def leggett_violation_scan(phi_values: np.ndarray) -> LeggettScan:
    """Evaluate quantum value, bound and their gap on a phi grid."""
    phi = np.asarray(phi_values, dtype=float).reshape(-1)
    s_qm = leggett_quantum_value(phi)
    bound = leggett_bound(phi)
    return LeggettScan(phi, s_qm, bound, s_qm - bound)


def leggett_violation_argmax_oracle() -> float:
    """Stationarity root of the violation: sin(phi/2) = 1/(2*pi), radians."""
    return 2.0 * math.asin(1.0 / (2.0 * math.pi))


def kcbs_build_pentagram() -> tuple[np.ndarray, np.ndarray]:
    """The symmetric pentagram of compatible directions around the z axis, and the probe state.

    l_j = (sin(t) cos(4*pi*j/5), sin(t) sin(4*pi*j/5), cos(t)) with
    cos^2(t) = cos(pi/5)/(1 + cos(pi/5)); adjacent pairs are orthogonal and
    the probe state sits on the symmetry axis.  Returns the (5, 3) array of
    directions l_j and the qutrit state (0, 0, 1).
    """
    cos_sq = math.cos(math.pi / 5.0) / (1.0 + math.cos(math.pi / 5.0))
    theta = math.acos(math.sqrt(cos_sq))
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
    return directions, np.array([0.0, 0.0, 1.0])


def max_adjacent_dot(directions) -> float:
    """max_j |l_j . l_j+1| over the five cyclically adjacent pairs of ``directions``; NaN if any dot is NaN."""
    d = np.asarray(directions, dtype=float)
    return float(np.max([abs(float(d[j] @ d[(j + 1) % 5])) for j in range(5)]))


def kcbs_value(directions, state) -> float:
    """Sum of adjacent-pair correlations <A_j A_j+1> of the +-1 observables A_j = I - 2|l_j><l_j|.

    Adjacent directions are orthogonal, so A_j A_j+1 = I - 2 P_j - 2 P_j+1 and the sum is
    5 - 4 sum_j |<l_j|psi>|^2: one Born call, the qutrit the first party of a 3x1 two-party state.
    Raises ValueError unless there are five directions, each orthogonal to the next within
    1e-10; the Born call refuses directions or a state that are not finite unit vectors.
    """
    if len(directions) != 5 or not max_adjacent_dot(directions) <= 1e-10:
        raise ValueError("need five directions, each orthogonal to the next within 1e-10: these are not orthogonal")
    p = qcore.product_probability(np.reshape(state, (3, 1)), directions, [1.0])
    return 5.0 - 4.0 * float(np.sum(p))


def kcbs_classical_assignment_values() -> np.ndarray:
    """The 32 values of ab + bc + cd + de + ea over deterministic +-1 tables."""
    values = []
    for assignment in itertools.product((-1, 1), repeat=5):
        values.append(sum(assignment[j] * assignment[(j + 1) % 5] for j in range(5)))
    return np.array(values, dtype=int)


def kcbs_classical_minimum() -> int:
    """Exhaustive minimum over all deterministic assignments (exactly -3)."""
    return int(kcbs_classical_assignment_values().min())


def _hardy_kets(s, c):
    """One party's kets (|+>, |->, |->') of the non-separability test, shape (..., 2).

    With s = sin(g) and c = cos(g) they are

        |+>  = N (sqrt(s)|0> + sqrt(c)|1>)
        |->  = N (-sqrt(c)|0> + sqrt(s)|1>)
        |->' = N' (-sqrt(s^3)|0> + sqrt(c^3)|1>)

    with N = (s + c)^(-1/2) and N' = (s^3 + c^3)^(-1/2); |+>' is the ket
    orthogonal to |->'.  The second party takes s and c interchanged, which
    the asymmetry of the probe state needs for the three zero-probability
    conditions to hold.
    """
    # products and square roots only: numpy's vector pow can round differently from its scalar one
    s3, c3 = s * s * s, c * c * c
    n, n_prime = 1.0 / np.sqrt(s + c), 1.0 / np.sqrt(s3 + c3)
    plus = np.stack([n * np.sqrt(s), n * np.sqrt(c)], axis=-1)
    minus = np.stack([-n * np.sqrt(c), n * np.sqrt(s)], axis=-1)
    minus_prime = np.stack([-n_prime * np.sqrt(s3), n_prime * np.sqrt(c3)], axis=-1)
    return plus, minus, minus_prime


def hardy_fourth_probability_closed_form(gamma: float) -> float:
    """(sin(4g) / (4 (cos^3 g + sin^3 g)))^2."""
    g = float(gamma)
    return (math.sin(4.0 * g) / (4.0 * (math.cos(g) ** 3 + math.sin(g) ** 3))) ** 2


def hardy_probabilities(gamma):
    """The four joint probabilities of the non-separability argument, elementwise.

    ``gamma`` (radians in [0, pi/2], a float or an array) sets the probe
    state cos(g)|0>|1> - sin(g)|1>|0>.  Returns (p1, p2, p3, p4) for the
    events (alpha=+1, beta=+1), (alpha=-1, beta'=-1), (alpha'=-1, beta=-1)
    and (alpha'=-1, beta'=-1), each the product projector onto the two
    parties' kets from :func:`_hardy_kets`.  For non-degenerate gamma the
    first three vanish while p4 follows
    :func:`hardy_fourth_probability_closed_form`; at the separable
    endpoints 0 and pi/2 all four vanish.
    """
    # a gamma within the rounding slack past an endpoint is taken at it, where the kets' square roots are real
    g = np.clip(_in_domain(gamma, "gamma", np.pi / 2.0, "pi/2"), 0.0, np.pi / 2.0)
    s, c = np.sin(g), np.cos(g)
    zero = np.zeros_like(g)
    state = np.stack([zero, c, -s, zero], axis=-1).reshape(*g.shape, 2, 2)
    a_plus, a_minus, a_minus_prime = _hardy_kets(s, c)
    b_plus, b_minus, b_minus_prime = _hardy_kets(c, s)
    return (
        qcore.product_probability(state, a_plus, b_plus),
        qcore.product_probability(state, a_minus, b_minus_prime),
        qcore.product_probability(state, a_minus_prime, b_minus),
        qcore.product_probability(state, a_minus_prime, b_minus_prime),
    )


def hardy_classical_fourth_zero() -> bool:
    """Exhaustive check of the classical implication on the 16 value tables.

    Enumerates all assignments of +-1 to (alpha, beta, alpha', beta');
    any probability distribution satisfying the three zero conditions is
    supported only on assignments with (alpha'=-1, beta'=-1) excluded, so
    the fourth probability is forced to zero.
    """
    survivors = [
        (alpha, beta, alpha_p, beta_p)
        for alpha, beta, alpha_p, beta_p in itertools.product((-1, 1), repeat=4)
        if not (alpha == 1 and beta == 1)
        and not (alpha == -1 and beta_p == -1)
        and not (alpha_p == -1 and beta == -1)
    ]
    return all(not (alpha_p == -1 and beta_p == -1) for _, _, alpha_p, beta_p in survivors)


class TlmResult(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


def tlm_sides(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the TLM condition for correlator tables c[..., i, j].

    lhs = |c00 c10 - c01 c11| and rhs = sum_j sqrt((1 - c0j^2)(1 - c1j^2)),
    elementwise over the leading axes.  Raises ValueError unless every
    correlator is finite and within [-1, 1] (up to 1e-12).
    """
    c = _correlator_tables(c)
    lhs = np.abs(c[..., 0, 0] * c[..., 1, 0] - c[..., 0, 1] * c[..., 1, 1])
    slack = np.maximum(0.0, 1.0 - c * c)
    root = np.sqrt(slack[..., 0, :] * slack[..., 1, :])
    return lhs, root[..., 0] + root[..., 1]


def tlm_check(c) -> TlmResult:
    """Quantum-realizability condition for one 2x2 correlator table c[i, j].

    |c00 c10 - c01 c11| <= sum_j sqrt((1 - c0j^2)(1 - c1j^2)), necessary and
    sufficient for the four correlators to come from quantum measurements.
    Refuses the same tables as :func:`tlm_sides`.
    """
    lhs, rhs = tlm_sides(c)
    return TlmResult(float(lhs), float(rhs), bool(lhs <= rhs + 1e-12))
