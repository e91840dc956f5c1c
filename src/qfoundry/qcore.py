"""Dense complex linear algebra for small tensor-product Hilbert spaces.

States, operators and measurement settings are thin frozen wrappers around
numpy arrays that validate their defining invariants on construction and are
immutable afterwards, so every operation here is a pure function and safe to
call concurrently.  States are pure; the reduced density matrix of a
two-party state is a plain array, computed from its amplitude matrix.

Index convention: subsystem 0 is the slowest-varying tensor index.  For
``dims = (2, 2)`` the amplitude order is |00>, |01>, |10>, |11>.  Global
phases are never normalized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for algebraic identities (double precision, dim <= 16).
ATOL = 1e-12
_SMALLEST_NORMAL = 2.0**-1022

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def _norm_squared(values, axis=None) -> np.ndarray:
    """Sum of |v|^2 over ``axis``; a sum past the float range is inf, with no overflow warning."""
    with np.errstate(over="ignore"):
        return np.sum(np.abs(values) ** 2, axis=axis)


@dataclass(frozen=True)
class StateVector:
    """Pure state on a tensor product of finite-dimensional subsystems."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        expected = math.prod(dims)
        if self.amplitudes.size != expected:
            raise ValueError(
                f"amplitude length {self.amplitudes.size} does not match "
                f"prod(dims) = {expected}"
            )
        norm_sq = float(_norm_squared(self.amplitudes))
        if not abs(norm_sq - 1.0) <= ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with an optional human-readable label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():  # refused before m - m^H turns an infinite entry into a NaN warning
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if not np.max(np.abs(m - m.conj().T)) <= ATOL:
            raise ValueError(f"observable {self.label!r} is not Hermitian within 1e-12")


@dataclass(frozen=True)
class MeasurementSetting:
    """Unit 3-vector on the Bloch/Poincare sphere."""

    direction: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.direction, dtype=float).reshape(-1)
        if arr.size != 3:
            raise ValueError(f"setting must be a 3-vector, got size {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "direction", arr)
        norm = math.sqrt(np.vdot(arr, arr))  # np.linalg.norm's value, with no overflow warning (dot warns)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"setting is not a finite unit vector: |n| = {norm!r}")

    @classmethod
    def normalized(cls, vector) -> "MeasurementSetting":
        arr = np.asarray(vector, dtype=float).reshape(-1)
        square = np.vdot(arr, arr)  # np.linalg.norm's sum of squares, with no overflow warning (dot warns)
        if not _SMALLEST_NORMAL <= square < math.inf:  # the squares lost digits or overflowed
            peak = float(np.max(np.abs(arr), initial=0.0))
            if 0.0 < peak < math.inf:
                arr = arr / peak
                square = np.vdot(arr, arr)
        norm = math.sqrt(square)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize {arr.tolist()!r}: need finite components, not all zero")
        return cls(arr / norm)

    def dot(self, other: "MeasurementSetting") -> float:
        return float(self.direction @ other.direction)


def partial_trace(state: StateVector, keep: int) -> np.ndarray:
    """Reduced density matrix of the two-party pure ``state`` on party ``keep`` (0 or 1).

    With the amplitudes as a matrix m[i, j], tracing out party 1 leaves
    m m^H and tracing out party 0 leaves m^T conj(m).
    """
    if len(state.dims) != 2:
        raise ValueError(f"partial_trace takes a two-party state, got dims {state.dims}")
    if keep not in (0, 1):
        raise IndexError(f"keep index {keep} out of range for 2 subsystems")
    m = state.amplitudes.reshape(state.dims)
    return m @ m.conj().T if keep == 0 else m.T @ m.conj()


def product_probability(psi, ket_a, ket_b) -> np.ndarray:
    """Born probability <psi| P_a (x) P_b |psi> of the product projector onto |a>|b>.

    ``psi[..., i, j]`` holds two-party amplitudes, ``ket_a[..., i]`` and
    ``ket_b[..., j]`` the kets; leading axes broadcast.  For unit kets the
    rank-1 projector gives exactly |sum_ij conj(a_i) conj(b_j) psi_ij|^2.
    Raises ValueError unless psi and both kets are finite unit vectors
    within ATOL and every probability is at most 1 + ATOL; a probability in
    that slack is returned as 1.
    """
    psi = np.asarray(psi, dtype=complex)
    ket_a = np.asarray(ket_a, dtype=complex)
    ket_b = np.asarray(ket_b, dtype=complex)
    if psi.shape[-2:] != ket_a.shape[-1:] + ket_b.shape[-1:]:
        raise ValueError(f"state shape {psi.shape} does not match ket shapes {ket_a.shape} and {ket_b.shape}")
    for name, values, axes in (("state", psi, (-2, -1)), ("ket_a", ket_a, -1), ("ket_b", ket_b, -1)):
        norm_sq = _norm_squared(values, axes)
        if not np.all(np.abs(norm_sq - 1.0) <= ATOL):
            raise ValueError(f"{name} is not a finite unit vector within {ATOL}")
    # plain products and sums, not einsum, abs or **: a probability's bytes then do not depend on the batch around it
    amplitude = np.sum(ket_a.conj() * np.sum(psi * ket_b.conj()[..., None, :], axis=-1), axis=-1)
    probability = amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
    if not np.all(probability <= 1.0 + ATOL):
        raise ValueError(f"Born probability {float(np.max(probability))!r} above 1 beyond slack")
    return np.minimum(probability, 1.0)


def spin_observable(setting: MeasurementSetting) -> Observable:
    """The +-1-valued spin observable n . sigma along ``setting``."""
    n = setting.direction
    matrix = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return Observable(matrix, label=f"n.sigma(n={n.tolist()})")


def expectation(state: StateVector, observable: Observable) -> float:
    """<psi|O|psi>, real because O is Hermitian."""
    if observable.matrix.shape[0] != state.amplitudes.size:
        raise ValueError("observable dimension does not match state dimension")
    return float(np.real(state.amplitudes.conj() @ (observable.matrix @ state.amplitudes)))


def singlet() -> StateVector:
    """The rotationally invariant two-qubit state (|01> - |10>)/sqrt(2)."""
    amplitudes = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return StateVector((2, 2), amplitudes)

