"""Dense complex linear algebra for small tensor-product Hilbert spaces.

States, operators and measurement settings are thin frozen wrappers around
numpy arrays that validate their defining invariants on construction and are
immutable afterwards, so every operation here is a pure function and safe to
call concurrently.

Index convention: subsystem 0 is the slowest-varying tensor index.  For
``dims = (2, 2)`` the amplitude order is |00>, |01>, |10>, |11>.  Global
phases are never normalized away; state comparisons go through
:func:`fidelity`, which is phase-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances: 1e-12 for algebraic identities, 1e-10 for eigenvalue
# positivity (double precision, dim <= 16).
ATOL = 1e-12
PSD_ATOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex).reshape(-1)
    arr.setflags(write=False)
    return arr


def _as_complex_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # refused before m - m^H turns an infinite entry into a NaN warning
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state on a tensor product of finite-dimensional subsystems."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        expected = math.prod(dims) if dims else 1
        if self.amplitudes.size != expected:
            raise ValueError(
                f"amplitude length {self.amplitudes.size} does not match "
                f"prod(dims) = {expected}"
            )
        norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
        if not abs(norm_sq - 1.0) <= ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix))
        expected = math.prod(dims) if dims else 1
        if self.matrix.shape[0] != expected:
            raise ValueError(
                f"matrix dimension {self.matrix.shape[0]} does not match "
                f"prod(dims) = {expected}"
            )
        m = self.matrix
        if not np.max(np.abs(m - m.conj().T)) <= ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < -PSD_ATOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {float(eigenvalues.min())!r}"
            )


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with an optional human-readable label."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_complex_matrix(self.matrix))
        m = self.matrix
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
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"setting is not a finite unit vector: |n| = {norm!r}")

    @classmethod
    def normalized(cls, vector) -> "MeasurementSetting":
        arr = np.asarray(vector, dtype=float).reshape(-1)
        norm = np.linalg.norm(arr)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize {arr.tolist()!r}: need finite components, not all zero")
        return cls(arr / norm)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "MeasurementSetting":
        return cls.normalized(rng.normal(size=3))

    def dot(self, other: "MeasurementSetting") -> float:
        return float(self.direction @ other.direction)


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product of two pure states (dims concatenated)."""
    return StateVector(s1.dims + s2.dims, np.kron(s1.amplitudes, s2.amplitudes))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduce ``rho`` to subsystem ``keep``, tracing out all others."""
    n = len(rho.dims)
    if not 0 <= keep < n:
        raise IndexError(f"keep index {keep} out of range for {n} subsystems")
    if n == 1:
        return rho
    others = [i for i in range(n) if i != keep]
    perm = [keep] + others
    t = rho.matrix.reshape(*rho.dims, *rho.dims)
    t = np.transpose(t, axes=perm + [n + p for p in perm])
    d_keep = rho.dims[keep]
    d_rest = math.prod(rho.dims[i] for i in others)
    t = t.reshape(d_keep, d_rest, d_keep, d_rest)
    reduced = np.einsum("arbr->ab", t)
    return DensityMatrix((d_keep,), reduced)


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
        norm_sq = np.sum(np.abs(values) ** 2, axis=axes)
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


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2; insensitive to global phases."""
    if s1.dims != s2.dims:
        raise ValueError(f"dimension mismatch: {s1.dims} vs {s2.dims}")
    return float(np.abs(s1.amplitudes.conj() @ s2.amplitudes) ** 2)


def basis_state(dims: tuple[int, ...], occupation: tuple[int, ...]) -> StateVector:
    """Computational-basis ket |occupation> on the given dims."""
    dims = tuple(int(d) for d in dims)
    if len(occupation) != len(dims):
        raise ValueError("occupation length must match number of subsystems")
    index = 0
    for d, k in zip(dims, occupation):
        if not 0 <= k < d:
            raise ValueError(f"basis index {k} out of range for dimension {d}")
        index = index * d + k
    amplitudes = np.zeros(math.prod(dims), dtype=complex)
    amplitudes[index] = 1.0
    return StateVector(dims, amplitudes)


def singlet() -> StateVector:
    """The rotationally invariant two-qubit state (|01> - |10>)/sqrt(2)."""
    amplitudes = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return StateVector((2, 2), amplitudes)

