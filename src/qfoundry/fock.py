"""Two-mode bosonic Fock-space engine.

Amplitude tables are indexed by occupation (n_a, n_b) with n_a + n_b
bounded by the truncation ``n_max``.  Ladder operations keep raw (possibly
non-unit) amplitudes so operator algebra like a+_H a+_V |0> composes
without hidden renormalization; call :meth:`FockState.normalized` when a
physical state is needed.

Mode rotations rewrite creation operators as linear combinations of the
rotated-mode operators and re-expand, which is the physical beamsplitter
action.  The polarizing-beamsplitter convention at angle t is

    a+_H -> cos(t) a+_A + sin(t) a+_D,
    a+_V -> sin(t) a+_A - cos(t) a+_D,

so at 45 degrees, the balanced (50:50) splitter, a+_H -> (a+_A + a+_D)/sqrt(2)
and a+_V -> (a+_A - a+_D)/sqrt(2).  The matrix is symmetric orthogonal, hence
its own inverse: applying the same rotation twice returns the input.
Output amplitude tables are always stated in the rotated (new) mode basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import StateVector

DEFAULT_N_MAX = 6
# a (MAX_N_MAX + 1)^2 complex amplitude table is 16.8 MB
MAX_N_MAX = 1024
AMPLITUDE_ATOL = 1e-12


class TruncationOverflowError(ValueError):
    """An operation would populate occupations beyond the truncation."""


@dataclass(frozen=True)
class FockState:
    """Two-mode photon-number amplitude table up to total number n_max."""

    n_max: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n_max = int(self.n_max)
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (n_max + 1, n_max + 1):
            raise ValueError(
                f"amplitude table must have shape {(n_max + 1, n_max + 1)}, got {amp.shape}"
            )
        na, nb = np.indices(amp.shape)
        beyond = np.abs(amp[na + nb > n_max])
        if beyond.size and beyond.max() > 1e-14:
            raise ValueError("amplitudes beyond the truncation n_a + n_b <= n_max")
        amp.setflags(write=False)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return FockState(self.n_max, self.amplitudes / n)

    def amplitude(self, n_a: int, n_b: int) -> complex:
        return complex(self.amplitudes[n_a, n_b])

    def total_number_distribution(self) -> np.ndarray:
        """Probability of each total photon number (assumes unit norm)."""
        probs = np.abs(self.amplitudes) ** 2
        na, nb = np.indices(probs.shape)
        return np.bincount((na + nb).ravel(), weights=probs.ravel(), minlength=self.n_max + 1)

    def occupied(self, atol: float = AMPLITUDE_ATOL):
        """Yield (n_a, n_b, amplitude) for entries above ``atol``."""
        for n_a in range(self.n_max + 1):
            for n_b in range(self.n_max + 1 - n_a):
                value = self.amplitudes[n_a, n_b]
                if abs(value) > atol:
                    yield n_a, n_b, complex(value)


def _zeros(n_max: int) -> np.ndarray:
    """An all-zero amplitude table; truncations above MAX_N_MAX are refused before allocating."""
    if n_max > MAX_N_MAX:
        raise ValueError(f"truncation n_max = {n_max} exceeds MAX_N_MAX = {MAX_N_MAX}")
    return np.zeros((n_max + 1, n_max + 1), dtype=complex)


def vacuum(n_max: int = DEFAULT_N_MAX) -> FockState:
    amp = _zeros(n_max)
    amp[0, 0] = 1.0
    return FockState(n_max, amp)


def fock_basis(n_max: int, n_a: int, n_b: int) -> FockState:
    """Number state |n_a, n_b>."""
    if n_a < 0 or n_b < 0 or n_a + n_b > n_max:
        raise ValueError(f"occupation ({n_a}, {n_b}) invalid for n_max = {n_max}")
    amp = _zeros(n_max)
    amp[n_a, n_b] = 1.0
    return FockState(n_max, amp)


def noon_state(n: int) -> FockState:
    """(|n, 0> + |0, n>)/sqrt(2), truncated at n_max = n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    amp = _zeros(n)
    amp[n, 0] = amp[0, n] = 1.0 / math.sqrt(2.0)
    return FockState(n, amp)


def create(state: FockState, mode: str) -> FockState:
    """Apply a creation operator; raw sqrt(n+1) ladder factors are kept."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    n_max = state.n_max
    amp = state.amplitudes
    na, nb = np.indices(amp.shape)
    boundary = np.abs(amp[na + nb == n_max])
    if boundary.size and boundary.max() > 1e-14:
        raise TruncationOverflowError(
            f"creation on mode {mode!r} would exceed the truncation n_max = {n_max}"
        )
    out = np.zeros_like(amp)
    ladder = np.sqrt(np.arange(1, n_max + 1, dtype=float))
    if mode == "a":
        out[1:, :] = amp[:-1, :] * ladder[:, None]
    else:
        out[:, 1:] = amp[:, :-1] * ladder[None, :]
    return FockState(n_max, out)


@dataclass(frozen=True)
class ModeRotation:
    """Two-mode linear transform: the PBS at an angle (45 degrees is the balanced splitter)."""

    angle: float = math.pi / 4.0

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle))
        # [[c, s], [s, -c]] is orthogonal for every finite angle
        if not math.isfinite(self.angle):
            raise ValueError(f"mode rotation angle must be finite, got {self.angle!r}")

    @property
    def matrix(self) -> np.ndarray:
        """Rows map old-mode creation operators onto new-mode ones."""
        if self.angle == math.pi / 4.0:
            # libm puts cos(pi/4) and sin(pi/4) one ulp apart; the balanced
            # element uses the exact common value so the HOM null is exact
            c = s = math.sqrt(0.5)
        else:
            c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, s], [s, -c]], dtype=complex)


def apply_rotation(state: FockState, rot: ModeRotation) -> FockState:
    """Re-express the state in the rotated mode basis (physical action).

    Each occupied (m, n) entry is expanded through the multinomial rewrite
    of (a+)^m (b+)^n under the mode transform; total photon number and norm
    are preserved.
    """
    m00, m01 = rot.matrix[0]
    m10, m11 = rot.matrix[1]
    n_max = state.n_max
    out = _zeros(n_max)
    for m, n, value in state.occupied(atol=0.0):
        if m + n > n_max:  # unreachable for validated inputs, guards the rewrite
            raise TruncationOverflowError("rotation input exceeds the truncation")
        scale = value / math.sqrt(math.factorial(m) * math.factorial(n))
        for p in range(m + n + 1):
            q = m + n - p
            coeff = 0.0j
            for i in range(max(0, p - n), min(m, p) + 1):
                j = p - i
                coeff += (
                    math.comb(m, i)
                    * math.comb(n, j)
                    * m00**i
                    * m01 ** (m - i)
                    * m10**j
                    * m11 ** (n - j)
                )
            out[p, q] += scale * coeff * math.sqrt(math.factorial(p) * math.factorial(q))
    return FockState(n_max, out)


def coincidence_probability(state: FockState) -> float:
    """|amplitude(1, 1)|^2, the two-detector coincidence signal."""
    return float(abs(state.amplitudes[1, 1]) ** 2)


def hong_ou_mandel_output() -> FockState:
    """|1,1> through the 45-degree PBS: (|2,0> - |0,2>)/sqrt(2), on the n_max = 2 table."""
    return apply_rotation(fock_basis(2, 1, 1), ModeRotation(math.pi / 4.0))


def photon_atoms_entangle(noon1: FockState) -> StateVector:
    """Map a single-photon path superposition onto two path-marker atoms.

    The atom in the mode the photon traversed is excited: |1,0> -> |e,g>,
    |0,1> -> |g,e| with qubit basis |0> = ground, |1> = excited.  The input
    must be unit norm with support only on (1,0) and (0,1).
    """
    if noon1.n_max < 1:
        raise ValueError("input truncation cannot hold a photon")
    amp = noon1.amplitudes
    if abs(noon1.norm - 1.0) > AMPLITUDE_ATOL:
        raise ValueError("input state must be normalized")
    support = np.zeros_like(amp, dtype=bool)
    support[1, 0] = support[0, 1] = True
    if np.abs(amp[~support]).max() > AMPLITUDE_ATOL:
        raise ValueError("input is not a single-photon path superposition")
    atoms = np.zeros(4, dtype=complex)
    atoms[2] = amp[1, 0]  # |e,g> = |1>|0>
    atoms[1] = amp[0, 1]  # |g,e> = |0>|1>
    return StateVector((2, 2), atoms)


def fock_from_labeled_pair(pair: StateVector) -> FockState:
    """Project a two-photon labeled-particle ket onto the bosonic sector.

    The symmetric components map onto occupations, |xx> -> |2,0>,
    |yy> -> |0,2>, (|xy> + |yx>)/sqrt(2) -> |1,1>; the antisymmetric
    component has no bosonic image and its weight is discarded, so the
    result is generally sub-normalized.  This is the bookkeeping that shows
    a bare basis relabeling of distinguishable-photon kets is not the
    physical beamsplitter action.
    """
    if pair.dims != (2, 2):
        raise ValueError(f"expected a two-qubit labeled pair, got dims {pair.dims}")
    c = pair.amplitudes
    amp = np.zeros((3, 3), dtype=complex)
    amp[2, 0] = c[0]
    amp[1, 1] = (c[1] + c[2]) / math.sqrt(2.0)
    amp[0, 2] = c[3]
    return FockState(2, amp)
