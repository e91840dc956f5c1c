"""Two-mode bosonic Fock-space engine.

A state is the map from each occupied number state (n_a, n_b) to its
complex amplitude, so its size is the number of occupied states, whatever
the photon number.  Ladder operations keep raw (possibly non-unit)
amplitudes so operator algebra like a+_H a+_V |0> composes without hidden
renormalization; call :meth:`FockState.normalized` when a physical state
is needed.

Mode rotations rewrite creation operators as linear combinations of the
rotated-mode operators and re-expand, which is the physical beamsplitter
action.  The polarizing-beamsplitter convention at angle t is

    a+_H -> cos(t) a+_A + sin(t) a+_D,
    a+_V -> sin(t) a+_A - cos(t) a+_D,

so at 45 degrees, the balanced (50:50) splitter, a+_H -> (a+_A + a+_D)/sqrt(2)
and a+_V -> (a+_A - a+_D)/sqrt(2).  The matrix is symmetric orthogonal, hence
its own inverse: applying the same rotation twice returns the input.
Output amplitudes are always stated in the rotated (new) mode basis.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .qcore import StateVector

AMPLITUDE_ATOL = 1e-12


@dataclass(frozen=True)
class FockState:
    """Two-mode photon-number state: a read-only map (n_a, n_b) -> amplitude in sorted key order."""

    amplitudes: Mapping[tuple[int, int], complex]

    def __post_init__(self):
        entries = {}
        for (n_a, n_b), value in dict(self.amplitudes).items():
            n_a, n_b, value = operator.index(n_a), operator.index(n_b), complex(value)
            if n_a < 0 or n_b < 0:
                raise ValueError(f"occupation ({n_a}, {n_b}) must be nonnegative")
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"amplitudes must be finite, got {value!r} at ({n_a}, {n_b})")
            entries[n_a, n_b] = value
        object.__setattr__(self, "amplitudes", MappingProxyType(dict(sorted(entries.items()))))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(list(self.amplitudes.values())))

    def normalized(self) -> "FockState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return FockState({key: value / n for key, value in self.amplitudes.items()})

    def amplitude(self, n_a: int, n_b: int) -> complex:
        return self.amplitudes.get((n_a, n_b), 0j)

    def total_number_distribution(self) -> dict[int, float]:
        """{total photon number: probability}, ascending (assumes unit norm); sums in entry order as np.bincount."""
        distribution = {}
        for (n_a, n_b), value in self.amplitudes.items():
            distribution[n_a + n_b] = distribution.get(n_a + n_b, 0.0) + abs(value) ** 2
        return dict(sorted(distribution.items()))

    def occupied(self, atol: float = AMPLITUDE_ATOL):
        """Yield (n_a, n_b, amplitude) for entries above ``atol``."""
        for (n_a, n_b), value in self.amplitudes.items():
            if abs(value) > atol:
                yield n_a, n_b, value


def vacuum() -> FockState:
    return FockState({(0, 0): 1.0})


def fock_basis(n_a: int, n_b: int) -> FockState:
    """Number state |n_a, n_b>."""
    return FockState({(n_a, n_b): 1.0})


def noon_state(n: int) -> FockState:
    """(|n, 0> + |0, n>)/sqrt(2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    r = 1.0 / math.sqrt(2.0)
    return FockState({(n, 0): r, (0, n): r})


def create(state: FockState, mode: str) -> FockState:
    """Apply a creation operator; raw sqrt(n+1) ladder factors are kept."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    out = {}
    for (n_a, n_b), value in state.amplitudes.items():
        if mode == "a":
            out[n_a + 1, n_b] = value * math.sqrt(n_a + 1)
        else:
            out[n_a, n_b + 1] = value * math.sqrt(n_b + 1)
    return FockState(out)


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
    (m00, m01), (m10, m11) = rot.matrix
    out = {}
    for m, n, value in state.occupied(atol=0.0):
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
            term = scale * coeff * math.sqrt(math.factorial(p) * math.factorial(q))
            out[p, q] = out.get((p, q), 0j) + term
    return FockState(out)


def coincidence_probability(state: FockState) -> float:
    """|amplitude(1, 1)|^2, the two-detector coincidence signal."""
    return float(abs(state.amplitude(1, 1)) ** 2)


def hong_ou_mandel_output() -> FockState:
    """|1,1> through the 45-degree PBS: (|2,0> - |0,2>)/sqrt(2)."""
    return apply_rotation(fock_basis(1, 1), ModeRotation(math.pi / 4.0))


def photon_atoms_entangle(noon1: FockState) -> StateVector:
    """Map a single-photon path superposition onto two path-marker atoms.

    The atom in the mode the photon traversed is excited: |1,0> -> |e,g>,
    |0,1> -> |g,e| with qubit basis |0> = ground, |1> = excited.  The input
    must be unit norm with support only on (1,0) and (0,1).
    """
    if abs(noon1.norm - 1.0) > AMPLITUDE_ATOL:
        raise ValueError("input state must be normalized")
    if any((n_a, n_b) not in ((1, 0), (0, 1)) for n_a, n_b, _ in noon1.occupied()):
        raise ValueError("input is not a single-photon path superposition")
    atoms = np.zeros(4, dtype=complex)
    atoms[2] = noon1.amplitude(1, 0)  # |e,g> = |1>|0>
    atoms[1] = noon1.amplitude(0, 1)  # |g,e> = |0>|1>
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
    return FockState({(2, 0): c[0], (1, 1): (c[1] + c[2]) / math.sqrt(2.0), (0, 2): c[3]})
