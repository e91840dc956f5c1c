"""Two-mode bosonic Fock-space engine.

A state is the map from each occupied number state (n_a, n_b) to its
complex amplitude, so its size is the number of occupied states, whatever
the photon number.

The balanced (50:50, 45 degree) polarizing beamsplitter rewrites creation
operators as linear combinations of the rotated-mode operators and
re-expands, which is the physical beamsplitter action:

    a+_H -> (a+_A + a+_D)/sqrt(2),
    a+_V -> (a+_A - a+_D)/sqrt(2).

The matrix is symmetric orthogonal, hence its own inverse: applying the
splitter twice returns the input.  Output amplitudes are always stated in
the rotated (new) mode basis.
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
        values = np.array(list(self.amplitudes.values()), dtype=complex)
        with np.errstate(over="ignore"):  # squares past the float range are rescaled below
            norm = float(np.linalg.norm(values))
            if not 2.0**-511 <= norm < math.inf:  # the squares lost digits or overflowed
                peak = float(np.max(np.abs(values), initial=0.0))
                if 0.0 < peak < math.inf:
                    norm = peak * float(np.linalg.norm(values / peak))
        return norm

    def amplitude(self, n_a: int, n_b: int) -> complex:
        return self.amplitudes.get((n_a, n_b), 0j)

    def occupied(self, atol: float = AMPLITUDE_ATOL):
        """Yield (n_a, n_b, amplitude) for entries above ``atol``."""
        for (n_a, n_b), value in self.amplitudes.items():
            if abs(value) > atol:
                yield n_a, n_b, value


def fock_basis(n_a: int, n_b: int) -> FockState:
    """Number state |n_a, n_b>."""
    return FockState({(n_a, n_b): 1.0})


def noon_state(n: int) -> FockState:
    """(|n, 0> + |0, n>)/sqrt(2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    r = 1.0 / math.sqrt(2.0)
    return FockState({(n, 0): r, (0, n): r})


# Rows map old-mode creation operators onto new-mode ones.  libm puts
# cos(pi/4) and sin(pi/4) one ulp apart; every element uses the exact common
# value sqrt(1/2) so the HOM null is exact.
BALANCED_PBS = np.array([[1, 1], [1, -1]], dtype=complex) * math.sqrt(0.5)


def apply_rotation(state: FockState) -> FockState:
    """Re-express the state in the balanced splitter's output modes (physical action).

    Each occupied (m, n) entry is expanded through the multinomial rewrite
    of (a+)^m (b+)^n under BALANCED_PBS; total photon number and norm
    are preserved.
    """
    (m00, m01), (m10, m11) = BALANCED_PBS
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
    return apply_rotation(fock_basis(1, 1))


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

