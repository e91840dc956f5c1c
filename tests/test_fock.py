"""Two-mode Fock algebra: number states, the balanced splitter, interference."""

import math

import numpy as np
import pytest
from helpers import apply_unitary, fock_norm
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfoundry import qcore
from qfoundry.fock import (
    BALANCED_PBS,
    FockState,
    apply_rotation,
    coincidence_probability,
    fock_basis,
    hong_ou_mandel_output,
    noon_state,
    photon_atoms_entangle,
)

SQRT2 = math.sqrt(2.0)


def random_fock(rng, max_photons=6):
    """A random unit state on every (n_a, n_b) with n_a + n_b <= max_photons."""
    amp = {}
    for n_a in range(max_photons + 1):
        for n_b in range(max_photons + 1 - n_a):
            amp[n_a, n_b] = rng.normal() + 1j * rng.normal()
    state = FockState(amp)
    return FockState({key: value / fock_norm(state) for key, value in state.amplitudes.items()})


@st.composite
def fock_states(draw, max_photons=6):
    """A unit state on every (n_a, n_b) with n_a + n_b <= a drawn total of at most ``max_photons``."""
    top = draw(st.integers(0, max_photons))
    keys = [(n_a, total - n_a) for total in range(top + 1) for n_a in range(total + 1)]
    parts = st.floats(-1.0, 1.0)
    values = [complex(draw(parts), draw(parts)) for _ in keys]
    norm = math.sqrt(sum(abs(value) ** 2 for value in values))
    assume(norm > 0.1)
    return FockState({key: value / norm for key, value in zip(keys, values)})


# Rounding bound of the splitter's multinomial sums on unit states of at most
# six photons.  Over 300 random such states the worst deviation of the round
# trip, the norm and the photon-number distribution was 6.7e-16 (1.0e-15 in an
# earlier measurement), and the largest odd amplitude of |n,n> out of the
# splitter was 1.3e-15, at n = 6; the bound leaves a factor of about 100.
SPLITTER_ATOL = 1e-13


def number_distribution(state, minlength=0):
    """Probability of each total photon number, by np.bincount."""
    totals = [n_a + n_b for n_a, n_b in state.amplitudes]
    return np.bincount(totals, weights=[abs(value) ** 2 for value in state.amplitudes.values()], minlength=minlength)


def overlap(bra, ket):
    """<bra|ket> over the occupied states of ket."""
    return sum(bra.amplitude(n_a, n_b).conjugate() * value for (n_a, n_b), value in ket.amplitudes.items())


class TestFockState:
    def test_is_a_read_only_map_in_sorted_key_order(self):
        state = FockState({(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.0})
        assert list(state.amplitudes) == [(0, 2), (1, 1), (2, 0)]
        assert all(type(value) is complex for value in state.amplitudes.values())
        with pytest.raises(TypeError):
            state.amplitudes[3, 0] = 1.0
        # an occupation that is not stored has amplitude zero
        assert state.amplitude(5, 7) == 0.0

    def test_amplitude_and_norm(self):
        state = noon_state(2)
        assert abs(fock_norm(state) - 1.0) < 1e-15
        assert abs(state.amplitude(2, 0) - 1.0 / SQRT2) < 1e-15
        assert state.amplitude(1, 1) == 0.0


class TestModeRotation:
    """The balanced (45 degree) splitter, the one mode rotation the scenarios use."""

    def test_matrix_is_unitary_and_its_own_inverse(self):
        m = BALANCED_PBS
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-15
        assert np.max(np.abs(m @ m - np.eye(2))) < 1e-15
        # one shared value in every element, so the HOM amplitudes cancel exactly
        assert set(np.abs(m).ravel().tolist()) == {math.sqrt(0.5)}

    def test_pbs_45_on_two_photons_gives_2002_state(self):
        output = apply_rotation(fock_basis(1, 1))
        assert abs(output.amplitude(2, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 2) + 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(1, 1)) < 1e-12

    def test_balanced_splitter_on_single_photon(self):
        output = apply_rotation(fock_basis(1, 0))
        assert abs(output.amplitude(1, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 1) - 1.0 / SQRT2) < 1e-12

    def test_vacuum_is_invariant(self):
        output = apply_rotation(fock_basis(0, 0))
        assert output.amplitude(0, 0) == 1.0
        assert abs(fock_norm(output) - 1.0) < 1e-15

    def test_rotations_preserve_norm_and_photon_number(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            state = random_fock(rng, max_photons=6)
            rotated = apply_rotation(state)
            assert abs(fock_norm(rotated) - 1.0) < 1e-12
            np.testing.assert_allclose(number_distribution(rotated), number_distribution(state), atol=1e-12)

    def test_rotation_is_its_own_inverse(self):
        rng = np.random.default_rng(83)
        for _ in range(3):
            state = random_fock(rng, max_photons=5)
            round_trip = apply_rotation(apply_rotation(state))
            keys = set(round_trip.amplitudes) | set(state.amplitudes)
            assert max(abs(round_trip.amplitude(*key) - state.amplitude(*key)) for key in keys) < 1e-12


    @settings(max_examples=60, deadline=None)
    @given(fock_states())
    def test_splitter_is_an_involution_keeping_norm_and_photon_number(self, state):
        rotated = apply_rotation(state)
        round_trip = apply_rotation(rotated)
        keys = set(round_trip.amplitudes) | set(state.amplitudes)
        assert max(abs(round_trip.amplitude(*key) - state.amplitude(*key)) for key in keys) <= SPLITTER_ATOL
        assert abs(fock_norm(rotated) - 1.0) <= SPLITTER_ATOL
        # the splitter drops zero amplitudes, so compare over every total the input holds
        totals = max(n_a + n_b for n_a, n_b in state.amplitudes) + 1
        np.testing.assert_allclose(
            number_distribution(rotated, totals), number_distribution(state), rtol=0, atol=SPLITTER_ATOL
        )

    @settings(deadline=None)
    @given(st.integers(0, 6))
    def test_equal_photon_numbers_leave_only_even_numbers_in_each_port(self, n):
        # |n,n> through a balanced splitter has no odd photon number in either
        # port: Campos, Saleh & Teich, Phys. Rev. A 40, 1371 (1989).  The
        # outputs total 2n, so an odd count in one port is odd in the other.
        output = apply_rotation(fock_basis(n, n))
        assert all(abs(value) <= SPLITTER_ATOL for (n_a, _), value in output.amplitudes.items() if n_a % 2)
        even_weight = sum(abs(value) ** 2 for (n_a, _), value in output.amplitudes.items() if n_a % 2 == 0)
        assert abs(even_weight - 1.0) <= SPLITTER_ATOL


class TestCoincidence:
    def test_definition(self):
        assert coincidence_probability(fock_basis(1, 1)) == 1.0
        state = FockState({(2, 0): 1.0 / SQRT2, (1, 1): 1.0 / SQRT2})
        assert abs(coincidence_probability(state) - 0.5) < 1e-15

    def test_hong_ou_mandel_null(self):
        output = hong_ou_mandel_output()
        assert coincidence_probability(output) == 0.0


class TestPhotonAtoms:
    def test_single_photon_superposition_entangles_atoms(self):
        atoms = photon_atoms_entangle(noon_state(1))
        expected = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / SQRT2
        np.testing.assert_allclose(atoms.amplitudes, expected, atol=1e-15)

    def test_definite_path_gives_product_state(self):
        atoms = photon_atoms_entangle(fock_basis(1, 0))
        np.testing.assert_allclose(atoms.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_reduced_atom_state_is_maximally_mixed(self):
        atoms = photon_atoms_entangle(noon_state(1))
        for keep in (0, 1):
            reduced = qcore.partial_trace(atoms, keep)
            assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-12
        eigenvalues = np.linalg.eigvalsh(qcore.partial_trace(atoms, 0))
        entropy = -sum(v * math.log2(v) for v in eigenvalues)
        assert abs(entropy - 1.0) < 1e-12

    def test_rejects_multiphoton_input(self):
        with pytest.raises(ValueError, match="single-photon"):
            photon_atoms_entangle(noon_state(2))
        with pytest.raises(ValueError, match="single-photon"):
            photon_atoms_entangle(FockState({(1, 0): 0.6, (0, 1): 0.8, (2, 0): float("nan")}))
        with pytest.raises(ValueError, match="normalized"):
            photon_atoms_entangle(FockState({(0, 1): 0.5, (1, 0): 0.5}))


class TestBasisRelabelingDemo:
    def test_naive_relabeling_is_not_the_beamsplitter_action(self):
        # rotating the unsymmetrized |H>|V> labels and projecting onto the
        # bosonic sector loses the antisymmetric half of the weight; only
        # the operator rewrite produces the 2002 state
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
        labeled = qcore.StateVector((2, 2), [0.0, 1.0, 0.0, 0.0])  # |H>_1 |V>_2
        relabeled = apply_unitary(
            apply_unitary(labeled, hadamard, 0), hadamard, 1
        )
        # the bosonic projection: |xx> -> |2,0>, |yy> -> |0,2>, (|xy> + |yx>)/sqrt(2) -> |1,1>
        c = relabeled.amplitudes
        naive = FockState({(2, 0): c[0], (1, 1): (c[1] + c[2]) / SQRT2, (0, 2): c[3]})
        physical = hong_ou_mandel_output()
        fidelity = abs(overlap(physical, naive)) ** 2
        assert abs(fock_norm(naive) ** 2 - 0.5) < 1e-12
        assert abs(fidelity - 0.5) < 1e-12
        assert fidelity < 1.0


def test_noon_state_validation():
    with pytest.raises(ValueError):
        noon_state(0)
    state = noon_state(5)
    assert abs(state.amplitude(5, 0) - 1.0 / SQRT2) < 1e-15
    assert abs(state.amplitude(0, 5) - 1.0 / SQRT2) < 1e-15


OLD_CAP = 1024  # the largest truncation the dense amplitude table allowed


def raised_vacuum():
    """The vacuum with mode a raised one photon past OLD_CAP, one normalized ladder step at a time."""
    state = FockState({(0, 0): 1.0})
    for _ in range(OLD_CAP + 1):
        state = FockState({(n_a + 1, n_b): value for (n_a, n_b), value in state.amplitudes.items()})
    return state


@pytest.mark.parametrize(
    "make, occupied",
    [
        (raised_vacuum, [(OLD_CAP + 1, 0)]),
        (lambda: fock_basis(10**9, 1), [(10**9, 1)]),
        (lambda: noon_state(10**9), [(0, 10**9), (10**9, 0)]),
    ],
    ids=["vacuum", "fock_basis", "noon_state"],
)
def test_truncation_cap(make, occupied):
    """No constructor caps the photon number; a state past the old cap stores only its occupied entries."""
    state = make()
    assert list(state.amplitudes) == occupied
    assert abs(fock_norm(state) - 1.0) < 1e-15
