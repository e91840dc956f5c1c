"""Two-mode Fock algebra: ladder operators, mode rotations, interference."""

import math

import numpy as np
import pytest
from helpers import apply_unitary

from qfoundry import qcore
from qfoundry.fock import (
    MAX_N_MAX,
    FockState,
    ModeRotation,
    TruncationOverflowError,
    apply_rotation,
    coincidence_probability,
    create,
    fock_basis,
    fock_from_labeled_pair,
    hong_ou_mandel_output,
    noon_state,
    photon_atoms_entangle,
    vacuum,
)

SQRT2 = math.sqrt(2.0)


def random_fock(rng, n_max=6):
    amp = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n_a in range(n_max + 1):
        for n_b in range(n_max + 1 - n_a):
            amp[n_a, n_b] = rng.normal() + 1j * rng.normal()
    amp /= np.linalg.norm(amp)
    return FockState(n_max, amp)


class TestFockState:
    def test_truncation_enforced(self):
        amp = np.zeros((3, 3), dtype=complex)
        amp[2, 2] = 1.0
        with pytest.raises(ValueError, match="beyond the truncation"):
            FockState(2, amp)

    def test_amplitude_and_norm(self):
        state = noon_state(2)
        assert abs(state.norm - 1.0) < 1e-15
        assert abs(state.amplitude(2, 0) - 1.0 / SQRT2) < 1e-15
        assert state.amplitude(1, 1) == 0.0

    def test_total_number_distribution(self):
        state = noon_state(3)
        dist = state.total_number_distribution()
        assert abs(dist[3] - 1.0) < 1e-12
        assert abs(dist.sum() - 1.0) < 1e-12


class TestCreate:
    def test_vacuum_ladder(self):
        state = create(vacuum(4), "a")
        assert state.amplitude(1, 0) == 1.0

    def test_sqrt_factor_accumulates(self):
        state = create(create(vacuum(4), "a"), "a")
        assert abs(state.amplitude(2, 0) - SQRT2) < 1e-15
        assert abs(state.norm - SQRT2) < 1e-15  # raw amplitudes kept

    def test_two_mode_creation_normalizes_to_one_one(self):
        raw = create(create(vacuum(4), "a"), "b")
        state = raw.normalized()
        assert abs(state.amplitude(1, 1) - 1.0) < 1e-15

    def test_overflow_raises(self):
        full = fock_basis(3, 2, 1)
        with pytest.raises(TruncationOverflowError):
            create(full, "b")


class TestModeRotation:
    def test_matrix_unitary_for_any_angle(self):
        for angle in np.linspace(0.0, np.pi, 17):
            m = ModeRotation(angle).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_pbs_45_on_two_photons_gives_2002_state(self):
        output = apply_rotation(fock_basis(2, 1, 1), ModeRotation(math.pi / 4.0))
        assert abs(output.amplitude(2, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 2) + 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(1, 1)) < 1e-12

    def test_balanced_splitter_on_single_photon(self):
        output = apply_rotation(fock_basis(2, 1, 0), ModeRotation())
        assert abs(output.amplitude(1, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 1) - 1.0 / SQRT2) < 1e-12

    def test_vacuum_is_invariant(self):
        output = apply_rotation(vacuum(3), ModeRotation(0.7))
        assert output.amplitude(0, 0) == 1.0
        assert abs(output.norm - 1.0) < 1e-15

    def test_rotations_preserve_norm_and_photon_number(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            state = random_fock(rng, n_max=6)
            rot = ModeRotation(rng.uniform(0.0, np.pi))
            rotated = apply_rotation(state, rot)
            assert abs(rotated.norm - 1.0) < 1e-12
            np.testing.assert_allclose(
                rotated.total_number_distribution(),
                state.total_number_distribution(),
                atol=1e-12,
            )

    def test_rotation_is_its_own_inverse(self):
        rng = np.random.default_rng(83)
        for angle in (0.3, math.pi / 4.0, 1.2):
            state = random_fock(rng, n_max=5)
            rot = ModeRotation(angle)
            round_trip = apply_rotation(apply_rotation(state, rot), rot)
            assert np.max(np.abs(round_trip.amplitudes - state.amplitudes)) < 1e-12


class TestCoincidence:
    def test_definition(self):
        assert coincidence_probability(fock_basis(2, 1, 1)) == 1.0
        amp = np.zeros((3, 3), dtype=complex)
        amp[2, 0] = amp[1, 1] = 1.0 / SQRT2
        assert abs(coincidence_probability(FockState(2, amp)) - 0.5) < 1e-15

    def test_hong_ou_mandel_null(self):
        output = hong_ou_mandel_output()
        assert coincidence_probability(output) == 0.0


class TestPhotonAtoms:
    def test_single_photon_superposition_entangles_atoms(self):
        atoms = photon_atoms_entangle(noon_state(1))
        expected = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / SQRT2
        np.testing.assert_allclose(atoms.amplitudes, expected, atol=1e-15)

    def test_definite_path_gives_product_state(self):
        atoms = photon_atoms_entangle(fock_basis(1, 1, 0))
        np.testing.assert_allclose(atoms.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_reduced_atom_state_is_maximally_mixed(self):
        atoms = photon_atoms_entangle(noon_state(1))
        for keep in (0, 1):
            reduced = qcore.partial_trace(atoms.density(), keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-12
        eigenvalues = np.linalg.eigvalsh(qcore.partial_trace(atoms.density(), 0).matrix)
        entropy = -sum(v * math.log2(v) for v in eigenvalues)
        assert abs(entropy - 1.0) < 1e-12

    def test_rejects_multiphoton_input(self):
        with pytest.raises(ValueError, match="single-photon"):
            photon_atoms_entangle(noon_state(2))
        with pytest.raises(ValueError, match="normalized"):
            photon_atoms_entangle(FockState(1, np.array([[0.0, 0.5], [0.5, 0.0]])))


class TestBasisRelabelingDemo:
    def test_naive_relabeling_is_not_the_beamsplitter_action(self):
        # rotating the unsymmetrized |H>|V> labels and projecting onto the
        # bosonic sector loses the antisymmetric half of the weight; only
        # the operator rewrite produces the 2002 state
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
        labeled = qcore.basis_state((2, 2), (0, 1))  # |H>_1 |V>_2
        relabeled = apply_unitary(
            apply_unitary(labeled, hadamard, 0), hadamard, 1
        )
        naive = fock_from_labeled_pair(relabeled)
        physical = hong_ou_mandel_output()
        overlap = np.vdot(physical.amplitudes, naive.amplitudes)
        fidelity = abs(overlap) ** 2
        assert abs(naive.norm**2 - 0.5) < 1e-12
        assert abs(fidelity - 0.5) < 1e-12
        assert fidelity < 1.0

    def test_symmetrized_input_maps_onto_one_one(self):
        plus_hv = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / SQRT2
        state = fock_from_labeled_pair(qcore.StateVector((2, 2), plus_hv))
        assert abs(state.amplitude(1, 1) - 1.0) < 1e-15
        assert abs(state.norm - 1.0) < 1e-15


def test_noon_state_validation():
    with pytest.raises(ValueError):
        noon_state(0)
    state = noon_state(5)
    assert abs(state.amplitude(5, 0) - 1.0 / SQRT2) < 1e-15
    assert abs(state.amplitude(0, 5) - 1.0 / SQRT2) < 1e-15


@pytest.mark.parametrize(
    "make",
    [vacuum, lambda n_max: fock_basis(n_max, 1, 1), noon_state],
    ids=["vacuum", "fock_basis", "noon_state"],
)
def test_truncation_cap(make):
    assert make(MAX_N_MAX).n_max == MAX_N_MAX
    with pytest.raises(ValueError, match=f"exceeds MAX_N_MAX = {MAX_N_MAX}"):
        make(MAX_N_MAX + 1)
