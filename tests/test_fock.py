"""Two-mode Fock algebra: ladder operators, mode rotations, interference."""

import math

import numpy as np
import pytest
from helpers import apply_unitary

from qfoundry import qcore
from qfoundry.fock import (
    FockState,
    ModeRotation,
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


def random_fock(rng, max_photons=6):
    """A random unit state on every (n_a, n_b) with n_a + n_b <= max_photons."""
    amp = {}
    for n_a in range(max_photons + 1):
        for n_b in range(max_photons + 1 - n_a):
            amp[n_a, n_b] = rng.normal() + 1j * rng.normal()
    return FockState(amp).normalized()


def overlap(bra, ket):
    """<bra|ket> over the occupied states of ket."""
    return sum(bra.amplitude(n_a, n_b).conjugate() * value for (n_a, n_b), value in ket.amplitudes.items())


class TestFockState:
    def test_refuses_negative_occupation(self):
        with pytest.raises(ValueError, match=r"occupation \(-1, 2\) must be nonnegative"):
            FockState({(-1, 2): 1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            fock_basis(0, -1)

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
        assert abs(state.norm - 1.0) < 1e-15
        assert abs(state.amplitude(2, 0) - 1.0 / SQRT2) < 1e-15
        assert state.amplitude(1, 1) == 0.0

    def test_total_number_distribution(self):
        state = noon_state(3)
        dist = state.total_number_distribution()
        assert list(dist) == [3]
        assert abs(dist[3] - 1.0) < 1e-12
        assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_total_number_distribution_holds_only_occupied_totals(self):
        # a map over the occupied totals in ascending order, whatever the photon number
        assert list(noon_state(10**6).total_number_distribution()) == [10**6]
        mixed = FockState({(2, 1): 0.6, (0, 1): 0.48, (1, 0): 0.64})
        dist = mixed.total_number_distribution()
        assert list(dist) == [1, 3]
        # the sums of the dense np.bincount table, byte for byte
        totals = [n_a + n_b for n_a, n_b in mixed.amplitudes]
        dense = np.bincount(totals, weights=[abs(value) ** 2 for value in mixed.amplitudes.values()])
        assert dist == {1: dense[1], 3: dense[3]}


class TestCreate:
    def test_vacuum_ladder(self):
        state = create(vacuum(), "a")
        assert state.amplitude(1, 0) == 1.0

    def test_sqrt_factor_accumulates(self):
        state = create(create(vacuum(), "a"), "a")
        assert abs(state.amplitude(2, 0) - SQRT2) < 1e-15
        assert abs(state.norm - SQRT2) < 1e-15  # raw amplitudes kept

    def test_two_mode_creation_normalizes_to_one_one(self):
        raw = create(create(vacuum(), "a"), "b")
        state = raw.normalized()
        assert abs(state.amplitude(1, 1) - 1.0) < 1e-15

    def test_ladder_factor_on_a_mixed_state(self):
        # a+_b |2,1> = sqrt(2) |2,2>, with no photon-number ceiling
        state = create(fock_basis(2, 1), "b")
        assert list(state.amplitudes) == [(2, 2)]
        assert abs(state.amplitude(2, 2) - SQRT2) < 1e-15


class TestModeRotation:
    def test_matrix_unitary_for_any_angle(self):
        for angle in np.linspace(0.0, np.pi, 17):
            m = ModeRotation(angle).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_pbs_45_on_two_photons_gives_2002_state(self):
        output = apply_rotation(fock_basis(1, 1), ModeRotation(math.pi / 4.0))
        assert abs(output.amplitude(2, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 2) + 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(1, 1)) < 1e-12

    def test_balanced_splitter_on_single_photon(self):
        output = apply_rotation(fock_basis(1, 0), ModeRotation())
        assert abs(output.amplitude(1, 0) - 1.0 / SQRT2) < 1e-12
        assert abs(output.amplitude(0, 1) - 1.0 / SQRT2) < 1e-12

    def test_vacuum_is_invariant(self):
        output = apply_rotation(vacuum(), ModeRotation(0.7))
        assert output.amplitude(0, 0) == 1.0
        assert abs(output.norm - 1.0) < 1e-15

    def test_rotations_preserve_norm_and_photon_number(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            state = random_fock(rng, max_photons=6)
            rot = ModeRotation(rng.uniform(0.0, np.pi))
            rotated = apply_rotation(state, rot)
            assert abs(rotated.norm - 1.0) < 1e-12
            before, after = state.total_number_distribution(), rotated.total_number_distribution()
            assert list(after) == list(before)
            np.testing.assert_allclose(list(after.values()), list(before.values()), atol=1e-12)

    def test_rotation_is_its_own_inverse(self):
        rng = np.random.default_rng(83)
        for angle in (0.3, math.pi / 4.0, 1.2):
            state = random_fock(rng, max_photons=5)
            rot = ModeRotation(angle)
            round_trip = apply_rotation(apply_rotation(state, rot), rot)
            keys = set(round_trip.amplitudes) | set(state.amplitudes)
            assert max(abs(round_trip.amplitude(*key) - state.amplitude(*key)) for key in keys) < 1e-12


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
            reduced = qcore.partial_trace(atoms.density(), keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-12
        eigenvalues = np.linalg.eigvalsh(qcore.partial_trace(atoms.density(), 0).matrix)
        entropy = -sum(v * math.log2(v) for v in eigenvalues)
        assert abs(entropy - 1.0) < 1e-12

    def test_rejects_multiphoton_input(self):
        with pytest.raises(ValueError, match="single-photon"):
            photon_atoms_entangle(noon_state(2))
        with pytest.raises(ValueError, match="normalized"):
            photon_atoms_entangle(FockState({(0, 1): 0.5, (1, 0): 0.5}))


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
        fidelity = abs(overlap(physical, naive)) ** 2
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


OLD_CAP = 1024  # the largest truncation the dense amplitude table allowed


def raised_vacuum():
    """The vacuum with mode a raised one photon past OLD_CAP."""
    state = vacuum()
    for _ in range(OLD_CAP + 1):
        state = create(state, "a").normalized()
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
    assert abs(state.norm - 1.0) < 1e-15


def test_memory_does_not_grow_with_photon_number():
    n = 10**9
    assert create(fock_basis(n, 0), "a").amplitudes == {(n + 1, 0): math.sqrt(n + 1)}
