"""Core linear algebra: containers, tensor products, reductions, Born rule."""

import numpy as np
import pytest

from qfoundry import qcore
from qfoundry.qcore import (
    DensityMatrix,
    MeasurementSetting,
    Observable,
    StateVector,
    apply_unitary,
    basis_state,
    expectation,
    fidelity,
    measure_probability,
    partial_trace,
    singlet,
    spin_observable,
    tensor,
)


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestContainers:
    def test_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector((2,), [1.0, 1.0])

    def test_state_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            StateVector((2, 2), [1.0, 0.0])

    def test_state_rejects_trivial_subsystem(self):
        with pytest.raises(ValueError, match=">= 2"):
            StateVector((1, 4), [1.0, 0.0, 0.0, 0.0])

    def test_density_matrix_checks(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), [[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((2,), np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix((2,), [[1.5, 0.0], [0.0, -0.5]])

    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable([[0.0, 1.0], [2.0, 0.0]])

    def test_setting_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSetting([1.0, 1.0, 0.0])
        s = MeasurementSetting.normalized([1.0, 1.0, 0.0])
        assert np.isclose(np.linalg.norm(s.direction), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_setting_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting([bad, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting.normalized([bad, 0.0, 1.0])

    def test_index_convention_subsystem0_slowest(self):
        # |0> x |1| on (2, 2) puts the amplitude at flat index 1
        state = basis_state((2, 2), (0, 1))
        assert state.amplitudes[1] == 1.0
        state = basis_state((2, 3), (1, 2))
        assert state.amplitudes[1 * 3 + 2] == 1.0


class TestTensor:
    def test_basis_outer_product(self):
        out = tensor(basis_state((2,), (0,)), basis_state((2,), (1,)))
        assert out.dims == (2, 2)
        np.testing.assert_allclose(out.amplitudes, [0.0, 1.0, 0.0, 0.0])

    def test_linearity(self):
        plus = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = tensor(plus, basis_state((2,), (0,)))
        np.testing.assert_allclose(
            out.amplitudes, [1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0), 0.0]
        )

    def test_singlet_normalized(self):
        up, down = basis_state((2,), (0,)), basis_state((2,), (1,))
        amplitudes = (tensor(up, down).amplitudes - tensor(down, up).amplitudes) / np.sqrt(2.0)
        state = StateVector((2, 2), amplitudes)
        np.testing.assert_allclose(state.amplitudes, singlet().amplitudes)

    def test_tensor_then_trace_returns_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1 = qcore.random_state((2,), rng)
            s2 = qcore.random_state((3,), rng)
            joint = tensor(s1, s2).density()
            for keep, factor in ((0, s1), (1, s2)):
                reduced = partial_trace(joint, keep)
                expected = factor.density().matrix
                assert np.max(np.abs(reduced.matrix - expected)) < 1e-12


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        rho = singlet().density()
        for keep in (0, 1):
            reduced = partial_trace(rho, keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2.0)) < 1e-12

    def test_plus_minus_basis_reduction_identical(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        amplitudes = (np.kron(plus, minus) - np.kron(minus, plus)) / np.sqrt(2.0)
        rho = StateVector((2, 2), amplitudes).density()
        reduced = partial_trace(rho, 1)
        z_basis = partial_trace(singlet().density(), 1)
        assert np.max(np.abs(reduced.matrix - z_basis.matrix)) < 1e-12

    def test_product_state_factorizes(self):
        rho = tensor(basis_state((2,), (0,)), basis_state((2,), (1,))).density()
        reduced = partial_trace(rho, 0)
        np.testing.assert_allclose(reduced.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_trace_preserved_and_index_checked(self):
        rng = np.random.default_rng(3)
        state = qcore.random_state((2, 2, 3), rng)
        reduced = partial_trace(state.density(), 2)
        assert reduced.dims == (3,)
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
        with pytest.raises(IndexError):
            partial_trace(state.density(), 3)

    def test_three_subsystem_reduction_recovers_each_factor(self):
        rng = np.random.default_rng(31)
        factors = [qcore.random_state((d,), rng) for d in (2, 3, 2)]
        joint = tensor(tensor(factors[0], factors[1]), factors[2]).density()
        for keep, factor in enumerate(factors):
            reduced = partial_trace(joint, keep)
            assert np.max(np.abs(reduced.matrix - factor.density().matrix)) < 1e-12

    def test_basis_independence_of_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = qcore.random_state((2, 2), rng)
            u = haar_unitary(2, rng)
            rotated = apply_unitary(state, u, subsystem=0)
            direct = partial_trace(state.density(), 1)
            via_rotation = partial_trace(rotated.density(), 1)
            assert np.max(np.abs(direct.matrix - via_rotation.matrix)) < 1e-12


class TestBornRule:
    def test_eigenstate_probability_one(self):
        up = basis_state((2,), (0,))
        p = measure_probability(up, qcore.projector_onto([1.0, 0.0]))
        assert abs(p - 1.0) < 1e-12

    def test_singlet_joint_antibunching(self):
        proj = Observable(np.kron([[1, 0], [0, 0]], [[1, 0], [0, 0]]).astype(complex))
        assert measure_probability(singlet(), proj) == 0.0

    def test_photon_pair_joint_passage(self):
        # both polarizers pass on (|HH> + |VV>)/sqrt(2): oracle is the direct
        # 4-dim inner product |<theta_a theta_b|psi>|^2 = cos^2(a-b)/2
        rng = np.random.default_rng(5)
        pair = StateVector((2, 2), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
        for _ in range(25):
            a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
            ket = np.kron([np.cos(a), np.sin(a)], [np.cos(b), np.sin(b)]).astype(complex)
            oracle = abs(ket.conj() @ pair.amplitudes) ** 2
            proj = qcore.projector_onto(ket)
            assert abs(measure_probability(pair, proj) - oracle) < 1e-12
            assert abs(oracle - 0.5 * np.cos(a - b) ** 2) < 1e-12

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            measure_probability(basis_state((2,), (0,)), Observable(np.eye(2) * 0.5))

    def test_complete_projector_set_sums_to_one(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            state = qcore.random_state((dim,), rng)
            u = haar_unitary(dim, rng)
            total = sum(
                measure_probability(state, qcore.projector_onto(u[:, k])) for k in range(dim)
            )
            assert abs(total - 1.0) < 1e-10


class TestSpinObservable:
    def test_z_and_x_axes(self):
        z = spin_observable(MeasurementSetting([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(z.matrix, np.diag([1.0, -1.0]))
        x = spin_observable(MeasurementSetting([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(x.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_eigenvalues_are_plus_minus_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            obs = spin_observable(MeasurementSetting.random(rng))
            np.testing.assert_allclose(np.linalg.eigvalsh(obs.matrix), [-1.0, 1.0], atol=1e-12)

    def test_singlet_correlator_is_minus_dot_product(self):
        rng = np.random.default_rng(19)
        state = singlet()
        for _ in range(50):
            n = MeasurementSetting.random(rng)
            m = MeasurementSetting.random(rng)
            op = Observable(np.kron(spin_observable(n).matrix, spin_observable(m).matrix))
            assert abs(expectation(state, op) + n.dot(m)) < 1e-12


class TestApplyUnitary:
    def test_subsystem_application_matches_factor_action(self):
        rng = np.random.default_rng(37)
        factors = [qcore.random_state((2,), rng) for _ in range(3)]
        joint = tensor(tensor(factors[0], factors[1]), factors[2])
        u = haar_unitary(2, rng)
        rotated = apply_unitary(joint, u, subsystem=1)
        middle = StateVector((2,), u @ factors[1].amplitudes)
        expected = tensor(tensor(factors[0], middle), factors[2])
        assert np.max(np.abs(rotated.amplitudes - expected.amplitudes)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(singlet(), np.array([[1.0, 1.0], [0.0, 1.0]]), 0)


class TestSingletInvariance:
    def test_rotational_invariance_up_to_phase(self):
        rng = np.random.default_rng(23)
        state = singlet()
        for _ in range(25):
            u = haar_unitary(2, rng)
            rotated = apply_unitary(apply_unitary(state, u, 0), u, 1)
            assert abs(fidelity(state, rotated) - 1.0) < 1e-12

    def test_global_phase_not_stripped(self):
        phased = StateVector((2, 2), singlet().amplitudes * np.exp(0.7j))
        assert not np.allclose(phased.amplitudes, singlet().amplitudes)
        assert abs(fidelity(phased, singlet()) - 1.0) < 1e-12


def test_qutrit_support():
    # the engine must not hard-code qubits: build a qutrit projector chain
    rng = np.random.default_rng(29)
    state = qcore.random_state((3,), rng)
    u = haar_unitary(3, rng)
    probabilities = [
        measure_probability(state, qcore.projector_onto(u[:, k])) for k in range(3)
    ]
    assert abs(sum(probabilities) - 1.0) < 1e-10
