"""Core linear algebra: containers, tensor products, reductions, Born rule."""

import dataclasses

import numpy as np
import pytest

from helpers import apply_unitary, kron_projector, measure_probability, projector, random_state

from qfoundry import fock, hvmodels, inequalities, popper, qcore
from qfoundry.qcore import (
    DensityMatrix,
    MeasurementSetting,
    Observable,
    StateVector,
    basis_state,
    expectation,
    fidelity,
    partial_trace,
    product_probability,
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
            s1 = random_state((2,), rng)
            s2 = random_state((3,), rng)
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
        state = random_state((2, 2, 3), rng)
        reduced = partial_trace(state.density(), 2)
        assert reduced.dims == (3,)
        assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
        with pytest.raises(IndexError):
            partial_trace(state.density(), 3)

    def test_three_subsystem_reduction_recovers_each_factor(self):
        rng = np.random.default_rng(31)
        factors = [random_state((d,), rng) for d in (2, 3, 2)]
        joint = tensor(tensor(factors[0], factors[1]), factors[2]).density()
        for keep, factor in enumerate(factors):
            reduced = partial_trace(joint, keep)
            assert np.max(np.abs(reduced.matrix - factor.density().matrix)) < 1e-12

    def test_basis_independence_of_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = random_state((2, 2), rng)
            u = haar_unitary(2, rng)
            rotated = apply_unitary(state, u, subsystem=0)
            direct = partial_trace(state.density(), 1)
            via_rotation = partial_trace(rotated.density(), 1)
            assert np.max(np.abs(direct.matrix - via_rotation.matrix)) < 1e-12


class TestBornRule:
    def test_eigenstate_probability_one(self):
        up = basis_state((2,), (0,))
        p = measure_probability(up, projector([1.0, 0.0]))
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
            proj = projector(ket)
            assert abs(measure_probability(pair, proj) - oracle) < 1e-12
            assert abs(oracle - 0.5 * np.cos(a - b) ** 2) < 1e-12

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            measure_probability(basis_state((2,), (0,)), Observable(np.eye(2) * 0.5))

    def test_complete_projector_set_sums_to_one(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            state = random_state((dim,), rng)
            u = haar_unitary(dim, rng)
            total = sum(
                measure_probability(state, projector(u[:, k])) for k in range(dim)
            )
            assert abs(total - 1.0) < 1e-10


def random_kets(rng, shape):
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


class TestProductProbability:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_matches_the_kron_projector_oracle(self, dims):
        rng = np.random.default_rng(41)
        trials = 200
        states = [random_state(dims, rng) for _ in range(trials)]
        kets_a, kets_b = random_kets(rng, (trials, dims[0])), random_kets(rng, (trials, dims[1]))
        batch = product_probability(np.stack([s.amplitudes.reshape(dims) for s in states]), kets_a, kets_b)
        assert batch.shape == (trials,)
        for state, ket_a, ket_b, value in zip(states, kets_a, kets_b, batch):
            product = kron_projector(ket_a, ket_b)
            dense = np.kron(np.outer(ket_a, ket_a.conj()), np.outer(ket_b, ket_b.conj()))
            np.testing.assert_array_equal(product, dense)
            assert abs(value - measure_probability(state, Observable(product))) <= 1e-15

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(43)
        psi = singlet().amplitudes.reshape(2, 2)
        kets_a, kets_b = random_kets(rng, (5, 1, 2)), random_kets(rng, (1, 7, 2))
        batch = product_probability(psi, kets_a, kets_b)
        assert batch.shape == (5, 7)
        for i, j in np.ndindex(5, 7):
            assert batch[i, j] == product_probability(psi, kets_a[i, 0], kets_b[0, j])

    def test_complete_product_basis_sums_to_one(self):
        rng = np.random.default_rng(47)
        psi = random_state((2, 3), rng).amplitudes.reshape(2, 3)
        basis_a, basis_b = haar_unitary(2, rng).T, haar_unitary(3, rng).T  # rows are the kets
        total = product_probability(psi, basis_a[:, None, :], basis_b[None, :, :]).sum()
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "psi, ket_a, ket_b, message",
        [
            (np.eye(2) / np.sqrt(2.0), [1.0, 0.0, 0.0], [1.0, 0.0], "does not match"),
            (np.ones(4) / 2.0, [1.0, 0.0], [1.0, 0.0], "does not match"),
            (np.eye(2), [1.0, 0.0], [1.0, 0.0], "state is not a finite unit vector"),
            (np.eye(2) / np.sqrt(2.0), [1.0, 1.0], [1.0, 0.0], "ket_a is not a finite unit vector"),
            (np.eye(2) / np.sqrt(2.0), [1.0, 0.0], [[1.0, 0.0], [np.nan, 0.0]], "ket_b is not a finite unit vector"),
            (np.eye(2) / np.sqrt(2.0), [np.inf, 0.0], [1.0, 0.0], "ket_a is not a finite unit vector"),
            ([[np.nan, 0.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 0.0], "state is not a finite unit vector"),
        ],
        ids=["ket-size", "state-shape", "state-norm", "ket-norm", "nan-in-batch", "inf-ket", "nan-state"],
    )
    def test_refuses_malformed_input(self, psi, ket_a, ket_b, message):
        with pytest.raises(ValueError, match=message):
            product_probability(psi, ket_a, ket_b)

    def test_refuses_a_probability_above_the_slack(self):
        # each vector is unit within ATOL, but together they lift |<a b|psi>|^2 to 1 + 2.7e-12
        stretch = np.sqrt(1.0 + 0.9 * qcore.ATOL)
        with pytest.raises(ValueError, match="above 1"):
            product_probability(np.diag([stretch, 0.0]), [stretch, 0.0], [stretch, 0.0])
        assert product_probability(np.diag([stretch, 0.0]), [1.0, 0.0], [1.0, 0.0]) == 1.0


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
        factors = [random_state((2,), rng) for _ in range(3)]
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
    state = random_state((3,), rng)
    u = haar_unitary(3, rng)
    probabilities = [
        measure_probability(state, projector(u[:, k])) for k in range(3)
    ]
    assert abs(sum(probabilities) - 1.0) < 1e-10


PENTAGRAM = inequalities.kcbs_build_pentagram()


def with_entry(values, index, bad):
    values = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
    values[index] = bad
    return values


# each constructor with one finite input replaced by the given non-finite value;
# a key names the value type, and a suffix after "-" the input it breaks
NON_FINITE_INPUTS = {
    "StateVector": lambda bad: StateVector((2,), [bad, 0.0]),
    "DensityMatrix-diagonal": lambda bad: DensityMatrix((2,), with_entry(np.eye(2) / 2.0, (0, 0), bad)),
    "DensityMatrix-off-diagonal": lambda bad: DensityMatrix((2,), with_entry(np.eye(2) / 2.0, (0, 1), bad)),
    "Observable": lambda bad: Observable(with_entry(np.eye(2), (1, 1), bad)),
    "MeasurementSetting": lambda bad: MeasurementSetting([0.0, bad, 1.0]),
    "ModeRotation": lambda bad: fock.ModeRotation(bad),
    "FockState-real": lambda bad: fock.FockState({(1, 0): bad, (0, 1): 0.5}),
    "FockState-imaginary": lambda bad: fock.FockState({(1, 0): complex(0.5, bad)}),
    "GaussianPairState-plus": lambda bad: popper.GaussianPairState(bad, 0.5),
    "GaussianPairState-minus": lambda bad: popper.GaussianPairState(1.0, bad),
    "SlitCondition-width": lambda bad: popper.SlitCondition(bad),
    "SlitCondition-center": lambda bad: popper.SlitCondition(0.5, bad),
    "GridSpec-extent": lambda bad: popper.GridSpec(64, bad),
    "LocalHVTable": lambda bad: hvmodels.LocalHVTable(with_entry(np.full(8, 0.125), 3, bad)),
    "CorrelationRecord": lambda bad: inequalities.CorrelationRecord(with_entry(np.zeros((2, 2)), (0, 1), bad)),
    "KcbsConfiguration-directions": lambda bad: inequalities.KcbsConfiguration(
        with_entry(PENTAGRAM.directions, (2, 0), bad), PENTAGRAM.state_direction
    ),
    "KcbsConfiguration-state": lambda bad: inequalities.KcbsConfiguration(
        PENTAGRAM.directions, with_entry(PENTAGRAM.state_direction, 2, bad)
    ),
}


# the refusal's wording, where it is pinned
NON_FINITE_MESSAGES = {
    "DensityMatrix-diagonal": "matrix entries must be finite",
    "DensityMatrix-off-diagonal": "matrix entries must be finite",
    "Observable": "matrix entries must be finite",
    "ModeRotation": "mode rotation angle must be finite, got -?(nan|inf)",
    "FockState-real": "amplitudes must be finite",
    "FockState-imaginary": "amplitudes must be finite",
}


# a warning, such as numpy's on inf - inf, means the input reached arithmetic before its refusal
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(NON_FINITE_INPUTS))
def test_value_types_refuse_non_finite_input(name, bad):
    with pytest.raises(ValueError, match=NON_FINITE_MESSAGES.get(name)):
        NON_FINITE_INPUTS[name](bad)


def test_every_checked_value_type_is_in_the_non_finite_table():
    checked = {name.split("-")[0] for name in NON_FINITE_INPUTS}
    value_types = [
        name
        for module in (qcore, fock, popper, hvmodels, inequalities)
        for name, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__ and "__post_init__" in vars(value)
    ]
    assert value_types
    assert sorted(set(value_types) - checked) == []
