"""Core linear algebra: containers, reductions, Born rule."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    apply_unitary,
    kron_projector,
    measure_probability,
    partial_trace_oracle,
    product_state,
    projector,
    random_setting,
    random_state,
    validated_value_types,
)

from qfoundry import fock, hvmodels, inequalities, popper, qcore
from qfoundry.qcore import (
    MeasurementSetting,
    Observable,
    StateVector,
    expectation,
    partial_trace,
    product_probability,
    singlet,
    spin_observable,
)


UP = StateVector((2,), [1.0, 0.0])
DOWN = StateVector((2,), [0.0, 1.0])


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

    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable([[0.0, 1.0], [2.0, 0.0]])

    def test_observable_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
            Observable(np.zeros((2, 3)))

    def test_expectation_refuses_an_operator_of_another_dimension(self):
        with pytest.raises(ValueError, match="observable dimension does not match state dimension"):
            qcore.expectation(singlet(), Observable(np.eye(2)))

    def test_setting_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            MeasurementSetting([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="setting must be a 3-vector, got size 2"):
            MeasurementSetting([1.0, 0.0])
        s = MeasurementSetting.normalized([1.0, 1.0, 0.0])
        assert np.isclose(np.linalg.norm(s.direction), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_setting_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting([bad, 0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting.normalized([bad, 0.0, 1.0])

    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    def test_normalized_refuses_only_the_zero_triple(self, components):
        # a direction whose squares underflow (1e-200) or overflow (1e308) is normalized without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not any(components):
                with pytest.raises(ValueError, match="not all zero"):
                    MeasurementSetting.normalized(components)
            else:
                direction = MeasurementSetting.normalized(components).direction
                assert abs(np.linalg.norm(direction) - 1.0) <= qcore.ATOL

    def test_index_convention_subsystem0_slowest(self):
        # |0> x |1> on (2, 2) puts the amplitude at flat index 1, and the
        # reductions read subsystem 0 from the slowest index
        state = StateVector((2, 2), np.kron([1.0, 0.0], [0.0, 1.0]))
        assert state.amplitudes[1] == 1.0
        state = StateVector((2, 3), np.kron([0.0, 1.0], np.eye(3)[2]))
        assert state.amplitudes[1 * 3 + 2] == 1.0
        np.testing.assert_array_equal(partial_trace(state, 0), np.diag([0.0, 1.0]))
        np.testing.assert_array_equal(partial_trace(state, 1), np.diag([0.0, 0.0, 1.0]))


class TestTensor:
    def test_singlet_normalized(self):
        amplitudes = (product_state(UP, DOWN).amplitudes - product_state(DOWN, UP).amplitudes) / np.sqrt(2.0)
        state = StateVector((2, 2), amplitudes)
        np.testing.assert_allclose(state.amplitudes, singlet().amplitudes)

    def test_tensor_then_trace_returns_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1 = random_state((2,), rng)
            s2 = random_state((3,), rng)
            joint = product_state(s1, s2)
            for keep, factor in ((0, s1), (1, s2)):
                reduced = partial_trace(joint, keep)
                expected = np.outer(factor.amplitudes, factor.amplitudes.conj())
                assert np.max(np.abs(reduced - expected)) < 1e-12


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        for keep in (0, 1):
            reduced = partial_trace(singlet(), keep)
            assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-12

    def test_plus_minus_basis_reduction_identical(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        amplitudes = (np.kron(plus, minus) - np.kron(minus, plus)) / np.sqrt(2.0)
        reduced = partial_trace(StateVector((2, 2), amplitudes), 1)
        z_basis = partial_trace(singlet(), 1)
        assert np.max(np.abs(reduced - z_basis)) < 1e-12

    def test_product_state_factorizes(self):
        reduced = partial_trace(product_state(UP, DOWN), 0)
        np.testing.assert_allclose(reduced, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_trace_preserved_and_index_checked(self):
        rng = np.random.default_rng(3)
        state = random_state((2, 3), rng)
        reduced = partial_trace(state, 1)
        assert reduced.shape == (3, 3)
        assert abs(np.trace(reduced) - 1.0) < 1e-12
        for keep in (-1, 2):
            with pytest.raises(IndexError):
                partial_trace(state, keep)

    def test_refuses_a_state_without_two_parties(self):
        rng = np.random.default_rng(31)
        for dims in ((2, 3, 2), (4,)):
            with pytest.raises(ValueError, match="two-party"):
                partial_trace(random_state(dims, rng), 0)

    def test_basis_independence_of_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state = random_state((2, 2), rng)
            u = haar_unitary(2, rng)
            rotated = apply_unitary(state, u, subsystem=0)
            direct = partial_trace(state, 1)
            via_rotation = partial_trace(rotated, 1)
            assert np.max(np.abs(direct - via_rotation)) < 1e-12

    @given(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]), st.sampled_from([0, 1]), st.integers(0, 2**32 - 1))
    def test_is_the_traced_outer_product_and_a_density_matrix(self, d0, d1, keep, seed):
        state = random_state((d0, d1), np.random.default_rng(seed))
        reduced = partial_trace(state, keep)
        assert np.max(np.abs(reduced - partial_trace_oracle(state, keep))) <= 1e-15
        assert np.max(np.abs(reduced - reduced.conj().T)) <= 1e-15
        assert abs(np.trace(reduced) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(reduced).min() >= -1e-12


class TestBornRule:
    def test_eigenstate_probability_one(self):
        p = measure_probability(UP, projector([1.0, 0.0]))
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
            measure_probability(UP, Observable(np.eye(2) * 0.5))

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
            obs = spin_observable(random_setting(rng))
            np.testing.assert_allclose(np.linalg.eigvalsh(obs.matrix), [-1.0, 1.0], atol=1e-12)

    def test_singlet_correlator_is_minus_dot_product(self):
        rng = np.random.default_rng(19)
        state = singlet()
        for _ in range(50):
            n = random_setting(rng)
            m = random_setting(rng)
            op = Observable(np.kron(spin_observable(n).matrix, spin_observable(m).matrix))
            assert abs(expectation(state, op) + n.dot(m)) < 1e-12


class TestApplyUnitary:
    def test_subsystem_application_matches_factor_action(self):
        rng = np.random.default_rng(37)
        factors = [random_state((2,), rng) for _ in range(3)]
        joint = product_state(*factors)
        u = haar_unitary(2, rng)
        rotated = apply_unitary(joint, u, subsystem=1)
        middle = StateVector((2,), u @ factors[1].amplitudes)
        expected = product_state(factors[0], middle, factors[2])
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
            assert abs(abs(np.vdot(state.amplitudes, rotated.amplitudes)) ** 2 - 1.0) < 1e-12

    def test_global_phase_not_stripped(self):
        phased = StateVector((2, 2), singlet().amplitudes * np.exp(0.7j))
        assert not np.allclose(phased.amplitudes, singlet().amplitudes)
        assert abs(abs(np.vdot(phased.amplitudes, singlet().amplitudes)) ** 2 - 1.0) < 1e-12


def test_qutrit_support():
    # the engine must not hard-code qubits: build a qutrit projector chain
    rng = np.random.default_rng(29)
    state = random_state((3,), rng)
    u = haar_unitary(3, rng)
    probabilities = [
        measure_probability(state, projector(u[:, k])) for k in range(3)
    ]
    assert abs(sum(probabilities) - 1.0) < 1e-10


DIRECTIONS, AXIS = inequalities.kcbs_build_pentagram()


def with_entry(values, index, bad):
    values = np.array(values, dtype=complex if np.iscomplexobj(values) else float)
    values[index] = bad
    return values


# each constructor with one finite input replaced by the given non-finite value;
# a key names the value type or function, and a suffix after "-" the input it breaks
NON_FINITE_INPUTS = {
    "StateVector": lambda bad: StateVector((2,), [bad, 0.0]),
    "Observable": lambda bad: Observable(with_entry(np.eye(2), (1, 1), bad)),
    "MeasurementSetting": lambda bad: MeasurementSetting([0.0, bad, 1.0]),
    "GaussianPairState-plus": lambda bad: popper.GaussianPairState(bad, 0.5),
    "GaussianPairState-minus": lambda bad: popper.GaussianPairState(1.0, bad),
    "SlitCondition-width": lambda bad: popper.SlitCondition(bad),
    "SlitCondition-center": lambda bad: popper.SlitCondition(0.5, bad),
    "GridSpec-extent": lambda bad: popper.GridSpec(64, bad),
    "LocalHVTable": lambda bad: hvmodels.LocalHVTable(with_entry(np.full(8, 0.125), 3, bad)),
    # a consistent set with u non-finite: its MeasurementSetting field refuses it before the model sees it
    "LeggettModelParams": lambda bad: hvmodels.LeggettModelParams(
        MeasurementSetting([0.0, bad, 1.0]), *(MeasurementSetting(e) for e in ([0, 0, 1], [1, 0, 0], [0, 1, 0]))
    ),
    "chsh_value": lambda bad: inequalities.chsh_value(with_entry(np.zeros((2, 2)), (0, 1), bad)),
    "tlm_check": lambda bad: inequalities.tlm_check(with_entry(np.zeros((2, 2)), (0, 1), bad)),
    "kcbs_value-directions": lambda bad: inequalities.kcbs_value(with_entry(DIRECTIONS, (2, 0), bad), AXIS),
    "kcbs_value-state": lambda bad: inequalities.kcbs_value(DIRECTIONS, with_entry(AXIS, 2, bad)),
}


# the refusal's wording, where it is pinned
NON_FINITE_MESSAGES = {
    "Observable": "matrix entries must be finite",
    "chsh_value": r"correlators must lie in \[-1, 1\]",
    "tlm_check": r"correlators must lie in \[-1, 1\]",
    "kcbs_value-directions": "not orthogonal",
    "kcbs_value-state": "state is not a finite unit vector",
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
    value_types = validated_value_types((qcore, fock, popper, hvmodels, inequalities))
    assert value_types
    assert sorted(set(value_types) - checked) == []


# finite values whose squares pass the float range: the checks refuse them
# without numpy's overflow warning; a plain test, since a hypothesis test
# under this mark stops pytest on its first failure
@pytest.mark.filterwarnings("error")
def test_overflowing_squares_raise_no_warning():
    with pytest.raises(ValueError, match=r"setting is not a finite unit vector: \|n\| = inf"):
        MeasurementSetting([1e308, 1e308, 0.0])
    with pytest.raises(ValueError, match=r"state is not normalized: \|psi\|\^2 = inf"):
        StateVector((2,), [1e200, 0.0])
    with pytest.raises(ValueError, match="state is not a finite unit vector"):
        product_probability([[1e200, 0.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 0.0])
