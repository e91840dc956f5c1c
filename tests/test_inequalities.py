"""Inequality evaluators: CHSH, Leggett, KCBS, Hardy, TLM, polarization."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import hardy_probabilities_oracle, kcbs_value_oracle, polarization_oracle, random_setting, random_state

from qfoundry import inequalities as ineq
from qfoundry import qcore, verify
from qfoundry.inequalities import (
    CorrelationRecord,
    KcbsConfiguration,
    chsh_optimize,
    chsh_planar_grid_value,
    chsh_value,
    hardy_classical_fourth_zero,
    hardy_fourth_probability_closed_form,
    hardy_probabilities,
    kcbs_build_pentagram,
    kcbs_classical_assignment_values,
    kcbs_classical_minimum,
    kcbs_value,
    leggett_bound,
    leggett_quantum_value,
    leggett_violation_argmax_oracle,
    leggett_violation_scan,
    qm_same_polarization_probability,
    tlm_check,
    tlm_sides,
)
from qfoundry.qcore import MeasurementSetting, StateVector

SQRT2 = math.sqrt(2.0)


def partially_entangled(gamma):
    amplitudes = np.array([0.0, math.cos(gamma), -math.sin(gamma), 0.0], dtype=complex)
    return StateVector((2, 2), amplitudes)


GRID_0_90_001 = np.deg2rad(np.arange(9001) * 0.01)  # the 0:90:0.01 scan grid, radians


class TestPolarizationProbability:
    def test_parallel_polarizers(self):
        p_same, p_both = qm_same_polarization_probability(0.0)
        assert abs(p_same - 1.0) < 1e-12
        assert abs(p_both - 0.5) < 1e-12

    def test_orthogonal_polarizers(self):
        p_same, p_both = qm_same_polarization_probability(np.pi / 2.0)
        assert p_same < 1e-12
        assert p_both < 1e-12

    def test_contradiction_angle_reports_all_readings(self):
        # Born-rule values at the 2*pi/3 relative setting; the printed 0.125
        # equals the both-pass reading, cos^2 gives 0.25, and both undercut
        # the LHV bound of 1/3
        p_same, p_both = qm_same_polarization_probability(2.0 * np.pi / 3.0)
        assert abs(p_same - 0.25) < 1e-12
        assert abs(p_both - 0.125) < 1e-12
        assert p_same < 1.0 / 3.0 - 0.05
        assert p_both < 1.0 / 3.0 - 0.05

    def test_matches_cos_squared_on_a_grid(self):
        for theta in np.linspace(0.0, np.pi, 37):
            p_same, p_both = qm_same_polarization_probability(theta)
            assert abs(p_same - np.cos(theta) ** 2) < 1e-12
            assert abs(p_both - 0.5 * np.cos(theta) ** 2) < 1e-12

    def test_matches_the_per_point_oracle_on_the_full_scan_grid(self):
        batch = np.array(qm_same_polarization_probability(GRID_0_90_001))
        oracle = np.array([polarization_oracle(theta) for theta in GRID_0_90_001.tolist()]).T
        assert batch.shape == oracle.shape == (2, 9001)
        np.testing.assert_allclose(batch, oracle, rtol=0.0, atol=1e-15)

    def test_non_finite_angle_raises(self):
        with pytest.raises(ValueError, match="unit vector"):
            qm_same_polarization_probability(np.array([0.5, math.nan]))


class TestChsh:
    def test_pr_box_reaches_four(self):
        record = CorrelationRecord(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert chsh_value(record) == 4.0

    def test_uncorrelated_gives_zero(self):
        assert chsh_value(CorrelationRecord(np.zeros((2, 2)))) == 0.0

    def test_singlet_optimal_angles_give_tsirelson(self):
        # E(a, b) = -a.b at the 45-degree-spaced planar settings
        a0, a1 = 0.0, np.pi / 2.0
        b0, b1 = 5.0 * np.pi / 4.0, 3.0 * np.pi / 4.0
        c = np.empty((2, 2))
        for i, alpha in enumerate((a0, a1)):
            for j, beta in enumerate((b0, b1)):
                c[i, j] = -math.cos(alpha - beta)
        s = chsh_value(CorrelationRecord(c))
        assert abs(s - 2.0 * SQRT2) < 1e-12

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CorrelationRecord(np.array([[1.2, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            CorrelationRecord(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_record_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="correlators"):
            CorrelationRecord(np.array([[bad, 0.0], [0.0, 0.0]]))

    def test_optimizer_needs_no_numerical_search(self, monkeypatch):
        # the optimum is closed form: the scipy wrapper must never be reached
        rng = np.random.default_rng(5)
        states = [qcore.singlet(), partially_entangled(np.pi / 8.0), random_state((2, 2), rng)]
        expected = [chsh_optimize(state).s_max for state in states]

        def refuse(*args, **kwargs):
            raise AssertionError("chsh_optimize called inequalities.minimize")

        monkeypatch.setattr(ineq, "minimize", refuse)
        assert [chsh_optimize(state).s_max for state in states] == expected

    def test_optimizer_reaches_tsirelson_on_singlet(self):
        optimum = chsh_optimize(qcore.singlet())
        assert abs(optimum.s_max - 2.0 * SQRT2) < 1e-14

    def test_optimizer_settings_match_canonical_gram(self):
        optimum = chsh_optimize(qcore.singlet())
        a0, a1 = optimum.settings_a
        b0, b1 = optimum.settings_b
        # same-party settings orthogonal, cross dots at 1/sqrt(2) with an
        # odd number of sign flips: invariant under global rotations
        assert abs(a0.dot(a1)) < 1e-14
        assert abs(b0.dot(b1)) < 1e-14
        cross = [a0.dot(b0), a0.dot(b1), a1.dot(b0), a1.dot(b1)]
        np.testing.assert_allclose(np.abs(cross), 1.0 / SQRT2, atol=1e-14)
        assert np.prod(np.sign(cross)) == -1.0

    def test_product_state_respects_classical_bound(self):
        product = StateVector((2, 2), [1.0, 0.0, 0.0, 0.0])
        optimum = chsh_optimize(product)
        assert optimum.s_max <= 2.0 + 1e-9

    def test_partially_entangled_state_cross_checked_against_grid_oracle(self):
        state = partially_entangled(np.pi / 8.0)
        optimum = chsh_optimize(state)
        oracle = chsh_planar_grid_value(state)
        # the 1-degree grid undershoots the true optimum by O(step^2)
        assert optimum.s_max >= oracle - 1e-9
        assert abs(optimum.s_max - oracle) < 5e-3
        # frozen analytic value 2 sqrt(1 + sin^2(pi/4)) = sqrt(6)
        assert abs(optimum.s_max - 2.449489742783178) < 1e-14

    def test_quantum_records_never_exceed_tsirelson(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(200):
            state = random_state((2, 2), rng)
            settings_a = [random_setting(rng) for _ in range(2)]
            settings_b = [random_setting(rng) for _ in range(2)]
            c = np.array(
                [[ineq.setting_correlation(state, a, b) for b in settings_b] for a in settings_a]
            )
            worst = max(worst, abs(chsh_value(CorrelationRecord(np.clip(c, -1, 1)))))
        assert worst <= 2.0 * SQRT2 + 1e-9


def amplitudes_state(parts):
    """Two-qubit state from four real then four imaginary amplitude parts, normalised."""
    psi = np.asarray(parts[:4], dtype=float) + 1j * np.asarray(parts[4:], dtype=float)
    return StateVector((2, 2), psi / np.linalg.norm(psi))


_G = math.radians(22.5)
AMPLITUDE_PARTS = st.lists(
    st.floats(-1.0, 1.0, allow_subnormal=False), min_size=8, max_size=8
).filter(lambda parts: math.hypot(*parts) > 1e-3)

UNIT_VECTORS = st.lists(
    st.floats(-1.0, 1.0, allow_subnormal=False), min_size=3, max_size=3
).filter(lambda parts: math.hypot(*parts) > 1e-3)



class TestChshProperties:
    @settings(max_examples=200, deadline=None)
    @given(AMPLITUDE_PARTS)
    @example([0.0, 1.0, -1.0, 0.0] + [0.0] * 4)  # singlet: s0 = s1 = s2 = 1
    @example([1.0, 0.0, 0.0, 0.0] + [0.0] * 4)  # product: s1 = 0
    @example([0.0, math.cos(_G), -math.sin(_G), 0.0] + [0.0] * 4)  # partial 22.5 deg: s1 = s2
    def test_optimum_is_the_horodecki_value(self, parts):
        state = amplitudes_state(parts)
        optimum = chsh_optimize(state)
        s = np.linalg.svd(ineq.correlation_matrix(state), compute_uv=False)
        assert abs(optimum.s_max - 2.0 * math.hypot(s[0], s[1])) <= 1e-12
        assert optimum.s_max <= 2.0 * SQRT2 + 1e-12
        assert optimum.s_max >= chsh_planar_grid_value(state) - 1e-12
        for setting in optimum.settings_a + optimum.settings_b:
            assert abs(np.linalg.norm(setting.direction) - 1.0) <= 1e-12
        assert abs(optimum.settings_a[0].dot(optimum.settings_a[1])) <= 1e-12
        assert tlm_check(optimum.record).satisfied


class TestLeggettInequality:
    def test_bound_values(self):
        assert leggett_bound(0.0) == 4.0
        assert abs(leggett_bound(np.pi) - 2.726760455264837) < 1e-12
        assert abs(leggett_bound(math.radians(18.8)) - 3.7920469261920444) < 1e-12

    def test_quantum_values(self):
        assert leggett_quantum_value(0.0) == 4.0
        assert abs(leggett_quantum_value(np.pi)) < 1e-12
        assert abs(leggett_quantum_value(math.radians(18.8)) - 3.893298520231393) < 1e-12

    def test_quantum_value_matches_singlet_correlators(self):
        # E_kl = -a_k . b_l from the singlet at planar separations phi and 0,
        # with b3 = a2; |E11 + E23| + |E22 + E23| must equal |2(cos phi + 1)|
        state = qcore.singlet()

        def planar(angle):
            return MeasurementSetting([np.cos(angle), np.sin(angle), 0.0])

        for phi in (0.3, math.radians(18.8), 1.2):
            a1, a2 = planar(0.0), planar(phi + 0.4)
            b1, b2, b3 = planar(phi), planar(phi + 0.4 + phi), a2
            e11 = ineq.setting_correlation(state, a1, b1)
            e22 = ineq.setting_correlation(state, a2, b2)
            e23 = ineq.setting_correlation(state, a2, b3)
            s = abs(e11 + e23) + abs(e22 + e23)
            assert abs(s - leggett_quantum_value(phi)) < 1e-12

    def test_scan_finds_stationarity_root(self):
        phi = np.deg2rad(np.arange(0.0, 90.0001, 0.01))
        scan = leggett_violation_scan(phi)
        oracle = leggett_violation_argmax_oracle()
        assert abs(math.degrees(scan.argmax_phi) - math.degrees(oracle)) <= 0.5
        assert abs(math.degrees(scan.argmax_phi) - 18.8) <= 1.0
        assert scan.max_violation > 0.10
        # frozen from the closed form: the peak gap is 1/pi^2
        assert abs(scan.max_violation - 1.0 / np.pi**2) < 1e-8

    def test_scan_no_violation_at_zero(self):
        scan = leggett_violation_scan(np.array([0.0]))
        assert scan.violation[0] == 0.0

    def test_scan_emits_full_table(self):
        phi = np.linspace(0.0, np.pi, 100)
        scan = leggett_violation_scan(phi)
        assert scan.phi.shape == scan.s_qm.shape == scan.bound.shape == (100,)
        assert np.all(scan.violation == scan.s_qm - scan.bound)

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            leggett_violation_scan(np.array([]))
        with pytest.raises(ValueError):
            leggett_violation_scan(np.array([-0.1]))
        with pytest.raises(ValueError):
            leggett_bound(3.5)


class TestLeggettModelChsh:
    def test_model_reproduces_singlet_chsh_in_valid_plane(self):
        # where the construction is consistent its correlators equal the
        # quantum ones, so the optimal planar settings reach 2 sqrt(2)
        from qfoundry.hvmodels import LeggettModelParams, leggett_expectations

        z = MeasurementSetting([0.0, 0.0, 1.0])

        def planar(angle):
            return MeasurementSetting([np.cos(angle), np.sin(angle), 0.0])

        angles_a = (0.0, np.pi / 2.0)
        angles_b = (5.0 * np.pi / 4.0, 3.0 * np.pi / 4.0)
        c = np.empty((2, 2))
        for i, alpha in enumerate(angles_a):
            for j, beta in enumerate(angles_b):
                params = LeggettModelParams(z, z, planar(alpha), planar(beta))
                c[i, j] = leggett_expectations(params).mean_ab
        assert abs(chsh_value(CorrelationRecord(c)) - 2.0 * SQRT2) < 1e-12

    def test_model_never_beats_tsirelson_in_valid_plane(self):
        from qfoundry.hvmodels import LeggettModelParams, leggett_expectations

        z = MeasurementSetting([0.0, 0.0, 1.0])
        rng = np.random.default_rng(67)
        for _ in range(100):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=4)
            c = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    params = LeggettModelParams(
                        z,
                        z,
                        MeasurementSetting([np.cos(angles[i]), np.sin(angles[i]), 0.0]),
                        MeasurementSetting([np.cos(angles[2 + j]), np.sin(angles[2 + j]), 0.0]),
                    )
                    c[i, j] = leggett_expectations(params).mean_ab
            assert abs(chsh_value(CorrelationRecord(c))) <= 2.0 * SQRT2 + 1e-12


class TestKcbs:
    def test_pentagram_geometry(self):
        config = kcbs_build_pentagram()
        np.testing.assert_allclose(np.linalg.norm(config.directions, axis=1), 1.0, atol=1e-12)
        assert config.max_adjacent_dot() < 1e-12

    def test_axial_state_sees_equal_overlaps(self):
        config = kcbs_build_pentagram()
        overlaps = (config.directions @ config.state_direction) ** 2
        np.testing.assert_allclose(overlaps, overlaps[0], atol=1e-12)

    def test_quantum_value_is_five_minus_four_root_five(self):
        value = kcbs_value(kcbs_build_pentagram())
        assert abs(value - (5.0 - 4.0 * math.sqrt(5.0))) < 1e-9
        assert abs(value - (-3.9442719099991588)) < 1e-9
        assert value == ineq.KCBS_QUANTUM_VALUE

    @settings(max_examples=100, deadline=None)
    @given(st.lists(UNIT_VECTORS, min_size=5, max_size=5))
    def test_closed_form_matches_the_observable_product_oracle(self, vectors):
        # l1 _|_ l0, l2 _|_ l1, l3 _|_ l2 by one Gram-Schmidt step each, l4 = l3 x l0, and a random psi
        raw = [np.array(v) for v in vectors]
        directions = [raw[0] / np.linalg.norm(raw[0])]
        for v in raw[1:4]:
            residual = v - (v @ directions[-1]) * directions[-1]
            assume(np.linalg.norm(residual) > 0.1)
            directions.append(residual / np.linalg.norm(residual))
        cross = np.cross(directions[3], directions[0])
        assume(np.linalg.norm(cross) > 0.1)
        directions.append(cross / np.linalg.norm(cross))
        config = KcbsConfiguration(np.stack(directions), raw[4] / np.linalg.norm(raw[4]))
        # the closed form drops the 4 <P_j P_j+1> cross terms, each at most 4 |l_j . l_j+1|
        bound = 20.0 * config.max_adjacent_dot() + 1e-14
        assert abs(kcbs_value(config) - kcbs_value_oracle(config)) <= bound

    @pytest.mark.parametrize("which", ["direction", "state"])
    def test_unit_norm_is_checked_in_squared_norm_within_atol(self, which):
        # the type's norm rule is the Born kernel's: |v|^2 within qcore.ATOL of 1
        pentagram = kcbs_build_pentagram()

        def stretched(norm_sq_excess):
            directions, psi = pentagram.directions.copy(), pentagram.state_direction.copy()
            scale = math.sqrt(1.0 + norm_sq_excess)
            if which == "direction":
                directions[2] *= scale
            else:
                psi *= scale
            return directions, psi

        # 1.8e-12 is a norm of 1 + 0.9e-12, which a rule on |v| within 1e-12 would take and the kernel refuse
        for excess in (1.8e-12, 2e-12):
            with pytest.raises(ValueError, match="unit"):
                KcbsConfiguration(*stretched(excess))
        value = kcbs_value(KcbsConfiguration(*stretched(0.5e-12)))
        assert abs(value - ineq.KCBS_QUANTUM_VALUE) < 1e-11

    def test_classical_minimum_is_exactly_minus_three(self):
        assert kcbs_classical_minimum() == -3
        values = kcbs_classical_assignment_values()
        assert values.shape == (32,)
        assert values.min() == -3 and values.max() == 5

    def test_classical_mixtures_respect_bound(self):
        rng = np.random.default_rng(71)
        values = kcbs_classical_assignment_values()
        for _ in range(200):
            weights = rng.dirichlet(np.ones(32))
            assert weights @ values >= -3.0 - 1e-12

    def test_equatorial_state_sits_above_quantum_minimum(self):
        config = kcbs_build_pentagram()
        tilted = KcbsConfiguration(config.directions, np.array([1.0, 0.0, 0.0]))
        assert kcbs_value(tilted) > 5.0 - 4.0 * math.sqrt(5.0) + 0.1

    def test_incompatible_directions_rejected(self):
        directions = kcbs_build_pentagram().directions.copy()
        directions[1] = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="not orthogonal"):
            KcbsConfiguration(directions, np.array([0.0, 0.0, 1.0]))


class TestHardy:
    def test_ket_normalizers(self):
        # N = (s + c)^(-1/2) and N' = (s^3 + c^3)^(-1/2); the second party swaps s and c
        g = 0.4
        for s, c in ((math.sin(g), math.cos(g)), (math.cos(g), math.sin(g))):
            plus, minus, minus_prime = ineq._hardy_kets(np.array(s), np.array(c))
            n, n_prime = (s + c) ** -0.5, (s**3 + c**3) ** -0.5
            np.testing.assert_allclose(plus, n * np.array([math.sqrt(s), math.sqrt(c)]), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(minus, n * np.array([-math.sqrt(c), math.sqrt(s)]), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(minus_prime, n_prime * np.array([-s**1.5, c**1.5]), rtol=0.0, atol=1e-15)

    def test_kets_orthonormal(self):
        gamma = np.linspace(0.05, np.pi / 2.0 - 0.05, 9)
        s, c = np.sin(gamma), np.cos(gamma)
        for kets in (ineq._hardy_kets(s, c), ineq._hardy_kets(c, s)):
            plus, minus, _ = kets
            assert np.max(np.abs(np.sum(plus * minus, axis=-1))) < 1e-12
            for ket in kets:
                assert np.max(np.abs(np.sum(ket * ket, axis=-1) - 1.0)) < 1e-12

    def test_zero_conditions_and_closed_form_on_grid(self):
        gamma = np.linspace(0.02, np.pi / 2.0 - 0.02, 50)
        p1, p2, p3, p4 = hardy_probabilities(gamma)
        assert max(np.max(p1), np.max(p2), np.max(p3)) < 1e-12
        for g, p in zip(gamma.tolist(), p4.tolist()):
            assert abs(p - hardy_fourth_probability_closed_form(g)) < 1e-10

    def test_matches_the_per_point_oracle_on_the_full_scan_grid(self):
        batch = np.array(hardy_probabilities(GRID_0_90_001))
        oracle = np.array([hardy_probabilities_oracle(g) for g in GRID_0_90_001.tolist()]).T
        assert batch.shape == oracle.shape == (4, 9001)
        np.testing.assert_allclose(batch, oracle, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("evaluate", [hardy_probabilities, qm_same_polarization_probability])
    def test_a_float_gives_the_bytes_of_the_whole_scan(self, evaluate):
        # the scan and a single --gamma or --theta-rel print the same digits for the same angle
        grid = GRID_0_90_001
        batch = evaluate(grid)
        for k in range(0, grid.size, 50):
            single = evaluate(float(grid[k]))
            assert all(np.ndim(p) == 0 for p in single)
            assert [float(p) for p in single] == [float(p[k]) for p in batch]

    def test_maximally_entangled_case_has_no_violation(self):
        _, _, _, p4 = hardy_probabilities(np.pi / 4.0)
        assert p4 < 1e-12

    def test_reference_angle(self):
        _, _, _, p4 = hardy_probabilities(math.radians(22.5))
        # frozen from the projector-based oracle: sin(90 deg) = 1 and
        # 4 (cos^3 + sin^3)(22.5 deg) = 3.37885...
        assert abs(p4 - 0.08761006569007043) < 1e-10
        assert abs(p4 - 0.0876) < 1e-4

    def test_degenerate_endpoints_flagged(self):
        # the probe state factorizes at 0 and pi/2, so all four probabilities vanish
        for gamma in (0.0, np.pi / 2.0):
            assert max(hardy_probabilities(gamma)) < 1e-30
        assert hardy_probabilities(0.3)[3] > 0.01

    @pytest.mark.parametrize("gamma", [-0.1, np.pi / 2.0 + 0.1, math.nan, math.inf, [0.3, math.nan], []])
    def test_gamma_outside_the_domain_raises(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            hardy_probabilities(gamma)

    def test_gamma_in_the_rounding_slack_is_taken_at_the_endpoint(self):
        for inside, endpoint in ((-5e-10, 0.0), (np.pi / 2.0 + 5e-10, np.pi / 2.0)):
            assert hardy_probabilities(inside) == hardy_probabilities(endpoint)

    def test_classical_enumeration_forces_fourth_zero(self):
        assert hardy_classical_fourth_zero()


class TestTlm:
    def test_pr_box_violates(self):
        result = tlm_check(CorrelationRecord(np.array([[1.0, 1.0], [1.0, -1.0]])))
        assert result.lhs == 2.0
        assert result.rhs == 0.0
        assert not result.satisfied

    def test_singlet_optimal_record_sits_at_equality(self):
        r = 1.0 / SQRT2
        result = tlm_check(CorrelationRecord(np.array([[r, r], [r, -r]])))
        assert abs(result.lhs - 1.0) < 1e-12
        assert abs(result.rhs - 1.0) < 1e-12
        assert result.satisfied

    def test_quantum_records_satisfy(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            state = random_state((2, 2), rng)
            settings_a = [random_setting(rng) for _ in range(2)]
            settings_b = [random_setting(rng) for _ in range(2)]
            c = np.clip(
                np.array(
                    [
                        [ineq.setting_correlation(state, a, b) for b in settings_b]
                        for a in settings_a
                    ]
                ),
                -1.0,
                1.0,
            )
            result = tlm_check(CorrelationRecord(c))
            assert result.lhs <= result.rhs + 1e-12
            assert result.satisfied


def tlm_loop_oracle(c):
    """The former per-record TLM evaluation, one Python-level 2x2 table at a time.

    Squares with ``c[0, j] ** 2`` (C ``pow``) where :func:`tlm_sides` uses the
    correctly rounded ``c * c``; the two differ by one ulp on about 1 in
    1000 uniform values, which moves rhs by at most a few ulps.
    """
    c = np.asarray(c, dtype=float)
    lhs = np.empty(c.shape[:-2])
    rhs = np.empty(c.shape[:-2])
    for index in np.ndindex(c.shape[:-2]):
        t = c[index]
        lhs[index] = abs(t[0, 0] * t[1, 0] - t[0, 1] * t[1, 1])
        total = 0.0
        for j in range(2):
            total += math.sqrt(max(0.0, 1.0 - t[0, j] ** 2) * max(0.0, 1.0 - t[1, j] ** 2))
        rhs[index] = total
    return lhs, rhs


class TestTlmKernel:
    def test_matches_per_record_oracle_on_uniform_tables(self):
        c = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2000, 2, 2))
        lhs, rhs = tlm_sides(c)
        ref_lhs, ref_rhs = tlm_loop_oracle(c)
        assert lhs.shape == rhs.shape == (2000,)
        np.testing.assert_array_equal(lhs, ref_lhs)
        np.testing.assert_allclose(rhs, ref_rhs, rtol=0.0, atol=1e-15)

    def test_check_9_margin_matches_per_record_oracle(self):
        # the verify batch for seed 2026: the reported worst margin is the same double
        e = np.clip(verify._random_correlator_batch(2026 + 1, 10_000), -1.0, 1.0)
        lhs, rhs = tlm_sides(e)
        ref_lhs, ref_rhs = tlm_loop_oracle(e)
        np.testing.assert_array_equal(lhs, ref_lhs)
        np.testing.assert_allclose(rhs, ref_rhs, rtol=0.0, atol=1e-15)
        assert np.max(lhs - rhs) == np.max(ref_lhs - ref_rhs)

    def test_single_table_agrees_with_tlm_check(self):
        r = 1.0 / SQRT2
        c = np.array([[r, r], [r, -r]])
        lhs, rhs = tlm_sides(c)
        result = tlm_check(CorrelationRecord(c))
        assert (result.lhs, result.rhs) == (float(lhs), float(rhs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -1.0 - 1e-9])
    def test_out_of_range_entry_in_a_batch_raises(self, bad):
        c = np.zeros((50, 2, 2))
        c[37, 1, 0] = bad
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            tlm_sides(c)

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="2x2"):
            tlm_sides(np.zeros((4, 2, 3)))

    @settings(max_examples=200, deadline=None)
    @given(AMPLITUDE_PARTS, st.lists(UNIT_VECTORS, min_size=4, max_size=4))
    def test_quantum_records_satisfy_tlm(self, parts, vectors):
        # Masanes, arXiv:quant-ph/0309137: every quantum correlator table obeys TLM
        state = amplitudes_state(parts)
        a0, a1, b0, b1 = (MeasurementSetting.normalized(v) for v in vectors)
        c = np.array([[ineq.setting_correlation(state, a, b) for b in (b0, b1)] for a in (a0, a1)])
        lhs, rhs = tlm_sides(np.clip(c, -1.0, 1.0))
        assert lhs <= rhs + 1e-12
