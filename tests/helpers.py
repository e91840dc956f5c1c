"""Test-only helpers: random states, unitaries, and the per-point Born-rule oracles.

``measure_probability`` is the former ``qcore`` Born rule: <psi|P|psi> for
one validated dense projector.  ``hardy_probabilities_oracle`` and
``polarization_oracle`` are the former per-point paths of
``inequalities.hardy_probabilities`` and ``qm_same_polarization_probability``:
one angle at a time, each probability <psi|P|psi> of a 4x4 projector built
as a Kronecker product, with the kets from their defining formulas.  They
skip ``measure_probability``'s checks, which cost about 40 us a call, so
that a 9 001-angle grid takes about a second.  ``kcbs_value_oracle`` is
the former ``inequalities.kcbs_value``: the sum of <psi|A_j A_j+1|psi> over
dense products of the validated 3x3 observables A_j = I - 2|l_j><l_j|.  The
array kernel ``qcore.product_probability`` and its callers are checked
against these.  ``render_table_csv_oracle`` is the former
``report.render_table_csv``: each cell through ``report._csv_cell``, one
row of the table's columns at a time.  ``partial_trace_oracle`` is the
former ``qcore.partial_trace``: the outer product |psi><psi| traced over
the other party with ``einsum``.
"""

import csv
import dataclasses
import functools
import io
import math

import numpy as np

from qfoundry import qcore, report
from qfoundry.qcore import MeasurementSetting, Observable, StateVector

PROJECTOR_ATOL = 1e-10


def random_state(dims, rng):
    """Haar-like random pure state (normalized complex Gaussian vector)."""
    size = math.prod(dims)
    raw = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(tuple(dims), raw / np.linalg.norm(raw))


def random_setting(rng):
    """A uniformly random direction, from three normal draws."""
    return MeasurementSetting.normalized(rng.normal(size=3))


def product_state(*factors):
    """The pure product state of ``factors``, subsystem 0 slowest."""
    dims = sum((factor.dims for factor in factors), ())
    return StateVector(dims, functools.reduce(np.kron, [factor.amplitudes for factor in factors]))


def apply_unitary(state, u, subsystem=None):
    """Apply a unitary to the whole state or to a single subsystem."""
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    if subsystem is None:
        return StateVector(state.dims, u @ state.amplitudes)
    n = len(state.dims)
    if not 0 <= subsystem < n:
        raise IndexError(f"subsystem {subsystem} out of range for {n} subsystems")
    t = state.amplitudes.reshape(state.dims)
    t = np.tensordot(u, t, axes=([1], [subsystem]))
    t = np.moveaxis(t, 0, subsystem)
    return StateVector(state.dims, t.reshape(-1))


def kron(a, b):
    """``np.kron`` of two square matrices: the same products, at a tenth of its call overhead."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def kron_projector(ket_a, ket_b):
    """|a><a| (x) |b><b| for unit ket arrays, as a dense matrix."""
    return kron(np.outer(ket_a, ket_a.conj()), np.outer(ket_b, ket_b.conj()))


def born_value(amplitudes, projector):
    """<psi|P|psi>: ``measure_probability``'s value without its checks, for the per-point grid oracles."""
    return float(np.real(amplitudes.conj() @ (projector @ amplitudes)))


def projector(ket):
    """The rank-1 projector |k><k| onto the normalized ``ket``, as an Observable."""
    k = np.asarray(ket, dtype=complex).reshape(-1)
    k = k / np.linalg.norm(k)
    return Observable(np.outer(k, k.conj()), label="projector")


def measure_probability(state, projector):
    """Born probability <psi|P|psi> for an idempotent Hermitian projector."""
    p = projector.matrix
    if p.shape[0] != state.amplitudes.size:
        raise ValueError(
            f"projector dimension {p.shape[0]} does not match state "
            f"dimension {state.amplitudes.size}"
        )
    if np.max(np.abs(p @ p - p)) > PROJECTOR_ATOL:
        raise ValueError(f"operator {projector.label!r} is not idempotent: P^2 != P")
    value = born_value(state.amplitudes, p)
    if value < -qcore.ATOL or value > 1.0 + qcore.ATOL:
        raise ValueError(f"Born probability {value!r} outside [0, 1] beyond slack")
    return min(max(value, 0.0), 1.0)


def hardy_kets_oracle(gamma, swap):
    """(|+>, |->, |->') of one party from their defining formulas, with math per ket."""
    s, c = math.sin(gamma), math.cos(gamma)
    if swap:
        s, c = c, s
    n = (s + c) ** -0.5
    n_prime = (s**3 + c**3) ** -0.5
    plus = n * np.array([math.sqrt(s), math.sqrt(c)])
    minus = n * np.array([-math.sqrt(c), math.sqrt(s)])
    minus_prime = n_prime * np.array([-math.sqrt(s**3), math.sqrt(c**3)])
    return plus, minus, minus_prime


def hardy_probabilities_oracle(gamma):
    """(p1, p2, p3, p4) at one gamma, one dense product projector per probability."""
    psi = np.array([0.0, math.cos(gamma), -math.sin(gamma), 0.0], dtype=complex)
    a_plus, a_minus, a_minus_prime = hardy_kets_oracle(gamma, swap=False)
    b_plus, b_minus, b_minus_prime = hardy_kets_oracle(gamma, swap=True)
    return (
        born_value(psi, kron_projector(a_plus, b_plus)),
        born_value(psi, kron_projector(a_minus, b_minus_prime)),
        born_value(psi, kron_projector(a_minus_prime, b_minus)),
        born_value(psi, kron_projector(a_minus_prime, b_minus_prime)),
    )


def polarization_oracle(theta):
    """(p_same, p_both_pass) at one relative angle, from the pass projectors and their complements I - P."""
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    pass_1 = np.diag([1.0, 0.0]).astype(complex)
    ket_2 = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    pass_2 = np.outer(ket_2, ket_2.conj())
    p_both_pass = born_value(psi, kron(pass_1, pass_2))
    p_both_block = born_value(psi, kron(np.eye(2) - pass_1, np.eye(2) - pass_2))
    return p_both_pass + p_both_block, p_both_pass


def kcbs_value_oracle(config):
    """sum_j <psi|A_j A_j+1|psi> of the +-1 observables A_j = I - 2|l_j><l_j|, one dense product per pair."""
    psi = StateVector((3,), config.state_direction.astype(complex))
    observables = [
        Observable(np.eye(3, dtype=complex) - 2.0 * projector(direction).matrix, label=f"A_{j}")
        for j, direction in enumerate(config.directions)
    ]
    total = 0.0
    for j in range(5):
        product = observables[j].matrix @ observables[(j + 1) % 5].matrix
        # adjacent observables commute, so the product is Hermitian
        total += qcore.expectation(psi, Observable(product, label=f"A_{j}A_{(j + 1) % 5}"))
    return total


def render_table_csv_oracle(table):
    """The CSV text of ``table``, every cell through the per-value renderer."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in zip(*table.data):
        writer.writerow([report._csv_cell(v) for v in row])
    return buffer.getvalue()


def partial_trace_oracle(state, keep):
    """The reduced state of the two-party ``state`` on party ``keep``, traced from |psi><psi|."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj()).reshape(*state.dims, *state.dims)
    return np.einsum("arbr->ab" if keep == 0 else "rarb->ab", rho)


def validated_value_types(modules):
    """Names of the value types in ``modules``: dataclasses defined there whose ``__post_init__`` validates them."""
    return [
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__ and "__post_init__" in vars(value)
    ]
