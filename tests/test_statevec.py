"""Simulator checks, including a dense-matrix oracle for every gate kind."""

import tracemalloc

import numpy as np
import pytest

from qtwostage import statevec as sv, walsh
from qtwostage.errors import CapacityError, StructureError


# ---------------------------------------------------------------------------
# dense-matrix oracle: build each gate's full unitary by Kronecker products
# (independent of the in-place kernels) and compare actions on random states
# ---------------------------------------------------------------------------

def _single_qubit_matrix(gate):
    if isinstance(gate, sv.RY):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if isinstance(gate, sv.RZ):
        return np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    if isinstance(gate, sv.RX):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if isinstance(gate, sv.H):
        return np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    if isinstance(gate, sv.X):
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if isinstance(gate, sv.SX):
        return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    raise AssertionError(gate)


def _dense_unitary(gate, n):
    """Full 2^n x 2^n matrix with little-endian qubit ordering."""
    dim = 2**n
    if isinstance(gate, (sv.RY, sv.RZ, sv.RX, sv.H, sv.X, sv.SX)):
        u = _single_qubit_matrix(gate)
        full = np.eye(1, dtype=complex)
        # kron composes most-significant qubit first
        for q in reversed(range(n)):
            full = np.kron(full, u if q == gate.qubit else np.eye(2))
        return full
    if isinstance(gate, (sv.CX, sv.CZ)):
        full = np.eye(dim, dtype=complex)
        for i in range(dim):
            if (i >> gate.control) & 1:
                if isinstance(gate, sv.CZ):
                    if (i >> gate.target) & 1:
                        full[i, i] = -1.0
                else:
                    j = i ^ (1 << gate.target)
                    full[i, i] = 0.0
                    full[i, j] = 1.0
        return full
    if isinstance(gate, sv.ZPhase):
        diag = np.array(
            [(-1.0) ** bin(i & gate.mask).count("1") for i in range(dim)]
        )
        return np.diag(np.exp(-1j * gate.angle * diag))
    if isinstance(gate, sv.DiagPhase):
        return np.diag(np.exp(-1j * gate.angle * gate.values))
    raise AssertionError(gate)


def _random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return sv.StateVector(n, amps.astype(np.complex128))


def test_every_gate_matches_dense_matrix_oracle():
    rng = np.random.default_rng(11)
    n = 3
    gates = [
        sv.RY(0, 0.7), sv.RY(2, -1.3),
        sv.RZ(1, 2.1), sv.RX(2, 0.4),
        sv.H(0), sv.H(1), sv.X(2), sv.SX(1),
        sv.CX(0, 2), sv.CX(2, 0), sv.CZ(1, 2),
        sv.ZPhase(0b101, 0.9), sv.ZPhase(0b111, -0.3),
        sv.DiagPhase(rng.normal(size=8), 0.6),
    ]
    for gate in gates:
        state = _random_state(n, rng)
        expected = _dense_unitary(gate, n) @ state.amps
        sv.apply(state, gate)
        assert np.allclose(state.amps, expected, atol=1e-12), gate


def test_random_circuit_matches_matrix_product_oracle():
    rng = np.random.default_rng(23)
    n = 4
    for _ in range(10):
        state = _random_state(n, rng)
        ref = state.amps.copy()
        for _ in range(12):
            kind = rng.integers(6)
            q = int(rng.integers(n))
            q2 = int((q + 1 + rng.integers(n - 1)) % n)
            angle = float(rng.uniform(-np.pi, np.pi))
            gate = [
                sv.RY(q, angle), sv.RX(q, angle), sv.RZ(q, angle),
                sv.CX(q, q2), sv.CZ(q, q2),
                sv.ZPhase(int(rng.integers(1, 2**n)), angle),
            ][kind]
            ref = _dense_unitary(gate, n) @ ref
            sv.apply(state, gate)
        assert np.allclose(state.amps, ref, atol=1e-10)
        assert abs(state.norm_sq() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# constructors and basic semantics
# ---------------------------------------------------------------------------

def test_zero_state_examples():
    assert np.array_equal(sv.new_zero_state(1).amps, [1, 0])
    assert np.array_equal(sv.new_zero_state(2).amps, [1, 0, 0, 0])
    big = sv.new_zero_state(11)
    assert big.amps.shape == (2048,)
    assert abs(big.norm_sq() - 1.0) < 1e-12


def test_zero_state_capacity_guard():
    with pytest.raises(CapacityError):
        sv.new_zero_state(0)
    with pytest.raises(CapacityError):
        sv.new_zero_state(29)


def test_ry_pi_flips_qubit():
    state = sv.apply(sv.new_zero_state(1), sv.RY(0, np.pi))
    assert np.allclose(sv.probabilities(state), [0, 1], atol=1e-14)


def test_little_endian_bit_convention():
    state = sv.apply(sv.new_zero_state(2), sv.X(0))
    assert np.argmax(sv.probabilities(state)) == 1
    state = sv.apply(sv.new_zero_state(2), sv.X(1))
    assert np.argmax(sv.probabilities(state)) == 2


def test_zphase_single_qubit_phases():
    t = 0.37
    state = sv.StateVector(1, np.array([0.6, 0.8], dtype=complex))
    sv.apply(state, sv.ZPhase(1, t))
    assert np.allclose(
        state.amps, [0.6 * np.exp(-1j * t), 0.8 * np.exp(1j * t)], atol=1e-14
    )


def test_cz_leaves_probabilities_unchanged():
    state = sv.new_zero_state(2)
    sv.apply(state, sv.H(0))
    before = sv.probabilities(state).copy()
    sv.apply(state, sv.CZ(0, 1))
    assert np.allclose(before, [0.5, 0.5, 0, 0])
    assert np.allclose(sv.probabilities(state), before, atol=1e-14)


def test_zphase_equals_diagphase_oracle():
    rng = np.random.default_rng(5)
    n = 5
    for _ in range(20):
        mask = int(rng.integers(1, 2**n))
        t = float(rng.uniform(-3, 3))
        a = _random_state(n, rng)
        b = sv.StateVector(n, a.amps.copy())
        sv.apply(a, sv.ZPhase(mask, t))
        values = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(2**n)])
        sv.apply(b, sv.DiagPhase(values, t))
        assert np.allclose(a.amps, b.amps, atol=1e-12)


def test_diagonal_gates_commute():
    rng = np.random.default_rng(7)
    n = 4
    gates = [sv.ZPhase(int(rng.integers(1, 16)), float(rng.uniform(-2, 2)))
             for _ in range(8)]
    a = _random_state(n, rng)
    b = sv.StateVector(n, a.amps.copy())
    for g in gates:
        sv.apply(a, g)
    for g in reversed(gates):
        sv.apply(b, g)
    assert np.allclose(a.amps, b.amps, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations, sampling, marginals
# ---------------------------------------------------------------------------

def test_expectation_examples():
    plus = sv.apply(sv.new_zero_state(1), sv.H(0))
    assert abs(sv.expectation_diagonal(plus, np.array([1.0, -1.0]))) < 1e-14

    one = sv.apply(sv.new_zero_state(1), sv.X(0))
    assert sv.expectation_diagonal(one, np.array([1.0, -1.0])) == pytest.approx(-1.0)

    uniform = sv.new_zero_state(2)
    sv.apply(uniform, sv.H(0))
    sv.apply(uniform, sv.H(1))
    assert sv.expectation_diagonal(uniform, np.arange(4.0)) == pytest.approx(1.5)

    with pytest.raises(StructureError):
        sv.expectation_diagonal(plus, np.zeros(4))


def test_sample_point_mass_and_determinism():
    state = sv.new_zero_state(3)
    counts = sv.sample(state, 100, np.random.default_rng(0))
    np.testing.assert_array_equal(counts, [100, 0, 0, 0, 0, 0, 0, 0])

    plus = sv.apply(sv.new_zero_state(1), sv.H(0))
    c1 = sv.sample(plus, 10_000, np.random.default_rng(42))
    c2 = sv.sample(plus, 10_000, np.random.default_rng(42))
    np.testing.assert_array_equal(c1, c2)
    assert c1.sum() == 10_000
    # 5 sigma of a fair Bernoulli at 1e4 shots
    assert abs(c1[0] - 5000) < 5 * 50

    with pytest.raises(StructureError):
        sv.sample(plus, 0, np.random.default_rng(0))


def test_sampling_frequencies_track_probabilities():
    rng = np.random.default_rng(13)
    state = _random_state(4, rng)
    shots = 100_000
    freq = sv.sample(state, shots, np.random.default_rng(99)) / shots
    assert np.max(np.abs(freq - sv.probabilities(state))) <= 2 / np.sqrt(shots)


def test_marginals():
    bell = sv.new_zero_state(2)
    sv.apply(bell, sv.H(0))
    sv.apply(bell, sv.CX(0, 1))
    assert np.allclose(sv.marginal_probs(sv.probabilities(bell), [0]),
                       [0.5, 0.5])

    # |1> on qubit 1, |+> on qubit 0
    prod = sv.new_zero_state(2)
    sv.apply(prod, sv.X(1))
    sv.apply(prod, sv.H(0))
    p = sv.probabilities(prod)
    assert np.allclose(sv.marginal_probs(p, [1]), [0.0, 1.0])
    assert np.allclose(sv.marginal_probs(p, [0, 1]), p)

    # count vectors marginalise to exact integer counts
    counts = np.array([3, 0, 5, 2, 0, 1, 4, 7])  # index bits: q2 q1 q0
    np.testing.assert_array_equal(sv.marginal_probs(counts, [0]), [12, 10])
    np.testing.assert_array_equal(sv.marginal_probs(counts, [2, 1]),
                                  [3, 7, 1, 11])

    with pytest.raises(StructureError):
        sv.marginal_probs(p, [])
    with pytest.raises(StructureError):
        sv.marginal_probs(p, [2])
    with pytest.raises(StructureError):
        sv.marginal_probs(np.ones(6), [0])


def test_structural_errors():
    state = sv.new_zero_state(2)
    with pytest.raises(StructureError):
        sv.apply(state, sv.RY(2, 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, sv.ZPhase(0, 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, sv.ZPhase(4, 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, sv.DiagPhase(np.zeros(2), 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, sv.CX(1, 1))
    with pytest.raises(StructureError):
        sv.run_circuit(sv.Circuit(3, []), state)


def test_run_circuit_from_zero():
    circ = sv.Circuit(2, [sv.H(0), sv.CX(0, 1)])
    state = sv.run_circuit(circ)
    assert np.allclose(sv.probabilities(state), [0.5, 0, 0, 0.5])


def test_parity_cache_is_bounded_in_bytes():
    n = 20
    entry = 2**n  # one bool per basis index
    state = sv.new_zero_state(n)
    extra = 8  # distinct masks beyond what the cap can hold
    masks = range(1, walsh.PARITY_CACHE_BYTES // entry + extra + 1)
    tracemalloc.start()
    try:
        for mask in masks:
            sv.apply(state, sv.ZPhase(mask, 0.1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # without eviction the extra entries alone would overshoot by 8 MiB
    assert held <= walsh.PARITY_CACHE_BYTES + 2**20
    # the most recent entry is still served from the cache
    assert walsh.parity(n, masks[-1]) is walsh.parity(n, masks[-1])


def test_two_qubit_gates_hold_no_memory():
    n = 20
    state_bytes = 2**n * 16  # complex128 amplitudes
    state = sv.new_zero_state(n)
    tracemalloc.start()
    try:
        for gate in (sv.CX(3, 17), sv.CZ(17, 3), sv.CX(19, 0), sv.CZ(0, 19)):
            sv.apply(state, gate)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # interpreter bookkeeping only: one cached index array is 8 MiB here
    assert held <= 2**16
    assert peak <= state_bytes // 2
