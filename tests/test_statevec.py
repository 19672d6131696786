"""Simulator checks, including a dense-matrix oracle for every gate kind."""

import tracemalloc

import numpy as np
import pytest

from qtwostage import statevec as sv
from qtwostage.errors import CapacityError, StructureError
from qtwostage.qgan import generator_probs

from oracles import diagonal_phase, zphase


# ---------------------------------------------------------------------------
# dense-matrix oracle: build each gate's full unitary by Kronecker products
# (independent of the in-place kernels) and compare actions on random states
# ---------------------------------------------------------------------------

def _single_qubit_matrix(kind, angle):
    if kind == "ry":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rx":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "h":
        return np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    raise AssertionError(kind)


def _dense_unitary(gate, n):
    """Full 2^n x 2^n matrix with little-endian qubit ordering."""
    kind, qubits, angle = gate
    dim = 2**n
    if kind in ("ry", "rx", "h"):
        u = _single_qubit_matrix(kind, angle)
        full = np.eye(1, dtype=complex)
        # kron composes most-significant qubit first
        for q in reversed(range(n)):
            full = np.kron(full, u if q == qubits[0] else np.eye(2))
        return full
    if kind == "cz":
        control, target = qubits
        full = np.eye(dim, dtype=complex)
        for i in range(dim):
            if (i >> control) & 1 and (i >> target) & 1:
                full[i, i] = -1.0
        return full
    if kind == "zphase":
        mask = sum(1 << q for q in qubits)
        diag = np.array(
            [(-1.0) ** bin(i & mask).count("1") for i in range(dim)]
        )
        return np.diag(np.exp(-1j * angle * diag))
    raise AssertionError(gate)


def _random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


def test_every_gate_matches_dense_matrix_oracle():
    rng = np.random.default_rng(11)
    n = 3
    gates = [
        ("ry", (0,), 0.7), ("ry", (2,), -1.3), ("rx", (2,), 0.4),
        ("h", (0,), None), ("h", (1,), None), ("cz", (1, 2), None),
        ("zphase", (0, 2), 0.9), ("zphase", (0, 1, 2), -0.3),
    ]
    for gate in gates:
        state = _random_state(n, rng)
        expected = _dense_unitary(gate, n) @ state
        sv.apply(state, gate)
        assert np.allclose(state, expected, atol=1e-12), gate


def test_random_circuit_matches_matrix_product_oracle():
    rng = np.random.default_rng(23)
    n = 4
    for _ in range(10):
        state = _random_state(n, rng)
        ref = state.copy()
        for _ in range(12):
            kind = rng.integers(4)
            q = int(rng.integers(n))
            q2 = int((q + 1 + rng.integers(n - 1)) % n)
            angle = float(rng.uniform(-np.pi, np.pi))
            gate = [
                ("ry", (q,), angle), ("rx", (q,), angle), ("cz", (q, q2), None),
                zphase(int(rng.integers(1, 2**n)), angle),
            ][kind]
            ref = _dense_unitary(gate, n) @ ref
            sv.apply(state, gate)
        assert np.allclose(state, ref, atol=1e-10)
        assert abs(sv.probabilities(state).sum() - 1.0) < 1e-10


def test_batch_axis_matches_row_by_row():
    # every gate kind on a (rows, 2^n) batch, rotations with one angle per
    # row, must give exactly the bits of the same circuits run row by row
    rng = np.random.default_rng(31)
    n, rows = 4, 5

    def per_row():
        return rng.uniform(-np.pi, np.pi, size=rows)

    gates = [
        ("h", (0,), None), ("ry", (0,), per_row()), ("rx", (3,), per_row()),
        ("ry", (1,), 0.7), ("cz", (2, 0), None), ("cz", (1, 3), None),
        ("zphase", (0, 1, 3), 0.9),
        ("ry", (3,), per_row()), ("rx", (0,), 1.1),
    ]
    start = np.stack([_random_state(n, rng) for _ in range(rows)])
    batch = sv.run_circuit(sv.Circuit(n, gates), start.copy())
    assert batch.shape == (rows, 2**n)
    for r in range(rows):
        row_gates = [
            (kind, qubits, angle[r])
            if isinstance(angle, np.ndarray) else (kind, qubits, angle)
            for kind, qubits, angle in gates
        ]
        single = sv.run_circuit(sv.Circuit(n, row_gates), start[r].copy())
        assert np.array_equal(batch[r], single), r


def test_sample_rows_match_row_by_row_draws():
    # one multinomial per row of a 2-D probs, drawn in row order: the same
    # counts and the same final rng state as drawing the rows one by one
    cases = np.random.default_rng(17)
    for case in range(200):
        rows = int(cases.integers(1, 9))
        size = 2 ** int(cases.integers(1, 7))
        probs = cases.random((rows, size)) ** 3
        probs[cases.random((rows, size)) < 0.2] = 0.0
        probs[:, 0] += 1e-3  # no all-zero row
        shots = int(cases.integers(1, 5000))
        rng_a = np.random.default_rng(case)
        rng_b = np.random.default_rng(case)
        batched = sv.sample(probs, shots, rng_a)
        by_row = np.stack([sv.sample(p, shots, rng_b) for p in probs])
        assert np.array_equal(batched, by_row), case
        assert rng_a.bit_generator.state == rng_b.bit_generator.state, case


# ---------------------------------------------------------------------------
# constructors and basic semantics
# ---------------------------------------------------------------------------

def test_zero_state_examples():
    assert np.array_equal(sv.new_zero_state(1), [1, 0])
    assert np.array_equal(sv.new_zero_state(2), [1, 0, 0, 0])
    big = sv.new_zero_state(11)
    assert big.shape == (2048,)
    assert abs(sv.probabilities(big).sum() - 1.0) < 1e-12


def test_zero_state_capacity_guard():
    with pytest.raises(CapacityError):
        sv.new_zero_state(0)
    with pytest.raises(CapacityError):
        sv.new_zero_state(29)
    # the generator's batched path starts from the same checked state
    with pytest.raises(CapacityError):
        generator_probs(29, np.zeros(29 * 30))


def test_ry_pi_flips_qubit():
    state = sv.apply(sv.new_zero_state(1), ("ry", (0,), np.pi))
    assert np.allclose(sv.probabilities(state), [0, 1], atol=1e-14)


def test_little_endian_bit_convention():
    state = sv.apply(sv.new_zero_state(2), ("ry", (0,), np.pi))
    assert np.argmax(sv.probabilities(state)) == 1
    state = sv.apply(sv.new_zero_state(2), ("ry", (1,), np.pi))
    assert np.argmax(sv.probabilities(state)) == 2


def test_zphase_single_qubit_phases():
    t = 0.37
    state = np.array([0.6, 0.8], dtype=complex)
    sv.apply(state, ("zphase", (0,), t))
    assert np.allclose(
        state, [0.6 * np.exp(-1j * t), 0.8 * np.exp(1j * t)], atol=1e-14
    )


def test_cz_leaves_probabilities_unchanged():
    state = sv.new_zero_state(2)
    sv.apply(state, ("h", (0,), None))
    before = sv.probabilities(state).copy()
    sv.apply(state, ("cz", (0, 1), None))
    assert np.allclose(before, [0.5, 0.5, 0, 0])
    assert np.allclose(sv.probabilities(state), before, atol=1e-14)


def test_zphase_equals_diagphase_oracle():
    rng = np.random.default_rng(5)
    n = 5
    for _ in range(20):
        mask = int(rng.integers(1, 2**n))
        t = float(rng.uniform(-3, 3))
        a = _random_state(n, rng)
        b = a.copy()
        sv.apply(a, zphase(mask, t))
        values = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(2**n)])
        diagonal_phase(b, values, t)
        assert np.allclose(a, b, atol=1e-12)


def test_diagonal_gates_commute():
    rng = np.random.default_rng(7)
    n = 4
    gates = [zphase(int(rng.integers(1, 16)), float(rng.uniform(-2, 2)))
             for _ in range(8)]
    a = _random_state(n, rng)
    b = a.copy()
    for g in gates:
        sv.apply(a, g)
    for g in reversed(gates):
        sv.apply(b, g)
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations, sampling, marginals
# ---------------------------------------------------------------------------

def test_expectation_examples():
    plus = sv.apply(sv.new_zero_state(1), ("h", (0,), None))
    assert abs(sv.expectation_diagonal(plus, np.array([1.0, -1.0]))) < 1e-14

    one = sv.apply(sv.new_zero_state(1), ("ry", (0,), np.pi))
    assert sv.expectation_diagonal(one, np.array([1.0, -1.0])) == pytest.approx(-1.0)

    uniform = sv.new_zero_state(2)
    sv.apply(uniform, ("h", (0,), None))
    sv.apply(uniform, ("h", (1,), None))
    assert sv.expectation_diagonal(uniform, np.arange(4.0)) == pytest.approx(1.5)


def test_sample_point_mass_and_determinism():
    state = sv.new_zero_state(3)
    counts = sv.sample(sv.probabilities(state), 100, np.random.default_rng(0))
    np.testing.assert_array_equal(counts, [100, 0, 0, 0, 0, 0, 0, 0])

    plus = sv.probabilities(sv.apply(sv.new_zero_state(1), ("h", (0,), None)))
    c1 = sv.sample(plus, 10_000, np.random.default_rng(42))
    c2 = sv.sample(plus, 10_000, np.random.default_rng(42))
    np.testing.assert_array_equal(c1, c2)
    assert c1.sum() == 10_000
    # 5 sigma of a fair Bernoulli at 1e4 shots
    assert abs(c1[0] - 5000) < 5 * 50


def test_sampling_frequencies_track_probabilities():
    rng = np.random.default_rng(13)
    state = _random_state(4, rng)
    shots = 100_000
    probs = sv.probabilities(state)
    freq = sv.sample(probs, shots, np.random.default_rng(99)) / shots
    assert np.max(np.abs(freq - probs)) <= 2 / np.sqrt(shots)


def test_structural_errors():
    state = sv.new_zero_state(2)
    with pytest.raises(StructureError):
        sv.apply(state, ("ry", (2,), 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, ("zphase", (), 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, ("zphase", (2,), 0.1))
    with pytest.raises(StructureError):
        sv.apply(state, ("cz", (1, 1), None))
    with pytest.raises(StructureError):
        sv.run_circuit(sv.Circuit(3, []), state)


def test_run_circuit_from_zero():
    # H, then CX(0, 1) as H CZ H on its target
    circ = sv.Circuit(2, [("h", (0,), None), ("h", (1,), None),
                          ("cz", (0, 1), None), ("h", (1,), None)])
    state = sv.run_circuit(circ)
    assert np.allclose(sv.probabilities(state), [0.5, 0, 0, 0.5])


def test_two_qubit_gates_hold_no_memory():
    n = 20
    state_bytes = 2**n * 16  # complex128 amplitudes
    state = sv.new_zero_state(n)
    tracemalloc.start()
    try:
        for gate in (("cz", (3, 17), None), ("cz", (17, 3), None),
                     ("cz", (19, 0), None), ("cz", (0, 19), None)):
            sv.apply(state, gate)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # interpreter bookkeeping only: one cached index array is 8 MiB here
    assert held <= 2**16
    assert peak <= state_bytes // 2
