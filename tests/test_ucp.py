"""Unit-commitment model checks: encoding, Hamiltonian, classical costs."""

from dataclasses import replace

import numpy as np
import pytest

from qtwostage import config, ucp, walsh
from qtwostage.errors import StructureError

from oracles import (
    classical_surrogate,
    decode_basis,
    encode_basis,
    eval_at,
    surrogate_diagonal,
)


LAYOUT = ucp.RegisterLayout(n_xi=5, n_units=3)


def test_layout_offsets():
    assert list(LAYOUT.first_stage_qubits) == [5, 6, 7]
    assert list(LAYOUT.second_stage_qubits) == [8, 9, 10]
    assert LAYOUT.n_total == 11
    assert LAYOUT.scenario_mask == 0b11111


def test_params_validation():
    with pytest.raises(StructureError):
        config.UcpParams(1, 10.0, (5.0,), (5.0,), (0.0,), (1.0,))
    with pytest.raises(StructureError):
        config.UcpParams(1, 10.0, (1.0,), (5.0,), (-1.0,), (1.0,))
    with pytest.raises(StructureError):
        config.UcpParams(2, 10.0, (1.0,), (5.0,), (0.0,), (1.0,))
    with pytest.raises(StructureError):
        config.UcpParams(1, float("nan"), (1.0,), (5.0,), (0.0,), (1.0,))


def test_y_operator_levels():
    params = config.default_params()
    y3 = ucp.build_y_operator(2, params, LAYOUT)
    assert max(m.bit_count() for m in y3.terms) <= 2
    # unit 3 off -> 0 regardless of its level bit
    for b in (0, 1):
        idx = encode_basis(0, (0, 0, 0), (0, 0, b), LAYOUT)
        assert eval_at(y3, idx) == pytest.approx(0.0, abs=1e-12)
    # unit 3 on: the two levels are its output bounds
    idx = encode_basis(0, (0, 0, 1), (0, 0, 0), LAYOUT)
    assert eval_at(y3, idx) == pytest.approx(100.0)
    idx = encode_basis(0, (0, 0, 1), (0, 0, 1), LAYOUT)
    assert eval_at(y3, idx) == pytest.approx(200.0)

    y1 = ucp.build_y_operator(0, params, LAYOUT)
    idx = encode_basis(0, (1, 0, 0), (1, 0, 0), LAYOUT)
    assert eval_at(y1, idx) == pytest.approx(750.0)


def test_capacity_window_by_construction():
    params = config.default_params()
    for i in range(3):
        y = ucp.build_y_operator(i, params, LAYOUT)
        diag = walsh.reconstruct(y)
        for idx in range(2**LAYOUT.n_total):
            _, x, b = decode_basis(idx, LAYOUT)
            lo, hi = params.p_min[i] * x[i], params.p_max[i] * x[i]
            assert lo - 1e-9 <= diag[idx] <= hi + 1e-9


def test_surrogate_cost_examples():
    params = config.default_params()
    assert classical_surrogate((1, 1, 0), (1, 1, 0), 750.0, params, 30.0) == \
        pytest.approx(40250.0)
    assert classical_surrogate((1, 1, 0), (1, 1, 1), 750.0, params, 30.0) == \
        pytest.approx(40250.0)  # off unit's level bit is ignored

    assert classical_surrogate((0, 0, 0), (0, 0, 0), 0.0, params, 7.0) == \
        pytest.approx(7.0 * 6.25e6)
    assert classical_surrogate((0, 0, 1), (0, 0, 1), 2500.0, params, 7.0) == \
        pytest.approx(1000.0 + 2000.0 + 7.0 * 4e4)


def test_decode_encode_round_trip():
    assert decode_basis(0, LAYOUT) == (0, (0, 0, 0), (0, 0, 0))
    s, x, b = decode_basis((1 << 5) | (1 << 6), LAYOUT)
    assert (s, ucp.bits_to_string(x), b) == (0, "110", (0, 0, 0))
    for idx in range(2**LAYOUT.n_total):
        s, x, b = decode_basis(idx, LAYOUT)
        assert encode_basis(s, x, b, LAYOUT) == idx


def test_register_split():
    def word(bits):  # unit 1 is the least significant bit
        return sum(bit << i for i, bit in enumerate(bits))

    counts = np.random.default_rng(3).integers(0, 9, 2**LAYOUT.n_total)
    split = LAYOUT.split(counts)
    assert split.shape == (8, 8, 32)
    assert np.shares_memory(split, counts)
    commitment = np.zeros(8, dtype=counts.dtype)
    for idx in range(2**LAYOUT.n_total):
        s, x, b = decode_basis(idx, LAYOUT)
        assert split[word(b), word(x), s] == counts[idx]
        commitment[word(x)] += counts[idx]
    # the commitment marginal of integer counts is exact
    np.testing.assert_array_equal(split.sum(axis=(0, 2)), commitment)


def test_hamiltonian_matches_classical_surrogate_everywhere():
    """Operator diagonal == direct cost evaluation at every basis state.

    Tolerance is relative to the diagonal's scale: the polynomial form sums
    coefficients of size lam*D^2 (~1e8), so states whose exact cost cancels
    to 0 keep float rounding of that magnitude's ulp, not of their own value.
    """
    for n_xi in (2, 3, 5):
        for lam in (30.0, 200.0):
            params = config.default_params()
            ham = ucp.build_hamiltonian(params, lam, n_xi, 0.0, 2500.0)
            diag = walsh.reconstruct(ham.total())
            want = surrogate_diagonal(params, lam, n_xi, 0.0, 2500.0)
            scale = np.max(np.abs(want))
            tol = 1e-9 * np.maximum(1 + np.abs(want), scale)
            assert np.all(np.abs(diag - want) <= tol)


def test_hamiltonian_structure():
    params = config.default_params()
    ham = ucp.build_hamiltonian(params, 30.0, LAYOUT.n_xi, 0.0, 2500.0)
    smask = LAYOUT.scenario_mask
    assert all(m & smask for m in ham.h2_dep.terms)
    assert all(not m & smask for m in ham.h2_indep.terms)
    assert all(not m & smask for m in ham.h1.terms)
    # h1 touches only first-stage qubits
    first_mask = sum(1 << q for q in LAYOUT.first_stage_qubits)
    assert all(m & ~first_mask == 0 for m in ham.h1.terms)
    assert max(m.bit_count() for m in ham.total().terms) <= 4
    assert ham.total().terms.get(0, 0.0) == pytest.approx(
        ham.h1.terms.get(0, 0.0) + ham.h2_indep.terms.get(0, 0.0)
    )

    # direct evaluation at a hand-computed point: x=110, b=01x, xi_s = 0
    idx = encode_basis(0, (1, 1, 0), (0, 1, 0), LAYOUT)
    diag_val = eval_at(ham.total(), idx)
    assert diag_val == pytest.approx(33500.0 + 1_440_000.0 * 30.0)


def test_lambda_zero_decouples_scenarios():
    params = config.default_params()
    ham = ucp.build_hamiltonian(params, 0.0, LAYOUT.n_xi, 0.0, 2500.0)
    assert ham.h2_dep.terms == {}
    want = walsh.ZPolynomial(LAYOUT.n_total, {})
    for i in range(3):
        y = ucp.build_y_operator(i, params, LAYOUT)
        want = walsh.zpoly_add(want, walsh.zpoly_scale(y, params.unit_cost[i]))
    assert np.max(np.abs(
        walsh.reconstruct(ham.h2_indep) - walsh.reconstruct(want)
    )) < 1e-9


def test_split_reassembles_unsplit_h2():
    params = config.default_params()
    ham = ucp.build_hamiltonian(params, 30.0, 3, 0.0, 2500.0)
    rebuilt = walsh.reconstruct(walsh.zpoly_add(ham.h2_indep, ham.h2_dep))
    # the start-up cost alone: no generation cost, no imbalance penalty
    startup = replace(params, unit_cost=(0.0, 0.0, 0.0))
    direct = (surrogate_diagonal(params, 30.0, 3, 0.0, 2500.0)
              - surrogate_diagonal(startup, 0.0, 3, 0.0, 2500.0))
    scale = np.max(np.abs(direct))
    assert np.all(np.abs(rebuilt - direct) <= 1e-9 * np.maximum(1 + np.abs(direct), scale))
