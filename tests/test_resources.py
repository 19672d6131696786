import dataclasses

import numpy as np
import pytest

from qtwostage import statevec as sv
from qtwostage.errors import StructureError, UnsupportedGateError
from qtwostage.qaoa import VariationalParams, assemble, random_params
from qtwostage.qgan import GeneratorSpec, default_spec
from qtwostage.resources import (
    SWEEP_FIELDS,
    ResourceReport,
    count_and_depth,
    lower_to_basis,
    sweep_params,
    sweep_scaling,
)
from qtwostage.ucp import build_hamiltonian, default_params

HALF_PI = np.pi / 2.0


def assert_unitary_equivalent(circuit: sv.Circuit, rng, tol=1e-9) -> None:
    """Original and lowered circuit agree on a random state, mod global phase."""
    lowered = lower_to_basis(circuit)
    n = circuit.n_qubits
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    out_a = sv.run_circuit(circuit, amps.copy())
    out_b = sv.run_circuit(lowered, amps.copy())
    overlap = np.vdot(out_b, out_a)
    assert abs(abs(overlap) - 1.0) < tol
    phase = overlap / abs(overlap)
    assert np.max(np.abs(out_a - phase * out_b)) < tol


def random_circuit(n: int, n_gates: int, rng) -> sv.Circuit:
    gates = []
    for _ in range(n_gates):
        kind = int(rng.integers(0, 9))
        q = int(rng.integers(0, n))
        if kind == 0:
            gates.append(sv.H(q))
        elif kind == 1:
            gates.append(sv.X(q))
        elif kind == 2:
            gates.append(sv.SX(q))
        elif kind == 3:
            gates.append(sv.RZ(q, float(rng.uniform(-4.0, 4.0))))
        elif kind == 4:
            gates.append(sv.RX(q, float(rng.uniform(-4.0, 4.0))))
        elif kind == 5:
            gates.append(sv.RY(q, float(rng.uniform(-4.0, 4.0))))
        elif kind in (6, 7):
            other = int(rng.integers(0, n - 1))
            other = other if other < q else other + 1
            gates.append(sv.CX(q, other) if kind == 6 else sv.CZ(q, other))
        else:
            mask = int(rng.integers(1, 2**n))
            gates.append(sv.ZPhase(mask, float(rng.uniform(-4.0, 4.0))))
    return sv.Circuit(n, gates)


# ---------------------------------------------------------------------------
# rewrite table
# ---------------------------------------------------------------------------

def test_basis_gates_pass_through_unchanged():
    gates = [sv.RZ(0, 0.7), sv.SX(1), sv.X(2), sv.CX(0, 2)]
    lowered = lower_to_basis(sv.Circuit(3, list(gates)))
    assert lowered.gates == gates


def test_h_rewrite_sequence():
    lowered = lower_to_basis(sv.Circuit(2, [sv.H(1)]))
    assert lowered.gates == [sv.RZ(1, HALF_PI), sv.SX(1), sv.RZ(1, HALF_PI)]


def test_ry_rewrite_sequence():
    theta = 0.9
    lowered = lower_to_basis(sv.Circuit(1, [sv.RY(0, theta)]))
    assert lowered.gates == [
        sv.RZ(0, 0.0),
        sv.SX(0),
        sv.RZ(0, theta + np.pi),
        sv.SX(0),
        sv.RZ(0, np.pi),
    ]


def test_rx_rewrite_sequence():
    theta = -1.3
    lowered = lower_to_basis(sv.Circuit(1, [sv.RX(0, theta)]))
    assert lowered.gates == [
        sv.RZ(0, HALF_PI),
        sv.SX(0),
        sv.RZ(0, theta + np.pi),
        sv.SX(0),
        sv.RZ(0, HALF_PI),
    ]


def test_cz_rewrite_is_h_conjugated_cx():
    lowered = lower_to_basis(sv.Circuit(3, [sv.CZ(2, 0)]))
    h_low = [sv.RZ(0, HALF_PI), sv.SX(0), sv.RZ(0, HALF_PI)]
    assert lowered.gates == h_low + [sv.CX(2, 0)] + h_low


def test_zphase_weight_one_is_single_rz():
    lowered = lower_to_basis(sv.Circuit(3, [sv.ZPhase(0b100, 0.4)]))
    assert lowered.gates == [sv.RZ(2, 0.8)]


def test_zphase_ladder_structure():
    # support {0, 2, 5}: parity folds down to qubit 0, then unfolds
    lowered = lower_to_basis(sv.Circuit(6, [sv.ZPhase(0b100101, 0.3)]))
    assert lowered.gates == [
        sv.CX(5, 2),
        sv.CX(2, 0),
        sv.RZ(0, 0.6),
        sv.CX(2, 0),
        sv.CX(5, 2),
    ]


@pytest.mark.parametrize("weight", [2, 3, 5, 8])
def test_zphase_gate_budget(weight):
    mask = (1 << weight) - 1
    lowered = lower_to_basis(sv.Circuit(weight, [sv.ZPhase(mask, 1.0)]))
    kinds = [type(g).__name__ for g in lowered.gates]
    assert kinds.count("CX") == 2 * (weight - 1)
    assert kinds.count("RZ") == 1


def test_zphase_mask_zero_dropped():
    lowered = lower_to_basis(sv.Circuit(2, [sv.ZPhase(0, 1.0), sv.X(0)]))
    assert lowered.gates == [sv.X(0)]


def test_diag_phase_rejected():
    gate = sv.DiagPhase(np.zeros(4), 0.5)
    with pytest.raises(UnsupportedGateError):
        lower_to_basis(sv.Circuit(2, [gate]))


# ---------------------------------------------------------------------------
# lowering correctness (cross-simulation oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_lowering_preserves_action_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    assert_unitary_equivalent(random_circuit(n, 60, rng), rng)


def test_lowering_preserves_action_wide_register():
    rng = np.random.default_rng(99)
    assert_unitary_equivalent(random_circuit(12, 40, rng), rng)


def test_lowering_preserves_action_full_assembly():
    # the production circuit: generator + both stage blocks, random angles
    rng = np.random.default_rng(7)
    ham = build_hamiltonian(default_params(30.0), 2, 0.0, 2500.0)
    spec = GeneratorSpec(2, rng.uniform(-1.0, 1.0, size=6))
    circuit = assemble(spec, ham, random_params(2, 2, rng))
    assert_unitary_equivalent(circuit, rng)


# ---------------------------------------------------------------------------
# counting and depth
# ---------------------------------------------------------------------------

def test_depth_serial_chain():
    gates = [sv.RZ(0, 0.1)] * 7
    report = count_and_depth(sv.Circuit(1, gates))
    assert report.depth == 7
    assert report.rz == 7
    assert report.total == 7


def test_depth_parallel_layer():
    gates = [sv.RZ(q, 0.1) for q in range(5)]
    report = count_and_depth(sv.Circuit(5, gates))
    assert report.depth == 1
    assert report.total == 5


def test_depth_shared_qubit_chain():
    report = count_and_depth(sv.Circuit(3, [sv.CX(0, 1), sv.CX(1, 2)]))
    assert report.depth == 2
    assert report.cx == 2


def test_depth_mixed_frontier():
    # CX(0,1) blocks qubit 1; RZ on qubit 2 stays in layer 1
    gates = [sv.CX(0, 1), sv.RZ(2, 0.3), sv.RZ(1, 0.3)]
    report = count_and_depth(sv.Circuit(3, gates))
    assert report.depth == 2
    assert report.total == 3


def test_count_rejects_unlowered_gate():
    with pytest.raises(UnsupportedGateError):
        count_and_depth(sv.Circuit(1, [sv.H(0)]))


def test_report_validates_total():
    with pytest.raises(StructureError):
        ResourceReport(rz=1, sx=0, x=0, cx=0, total=2, depth=1)


def test_report_validates_depth_bound():
    with pytest.raises(StructureError):
        ResourceReport(rz=1, sx=0, x=0, cx=0, total=1, depth=2)


def test_counts_do_not_depend_on_angles():
    def tally(angle):
        circuit = sv.Circuit(3, [sv.RY(0, angle), sv.RX(1, angle), sv.ZPhase(0b111, angle)])
        return count_and_depth(lower_to_basis(circuit))

    a, b = tally(0.0), tally(2.1)
    assert (a.rz, a.sx, a.cx, a.total, a.depth) == (b.rz, b.sx, b.cx, b.total, b.depth)


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------

def lowered_totals(n_xi, n_units, p1, p2):
    """Lowered totals of ``sweep_scaling([2**n_xi], [n_units], p1, p2)``,
    keyed by each row's (M, p1, p2)."""
    rows = sweep_scaling([2**n_xi], [n_units], p1, p2)
    return {(r["M"], r["p1"], r["p2"]): r["total"] for r in rows}


def test_sweep_params_cycles_units():
    params = sweep_params(5)
    base = default_params(30.0)
    assert params.n_units == 5
    assert params.p_min == base.p_min + base.p_min[:2]
    assert all(c > 0 for c in params.unit_cost)


def test_generator_only_counts_strictly_increase_with_scenarios():
    totals = [lowered_totals(n_xi, 3, 1, 1)[0, 0, 0] for n_xi in range(2, 9)]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_first_stage_layer_increment_independent_of_scenario_count():
    increments = set()
    for n_xi in range(2, 9):
        totals = lowered_totals(n_xi, 3, 2, 1)
        increments.add(totals[3, 2, 0] - totals[3, 1, 0])
    assert len(increments) == 1


def test_second_stage_layer_increment_affine_in_scenario_bits():
    n_bits = np.arange(2, 9)
    totals = [lowered_totals(n, 3, 1, 2) for n in n_bits]
    increments = np.array(
        [t[3, 0, 2] - t[3, 0, 1] for t in totals], dtype=float
    )
    assert all(b > a for a, b in zip(increments, increments[1:]))
    coef = np.polyfit(n_bits, increments, 1)
    pred = np.polyval(coef, n_bits)
    ss_res = float(np.sum((increments - pred) ** 2))
    ss_tot = float(np.sum((increments - increments.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.99


def test_sweep_rows_shape_and_schema():
    n_list = [4, 8, 16]
    m_list = [3, 4]
    rows = sweep_scaling(n_list, m_list, p1=2, p2=2)
    # generator family + per-depth stage families + full grid
    assert len(rows) == 3 + 3 * 2 + 3 * 2 + 2 * 3
    for row in rows:
        assert tuple(row.keys()) == SWEEP_FIELDS
        assert row["total"] == row["rz"] + row["sx"] + row["x"] + row["cx"]
        assert 0 < row["depth"] <= row["total"]

    gen_rows = [r for r in rows if r["M"] == 0]
    assert [r["N"] for r in gen_rows] == n_list
    assert all(r["include_qgan"] == 1 and r["p1"] == 0 and r["p2"] == 0 for r in gen_rows)

    full = [r for r in rows if r["p1"] == 2 and r["p2"] == 2]
    assert sorted({r["M"] for r in full}) == m_list
    assert all(r["include_qgan"] == 1 for r in full)
    single = [r for r in rows if r["M"] > 0 and (r["p1"] == 0 or r["p2"] == 0)]
    assert len(single) == 3 * 2 + 3 * 2
    assert all(r["include_qgan"] == 0 for r in single)


def test_sweep_rejects_bad_scenario_counts():
    with pytest.raises(StructureError):
        sweep_scaling([6], [3], 1, 1)
    with pytest.raises(StructureError):
        sweep_scaling([], [3], 1, 1)
    with pytest.raises(StructureError):
        sweep_scaling([4], [0], 1, 1)
    with pytest.raises(StructureError):
        sweep_scaling([4], [3], 0, 1)


@pytest.mark.parametrize("n_xi,n_units,p1,p2", [(2, 3, 1, 1), (3, 4, 2, 3)])
def test_full_assembly_row_counts_the_simulated_circuit(n_xi, n_units, p1, p2):
    """The sweep's full-assembly row counts the circuit ``run`` simulates."""
    ham = build_hamiltonian(sweep_params(n_units), n_xi, 0.0, 2500.0)
    zero = VariationalParams(np.zeros(p1), np.zeros(p1), np.zeros(p2),
                             np.zeros(p2))
    report = count_and_depth(
        lower_to_basis(assemble(default_spec(n_xi), ham, zero)))
    (row,) = [
        r for r in sweep_scaling([2**n_xi], [n_units], p1, p2)
        if r["include_qgan"] and r["M"] == n_units
    ]
    assert row == {
        "N": 2**n_xi, "M": n_units, "p1": p1, "p2": p2, "include_qgan": 1,
        **dataclasses.asdict(report),
    }


def test_full_assembly_counts_grow_with_units():
    totals = [lowered_totals(3, m, 2, 2)[m, 2, 2] for m in (2, 3, 4, 5)]
    assert all(b > a for a, b in zip(totals, totals[1:]))
