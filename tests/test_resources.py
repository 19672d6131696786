from collections import Counter

import numpy as np
import pytest

from qtwostage import statevec as sv
from qtwostage.config import (ExperimentConfig, StructureError,
                              default_params)
from qtwostage.qaoa import VariationalParams, assemble, random_params
from qtwostage.resources import (
    SWEEP_FIELDS,
    _sweep_circuit,
    count_and_depth,
    lower_to_basis,
    sweep_scaling,
)
from qtwostage.ucp import build_hamiltonian

from oracles import run_lowered, zphase

HALF_PI = np.pi / 2.0


def h_triples(q):
    return [("rz", (q,), HALF_PI), ("sx", (q,), None), ("rz", (q,), HALF_PI)]


def assert_unitary_equivalent(circuit: sv.Circuit, rng, tol=1e-9) -> None:
    """Original and lowered circuit agree on a random state, mod global phase."""
    lowered = lower_to_basis(circuit)
    n = circuit.n_qubits
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    out_a = sv.run_circuit(circuit, amps.copy())
    out_b = run_lowered(lowered, amps)
    overlap = np.vdot(out_b, out_a)
    assert abs(abs(overlap) - 1.0) < tol
    phase = overlap / abs(overlap)
    assert np.max(np.abs(out_a - phase * out_b)) < tol


def random_circuit(n: int, n_gates: int, rng) -> sv.Circuit:
    gates = []
    for _ in range(n_gates):
        kind = int(rng.integers(0, 5))
        q = int(rng.integers(0, n))
        if kind == 0:
            gates.append(("h", (q,), None))
        elif kind == 1:
            gates.append(("rx", (q,), float(rng.uniform(-4.0, 4.0))))
        elif kind == 2:
            gates.append(("ry", (q,), float(rng.uniform(-4.0, 4.0))))
        elif kind == 3:
            other = int(rng.integers(0, n - 1))
            other = other if other < q else other + 1
            gates.append(("cz", (q, other), None))
        else:
            mask = int(rng.integers(1, 2**n))
            gates.append(zphase(mask, float(rng.uniform(-4.0, 4.0))))
    return sv.Circuit(n, gates)


# ---------------------------------------------------------------------------
# rewrite table
# ---------------------------------------------------------------------------

def test_h_rewrite_sequence():
    lowered = lower_to_basis(sv.Circuit(2, [("h", (1,), None)]))
    assert lowered.gates == [
        ("rz", (1,), HALF_PI), ("sx", (1,), None), ("rz", (1,), HALF_PI),
    ]


def test_ry_rewrite_sequence():
    theta = 0.9
    lowered = lower_to_basis(sv.Circuit(1, [("ry", (0,), theta)]))
    assert lowered.gates == [
        ("rz", (0,), 0.0),
        ("sx", (0,), None),
        ("rz", (0,), theta + np.pi),
        ("sx", (0,), None),
        ("rz", (0,), np.pi),
    ]


def test_rx_rewrite_sequence():
    theta = -1.3
    lowered = lower_to_basis(sv.Circuit(1, [("rx", (0,), theta)]))
    assert lowered.gates == [
        ("rz", (0,), HALF_PI),
        ("sx", (0,), None),
        ("rz", (0,), theta + np.pi),
        ("sx", (0,), None),
        ("rz", (0,), HALF_PI),
    ]


def test_cz_rewrite_is_h_conjugated_cx():
    lowered = lower_to_basis(sv.Circuit(3, [("cz", (2, 0), None)]))
    assert lowered.gates == h_triples(0) + [("cx", (2, 0), None)] + h_triples(0)


def test_zphase_weight_one_is_single_rz():
    lowered = lower_to_basis(sv.Circuit(3, [("zphase", (2,), 0.4)]))
    assert lowered.gates == [("rz", (2,), 0.8)]


def test_zphase_ladder_structure():
    # support {0, 2, 5}: parity folds down to qubit 0, then unfolds
    lowered = lower_to_basis(sv.Circuit(6, [("zphase", (0, 2, 5), 0.3)]))
    assert lowered.gates == [
        ("cx", (5, 2), None),
        ("cx", (2, 0), None),
        ("rz", (0,), 0.6),
        ("cx", (2, 0), None),
        ("cx", (5, 2), None),
    ]


@pytest.mark.parametrize("weight", [2, 3, 5, 8])
def test_zphase_gate_budget(weight):
    gate = ("zphase", tuple(range(weight)), 1.0)
    lowered = lower_to_basis(sv.Circuit(weight, [gate]))
    kinds = [kind for kind, _, _ in lowered.gates]
    assert kinds.count("cx") == 2 * (weight - 1)
    assert kinds.count("rz") == 1


@pytest.mark.parametrize("gate", [
    ("ry", (-1,), 0.0), ("cz", (0, -1), None), ("h", (2,), None),
    ("rx", (2,), 0.3), ("cz", (0, 0), None), ("zphase", (2, 3), 0.3),
    ("zphase", (-1, 0), 0.3), object(), ("zphase", (), 0.3),
    ("x", (0,), None), ("h", (0,)), ["h", (0,), None], ("h", (0, 1), None),
    ("cz", (0,), None), ("rx", (), 0.3), ("zphase", (1, 1), 0.3),
])
def test_rewrite_rejects_what_the_simulator_rejects(gate):
    # a qubit outside [0, n), a repeated qubit, an empty support, the wrong
    # qubit count for the kind, an unknown kind, or a value that is not a
    # (kind, qubits, angle) tuple; at n = 2
    circuit = sv.Circuit(2, [gate])
    for consumer in (lower_to_basis, count_and_depth, sv.run_circuit):
        with pytest.raises(StructureError):
            consumer(circuit)


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
    ham = build_hamiltonian(default_params(), 30.0, 2, 0.0, 2500.0)
    theta = rng.uniform(-1.0, 1.0, size=6)
    circuit = assemble(theta, ham, random_params(2, 2, rng))
    assert_unitary_equivalent(circuit, rng)


# ---------------------------------------------------------------------------
# counting and depth
# ---------------------------------------------------------------------------

# a weight-1 zphase lowers to one rz; a weight-2 one to cx, rz, cx

def test_depth_serial_chain():
    gates = [("zphase", (0,), 0.1)] * 7
    report = count_and_depth(sv.Circuit(1, gates))
    assert report["depth"] == 7
    assert report["rz"] == 7
    assert report["total"] == 7


def test_depth_parallel_layer():
    gates = [("zphase", (q,), 0.1) for q in range(5)]
    report = count_and_depth(sv.Circuit(5, gates))
    assert report["depth"] == 1
    assert report["total"] == 5


def test_depth_shared_qubit_chain():
    # the second block waits on qubit 1 for the whole of the first
    gates = [("zphase", (0, 1), 0.1), ("zphase", (1, 2), 0.1)]
    report = count_and_depth(sv.Circuit(3, gates))
    assert report["depth"] == 6
    assert report["cx"] == 4


def test_depth_mixed_frontier():
    # the block holds qubits 0 and 1 for 3 layers; the rz on qubit 2 stays
    # in layer 1 and the one on qubit 1 lands in layer 4
    gates = [("zphase", (0, 1), 0.3), ("zphase", (2,), 0.3),
             ("zphase", (1,), 0.3)]
    report = count_and_depth(sv.Circuit(3, gates))
    assert report["depth"] == 4
    assert report["total"] == 5


def longest_path_oracle(lowered: sv.Circuit) -> dict:
    """Kinds, total and depth of a lowered circuit, the depth taken as the
    longest path, in gates, of its dependency graph.

    A gate's predecessors are the last earlier gate on each of its qubits,
    found by scanning back; the longest path ending at each gate follows by
    dynamic programming in gate order.
    """
    gates = lowered.gates
    longest = []  # longest path ending at gate i, gate i included
    for i, (_, qubits, _) in enumerate(gates):
        preds = set()
        for q in qubits:
            for j in range(i - 1, -1, -1):
                if q in gates[j][1]:
                    preds.add(j)
                    break
        longest.append(1 + max((longest[j] for j in preds), default=0))
    kinds = Counter(kind for kind, _, _ in gates)
    return {"rz": kinds["rz"], "sx": kinds["sx"], "x": kinds["x"],
            "cx": kinds["cx"], "total": len(gates),
            "depth": max(longest, default=0)}


@pytest.mark.parametrize("circuit", [
    # generator rows, single-stage rows of either stage, full assemblies
    *(_sweep_circuit(n_xi, 0, 0, 0) for n_xi in (1, 2, 5)),
    *(_sweep_circuit(n_xi, 3, 2, 0) for n_xi in (2, 4)),
    *(_sweep_circuit(n_xi, 4, 0, 3) for n_xi in (2, 4)),
    *(_sweep_circuit(n_xi, m, 2, 2) for n_xi in (2, 3) for m in (3, 5)),
    *(random_circuit(n, 80, np.random.default_rng(n)) for n in (2, 5, 9)),
])
def test_counter_equals_tally_of_lowered_circuit(circuit):
    assert count_and_depth(circuit) == \
        longest_path_oracle(lower_to_basis(circuit))


def test_counts_do_not_depend_on_angles():
    def tally(angle):
        circuit = sv.Circuit(3, [("ry", (0,), angle), ("rx", (1,), angle),
                                 ("zphase", (0, 1, 2), angle)])
        return count_and_depth(circuit)

    assert tally(0.0) == tally(2.1)


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------

def lowered_totals(n_xi, n_units, p1, p2):
    """Lowered totals of ``sweep_scaling([2**n_xi], [n_units], p1, p2)``,
    keyed by each row's (M, p1, p2)."""
    rows = sweep_scaling([2**n_xi], [n_units], p1, p2)
    return {(r["M"], r["p1"], r["p2"]): r["total"] for r in rows}


def test_default_params_cycles_units():
    params = default_params(5)
    base = default_params()
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
    n_bits = range(2, 9)
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


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(),
    ExperimentConfig(n_values=tuple(2**k for k in range(1, 9)),
                     m_values=tuple(range(1, 7))),
], ids=["default", "wide"])
def test_every_sweep_row_satisfies_the_count_identities(cfg):
    rows = sweep_scaling(cfg.n_values, cfg.m_values, cfg.qaoa.p1, cfg.qaoa.p2)
    for row in rows:
        assert tuple(row) == SWEEP_FIELDS
        assert row["total"] == row["rz"] + row["sx"] + row["x"] + row["cx"]
        assert row["depth"] <= row["total"]
        assert row["x"] == 0


@pytest.mark.parametrize("n_xi,n_units,p1,p2", [(2, 3, 1, 1), (3, 4, 2, 3)])
def test_full_assembly_row_counts_the_simulated_circuit(n_xi, n_units, p1, p2):
    """The sweep's full-assembly row counts the circuit ``run`` simulates."""
    ham = build_hamiltonian(default_params(n_units), 30.0, n_xi, 0.0, 2500.0)
    zero = VariationalParams(np.zeros(p1), np.zeros(p1), np.zeros(p2),
                             np.zeros(p2))
    report = count_and_depth(assemble(np.zeros(n_xi * (n_xi + 1)), ham, zero))
    (row,) = [
        r for r in sweep_scaling([2**n_xi], [n_units], p1, p2)
        if r["include_qgan"] and r["M"] == n_units
    ]
    assert row == {
        "N": 2**n_xi, "M": n_units, "p1": p1, "p2": p2, "include_qgan": 1,
        **report,
    }


def test_full_assembly_counts_grow_with_units():
    totals = [lowered_totals(3, m, 2, 2)[m, 2, 2] for m in (2, 3, 4, 5)]
    assert all(b > a for a, b in zip(totals, totals[1:]))
