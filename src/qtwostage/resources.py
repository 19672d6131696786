"""Lowering to the {RZ, SX, X, CX} basis plus gate/depth accounting.

One rewrite rule, ``_rewrite``, holds the fixed table (one Euler convention
per gate, no cancellation pass), so counts are reproducible and layer
increments stay exactly additive.  Z-string phase blocks synthesize as a CX
parity ladder onto the lowest support qubit, a single RZ, and the mirrored
ladder.  A gate is a ``(kind, qubits, angle)`` triple before lowering (see
``statevec``) and after it: ``lower_to_basis`` returns a circuit of the
rule's basis triples, and ``count_and_depth`` tallies them into a row's count
columns.  No gate the simulator runs lowers to X, so the ``x`` count is kept
as schema and reads 0.

``sweep_scaling`` builds circuits at zero angles over grids of scenario
counts and unit counts, each row its configuration columns and then
``count_and_depth`` of its circuit.  Four row families share one schema and
are distinguished by their configuration columns:

  * generator block alone            -> M = 0,  p1 = 0, p2 = 0, include_qgan
  * first-stage layers alone         -> p2 = 0, include_qgan = 0
  * second-stage layers alone        -> p1 = 0, include_qgan = 0
  * full assembly across unit counts -> p1, p2 > 0, include_qgan = 1

A full-assembly row counts ``qaoa.assemble``'s circuit, the one ``run``
simulates.  A single-stage row counts a sub-circuit: that stage's
``stage_layers``, H column included.

Absolute numbers depend on this table's conventions; only trends and the
structural identities pinned in the tests are meaningful.
"""

from __future__ import annotations

import numpy as np

from . import statevec as sv
from .config import default_params
from .qaoa import VariationalParams, assemble, stage_layers
from .qgan import generator_circuit
from .ucp import build_hamiltonian

_BASIS_KINDS = ("rz", "sx", "x", "cx")
SWEEP_FIELDS = ("N", "M", "p1", "p2", "include_qgan",
                *_BASIS_KINDS, "total", "depth")

_HALF_PI = np.pi / 2.0


# ---------------------------------------------------------------------------
# the rewrite rule
# ---------------------------------------------------------------------------

def _h(q: int) -> list:
    return [("rz", (q,), _HALF_PI), ("sx", (q,), None), ("rz", (q,), _HALF_PI)]


def _euler(q: int, first: float, angle: float, last: float) -> list:
    # RZ(last) . SX . RZ(angle+pi) . SX . RZ(first), rightmost applied first
    return [("rz", (q,), first), ("sx", (q,), None),
            ("rz", (q,), angle + np.pi), ("sx", (q,), None),
            ("rz", (q,), last)]


def _rewrite(gate, n_qubits: int) -> list:
    """The basis gates ``gate`` becomes, as (kind, qubits, angle) triples in
    order: kind "rz" with its angle, or "sx" or "cx" with angle None.

    Exactly the gates ``statevec.apply`` runs have a rewrite: anything
    ``statevec.check_qubits`` rejects on an ``n_qubits`` register is a
    StructureError here too.
    """
    kind, qubits, angle = sv.check_qubits(n_qubits, gate)
    if kind == "zphase":
        up = [("cx", pair, None) for pair in zip(qubits[1:], qubits)]
        return up[::-1] + [("rz", qubits[:1], 2.0 * angle)] + up
    if kind == "cz":
        return _h(qubits[1]) + [("cx", qubits, None)] + _h(qubits[1])
    q = qubits[0]
    if kind == "h":
        return _h(q)
    if kind == "rx":
        return _euler(q, _HALF_PI, angle, _HALF_PI)
    return _euler(q, 0.0, angle, np.pi)


def lower_to_basis(circuit: sv.Circuit) -> sv.Circuit:
    """The circuit whose gates are ``_rewrite``'s triples for every gate, in
    order; no cancellation afterwards."""
    return sv.Circuit(circuit.n_qubits, [
        triple for gate in circuit.gates
        for triple in _rewrite(gate, circuit.n_qubits)
    ])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_and_depth(circuit: sv.Circuit) -> dict:
    """Per-kind tallies, their total and the layered depth (greedy per-qubit
    frontier) of ``lower_to_basis(circuit)``, keyed as in SWEEP_FIELDS."""
    counts = dict.fromkeys(_BASIS_KINDS, 0)
    frontier = [0] * circuit.n_qubits
    for kind, qubits, _ in lower_to_basis(circuit).gates:
        counts[kind] += 1
        level = 1 + max(frontier[q] for q in qubits)
        for q in qubits:
            frontier[q] = level
    return {**counts, "total": sum(counts.values()),
            "depth": max(frontier, default=0)}


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------

def _sweep_circuit(n_xi: int, n_units: int, p1: int, p2: int) -> sv.Circuit:
    """The circuit of one sweep row, at zero angles; its family follows
    from (n_units, p1, p2) as in the module docstring."""
    theta = np.zeros(n_xi * (n_xi + 1))
    if n_units == 0:
        return generator_circuit(n_xi, theta)
    # any lam > 0 keeps the gap^2 terms, whose support is all that counts
    ham = build_hamiltonian(default_params(n_units), 30.0, n_xi, 0.0, 2500.0)
    zero1, zero2 = np.zeros(p1), np.zeros(p2)
    if p1 and p2:
        return assemble(theta, ham,
                        VariationalParams(zero1, zero1, zero2, zero2))
    layout = ham.layout
    if p1:
        gates = stage_layers([ham.h1], zero1, zero1, layout.first_stage_qubits)
    else:
        gates = stage_layers([ham.h2_dep, ham.h2_indep], zero2, zero2,
                             layout.second_stage_qubits)
    return sv.Circuit(layout.n_total, gates)


def _row(n_scen: int, n_units: int, p1: int, p2: int) -> dict:
    circuit = _sweep_circuit(n_scen.bit_length() - 1, n_units, p1, p2)
    include_qgan = int(n_units == 0 or (p1 > 0 and p2 > 0))
    config = zip(SWEEP_FIELDS, (n_scen, n_units, p1, p2, include_qgan))
    return {**dict(config), **count_and_depth(circuit)}


def sweep_scaling(N_list, M_list, p1: int, p2: int) -> list:
    """Rows (dicts keyed by SWEEP_FIELDS) for the four scaling families.

    Scenario-count families use the first entry of ``M_list``; the
    unit-count family runs the full assembly, generator included, over
    ``M_list`` x ``N_list`` at the given depths.
    """
    m0 = M_list[0]
    rows = []
    for n in N_list:  # generator block alone
        rows.append(_row(n, 0, 0, 0))
    for n in N_list:  # first-stage layers alone
        for depth in range(1, p1 + 1):
            rows.append(_row(n, m0, depth, 0))
    for n in N_list:  # second-stage layers alone
        for depth in range(1, p2 + 1):
            rows.append(_row(n, m0, 0, depth))
    for m in M_list:  # full assembly across unit counts
        for n in N_list:
            rows.append(_row(n, m, p1, p2))
    return rows
