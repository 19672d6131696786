"""Lowering to the {RZ, SX, X, CX} basis plus gate/depth accounting.

The rewrite table is fixed (one Euler convention per gate, no cancellation
pass), so counts are reproducible and layer increments stay exactly additive.
Z-string phase blocks synthesize as a CX parity ladder onto the lowest
support qubit, a single RZ, and the mirrored ladder.

``sweep_scaling`` builds circuits at zero angles over grids of scenario
counts and unit counts, lowers them, and tabulates counts and depth.  Four
row families share one schema and are distinguished by their configuration
columns:

  * generator block alone            -> M = 0,  p1 = 0, p2 = 0, include_qgan
  * first-stage layers alone         -> p2 = 0, include_qgan = 0
  * second-stage layers alone        -> p1 = 0, include_qgan = 0
  * full assembly across unit counts -> p1, p2 > 0, include_qgan = 1

A full-assembly row counts ``qaoa.assemble``'s circuit, the one ``run``
simulates.  A single-stage row counts a sub-circuit: that stage's H column
and its ``stage_layers``.

Absolute numbers depend on this table's conventions; only trends and the
structural identities pinned in the tests are meaningful.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import statevec as sv
from .errors import StructureError, UnsupportedGateError
from .qaoa import VariationalParams, assemble, stage_layers
from .qgan import default_spec, generator_circuit
from .ucp import UcpParams, build_hamiltonian, default_params

BASIS_KINDS = ("rz", "sx", "x", "cx")

SWEEP_FIELDS = (
    "N", "M", "p1", "p2", "include_qgan",
    "rz", "sx", "x", "cx", "total", "depth",
)

_HALF_PI = np.pi / 2.0


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def _lower_h(q: int) -> list:
    return [sv.RZ(q, _HALF_PI), sv.SX(q), sv.RZ(q, _HALF_PI)]


def _lower_ry(q: int, angle: float) -> list:
    # RZ(pi) . SX . RZ(angle+pi) . SX . RZ(0), rightmost applied first
    return [
        sv.RZ(q, 0.0),
        sv.SX(q),
        sv.RZ(q, angle + np.pi),
        sv.SX(q),
        sv.RZ(q, np.pi),
    ]


def _lower_rx(q: int, angle: float) -> list:
    return [
        sv.RZ(q, _HALF_PI),
        sv.SX(q),
        sv.RZ(q, angle + np.pi),
        sv.SX(q),
        sv.RZ(q, _HALF_PI),
    ]


def _lower_zphase(mask: int, angle: float) -> list:
    mask = int(mask)  # masks may arrive as numpy integers
    support = [q for q in range(mask.bit_length()) if (mask >> q) & 1]
    if not support:
        return []  # identity up to global phase
    if len(support) == 1:
        return [sv.RZ(support[0], 2.0 * angle)]
    down = [
        sv.CX(support[k], support[k - 1]) for k in range(len(support) - 1, 0, -1)
    ]
    up = [sv.CX(support[k], support[k - 1]) for k in range(1, len(support))]
    return down + [sv.RZ(support[0], 2.0 * angle)] + up


def _lower_gate(gate) -> list:
    if isinstance(gate, (sv.RZ, sv.SX, sv.X, sv.CX)):
        return [gate]
    if isinstance(gate, sv.H):
        return _lower_h(gate.qubit)
    if isinstance(gate, sv.RY):
        return _lower_ry(gate.qubit, gate.angle)
    if isinstance(gate, sv.RX):
        return _lower_rx(gate.qubit, gate.angle)
    if isinstance(gate, sv.CZ):
        return (
            _lower_h(gate.target)
            + [sv.CX(gate.control, gate.target)]
            + _lower_h(gate.target)
        )
    if isinstance(gate, sv.ZPhase):
        return _lower_zphase(gate.mask, gate.angle)
    if isinstance(gate, sv.DiagPhase):
        raise UnsupportedGateError(
            "exact-diagonal oracle gates have no hardware lowering"
        )
    raise StructureError(f"unknown gate {gate!r}")


def lower_to_basis(circuit: sv.Circuit) -> sv.Circuit:
    """Rewrite every gate into {RZ, SX, X, CX}; no cancellation afterwards."""
    gates: list = []
    for gate in circuit.gates:
        gates.extend(_lower_gate(gate))
    return sv.Circuit(circuit.n_qubits, gates)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceReport:
    rz: int
    sx: int
    x: int
    cx: int
    total: int
    depth: int

    def __post_init__(self):
        kinds = (self.rz, self.sx, self.x, self.cx)
        if any(k < 0 for k in kinds) or self.depth < 0:
            raise StructureError("gate counts must be non-negative")
        if self.total != sum(kinds):
            raise StructureError("total must equal the sum of per-kind counts")
        if self.depth > self.total:
            raise StructureError("depth cannot exceed the gate total")


def count_and_depth(circuit: sv.Circuit) -> ResourceReport:
    """Tally basis gates and the layered depth (greedy per-qubit frontier)."""
    counts = {kind: 0 for kind in BASIS_KINDS}
    frontier = [0] * circuit.n_qubits
    depth = 0
    for gate in circuit.gates:
        if isinstance(gate, sv.RZ):
            kind, qubits = "rz", (gate.qubit,)
        elif isinstance(gate, sv.SX):
            kind, qubits = "sx", (gate.qubit,)
        elif isinstance(gate, sv.X):
            kind, qubits = "x", (gate.qubit,)
        elif isinstance(gate, sv.CX):
            kind, qubits = "cx", (gate.control, gate.target)
        else:
            raise UnsupportedGateError(
                f"{type(gate).__name__} is not a basis gate; lower first"
            )
        counts[kind] += 1
        level = 1 + max(frontier[q] for q in qubits)
        for q in qubits:
            frontier[q] = level
        depth = max(depth, level)
    return ResourceReport(**counts, total=sum(counts.values()), depth=depth)


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------

def sweep_params(n_units: int) -> UcpParams:
    """Fleet of ``n_units`` generators cycling the bundled three-unit data.

    Only the support structure of the cost polynomials matters for counting,
    but coefficients must stay non-zero so no term is pruned away.
    """
    base = default_params(30.0)

    def pick(vals):
        return tuple(vals[i % 3] for i in range(n_units))

    return replace(
        base,
        n_units=n_units,
        p_min=pick(base.p_min),
        p_max=pick(base.p_max),
        startup_cost=pick(base.startup_cost),
        unit_cost=pick(base.unit_cost),
    )


def _sweep_circuit(n_xi: int, n_units: int, p1: int, p2: int) -> sv.Circuit:
    """The circuit of one sweep row, at zero angles; its family follows
    from (n_units, p1, p2) as in the module docstring."""
    spec = default_spec(n_xi)
    if n_units == 0:
        return generator_circuit(spec)
    ham = build_hamiltonian(sweep_params(n_units), n_xi, 0.0, 2500.0)
    if p1 and p2:
        zero1, zero2 = np.zeros(p1), np.zeros(p2)
        return assemble(spec, ham, VariationalParams(zero1, zero1, zero2, zero2))
    layout = ham.layout
    if p1:
        polys, qubits, depth = [ham.h1], layout.first_stage_qubits, p1
    else:
        polys, qubits, depth = ([ham.h2_dep, ham.h2_indep],
                                layout.second_stage_qubits, p2)
    zeros = [0.0] * depth
    gates = [sv.H(q) for q in qubits]
    gates += stage_layers(polys, zeros, zeros, qubits)
    return sv.Circuit(layout.n_total, gates)


def _row(n_scen: int, n_units: int, p1: int, p2: int) -> dict:
    circuit = _sweep_circuit(int(np.log2(n_scen)), n_units, p1, p2)
    report = count_and_depth(lower_to_basis(circuit))
    return {
        "N": n_scen,
        "M": n_units,
        "p1": p1,
        "p2": p2,
        "include_qgan": int(n_units == 0 or (p1 > 0 and p2 > 0)),
        **asdict(report),  # rz, sx, x, cx, total, depth
    }


def sweep_scaling(N_list, M_list, p1: int, p2: int) -> list:
    """Rows (dicts keyed by SWEEP_FIELDS) for the four scaling families.

    Scenario-count families use the first entry of ``M_list``; the
    unit-count family runs the full assembly, generator included, over
    ``M_list`` x ``N_list`` at the given depths.
    """
    n_list = [int(n) for n in N_list]
    m_list = [int(m) for m in M_list]
    if not n_list or not m_list:
        raise StructureError("N_list and M_list must be non-empty")
    for n in n_list:
        if n < 2 or n & (n - 1):
            raise StructureError(f"scenario count {n} is not a power of two >= 2")
    for m in m_list:
        if m < 1:
            raise StructureError(f"unit count {m} must be positive")
    if p1 < 1 or p2 < 1:
        raise StructureError("sweep depths must be >= 1")

    m0 = m_list[0]
    rows = []
    for n in n_list:  # generator block alone
        rows.append(_row(n, 0, 0, 0))
    for n in n_list:  # first-stage layers alone
        for depth in range(1, p1 + 1):
            rows.append(_row(n, m0, depth, 0))
    for n in n_list:  # second-stage layers alone
        for depth in range(1, p2 + 1):
            rows.append(_row(n, m0, 0, depth))
    for m in m_list:  # full assembly across unit counts
        for n in n_list:
            rows.append(_row(n, m, p1, p2))
    return rows
