"""Stochastic unit-commitment model on three quantum registers.

Register layout (little-endian over the whole machine word):

    qubits [0, n_xi)                      scenario register (PV output)
    qubits [n_xi, n_xi + M)               first stage: commitment bit per unit
    qubits [n_xi + M, n_xi + 2M)          second stage: output-level bit per unit

A first-stage bit x_i switches unit i on; the second-stage bit b_i selects
its output level through the x-controlled encoding

    y_i = x_i * (p_min_i + (p_max_i - p_min_i) * b_i),

so y_i is 0 for an off unit and one of p_min_i, p_max_i otherwise.
The cost Hamiltonian replaces the L1 imbalance penalty with a quadratic
surrogate so it stays a low-degree polynomial in Z operators:

    h1 = sum_i d_i x_i                      (start-up)
    h2 = sum_i c_i y_i + lam * (D - xi - sum_i y_i)^2

h2 is split into the part whose Z-strings touch the scenario register
(h2_dep, the block that couples decisions to the loaded uncertainty) and
the rest (h2_indep).  Display strings for decision vectors put unit 1
leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .walsh import (
    ZPolynomial,
    arithmetic_expansion,
    constant,
    embed,
    zpoly_add,
    zpoly_mul,
    zpoly_scale,
    zpoly_sub,
)


@dataclass(frozen=True)
class UcpParams:
    """Generator fleet and cost data. Units: kWh for energy, JPY for cost."""

    n_units: int
    demand: float
    p_min: tuple
    p_max: tuple
    startup_cost: tuple
    unit_cost: tuple
    lam: float

    def __post_init__(self):
        m = self.n_units
        if not (len(self.p_min) == len(self.p_max) == len(self.startup_cost)
                == len(self.unit_cost) == m):
            raise StructureError("parameter arrays must all have length n_units")
        if not np.all(np.isfinite([self.demand, self.lam, *self.p_min,
                                   *self.p_max, *self.startup_cost,
                                   *self.unit_cost])):
            raise StructureError("problem data must be finite")
        for i in range(m):
            if not self.p_min[i] < self.p_max[i]:
                raise StructureError(f"unit {i}: p_min must be < p_max")
            if self.startup_cost[i] < 0 or self.unit_cost[i] < 0:
                raise StructureError(f"unit {i}: costs must be >= 0")
        # lam == 0 is allowed as a diagnostic (drops the imbalance penalty)
        if self.lam < 0:
            raise StructureError("lam must be >= 0")


def default_params(lam: float) -> UcpParams:
    """Bundled three-unit configuration used by the demo pipeline and tests."""
    return UcpParams(
        n_units=3,
        demand=2500.0,
        p_min=(300.0, 500.0, 100.0),
        p_max=(750.0, 1000.0, 200.0),
        startup_cost=(4000.0, 5000.0, 1000.0),
        unit_cost=(15.0, 20.0, 10.0),
        lam=lam,
    )


@dataclass(frozen=True)
class RegisterLayout:
    """Scenario qubits, then one commitment and one output-level bit per unit."""

    n_xi: int
    n_units: int

    def __post_init__(self):
        if self.n_xi < 1 or self.n_units < 1:
            raise StructureError("register sizes must be positive")

    @property
    def n_total(self) -> int:
        return self.n_xi + 2 * self.n_units

    @property
    def second_stage_offset(self) -> int:
        return self.n_xi + self.n_units

    @property
    def scenario_qubits(self) -> range:
        return range(0, self.n_xi)

    @property
    def first_stage_qubits(self) -> range:
        return range(self.n_xi, self.n_xi + self.n_units)

    @property
    def second_stage_qubits(self) -> range:
        return range(self.second_stage_offset, self.n_total)

    @property
    def scenario_mask(self) -> int:
        return (1 << self.n_xi) - 1

    def commit_qubit(self, i: int) -> int:
        """First-stage qubit of unit i (0-based)."""
        if not 0 <= i < self.n_units:
            raise StructureError(f"unit index {i} out of range")
        return self.n_xi + i

    def level_qubit(self, i: int) -> int:
        """Second-stage qubit of unit i (0-based)."""
        if not 0 <= i < self.n_units:
            raise StructureError(f"unit index {i} out of range")
        return self.second_stage_offset + i


@dataclass(frozen=True)
class ProblemHamiltonian:
    h1: ZPolynomial
    h2_indep: ZPolynomial
    h2_dep: ZPolynomial
    constant_offset: float

    def second_stage(self) -> ZPolynomial:
        return zpoly_add(self.h2_indep, self.h2_dep)

    def total(self) -> ZPolynomial:
        return zpoly_add(self.h1, self.second_stage())


def _occupancy(qubit: int, n_total: int) -> ZPolynomial:
    # (1 - Z_q)/2: value 1 when the bit is set, else 0
    return ZPolynomial(n_total, {0: 0.5, 1 << qubit: -0.5})


def build_y_operator(i: int, params: UcpParams, layout: RegisterLayout) -> ZPolynomial:
    """Output operator y_i on the full register (degree <= 2)."""
    if not 0 <= i < params.n_units:
        raise StructureError(f"unit index {i} out of range")
    n = layout.n_total
    bit = _occupancy(layout.level_qubit(i), n)
    level = zpoly_add(constant(n, params.p_min[i]),
                      zpoly_scale(bit, params.p_max[i] - params.p_min[i]))
    return zpoly_mul(_occupancy(layout.commit_qubit(i), n), level)


def build_hamiltonian(
    params: UcpParams, layout: RegisterLayout, xi_min: float, xi_max: float
) -> ProblemHamiltonian:
    """Diagonal cost Hamiltonian, split at the scenario register."""
    if params.n_units != layout.n_units:
        raise StructureError("params and layout disagree on the unit count")
    n = layout.n_total
    xi_hat = embed(arithmetic_expansion(xi_min, xi_max, layout.n_xi), 0, n)

    h1 = ZPolynomial(n, {})
    supply = ZPolynomial(n, {})
    h2 = ZPolynomial(n, {})
    for i in range(params.n_units):
        x_i = _occupancy(layout.commit_qubit(i), n)
        h1 = zpoly_add(h1, zpoly_scale(x_i, params.startup_cost[i]))
        y_i = build_y_operator(i, params, layout)
        supply = zpoly_add(supply, y_i)
        h2 = zpoly_add(h2, zpoly_scale(y_i, params.unit_cost[i]))

    gap = zpoly_sub(zpoly_sub(constant(n, params.demand), xi_hat), supply)
    h2 = zpoly_add(h2, zpoly_scale(zpoly_mul(gap, gap), params.lam))

    smask = layout.scenario_mask
    dep = {m: c for m, c in h2.terms.items() if m & smask}
    indep = {m: c for m, c in h2.terms.items() if not m & smask}
    offset = h1.coefficient(0) + h2.coefficient(0)
    return ProblemHamiltonian(
        h1, ZPolynomial(n, indep), ZPolynomial(n, dep), offset
    )


# ---------------------------------------------------------------------------
# classical evaluation and index plumbing
# ---------------------------------------------------------------------------

def outputs_from_bits(x, b, params: UcpParams):
    """Map commitment bits and level bits to output levels."""
    return tuple(
        x[i] * (params.p_min[i] + (params.p_max[i] - params.p_min[i]) * b[i])
        for i in range(params.n_units)
    )


def classical_surrogate(x, b, xi: float, params: UcpParams) -> float:
    """Start-up + generation + quadratic imbalance penalty for one scenario."""
    if len(x) != params.n_units or len(b) != params.n_units:
        raise StructureError("x and b must have one bit per unit")
    y = outputs_from_bits(x, b, params)
    gap = params.demand - xi - sum(y)
    return (
        sum(params.startup_cost[i] * x[i] for i in range(params.n_units))
        + sum(params.unit_cost[i] * y[i] for i in range(params.n_units))
        + params.lam * gap * gap
    )


def classical_l1_cost(x, y, xi: float, params: UcpParams) -> float:
    """Start-up + generation + absolute imbalance penalty (reporting metric)."""
    if len(x) != params.n_units or len(y) != params.n_units:
        raise StructureError("x and y must have one entry per unit")
    for i in range(params.n_units):
        if x[i] == 0:
            if y[i] != 0:
                raise StructureError(f"unit {i} is off but has output {y[i]}")
        elif y[i] not in (params.p_min[i], params.p_max[i]):
            raise StructureError(
                f"unit {i} output {y[i]} is not one of its two levels"
            )
    gap = params.demand - xi - sum(y)
    return (
        sum(params.startup_cost[i] * x[i] for i in range(params.n_units))
        + sum(params.unit_cost[i] * y[i] for i in range(params.n_units))
        + params.lam * abs(gap)
    )


def decode_basis(index: int, layout: RegisterLayout):
    """Split a basis index into (scenario index, x bits, level bits)."""
    if not 0 <= index < 2**layout.n_total:
        raise StructureError(f"basis index {index} out of range")
    s = index & layout.scenario_mask
    x = tuple((index >> layout.commit_qubit(i)) & 1 for i in range(layout.n_units))
    b = tuple((index >> layout.level_qubit(i)) & 1 for i in range(layout.n_units))
    return s, x, b


def encode_basis(s: int, x, b, layout: RegisterLayout) -> int:
    if not 0 <= s < 2**layout.n_xi:
        raise StructureError(f"scenario index {s} out of range")
    index = s
    for i in range(layout.n_units):
        index |= (x[i] & 1) << layout.commit_qubit(i)
        index |= (b[i] & 1) << layout.level_qubit(i)
    return index


def bits_to_string(bits) -> str:
    """Display order: unit 1 leftmost."""
    return "".join(str(int(v)) for v in bits)
