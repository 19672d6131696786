"""Stochastic unit-commitment model on three quantum registers.

Register layout (little-endian over the whole machine word):

    qubits [0, n_xi)                      scenario register (PV output)
    qubits [n_xi, n_xi + M)               first stage: commitment bit per unit
    qubits [n_xi + M, n_xi + 2M)          second stage: output-level bit per unit

so `RegisterLayout.split` views a register vector as a (b, x, s) array.

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
from functools import cached_property

import numpy as np

from .config import UcpParams
from .walsh import (
    ZPolynomial,
    arithmetic_expansion,
    constant,
    reconstruct,
    zpoly_add,
    zpoly_mul,
    zpoly_scale,
    zpoly_sub,
)


@dataclass(frozen=True)
class RegisterLayout:
    """Scenario qubits, then one commitment and one output-level bit per unit."""

    n_xi: int
    n_units: int

    @property
    def n_total(self) -> int:
        return self.n_xi + 2 * self.n_units

    @property
    def first_stage_qubits(self) -> range:
        return range(self.n_xi, self.n_xi + self.n_units)

    @property
    def second_stage_qubits(self) -> range:
        return range(self.n_xi + self.n_units, self.n_total)

    @property
    def scenario_mask(self) -> int:
        return (1 << self.n_xi) - 1

    def split(self, vector: np.ndarray) -> np.ndarray:
        """The (level bits, commitment, scenario) view of a basis-ordered
        vector: index s + (x << n_xi) + (b << (n_xi + M)) is C order."""
        size = 2**self.n_units
        return vector.reshape(size, size, 2**self.n_xi)


@dataclass(frozen=True)
class ProblemHamiltonian:
    """The cost operator split by stage, on the register it is built for."""

    layout: RegisterLayout
    h1: ZPolynomial
    h2_indep: ZPolynomial
    h2_dep: ZPolynomial

    def total(self) -> ZPolynomial:
        return zpoly_add(self.h1, zpoly_add(self.h2_indep, self.h2_dep))

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Dense cost diagonal, built on first use, so never for a sweep row."""
        return reconstruct(self.total())


def _occupancy(qubit: int, n_total: int) -> ZPolynomial:
    # (1 - Z_q)/2: value 1 when the bit is set, else 0
    return ZPolynomial(n_total, {0: 0.5, 1 << qubit: -0.5})


def build_y_operator(i: int, params: UcpParams, layout: RegisterLayout) -> ZPolynomial:
    """Output operator y_i on the full register (degree <= 2)."""
    n = layout.n_total
    bit = _occupancy(layout.second_stage_qubits[i], n)
    level = zpoly_add(constant(n, params.p_min[i]),
                      zpoly_scale(bit, params.p_max[i] - params.p_min[i]))
    return zpoly_mul(_occupancy(layout.first_stage_qubits[i], n), level)


def build_hamiltonian(
    params: UcpParams, lam: float, n_xi: int, xi_min: float, xi_max: float
) -> ProblemHamiltonian:
    """Diagonal cost Hamiltonian at penalty weight lam on n_xi scenario
    qubits and the units' decision qubits, split at the scenario register."""
    layout = RegisterLayout(n_xi, params.n_units)
    n = layout.n_total
    # the scenario qubits are the register's low bits, so the grid
    # operator's masks carry over unchanged
    xi_hat = ZPolynomial(n, arithmetic_expansion(xi_min, xi_max,
                                                 layout.n_xi).terms)

    h1 = ZPolynomial(n, {})
    supply = ZPolynomial(n, {})
    h2 = ZPolynomial(n, {})
    for i in range(params.n_units):
        x_i = _occupancy(layout.first_stage_qubits[i], n)
        h1 = zpoly_add(h1, zpoly_scale(x_i, params.startup_cost[i]))
        y_i = build_y_operator(i, params, layout)
        supply = zpoly_add(supply, y_i)
        h2 = zpoly_add(h2, zpoly_scale(y_i, params.unit_cost[i]))

    gap = zpoly_sub(zpoly_sub(constant(n, params.demand), xi_hat), supply)
    h2 = zpoly_add(h2, zpoly_scale(zpoly_mul(gap, gap), lam))

    smask = layout.scenario_mask
    dep = {m: c for m, c in h2.terms.items() if m & smask}
    indep = {m: c for m, c in h2.terms.items() if not m & smask}
    return ProblemHamiltonian(layout, h1, ZPolynomial(n, indep),
                              ZPolynomial(n, dep))


def bits_to_string(bits) -> str:
    """Display order: unit 1 leftmost."""
    return "".join(str(int(v)) for v in bits)
