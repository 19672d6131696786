"""Classical reference solutions on the common L1 evaluation metric.

Everything here is exact enumeration: the second stage tries every level
combination of the committed units, the first stage tries every
commitment vector, and the expected-value problem optimizes both at the
mean scenario.  At three units and a few hundred scenarios exactness is
cheap, and it gives the quantum pipeline an airtight reference: no
reported gap can be an artifact of an inexact baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .scenarios import TestScenarioSet
from .ucp import UcpParams


@dataclass(frozen=True)
class EvaluationReport:
    lam: float
    rp_value: float
    rp_solution: tuple
    ev_solution: tuple
    eev_value: float
    per_x_costs: dict

    def __post_init__(self):
        want = min(self.per_x_costs.values())
        if abs(self.rp_value - want) > 1e-9 * max(1.0, abs(want)):
            raise StructureError("rp_value must be the minimum per-x cost")
        if self.rp_value > self.eev_value + 1e-9 * max(1.0, abs(self.eev_value)):
            raise StructureError("rp_value cannot exceed eev_value")


def second_stage_best(x, xi: float, params: UcpParams):
    """Cheapest dispatch for a fixed commitment and one scenario.

    Returns (y, cost) with cost = generation + lam * |imbalance|; ties are
    broken toward the lexicographically smallest level vector.
    """
    if len(x) != params.n_units:
        raise StructureError("x must have one bit per unit")
    committed = [i for i in range(params.n_units) if x[i]]
    options = [(params.p_min[i], params.p_max[i]) for i in committed]
    best_y = None
    best_cost = np.inf
    for levels in itertools.product(*options):
        y = [0.0] * params.n_units
        for i, level in zip(committed, levels):
            y[i] = level
        gap = params.demand - xi - sum(y)
        cost = (
            sum(params.unit_cost[i] * y[i] for i in committed)
            + params.lam * abs(gap)
        )
        if cost < best_cost:
            best_cost = cost
            best_y = tuple(y)
    return best_y, float(best_cost)


def expected_cost(x, test: TestScenarioSet, params: UcpParams) -> float:
    """Start-up cost plus the mean best second-stage cost over scenarios."""
    startup = sum(
        params.startup_cost[i] * x[i] for i in range(params.n_units)
    )
    probs = test.probs
    recourse = sum(
        p * second_stage_best(x, xi, params)[1]
        for xi, p in zip(test.xi_tilde, probs)
    )
    return float(startup + recourse)


def solve_ev(xi_mean: float, params: UcpParams):
    """Best commitment when the uncertainty collapses to its mean."""
    best_x = None
    best_value = np.inf
    for x in itertools.product((0, 1), repeat=params.n_units):
        startup = sum(
            params.startup_cost[i] * x[i] for i in range(params.n_units)
        )
        value = startup + second_stage_best(x, xi_mean, params)[1]
        if value < best_value:
            best_value = value
            best_x = x
    return best_x, float(best_value)


def evaluate(test: TestScenarioSet, params: UcpParams) -> EvaluationReport:
    """All baselines for one lambda in a single report row."""
    per_x = {
        x: expected_cost(x, test, params)
        for x in itertools.product((0, 1), repeat=params.n_units)
    }
    rp_solution = min(per_x, key=per_x.get)  # the first of tied minima
    ev_solution, _ = solve_ev(float(np.mean(test.xi_tilde)), params)
    return EvaluationReport(
        lam=params.lam,
        rp_value=per_x[rp_solution],
        rp_solution=rp_solution,
        ev_solution=ev_solution,
        eev_value=per_x[ev_solution],
        per_x_costs=per_x,
    )


def lambda_grid() -> np.ndarray:
    """18 equally spaced penalty weights on [30, 200]."""
    return np.linspace(30.0, 200.0, 18)
