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
from .ucp import UcpParams


@dataclass(frozen=True)
class EvaluationReport:
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


def second_stage_best(x, xi, params: UcpParams):
    """Cheapest dispatch for a fixed commitment in each scenario of xi.

    Scores every level combination of the committed units against every
    scenario in one (scenario, combination) array.  Returns (y, cost) of
    shapes (S, M) and (S,) with cost = generation + lam * |imbalance|;
    combinations run in itertools.product order and argmin keeps the
    first minimum, so ties go to the lexicographically smallest y.
    """
    if len(x) != params.n_units:
        raise StructureError("x must have one bit per unit")
    committed = [i for i in range(params.n_units) if x[i]]
    levels = np.zeros((2 ** len(committed), params.n_units))
    levels[:, committed] = list(itertools.product(
        *[(params.p_min[i], params.p_max[i]) for i in committed]
    ))
    supply = generation = 0.0
    for i in committed:  # left to right, as a scalar sum would round
        supply = supply + levels[:, i]
        generation = generation + params.unit_cost[i] * levels[:, i]
    gap = (params.demand - np.asarray(xi, dtype=float))[:, None] - supply
    cost = generation + params.lam * np.abs(gap)
    best = np.argmin(cost, axis=1)
    return levels[best], cost[np.arange(len(cost)), best]


def expected_cost(x, xi: np.ndarray, params: UcpParams) -> float:
    """Start-up cost plus the mean best second-stage cost over the equally
    weighted scenarios ``xi``."""
    startup = sum(
        params.startup_cost[i] * x[i] for i in range(params.n_units)
    )
    _, cost = second_stage_best(x, xi, params)
    # cumsum adds left to right; `@` and np.sum round pairwise.  Weighting
    # by 1/n rounds differently from dividing by n, so keep the product.
    return float(startup + np.cumsum((1.0 / len(xi)) * cost)[-1])


def _costs_per_commitment(xi: np.ndarray, params: UcpParams) -> dict:
    return {
        x: expected_cost(x, xi, params)
        for x in itertools.product((0, 1), repeat=params.n_units)
    }


def solve_ev(xi_mean: float, params: UcpParams):
    """Best commitment when the uncertainty collapses to its mean."""
    costs = _costs_per_commitment(np.array([xi_mean]), params)
    best_x = min(costs, key=costs.get)  # the first of tied minima
    return best_x, costs[best_x]


def evaluate(xi: np.ndarray, params: UcpParams) -> EvaluationReport:
    """All baselines for one lambda over the equally weighted scenarios xi."""
    per_x = _costs_per_commitment(xi, params)
    rp_solution = min(per_x, key=per_x.get)  # the first of tied minima
    ev_solution, _ = solve_ev(float(np.mean(xi)), params)
    return EvaluationReport(
        rp_value=per_x[rp_solution],
        rp_solution=rp_solution,
        ev_solution=ev_solution,
        eev_value=per_x[ev_solution],
        per_x_costs=per_x,
    )


def lambda_grid() -> np.ndarray:
    """18 equally spaced penalty weights on [30, 200]."""
    return np.linspace(30.0, 200.0, 18)
