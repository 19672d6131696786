"""Classical reference solutions on the common L1 evaluation metric.

Everything here is exact enumeration: the second stage tries every level
combination of the committed units, one at a time against the whole
scenario vector, the first stage tries every commitment vector, and the
expected-value problem optimizes both at the mean scenario.  At three
units and a few hundred scenarios exactness is cheap, and it gives the
quantum pipeline an airtight reference: no reported gap can be an
artifact of an inexact baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import UcpParams


@dataclass(frozen=True)
class EvaluationReport:
    rp_value: float
    rp_solution: tuple
    ev_solution: tuple
    eev_value: float
    per_x_costs: dict


def second_stage_best(x, xi, params: UcpParams, lam: float):
    """Cheapest second-stage cost of commitment x in each scenario of xi.

    Scores the level combinations of the committed units one at a time
    against the whole scenario vector, keeping one (S,) running minimum of
    generation + lam * |imbalance|, so memory is O(S) whatever the fleet.
    """
    committed = [i for i in range(params.n_units) if x[i]]
    levels = np.zeros((2 ** len(committed), params.n_units))
    levels[:, committed] = list(itertools.product(
        *[(params.p_min[i], params.p_max[i]) for i in committed]
    ))
    supply = generation = np.zeros(len(levels))
    for i in committed:  # left to right, as a scalar sum would round
        supply = supply + levels[:, i]
        generation = generation + params.unit_cost[i] * levels[:, i]
    residual = params.demand - np.asarray(xi, dtype=float)
    best = np.full(residual.shape, np.inf)
    for s, g in zip(supply, generation):
        np.minimum(best, g + lam * np.abs(residual - s), out=best)
    return best


def expected_cost(x, xi: np.ndarray, params: UcpParams, lam: float) -> float:
    """Start-up cost plus the mean best second-stage cost over the equally
    weighted scenarios ``xi``."""
    startup = sum(
        params.startup_cost[i] * x[i] for i in range(params.n_units)
    )
    cost = second_stage_best(x, xi, params, lam)
    # cumsum adds left to right; `@` and np.sum round pairwise.  Weighting
    # by 1/n rounds differently from dividing by n, so keep the product.
    return float(startup + np.cumsum((1.0 / len(xi)) * cost)[-1])


def _costs_per_commitment(xi: np.ndarray, params: UcpParams, lam: float) -> dict:
    return {
        x: expected_cost(x, xi, params, lam)
        for x in itertools.product((0, 1), repeat=params.n_units)
    }


def solve_ev(xi_mean: float, params: UcpParams, lam: float):
    """Best commitment when the uncertainty collapses to its mean."""
    costs = _costs_per_commitment(np.array([xi_mean]), params, lam)
    best_x = min(costs, key=costs.get)  # the first of tied minima
    return best_x, costs[best_x]


def evaluate(xi: np.ndarray, params: UcpParams, lam: float) -> EvaluationReport:
    """All baselines at penalty weight lam over the equally weighted xi."""
    per_x = _costs_per_commitment(xi, params, lam)
    rp_solution = min(per_x, key=per_x.get)  # the first of tied minima
    ev_solution, _ = solve_ev(float(np.mean(xi)), params, lam)
    return EvaluationReport(
        rp_value=per_x[rp_solution],
        rp_solution=rp_solution,
        ev_solution=ev_solution,
        eev_value=per_x[ev_solution],
        per_x_costs=per_x,
    )
