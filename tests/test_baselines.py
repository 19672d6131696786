import itertools
import tracemalloc

import numpy as np
import pytest

from qtwostage import baselines as bl
from qtwostage.config import PAPER_LAMBDAS, UcpParams, default_params
from qtwostage.scenarios import quantile_test_set, sample_pv

from oracles import table_second_stage_best


def single_scenario(xi: float) -> np.ndarray:
    return np.array([xi])


def test_second_stage_best_hand_enumeration():
    params = default_params()
    cost = bl.second_stage_best((1, 1, 0), [750.0], params, 30.0)
    # y = (750, 1000, 0): generation 15*750 + 20*1000, imbalance 0
    assert cost.shape == (1,)
    assert cost[0] == pytest.approx(31250.0)


def test_second_stage_best_empty_commitment():
    params = default_params()
    for xi in (0.0, 750.0, 2500.0):
        cost = bl.second_stage_best((0, 0, 0), [xi], params, 30.0)
        assert cost[0] == pytest.approx(30.0 * abs(2500.0 - xi))


def test_second_stage_best_zero_lambda_picks_minimum_generation():
    params = default_params()
    cost = bl.second_stage_best((1, 1, 1), [100.0], params, 0.0)
    # every unit at p_min: (300, 500, 100)
    assert cost[0] == pytest.approx(15 * 300 + 20 * 500 + 10 * 100)


def test_second_stage_cost_is_continuous_in_xi():
    params, lam = default_params(), 90.0
    xs = np.linspace(-100.0, 2700.0, 1401)
    step = xs[1] - xs[0]
    for x in ((1, 1, 0), (1, 0, 1), (1, 1, 1), (0, 0, 0)):
        costs = bl.second_stage_best(x, xs, params, lam)
        jumps = np.abs(np.diff(costs))
        assert np.max(jumps) <= lam * step + 1e-9


def test_expected_cost_single_scenario():
    params = default_params()
    got = bl.expected_cost((1, 1, 0), single_scenario(750.0), params, 30.0)
    assert got == pytest.approx(4000 + 5000 + 31250.0)


def test_expected_cost_empty_commitment_formula():
    params = default_params()
    xi = np.array([100.0, 900.0, 1600.0])
    got = bl.expected_cost((0, 0, 0), xi, params, 30.0)
    want = 30.0 * np.mean(np.abs(2500.0 - xi))
    assert got == pytest.approx(want)


def test_expected_cost_monotone_in_lambda():
    test = quantile_test_set(sample_pv(2000, 3.0, 7.0, 2500.0, seed=3), 50)
    for x in ((1, 1, 0), (0, 1, 1), (1, 1, 1)):
        values = [
            bl.expected_cost(x, test, default_params(), lam)
            for lam in PAPER_LAMBDAS
        ]
        assert np.all(np.diff(values) >= -1e-9)


def test_solve_rp_is_exhaustive_minimum():
    params = default_params()
    test = quantile_test_set(sample_pv(2000, 3.0, 7.0, 2500.0, seed=7), 100)
    report = bl.evaluate(test, params, 60.0)
    x_rp, rp = report.rp_solution, report.rp_value
    costs = {
        x: bl.expected_cost(x, test, params, 60.0)
        for x in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    }
    assert rp == pytest.approx(min(costs.values()))
    assert costs[x_rp] == pytest.approx(rp)
    assert all(rp <= v + 1e-9 for v in costs.values())


def test_solve_rp_zero_lambda_commits_nothing():
    report = bl.evaluate(single_scenario(750.0), default_params(), 0.0)
    x_rp, rp = report.rp_solution, report.rp_value
    assert x_rp == (0, 0, 0)
    assert rp == pytest.approx(0.0)


def test_solve_ev_table_values():
    x_ev, value = bl.solve_ev(750.0, default_params(), 30.0)
    assert x_ev == (1, 1, 0)
    assert value == pytest.approx(40250.0)


def test_solve_ev_edges():
    params = default_params()
    x_ev, value = bl.solve_ev(2500.0, params, 30.0)
    assert x_ev == (0, 0, 0)
    assert value == pytest.approx(0.0)

    x_ev, _ = bl.solve_ev(0.0, params, 1e6)
    assert x_ev == (1, 1, 1)  # maximize supply toward demand


def test_eev_degenerate_test_set_equals_ev():
    report = bl.evaluate(single_scenario(750.0), default_params(), 30.0)
    assert report.eev_value == pytest.approx(40250.0)


def test_report_invariants_across_lambda_grid():
    test = quantile_test_set(sample_pv(2000, 3.0, 7.0, 2500.0, seed=11), 200)
    gaps = []
    for lam in PAPER_LAMBDAS:
        report = bl.evaluate(test, default_params(), lam)
        assert report.rp_value <= report.eev_value + 1e-9
        assert report.rp_value == pytest.approx(min(report.per_x_costs.values()))
        gaps.append(report.eev_value - report.rp_value)
    # the mean-scenario solution degrades as imbalance gets pricier
    assert gaps[-1] > gaps[0]
    assert np.all(np.diff(gaps) >= -1e-9)


def test_lambda_grid():
    # the paper's 18 weights on [30, 200], bit for bit as numpy spaces them
    assert len(PAPER_LAMBDAS) == 18
    assert all(type(lam) is float for lam in PAPER_LAMBDAS)
    assert (np.array(PAPER_LAMBDAS).tobytes()
            == np.linspace(30.0, 200.0, 18).tobytes())


# ---------------------------------------------------------------------------
# bitwise oracle: the scalar scan over one scenario at a time
# ---------------------------------------------------------------------------

def scalar_second_stage_best(x, xi, params, lam):
    """Per-scenario itertools scan: the least cost over every combination."""
    committed = [i for i in range(params.n_units) if x[i]]
    best_cost = np.inf
    for levels in itertools.product(
            *[(params.p_min[i], params.p_max[i]) for i in committed]):
        y = [0.0] * params.n_units
        for i, level in zip(committed, levels):
            y[i] = level
        gap = params.demand - xi - sum(y)
        cost = (sum(params.unit_cost[i] * y[i] for i in committed)
                + lam * abs(gap))
        best_cost = min(best_cost, float(cost))
    return best_cost


def scalar_expected_cost(x, xi, params, lam):
    startup = sum(params.startup_cost[i] * x[i] for i in range(params.n_units))
    p = 1.0 / len(xi)
    recourse = sum(p * scalar_second_stage_best(x, xi_s, params, lam)
                   for xi_s in xi)
    return float(startup + recourse)


def random_fleet(rng, n_units: int) -> UcpParams:
    """Levels on a 50 kWh lattice, so equal-supply combinations tie."""
    p_min = rng.integers(0, 5, n_units) * 50.0
    return UcpParams(
        n_units=n_units,
        demand=float(rng.integers(1, 40)) * 50.0,
        p_min=tuple(p_min),
        p_max=tuple(p_min + rng.integers(1, 4, n_units) * 50.0),
        startup_cost=tuple(rng.integers(0, 3, n_units) * 1000.0),
        unit_cost=tuple(rng.integers(0, 3, n_units) * 5.0),
    )


@pytest.mark.parametrize("n_units", [1, 2, 3, 4, 5, 6])
def test_array_evaluator_matches_scalar_scan_bitwise(n_units):
    rng = np.random.default_rng(100 + n_units)
    for trial in range(20):
        params = random_fleet(rng, n_units)
        lam = (0.0, 1.0, 30.0, 77.7)[trial % 4]
        xi = rng.uniform(-100.0, params.demand + 200.0,
                         size=int(rng.integers(1, 40)))
        xi[0] = params.demand - sum(params.p_min)  # an exact balance
        for x in itertools.product((0, 1), repeat=n_units):
            cost = bl.second_stage_best(x, xi, params, lam)
            for s, xi_s in enumerate(xi):
                assert cost[s] == scalar_second_stage_best(x, xi_s, params,
                                                           lam)
            assert bl.expected_cost(x, xi, params, lam) == \
                scalar_expected_cost(x, xi, params, lam)


# ---------------------------------------------------------------------------
# the streaming minimum: O(S) memory, the table's bytes
# ---------------------------------------------------------------------------

def wide_case(n_units: int = 6, n_test: int = 2000):
    params = default_params(n_units)
    rng = np.random.default_rng(6)
    xi = rng.uniform(-100.0, params.demand + 200.0, size=n_test)
    xi[0] = params.demand - sum(params.p_max)  # an exact balance
    return params, xi


def test_second_stage_best_holds_no_combination_table():
    params, xi = wide_case()
    x = (1,) * params.n_units
    bl.second_stage_best(x, xi, params, 90.0)  # warm any lazy imports
    tracemalloc.start()
    try:
        bl.second_stage_best(x, xi, params, 90.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (S, 2**6) table alone is 64 vectors of S floats
    assert peak < 16 * xi.nbytes


@pytest.mark.parametrize("lam", [0.0, 30.0, 90.0])
def test_second_stage_best_bytes_equal_the_table_minimum(lam):
    params, xi = wide_case()
    for x in itertools.product((0, 1), repeat=params.n_units):
        assert (bl.second_stage_best(x, xi, params, lam).tobytes()
                == table_second_stage_best(x, xi, params, lam).tobytes())
