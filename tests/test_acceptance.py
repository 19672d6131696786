"""Workflow-level acceptance checks.

Nine end-to-end criteria, one test each, covering: sparse grid expansion,
Hamiltonian-surrogate equality, the factorized-objective identity, scenario
independence of the first stage, generator training quality, classical
baseline values, end-to-end solution quality, resource-scaling trends, and
sampling-estimator statistics.  Each test prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output) and enforces a runtime
budget.
"""

import time
from dataclasses import replace

import numpy as np

from qtwostage import statevec as sv
from qtwostage.baselines import evaluate, expected_cost, lambda_grid, solve_ev
from qtwostage.qaoa import (
    FactorizedEvaluator,
    QaoaConfig,
    assemble,
    final_state,
    optimize,
    random_params,
    verify_nonanticipativity,
    verify_prop1,
)
from qtwostage.qgan import GeneratorSpec, TrainConfig, TrainedGenerator, train
from qtwostage.resources import count_and_depth, lower_to_basis, sweep_scaling
from qtwostage.scenarios import (
    bin_to_grid,
    quantile_test_set,
    sample_pv,
    uniform_grid,
)
from qtwostage.ucp import (
    RegisterLayout,
    UcpParams,
    bits_to_string,
    build_hamiltonian,
    classical_surrogate,
    decode_basis,
    default_params,
)
from qtwostage.walsh import arithmetic_expansion, fwht_expand, reconstruct

XI_MAX = 2500.0


def finish(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"criterion {num}: {status} - {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: exceeded {budget:.0f}s budget"


def pv_distribution(n_grid: int, seed: int) -> np.ndarray:
    samples = sample_pv(2000, 3.0, 7.0, XI_MAX, seed=seed)
    return bin_to_grid(samples, uniform_grid(0.0, XI_MAX, n_grid))


def train_generator(n_grid: int, seed: int) -> TrainedGenerator:
    master = seed + 1
    targets_train = [pv_distribution(n_grid, master * 100 + i) for i in range(10)]
    targets_test = [pv_distribution(n_grid, master * 100 + 50 + i) for i in range(5)]
    return train(targets_train, targets_test, TrainConfig(),
                 np.random.default_rng(seed))


def random_generator(n_xi: int, rng) -> GeneratorSpec:
    theta = rng.uniform(-1.0, 1.0, size=n_xi * (n_xi + 1))
    return GeneratorSpec(n_xi, theta)


def test_criterion_1_grid_expansion_sparsity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    sparse = True
    for n_xi in range(1, 11):
        for _ in range(20):
            lo = float(rng.uniform(-XI_MAX, 2400.0))
            hi = lo + float(rng.uniform(1.0, 2 * XI_MAX))
            spec = fwht_expand(uniform_grid(lo, hi, 2**n_xi))
            closed = arithmetic_expansion(lo, hi, n_xi)
            sparse &= len(spec.terms) == n_xi + 1
            sparse &= set(spec.terms) == set(closed.terms)
            for mask, coef in closed.terms.items():
                worst = max(worst, abs(spec.terms.get(mask, 0.0) - coef))
    elapsed = time.perf_counter() - t0
    finish(1, sparse and worst < 1e-12, elapsed, 1.0,
           f"uniform-grid expansions keep n_xi+1 terms, "
           f"max coefficient error {worst:.2e} < 1e-12")


def test_criterion_2_hamiltonian_matches_surrogate():
    # tolerance is relative to the diagonal's scale: the polynomial sums
    # coefficients of size lam*D^2, so states whose cost cancels toward 0
    # keep rounding at that scale's ulp, not at their own magnitude
    t0 = time.perf_counter()
    layout = RegisterLayout(5, 3)
    grid = np.linspace(0.0, XI_MAX, 2**5)
    worst = 0.0
    for lam in (30.0, 200.0):
        params = default_params(lam)
        diag = reconstruct(
            build_hamiltonian(params, layout.n_xi, 0.0, XI_MAX).total()
        )
        want = np.array([
            classical_surrogate(x, b, grid[s], params)
            for s, x, b in (
                decode_basis(index, layout)
                for index in range(2**layout.n_total)
            )
        ])
        scale = float(np.max(np.abs(want)))
        rel = np.abs(diag - want) / np.maximum(1.0 + np.abs(want), scale)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    finish(2, worst < 1e-9, elapsed, 5.0,
           f"operator diagonal equals the closed-form cost on all "
           f"2^{layout.n_total} states, max scale-relative err "
           f"{worst:.2e} < 1e-9")


def test_criterion_3_factorized_objective_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    # unit-scale instance: identical structure, O(1) coefficients, so phase
    # arguments stay small and the absolute residual isolates the identity
    scale = 1e-3
    params_s = UcpParams(
        n_units=3, demand=2500.0 * scale,
        p_min=(300.0 * scale, 500.0 * scale, 100.0 * scale),
        p_max=(750.0 * scale, 1000.0 * scale, 200.0 * scale),
        startup_cost=(4000.0 * scale, 5000.0 * scale, 1000.0 * scale),
        unit_cost=(15.0 * scale, 20.0 * scale, 10.0 * scale),
        lam=30.0 * scale,
    )
    worst_abs = 0.0
    for _ in range(20):
        gen = random_generator(2, rng)
        vp = random_params(2, 2, rng)
        worst_abs = max(worst_abs, verify_prop1(
            gen, params_s, 0.0, XI_MAX * scale, vp))

    # full-scale companion: residual relative to the objective magnitude
    params_f = default_params(30.0)
    ham_f = build_hamiltonian(params_f, 2, 0.0, XI_MAX)
    worst_rel = 0.0
    for _ in range(3):
        gen = random_generator(2, rng)
        vp = random_params(2, 2, rng)
        residual = verify_prop1(gen, params_f, 0.0, XI_MAX, vp)
        lhs = FactorizedEvaluator(gen, ham_f)(vp)
        worst_rel = max(worst_rel, residual / max(1.0, abs(lhs)))

    elapsed = time.perf_counter() - t0
    finish(3, worst_abs < 1e-9 and worst_rel < 1e-8, elapsed, 30.0,
           f"factorized recomputation matches the joint circuit: "
           f"{worst_abs:.2e} abs (unit-scale, 20 draws) < 1e-9, "
           f"{worst_rel:.2e} rel (full-scale) < 1e-8")


def test_criterion_4_scenario_decision_independence():
    t0 = time.perf_counter()
    ham = build_hamiltonian(default_params(30.0), 2, 0.0, XI_MAX)
    layout = ham.layout

    worst = 0.0
    for seed in range(5):  # random circuits
        rng = np.random.default_rng(100 + seed)
        gen = random_generator(2, rng)
        vp = random_params(2, 2, rng)
        state = final_state(gen, ham, vp)
        worst = max(worst, verify_nonanticipativity(state, layout))

    rng = np.random.default_rng(7)  # an optimized circuit
    gen = random_generator(2, rng)
    result = optimize(FactorizedEvaluator(gen, ham),
                      QaoaConfig(p1=2, p2=2, maxiter=60), rng)
    state = final_state(gen, ham, result.best_params)
    worst = max(worst, verify_nonanticipativity(state, layout))

    # negative control: one scenario-to-commitment CX must break independence
    gen_c = random_generator(2, np.random.default_rng(29))
    vp_c = random_params(2, 2, np.random.default_rng(31))
    circuit = assemble(gen_c, ham, vp_c)
    circuit.gates.append(sv.CX(0, layout.commit_qubit(0)))
    control = verify_nonanticipativity(sv.run_circuit(circuit), layout)

    elapsed = time.perf_counter() - t0
    finish(4, worst < 1e-10 and control > 1e-2, elapsed, 10.0,
           f"first-stage marginals scenario-independent "
           f"(max deviation {worst:.2e} < 1e-10); "
           f"CX-injection control deviates {control:.2f} > 1e-2")


def test_criterion_5_generator_distribution_agreement():
    t0 = time.perf_counter()
    scores8 = [train_generator(8, seed).test_score for seed in range(3)]
    scores4 = [train_generator(4, seed).test_score for seed in range(3)]
    hits8 = sum(s >= 0.98 for s in scores8)
    hits4 = sum(s >= 0.99 for s in scores4)
    elapsed = time.perf_counter() - t0
    finish(5, hits8 >= 2 and hits4 >= 2, elapsed, 300.0,
           f"test agreement (1-JS): N=8 {[f'{s:.4f}' for s in scores8]} "
           f"({hits8}/3 >= 0.98), N=4 {[f'{s:.4f}' for s in scores4]} "
           f"({hits4}/3 >= 0.99), <= 400 epochs")


def test_criterion_6_baseline_values():
    t0 = time.perf_counter()
    x_ev, value_ev = solve_ev(750.0, default_params(30.0))
    ev_ok = x_ev == (1, 1, 0) and abs(value_ev - 40250.0) < 1e-9

    test = quantile_test_set(sample_pv(2000, 3.0, 7.0, XI_MAX, seed=500), 200)
    order_ok = True
    for lam in lambda_grid():
        report = evaluate(test, default_params(float(lam)))
        tol = 1e-9 * max(1.0, abs(report.eev_value))
        order_ok &= report.rp_value <= report.eev_value + tol
        order_ok &= all(
            report.rp_value <= cost + tol
            for cost in report.per_x_costs.values()
        )
    elapsed = time.perf_counter() - t0
    finish(6, ev_ok and order_ok, elapsed, 5.0,
           f"mean-scenario solution {bits_to_string(x_ev)} at {value_ev:.0f}; "
           f"RP <= EEV and RP <= C(x) for all x at 18 penalty weights")


def test_criterion_7_end_to_end_solution_quality():
    t0 = time.perf_counter()
    gen = train_generator(4, 0).spec
    test = quantile_test_set(sample_pv(2000, 3.0, 7.0, XI_MAX, seed=500), 200)
    cfg = QaoaConfig(p1=4, p2=4, maxiter=400)

    params30 = default_params(30.0)
    evaluator30 = FactorizedEvaluator(
        gen, build_hamiltonian(params30, 2, 0.0, XI_MAX))
    maps = [
        bits_to_string(
            optimize(evaluator30, cfg, np.random.default_rng(s)).map_solution
        )
        for s in range(5)
    ]
    hits = sum(m in {"110", "111"} for m in maps)

    params200 = default_params(200.0)
    evaluator200 = FactorizedEvaluator(
        gen, build_hamiltonian(params200, 2, 0.0, XI_MAX))
    report = evaluate(test, params200)
    c_best = min(
        expected_cost(
            optimize(evaluator200, cfg, np.random.default_rng(s)).map_solution,
            test, params200,
        )
        for s in range(5)
    )
    gap = report.eev_value - report.rp_value
    ratio = (c_best - report.rp_value) / gap

    elapsed = time.perf_counter() - t0
    finish(7, hits >= 3 and ratio <= 0.5, elapsed, 1800.0,
           f"low penalty: {hits}/5 map solutions in {{110, 111}} ({maps}); "
           f"high penalty: best cost closes {1 - ratio:.0%} of the "
           f"EEV-RP gap (need >= 50%)")


def test_criterion_8_resource_scaling_trends():
    t0 = time.perf_counter()

    def first_stage_increment(n_scen):  # its rows: M = 3, p1 = 1 and 2, p2 = 0
        rows = sweep_scaling([n_scen], [3], 2, 1)
        one, two = [r["total"] for r in rows if r["M"] == 3 and r["p2"] == 0]
        return two - one

    increments = {
        first_stage_increment(2**n_xi) for n_xi in range(2, 9)  # N = 4 .. 256
    }
    first_stage_ok = len(increments) == 1

    params = default_params(30.0)
    counts = []
    for n_xi in range(2, 9):
        ham = build_hamiltonian(params, n_xi, 0.0, XI_MAX)
        block = [
            sv.ZPhase(int(m), 0.0) for m in sorted(ham.h2_dep.terms) if m != 0
        ]
        counts.append(
            count_and_depth(
                lower_to_basis(sv.Circuit(ham.layout.n_total, block))
            ).total
        )
    xs = np.arange(2, 9, dtype=float)
    ys = np.asarray(counts, dtype=float)
    pred = np.polyval(np.polyfit(xs, ys, 1), xs)
    r_sq = 1.0 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))

    rng = np.random.default_rng(99)
    n = 12
    gates = []
    for _ in range(40):
        q = int(rng.integers(0, n))
        pick = int(rng.integers(0, 5))
        if pick == 0:
            gates.append(sv.H(q))
        elif pick == 1:
            gates.append(sv.RY(q, float(rng.uniform(-4, 4))))
        elif pick == 2:
            gates.append(sv.RX(q, float(rng.uniform(-4, 4))))
        elif pick == 3:
            other = (q + 1 + int(rng.integers(0, n - 1))) % n
            gates.append(sv.CZ(q, other))
        else:
            gates.append(sv.ZPhase(int(rng.integers(1, 2**n)),
                                   float(rng.uniform(-4, 4))))
    circuit = sv.Circuit(n, gates)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    out_a = sv.run_circuit(circuit, amps.copy())
    out_b = sv.run_circuit(lower_to_basis(circuit), amps.copy())
    overlap = np.vdot(out_b, out_a)
    lowering_err = float(
        np.max(np.abs(out_a - (overlap / abs(overlap)) * out_b))
    )

    elapsed = time.perf_counter() - t0
    finish(8, first_stage_ok and r_sq >= 0.99 and lowering_err < 1e-9,
           elapsed, 60.0,
           f"first-stage per-layer increment constant over N=4..256 "
           f"({increments.pop()} gates); scenario-coupling block affine in "
           f"log2 N (R^2 {r_sq:.4f} >= 0.99); lowering exact to "
           f"{lowering_err:.2e} on a 12-qubit register")


def test_criterion_9_estimator_statistics():
    t0 = time.perf_counter()
    ham = build_hamiltonian(default_params(30.0), 2, 0.0, XI_MAX)
    gen = random_generator(2, np.random.default_rng(41))
    vp = random_params(2, 2, np.random.default_rng(42))

    evaluator = FactorizedEvaluator(gen, ham)
    exact = evaluator(vp)
    state = final_state(gen, ham, vp)
    diag = reconstruct(ham.total())
    probs = sv.probabilities(state)
    sigma = float(np.sqrt(probs @ diag**2 - (probs @ diag) ** 2))

    rng = np.random.default_rng(4242)
    shots = 50_000
    bound = 4.0 * sigma / np.sqrt(shots)
    estimates = np.array([
        evaluator(vp, shots=shots, rng=rng)
        for _ in range(50)
    ])
    n_within = int(np.sum(np.abs(estimates - exact) < bound))

    quarter = np.array([
        evaluator(vp, shots=shots // 4, rng=rng)
        for _ in range(100)
    ])
    full = np.array([
        evaluator(vp, shots=shots, rng=rng)
        for _ in range(100)
    ])
    ratio = float(full.std(ddof=1) / quarter.std(ddof=1))

    elapsed = time.perf_counter() - t0
    finish(9, n_within >= 48 and 0.375 <= ratio <= 0.625, elapsed, 120.0,
           f"{n_within}/50 sampled objectives within 4 sigma_hat/sqrt(shots) "
           f"of exact (need 48); std ratio {ratio:.3f} in [0.375, 0.625] "
           f"when shots quadruple")
