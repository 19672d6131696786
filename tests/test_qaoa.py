import warnings

import numpy as np
import pytest

from qtwostage import cobyla, qaoa
from qtwostage import statevec as sv
from qtwostage.config import (QaoaConfig, StructureError, UcpParams,
                              default_params)
from qtwostage.qaoa import (
    FactorizedEvaluator,
    VariationalParams,
    assemble,
    final_state,
    map_solution,
    optimize,
    random_params,
)
from qtwostage.qgan import generator_probs
from qtwostage.ucp import RegisterLayout, build_hamiltonian
from qtwostage.walsh import reconstruct, zpoly_add

from oracles import (
    classical_surrogate,
    diagonal_phase,
    row_major_joint,
    surrogate_diagonal,
    verify_nonanticipativity,
    verify_prop1,
    zphase,
)


def make_generator(n_xi: int, theta=None) -> np.ndarray:
    """The generator's angles: ``theta``, or zeros."""
    if theta is None:
        theta = np.zeros(n_xi * (n_xi + 1))
    return np.asarray(theta, dtype=float)


def case_study(lam: float, n_xi: int = 2):
    params = default_params()
    ham = build_hamiltonian(params, lam, n_xi, 0.0, 2500.0)
    return params, ham


def unit_phase(vp: VariationalParams, evaluator) -> VariationalParams:
    """``vp`` with each stage's gamma divided by its scale: O(1) phases."""
    sigma1, sigma2 = evaluator.scales
    return VariationalParams(vp.gamma1 / sigma1, vp.beta1,
                             vp.gamma2 / sigma2, vp.beta2)


def toy_problem():
    params = UcpParams(
        n_units=1, demand=2.0, p_min=(1.0,), p_max=(2.0,),
        startup_cost=(1.0,), unit_cost=(1.0,),
    )
    return build_hamiltonian(params, 1.0, 1, 0.0, 1.0)


def test_variational_params_validation():
    vp = VariationalParams(np.array([0.1, 0.2]), np.array([0.3, 0.4]),
                           np.array([0.5]), np.array([0.6]))
    assert len(vp.gamma1) == 2 and len(vp.gamma2) == 1
    back = VariationalParams.from_vector(2, 1, vp.to_vector())
    np.testing.assert_array_equal(back.gamma1, vp.gamma1)
    np.testing.assert_array_equal(back.beta2, vp.beta2)


def test_config_validation():
    QaoaConfig()
    with pytest.raises(StructureError):
        QaoaConfig(p1=0)
    with pytest.raises(StructureError):
        QaoaConfig(shots=0)
    with pytest.raises(StructureError):
        QaoaConfig(maxiter=0)


def test_assemble_structure():
    _, ham = case_study(30.0)
    layout = ham.layout
    gen = make_generator(2)
    vp = VariationalParams(*np.array([[0.3], [0.2], [0.7], [0.1]]))
    circ = assemble(gen, ham, vp)
    assert circ.n_qubits == layout.n_total == 8

    gates = circ.gates
    # generator block: 2 H, 2 RY, then 2 reps of (1 CZ, 2 RY)
    n_gen = 2 + 2 + 2 * (1 + 2)
    for g in gates[:2]:
        assert g[0] == "h"
    # each stage opens with its superposition column
    h_first = gates[n_gen:n_gen + 3]
    assert all(g[0] == "h" for g in h_first)
    assert [g[1] for g in h_first] == [(2,), (3,), (4,)]

    pos = n_gen + 3
    h1_masks = sorted(m for m in ham.h1.terms if m != 0)
    for mask in h1_masks:
        g = gates[pos]
        assert g[:2] == zphase(mask, None)[:2]
        assert g[2] == pytest.approx(0.3 * ham.h1.terms[mask])
        pos += 1
    for q in layout.first_stage_qubits:
        g = gates[pos]
        assert g[:2] == ("rx", (q,))
        assert g[2] == pytest.approx(-0.4)
        pos += 1

    h_second = gates[pos:pos + 3]
    assert all(g[0] == "h" for g in h_second)
    assert [g[1] for g in h_second] == [(5,), (6,), (7,)]
    pos += 3
    dep_masks = sorted(m for m in ham.h2_dep.terms if m != 0)
    indep_masks = sorted(m for m in ham.h2_indep.terms if m != 0)
    for mask in dep_masks + indep_masks:
        g = gates[pos]
        assert g[:2] == zphase(mask, None)[:2]
        pos += 1
    for q in layout.second_stage_qubits:
        g = gates[pos]
        assert g[:2] == ("rx", (q,))
        assert g[2] == pytest.approx(-0.2)
        pos += 1
    assert pos == len(gates)


def test_zero_angles_give_product_state():
    _, ham = case_study(30.0)
    theta = np.random.default_rng(3).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = VariationalParams(*np.zeros((4, 1)))
    probs = sv.probabilities(final_state(gen, ham, vp))
    p_s = generator_probs(2, gen)
    want = np.tile(p_s, 64) / 64.0
    np.testing.assert_allclose(probs, want, atol=1e-12)


def test_objective_zero_lambda_closed_form():
    _, ham = case_study(0.0)
    gen = make_generator(2)
    vp = VariationalParams(*np.zeros((4, 1)))
    got = FactorizedEvaluator(gen, ham)(vp)
    # E[startup] + E[generation] over independent uniform bits
    assert got == pytest.approx(17187.5, rel=1e-12)


def test_objective_matches_product_oracle():
    params, ham = case_study(30.0)
    theta = np.random.default_rng(5).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = VariationalParams(*np.zeros((4, 1)))
    got = FactorizedEvaluator(gen, ham)(vp)

    # scenario s is the low two bits of a basis index; the 64 decision
    # states are uniform at zero angles
    weights = np.tile(generator_probs(2, gen), 64) / 64.0
    want = float(weights @ surrogate_diagonal(params, 30.0, 2, 0.0, 2500.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_beta_zero_keeps_magnitudes():
    _, ham = case_study(30.0)
    gen = make_generator(2)
    rng = np.random.default_rng(11)
    vp = VariationalParams(rng.uniform(0, 2 * np.pi, 2), np.zeros(2),
                           rng.uniform(0, 2 * np.pi, 2), np.zeros(2))
    zero = VariationalParams(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
    got = sv.probabilities(final_state(gen, ham, vp))
    want = sv.probabilities(final_state(gen, ham, zero))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mapping_block_matches_diagonal_oracle():
    _, ham = case_study(30.0)
    layout = ham.layout
    theta = np.random.default_rng(7).uniform(-0.5, 0.5, 6)
    gen = make_generator(2, theta)
    rng = np.random.default_rng(13)
    vp = VariationalParams(rng.uniform(0, 2, 1), rng.uniform(0, 1, 1),
                           rng.uniform(0, 2, 1), rng.uniform(0, 1, 1))
    state = final_state(gen, ham, vp)

    # replace the synthesized scenario-coupled block by one diagonal phase
    from qtwostage.qaoa import _cost_terms
    from qtwostage.qgan import generator_circuit

    def cost_gates(poly, gamma):
        return [("zphase", support, gamma * coef)
                for support, coef in _cost_terms(poly)]

    before = list(generator_circuit(2, gen).gates)
    before += [("h", (q,), None) for q in layout.first_stage_qubits]
    before += [("h", (q,), None) for q in layout.second_stage_qubits]
    before += cost_gates(ham.h1, vp.gamma1[0])
    before += [("rx", (q,), -2 * vp.beta1[0]) for q in layout.first_stage_qubits]
    after = cost_gates(ham.h2_indep, vp.gamma2[0])
    after += [("rx", (q,), -2 * vp.beta2[0])
              for q in layout.second_stage_qubits]
    oracle = sv.run_circuit(sv.Circuit(layout.n_total, before))
    diagonal_phase(oracle, reconstruct(ham.h2_dep), vp.gamma2[0])
    sv.run_circuit(sv.Circuit(layout.n_total, after), oracle)

    np.testing.assert_allclose(state, oracle, atol=1e-10)


def test_diagonal_is_built_on_first_use():
    _, ham = case_study(30.0)
    assert "diagonal" not in vars(ham)
    FactorizedEvaluator(make_generator(2), ham)
    assert "diagonal" in vars(ham)
    assert ham.diagonal.tobytes() == reconstruct(ham.total()).tobytes()


def test_evaluator_matches_gate_level_circuit():
    rng = np.random.default_rng(43)
    for n_units in (1, 2, 3):
        for n_xi in (1, 2, 3):
            ham = build_hamiltonian(default_params(n_units), 90.0, n_xi,
                                    0.0, 2500.0)
            gen = make_generator(n_xi, rng.uniform(-1, 1, n_xi * (n_xi + 1)))
            evaluator = FactorizedEvaluator(gen, ham)
            for p in (1, 2, 3, 4):
                # at raw angles gamma * cost wraps ~1e9 rad, and the two
                # sides agree only to the phases' rounding
                vp = unit_phase(random_params(p, p, rng), evaluator)
                want = sv.expectation_diagonal(final_state(gen, ham, vp),
                                               ham.diagonal)
                assert evaluator(vp) == pytest.approx(want, rel=1e-12)


def test_evaluator_matches_row_major_oracle_bitwise():
    rng = np.random.default_rng(101)
    for n_units in (1, 2, 3):
        for n_xi in (1, 2, 3):
            ham = build_hamiltonian(default_params(n_units), 90.0, n_xi,
                                    0.0, 2500.0)
            gen = make_generator(n_xi, rng.uniform(-1, 1, n_xi * (n_xi + 1)))
            evaluator = FactorizedEvaluator(gen, ham)
            for p in (1, 2, 3, 4):
                raw = random_params(p, p, rng)
                for vp in (raw, unit_phase(raw, evaluator)):
                    want = row_major_joint(gen, ham, vp)
                    assert evaluator.joint(vp).tobytes() == want.tobytes()
                    assert evaluator(vp) == float(want @ ham.diagonal)

    # one shots draw: the same multinomial, summed left to right
    shots = 5000
    rng, twin = np.random.default_rng(103), np.random.default_rng(103)
    got = evaluator(vp, shots, rng)
    counts = sv.sample(want, shots, twin)
    nz = np.nonzero(counts)[0]
    assert got == float(sum(counts[nz] * ham.diagonal[nz]) / shots)


def test_evaluator_reads_the_diagonal_in_place():
    # every full-register array is the diagonal's memory in basis order, so
    # its ravel is the diagonal itself: no copy and no strided table
    _, ham = case_study(90.0)
    evaluator = FactorizedEvaluator(make_generator(2), ham)
    full = [value for value in vars(evaluator).values()
            if isinstance(value, np.ndarray)
            and value.size == ham.diagonal.size]
    assert full
    for value in full:
        assert np.shares_memory(value, ham.diagonal)
        assert value.flags.c_contiguous


def test_shots_objective_draws_one_multinomial():
    _, ham = case_study(90.0)
    gen = make_generator(2, np.random.default_rng(47).uniform(-1, 1, 6))
    evaluator = FactorizedEvaluator(gen, ham)
    vp = unit_phase(random_params(2, 2, np.random.default_rng(53)), evaluator)
    joint = evaluator.joint(vp)
    np.testing.assert_allclose(
        joint, sv.probabilities(final_state(gen, ham, vp)), rtol=0, atol=1e-12)

    shots = 5000
    rng, twin = np.random.default_rng(59), np.random.default_rng(59)
    got = evaluator(vp, shots=shots, rng=rng)
    counts = twin.multinomial(shots, joint / joint.sum())
    assert counts.size == 2**ham.layout.n_total
    assert rng.bit_generator.state == twin.bit_generator.state
    nz = np.nonzero(counts)[0]
    assert got == float(sum(counts[nz] * ham.diagonal[nz]) / shots)


def test_surrogate_optimum_and_scales_match_enumeration():
    params, ham = case_study(30.0)
    gen = make_generator(2, np.random.default_rng(71).uniform(-1, 1, 6))
    evaluator = FactorizedEvaluator(gen, ham)
    p_s = generator_probs(2, gen)
    grid = np.linspace(0.0, 2500.0, 4)
    bits = [tuple((k >> i) & 1 for i in range(3)) for k in range(8)]
    # cost[x][s][b]: start-up, generation and imbalance penalty
    cost = np.array([[[classical_surrogate(x, b, xi, params, 30.0)
                       for b in bits] for xi in grid] for x in bits])
    want = min(sum(p_s[s] * cost[x, s].min() for s in range(4))
               for x in range(8))
    assert evaluator.surrogate_optimum() == pytest.approx(want, rel=1e-12)
    spread = np.max(cost.max(axis=2) - cost.min(axis=2))
    assert evaluator.scales == pytest.approx((2500.0, spread), rel=1e-12)

    # a lower bound: every angle's objective is an average of costs
    rng = np.random.default_rng(73)
    for _ in range(10):
        vp = random_params(2, 2, rng)
        assert evaluator(vp) >= evaluator.surrogate_optimum()
        assert evaluator(unit_phase(vp, evaluator)) >= want


def test_evaluator_over_the_qubit_cap_is_capacity_error():
    # 23 scenario qubits + 2 * 3 decision qubits: one over the cap
    ham = build_hamiltonian(default_params(), 30.0, 23, 0.0, 2500.0)
    with pytest.raises(StructureError,
                       match="29 qubits exceed the 28-qubit cap"):
        FactorizedEvaluator(make_generator(23), ham)
    assert "diagonal" not in vars(ham)  # refused before allocating


def test_map_solution():
    layout = RegisterLayout(2, 3)
    one_hot = np.zeros(8)
    one_hot[5] = 1.0
    assert map_solution(one_hot) == (1, 0, 1)

    tie = np.zeros(8)
    tie[3] = 0.5
    tie[5] = 0.5
    assert map_solution(tie) == (1, 1, 0)

    counts = np.zeros(2**layout.n_total, dtype=np.int64)
    counts[0b11_011_10] = 3
    counts[0b00_110_01] = 7
    # first-stage bits sit in the middle register (qubits 2..4)
    marginal = layout.split(counts).sum(axis=(0, 2))
    assert map_solution(marginal) == (0, 1, 1)


def test_map_solution_from_state():
    _, ham = case_study(30.0)
    layout = ham.layout
    gen = make_generator(2)
    vp = VariationalParams(*np.zeros((4, 1)))
    state = final_state(gen, ham, vp)
    marginal = layout.split(sv.probabilities(state)).sum(axis=(0, 2))
    bits = map_solution(marginal)
    assert bits == (0, 0, 0)  # uniform marginal, smallest-index tie


def test_optimize_is_deterministic():
    ham = toy_problem()
    gen = make_generator(1)
    cfg = QaoaConfig(p1=1, p2=1, maxiter=60)
    evaluator = FactorizedEvaluator(gen, ham)
    a = optimize(evaluator, cfg, np.random.default_rng(21))
    b = optimize(evaluator, cfg, np.random.default_rng(21))
    np.testing.assert_array_equal(a.trace, b.trace)
    assert a.runs > 1
    assert len(a.trace) == cfg.maxiter
    np.testing.assert_array_equal(a.best_params.to_vector(),
                                  b.best_params.to_vector())
    assert a.best_objective == min(a.trace)
    assert abs(a.first_stage_marginal.sum() - 1.0) < 1e-9
    assert a.message and a.message == b.message
    # the best objective is what the evaluator returns at the best angles
    assert evaluator(a.best_params) == a.best_objective


def test_optimize_calls_module_minimize(monkeypatch):
    # the optimizer is looked up as ``qaoa.minimize`` on every call, so a
    # wrapper installed there sees each objective evaluation
    calls = {"minimize": 0, "objective": 0}
    package_minimize = qaoa.minimize

    def counting_minimize(fun, x0, **kwargs):
        calls["minimize"] += 1

        def counted(x):
            calls["objective"] += 1
            return fun(x)
        return package_minimize(counted, x0, **kwargs)

    monkeypatch.setattr(qaoa, "minimize", counting_minimize)
    ham = toy_problem()
    result = optimize(FactorizedEvaluator(make_generator(1), ham),
                      QaoaConfig(p1=1, p2=1, maxiter=30),
                      np.random.default_rng(5))
    assert calls["minimize"] == 1
    assert calls["objective"] == len(result.trace) > 0


def test_optimize_without_finite_evaluation_is_structure_error(monkeypatch):
    monkeypatch.setattr(qaoa, "_estimate", lambda *args: float("nan"))
    ham = toy_problem()
    with pytest.raises(StructureError, match="finite"):
        optimize(FactorizedEvaluator(make_generator(1), ham),
                 QaoaConfig(p1=1, p2=1, maxiter=20),
                 np.random.default_rng(3))


def test_optimize_constant_objective():
    params = UcpParams(
        n_units=1, demand=0.0, p_min=(-1.0,), p_max=(1.0,),
        startup_cost=(0.0,), unit_cost=(0.0,),
    )
    ham = build_hamiltonian(params, 0.0, 1, 0.0, 1.0)
    cfg = QaoaConfig(p1=1, p2=1, maxiter=25)
    got = optimize(FactorizedEvaluator(make_generator(1), ham), cfg,
                   np.random.default_rng(2))
    assert got.best_objective == pytest.approx(0.0, abs=1e-9)


def test_optimize_spends_its_budget_on_case_study():
    # unscaled, gamma2 * E2 reaches ~1e9 rad, the landscape in gamma2 has a
    # period of ~1e-8 and COBYLA's trust region collapses within dozens of
    # evaluations; in per-stage scaled angles it spends its budget
    _, ham = case_study(90.0)
    gen = make_generator(2, np.random.default_rng(61).uniform(-1, 1, 6))
    result = optimize(FactorizedEvaluator(gen, ham),
                      QaoaConfig(p1=2, p2=2, maxiter=100),
                      np.random.default_rng(67))
    assert len(result.trace) == 100


def test_optimize_budget_is_hard_inside_the_initial_simplex():
    # 16 angles need 17 evaluations for COBYLA's first simplex; a budget of
    # 5 stops after exactly 5, silently
    _, ham = case_study(90.0)
    cfg = QaoaConfig(p1=4, p2=4, maxiter=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize(FactorizedEvaluator(make_generator(2), ham), cfg,
                          np.random.default_rng(13))
    assert len(result.trace) == 5
    assert result.best_objective == min(result.trace)
    assert "MAXFUN" in result.message


def one_cobyla_run(evaluator, cfg, seed):
    """A single direct COBYLA run from ``optimize``'s start: (values, stop)."""
    rng = np.random.default_rng(seed)
    sigma1, sigma2 = evaluator.scales
    divisor = VariationalParams(
        np.full(cfg.p1, sigma1), np.ones(cfg.p1),
        np.full(cfg.p2, sigma2), np.ones(cfg.p2)).to_vector()
    values: list = []

    def fun(x):
        vp = VariationalParams.from_vector(cfg.p1, cfg.p2, x / divisor)
        values.append(evaluator(vp, cfg.shots, rng))
        return values[-1]
    x0 = random_params(cfg.p1, cfg.p2, rng).to_vector()
    message = cobyla.minimize(fun, x0, rhobeg=qaoa.COBYLA_RHOBEG,
                              rhoend=qaoa.COBYLA_TOL, maxfun=cfg.maxiter)
    return values, message


def shots_case(p: int = 1):
    _, ham = case_study(90.0)
    gen = make_generator(2, np.random.default_rng(61).uniform(-1, 1, 6))
    return (FactorizedEvaluator(gen, ham),
            QaoaConfig(p1=p, p2=p, shots=1000, maxiter=100))


def test_shots_restart_spends_the_budget_after_a_trust_region_stop():
    evaluator, cfg = shots_case()
    values, message = one_cobyla_run(evaluator, cfg, 1)
    # shot noise shrinks one run's trust region to rhoend early
    assert cobyla.SMALL_TR_RADIUS in message
    assert len(values) < cfg.maxiter

    result = optimize(evaluator, cfg, np.random.default_rng(1))
    assert len(result.trace) == cfg.maxiter
    assert "MAXFUN" in result.message
    assert result.runs > 1
    # the first run is the direct one
    assert result.trace[:len(values)].tobytes() == \
        np.asarray(values).tobytes()


@pytest.mark.parametrize("shots, seed", [
    *(pytest.param(1000, seed, id=str(seed)) for seed in range(4)),
    pytest.param(None, 21, id="exact-21")])
def test_reruns_start_at_the_best_scaled_point(monkeypatch, shots, seed):
    # shots: at depth 2 some reruns start where x / scale * scale != x, so a
    # start rebuilt from the physical angles would differ in its last bits;
    # exact: the toy problem's first run stops before its budget
    runs = []  # per run: its start, budget and evaluations
    seen = []  # every evaluated (scaled point, value), in order
    package_minimize = qaoa.minimize

    def recording_minimize(fun, x0, **kwargs):
        run = {"x0": np.array(x0), "maxfun": kwargs["maxfun"], "evals": 0}
        runs.append(run)

        def recorded(x):
            value = fun(x)
            run["evals"] += 1
            seen.append((x.copy(), value))
            return value
        return package_minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(qaoa, "minimize", recording_minimize)
    if shots is None:
        evaluator = FactorizedEvaluator(make_generator(1), toy_problem())
        cfg = QaoaConfig(p1=1, p2=1, maxiter=60)
    else:
        evaluator, cfg = shots_case(p=2)
    result = optimize(evaluator, cfg, np.random.default_rng(seed))

    assert len(runs) == result.runs > 1
    assert sum(run["evals"] for run in runs) == len(result.trace) \
        == cfg.maxiter
    spent = 0
    for run in runs:
        assert run["maxfun"] == cfg.maxiter - spent
        # a run, rerun or not, evaluates its start first
        assert seen[spent][0].tobytes() == run["x0"].tobytes()
        if spent:
            # the first of the lowest values so far, its point bit for bit
            earlier = [value for _, value in seen[:spent]]
            i_best = int(np.argmin(earlier))
            assert run["x0"].tobytes() == seen[i_best][0].tobytes()
            if shots is None:
                # exact: the start's value again, where shots draw afresh
                assert seen[spent][1] == earlier[i_best]
        spent += run["evals"]


def test_rerun_loop_ends_when_each_run_evaluates_once(monkeypatch):
    calls = []

    def evaluate_start_only(fun, x0, **kwargs):
        calls.append(kwargs["maxfun"])
        fun(np.array(x0))
        return "stub stop"

    monkeypatch.setattr(qaoa, "minimize", evaluate_start_only)
    cfg = QaoaConfig(p1=1, p2=1, maxiter=7)
    result = optimize(FactorizedEvaluator(make_generator(1), toy_problem()),
                      cfg, np.random.default_rng(4))
    assert calls == list(range(7, 0, -1))
    assert result.runs == len(result.trace) == 7
    assert result.message == "stub stop"


def test_exact_first_run_at_maxfun_is_one_cobyla_run():
    # the desk and paper-grid regime: the first run spends the budget, so
    # the rerun loop never runs and results stay bit for bit; at depth 2 and
    # at the desk's depth 4 and budget 400
    _, ham = case_study(90.0)
    gen = make_generator(2, np.random.default_rng(61).uniform(-1, 1, 6))
    evaluator = FactorizedEvaluator(gen, ham)
    for p, maxiter in ((2, 100), (4, 400)):
        cfg = QaoaConfig(p1=p, p2=p, maxiter=maxiter)
        values, message = one_cobyla_run(evaluator, cfg, 67)
        assert "MAXFUN" in message

        result = optimize(evaluator, cfg, np.random.default_rng(67))
        assert result.runs == 1
        assert result.message == message
        assert result.trace.tobytes() == np.asarray(values).tobytes()
        assert result.best_objective == min(values)


def test_shots_best_objective_comes_from_the_final_draw(monkeypatch):
    draws = []  # (normalized distribution, counts) of every multinomial
    package_sample = sv.sample

    def recording_sample(probs, shots, rng):
        counts = package_sample(probs, shots, rng)
        draws.append((probs / probs.sum(), counts))
        return counts

    monkeypatch.setattr(sv, "sample", recording_sample)
    evaluator, cfg = shots_case()
    rng = np.random.default_rng(1)
    result = optimize(evaluator, cfg, rng)

    # one draw per evaluation, then exactly one more at the chosen angles
    assert len(draws) == len(result.trace) + 1
    final, counts = draws[-1]
    joint = evaluator.joint(result.best_params)
    assert final.tobytes() == (joint / joint.sum()).tobytes()
    nz = np.nonzero(counts)[0]
    diag = evaluator.table.ravel()
    assert result.best_objective == \
        float(sum(counts[nz] * diag[nz]) / cfg.shots)
    np.testing.assert_array_equal(
        result.first_stage_marginal,
        evaluator.layout.split(counts).sum(axis=(0, 2)) / cfg.shots)

    twin = np.random.default_rng(1)
    random_params(cfg.p1, cfg.p2, twin)
    for probs, drawn in draws:
        np.testing.assert_array_equal(twin.multinomial(cfg.shots, probs),
                                      drawn)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_optimize_toy_against_grid_oracle():
    # depth-1 so a dense angle grid is a tractable global-minimum oracle; the
    # grid runs as one (16^4, 8) batch through dense 8x8 layer matrices
    ham = toy_problem()
    gen = make_generator(1)  # zero angles: H on the scenario qubit
    diag = reconstruct(ham.total())

    lin_g = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    lin_b = np.linspace(0.0, np.pi, 16, endpoint=False)
    g1, b1, g2, b2 = (
        axis.ravel() for axis in np.meshgrid(lin_g, lin_b, lin_g, lin_b,
                                             indexing="ij")
    )
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    pauli_x, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    # little-endian: kron factors run from qubit 2 (level) down to qubit 0
    x_commit = np.kron(np.kron(eye, pauli_x), eye)
    x_level = np.kron(np.kron(pauli_x, eye), eye)

    def mixer(states, beta, x_q):
        # RX(-2 beta) on one qubit = cos(beta) I + i sin(beta) X_q
        return (np.cos(beta)[:, None] * states
                + 1j * np.sin(beta)[:, None] * (states @ x_q.T))

    start = np.kron(np.kron(had, had), had)[:, 0]
    states = start * np.exp(-1j * g1[:, None] * reconstruct(ham.h1))
    states = mixer(states, b1, x_commit)
    h2 = reconstruct(zpoly_add(ham.h2_indep, ham.h2_dep))
    states = states * np.exp(-1j * g2[:, None] * h2)
    states = mixer(states, b2, x_level)
    grid_best = float(np.min((np.abs(states) ** 2) @ diag))

    cfg = QaoaConfig(p1=1, p2=1, maxiter=400)
    evaluator = FactorizedEvaluator(gen, ham)
    found = min(
        optimize(evaluator, cfg, np.random.default_rng(seed)).best_objective
        for seed in range(3)
    )
    assert found <= grid_best + 0.05 * abs(grid_best)


def scaled_case_study(scale: float = 1e-3) -> UcpParams:
    """Case-study proportions with O(1) coefficients, so cost-layer phase
    arguments stay small and float argument reduction is benign."""
    params = UcpParams(
        n_units=3, demand=2500.0 * scale,
        p_min=(300.0 * scale, 500.0 * scale, 100.0 * scale),
        p_max=(750.0 * scale, 1000.0 * scale, 200.0 * scale),
        startup_cost=(4000.0 * scale, 5000.0 * scale, 1000.0 * scale),
        unit_cost=(15.0 * scale, 20.0 * scale, 10.0 * scale),
    )
    return params


def test_prop1_residual_small():
    params = scaled_case_study()
    theta = np.random.default_rng(17).uniform(-0.6, 0.6, 6)
    gen = make_generator(2, theta)
    rng = np.random.default_rng(23)
    for _ in range(5):
        vp = random_params(2, 2, rng)
        residual = verify_prop1(2, gen, params, 30.0 * 1e-3, 0.0, 2500.0 * 1e-3,
                                vp)
        assert residual < 1e-9


def test_prop1_case_study_scale_relative():
    # with coefficients ~1e9 the phase arguments wrap many times, so the
    # identity holds to relative precision rather than absolute 1e-9
    params, ham = case_study(30.0)
    theta = np.random.default_rng(17).uniform(-0.6, 0.6, 6)
    gen = make_generator(2, theta)
    evaluator = FactorizedEvaluator(gen, ham)
    rng = np.random.default_rng(23)
    for _ in range(3):
        vp = random_params(2, 2, rng)
        residual = verify_prop1(2, gen, params, 30.0, 0.0, 2500.0, vp)
        assert residual < 1e-8 * abs(evaluator(vp))


def test_prop1_zero_angles_and_empty_second_stage():
    params = default_params()
    gen = make_generator(2)
    zero = VariationalParams(*np.zeros((4, 1)))
    assert verify_prop1(2, gen, params, 30.0, 0.0, 2500.0, zero) < 1e-6

    no_second = VariationalParams(np.array([0.4]), np.array([0.2]),
                                  np.zeros(0), np.zeros(0))
    assert verify_prop1(2, gen, params, 30.0, 0.0, 2500.0, no_second) < 1e-6


def test_nonanticipativity_holds_and_control_breaks():
    _, ham = case_study(30.0)
    layout = ham.layout
    theta = np.random.default_rng(29).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = random_params(2, 2, np.random.default_rng(31))

    state = final_state(gen, ham, vp)
    assert verify_nonanticipativity(state, layout) < 1e-10

    # negative control: couple a scenario qubit into the first stage
    circ = assemble(gen, ham, vp)
    q = layout.first_stage_qubits[0]
    circ.gates += [("h", (q,), None), ("cz", (0, q), None),
                   ("h", (q,), None)]  # CX(0, q)
    broken = sv.run_circuit(circ)
    assert verify_nonanticipativity(broken, layout) > 1e-2


def test_nonanticipativity_product_state():
    _, ham = case_study(30.0)
    layout = ham.layout
    gen = make_generator(2)
    vp = VariationalParams(*np.zeros((4, 1)))
    state = final_state(gen, ham, vp)
    assert verify_nonanticipativity(state, layout) < 1e-14


def test_shots_mode_is_unbiased():
    _, ham = case_study(30.0)
    gen = make_generator(2)
    vp = random_params(1, 1, np.random.default_rng(37))
    evaluator = FactorizedEvaluator(gen, ham)
    exact = evaluator(vp)

    state = final_state(gen, ham, vp)
    diag = reconstruct(ham.total())
    p = sv.probabilities(state)
    sigma = np.sqrt(p @ diag**2 - (p @ diag) ** 2)

    rng = np.random.default_rng(41)
    shots = 2000
    reps = 50
    estimates = [
        evaluator(vp, shots=shots, rng=rng)
        for _ in range(reps)
    ]
    standard_error = sigma / np.sqrt(shots * reps)
    assert abs(np.mean(estimates) - exact) <= 3 * standard_error
