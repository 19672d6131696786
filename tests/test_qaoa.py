import numpy as np
import pytest

from qtwostage import statevec as sv
from qtwostage.errors import StructureError
from qtwostage.qaoa import (
    QaoaConfig,
    VariationalParams,
    assemble,
    final_state,
    map_solution,
    objective,
    optimize,
    random_params,
    verify_nonanticipativity,
    verify_prop1,
)
from qtwostage.qgan import TrainedGenerator, generator_probs
from qtwostage.ucp import (
    RegisterLayout,
    UcpParams,
    build_hamiltonian,
    classical_surrogate,
    decode_basis,
    default_params,
)
from qtwostage.walsh import reconstruct


def make_generator(n_xi: int, theta=None) -> TrainedGenerator:
    if theta is None:
        theta = np.zeros(n_xi * (n_xi + 1))
    return TrainedGenerator(np.asarray(theta, dtype=float), n_xi, n_xi, 0, 1.0, 1.0)


def case_study(lam: float, n_xi: int = 2):
    params = default_params(lam)
    layout = RegisterLayout(n_xi, 3)
    ham = build_hamiltonian(params, layout, 0.0, 2500.0)
    return params, layout, ham


def toy_problem():
    params = UcpParams(
        n_units=1, demand=2.0, p_min=(1.0,), p_max=(2.0,),
        startup_cost=(1.0,), unit_cost=(1.0,), lam=1.0,
    )
    layout = RegisterLayout(1, 1)
    ham = build_hamiltonian(params, layout, 0.0, 1.0)
    return params, layout, ham


def test_variational_params_validation():
    vp = VariationalParams([0.1, 0.2], [0.3, 0.4], [0.5], [0.6])
    assert vp.p1 == 2 and vp.p2 == 1
    back = VariationalParams.from_vector(2, 1, vp.to_vector())
    np.testing.assert_array_equal(back.gamma1, vp.gamma1)
    np.testing.assert_array_equal(back.beta2, vp.beta2)

    with pytest.raises(StructureError):
        VariationalParams([0.1], [0.2, 0.3], [0.4], [0.5])
    with pytest.raises(StructureError):
        VariationalParams([np.inf], [0.2], [0.4], [0.5])
    with pytest.raises(StructureError):
        VariationalParams.from_vector(2, 2, np.zeros(7))


def test_config_validation():
    QaoaConfig()
    with pytest.raises(StructureError):
        QaoaConfig(p1=0)
    with pytest.raises(StructureError):
        QaoaConfig(shots=0)
    with pytest.raises(StructureError):
        QaoaConfig(maxiter=0)


def test_assemble_structure():
    _, layout, ham = case_study(30.0)
    gen = make_generator(2)
    vp = VariationalParams([0.3], [0.2], [0.7], [0.1])
    circ = assemble(gen, ham, vp, layout)
    assert circ.n_qubits == layout.n_total == 8

    gates = circ.gates
    # generator block: 2 H, 2 RY, then 2 reps of (1 CZ, 2 RY)
    n_gen = 2 + 2 + 2 * (1 + 2)
    for g in gates[:2]:
        assert isinstance(g, sv.H)
    # superposition layer on both decision registers
    h_layer = gates[n_gen:n_gen + 6]
    assert all(isinstance(g, sv.H) for g in h_layer)
    assert [g.qubit for g in h_layer] == list(range(2, 8))

    pos = n_gen + 6
    h1_masks = sorted(m for m in ham.h1.terms if m != 0)
    for mask in h1_masks:
        g = gates[pos]
        assert isinstance(g, sv.ZPhase) and g.mask == mask
        assert g.angle == pytest.approx(0.3 * ham.h1.terms[mask])
        pos += 1
    for q in layout.first_stage_qubits:
        g = gates[pos]
        assert isinstance(g, sv.RX) and g.qubit == q
        assert g.angle == pytest.approx(-0.4)
        pos += 1

    dep_masks = sorted(m for m in ham.h2_dep.terms if m != 0)
    indep_masks = sorted(m for m in ham.h2_indep.terms if m != 0)
    for mask in dep_masks + indep_masks:
        g = gates[pos]
        assert isinstance(g, sv.ZPhase) and g.mask == mask
        pos += 1
    for q in layout.second_stage_qubits:
        g = gates[pos]
        assert isinstance(g, sv.RX) and g.qubit == q
        assert g.angle == pytest.approx(-0.2)
        pos += 1
    assert pos == len(gates)


def test_assemble_register_mismatch():
    _, layout, ham = case_study(30.0)
    with pytest.raises(StructureError):
        assemble(make_generator(3), ham, VariationalParams(
            [0.1], [0.1], [0.1], [0.1]), layout)
    other_layout = RegisterLayout(3, 3)
    with pytest.raises(StructureError):
        assemble(make_generator(3), ham, VariationalParams(
            [0.1], [0.1], [0.1], [0.1]), other_layout)


def test_zero_angles_give_product_state():
    _, layout, ham = case_study(30.0)
    theta = np.random.default_rng(3).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = VariationalParams([0.0], [0.0], [0.0], [0.0])
    probs = sv.probabilities(final_state(gen, ham, vp, layout))
    p_s = generator_probs(gen.spec())
    want = np.tile(p_s, 64) / 64.0
    np.testing.assert_allclose(probs, want, atol=1e-12)


def test_objective_zero_lambda_closed_form():
    _, layout, ham = case_study(0.0)
    gen = make_generator(2)
    vp = VariationalParams([0.0], [0.0], [0.0], [0.0])
    got = objective(gen, ham, vp, layout)
    # E[startup] + E[generation] over independent uniform bits
    assert got == pytest.approx(17187.5, rel=1e-12)


def test_objective_matches_product_oracle():
    params, layout, ham = case_study(30.0)
    theta = np.random.default_rng(5).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = VariationalParams([0.0], [0.0], [0.0], [0.0])
    got = objective(gen, ham, vp, layout)

    p_s = generator_probs(gen.spec())
    grid = np.linspace(0.0, 2500.0, 4)
    want = 0.0
    for index in range(2**layout.n_total):
        s, x, b = decode_basis(index, layout)
        want += p_s[s] / 64.0 * classical_surrogate(x, b, grid[s], params)
    assert got == pytest.approx(want, rel=1e-12)


def test_beta_zero_keeps_magnitudes():
    _, layout, ham = case_study(30.0)
    gen = make_generator(2)
    rng = np.random.default_rng(11)
    vp = VariationalParams(rng.uniform(0, 2 * np.pi, 2), [0.0, 0.0],
                           rng.uniform(0, 2 * np.pi, 2), [0.0, 0.0])
    zero = VariationalParams(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
    got = sv.probabilities(final_state(gen, ham, vp, layout))
    want = sv.probabilities(final_state(gen, ham, zero, layout))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mapping_block_matches_diagonal_oracle():
    _, layout, ham = case_study(30.0)
    theta = np.random.default_rng(7).uniform(-0.5, 0.5, 6)
    gen = make_generator(2, theta)
    rng = np.random.default_rng(13)
    vp = VariationalParams(rng.uniform(0, 2, 1), rng.uniform(0, 1, 1),
                           rng.uniform(0, 2, 1), rng.uniform(0, 1, 1))
    state = final_state(gen, ham, vp, layout)

    # replace the synthesized scenario-coupled block by one diagonal phase
    from qtwostage.qaoa import _cost_gates
    from qtwostage.qgan import generator_circuit
    gates = list(generator_circuit(gen.spec()).gates)
    gates += [sv.H(q) for q in layout.first_stage_qubits]
    gates += [sv.H(q) for q in layout.second_stage_qubits]
    gates += _cost_gates(ham.h1, vp.gamma1[0])
    gates += [sv.RX(q, -2 * vp.beta1[0]) for q in layout.first_stage_qubits]
    gates.append(sv.DiagPhase(reconstruct(ham.h2_dep), vp.gamma2[0]))
    gates += _cost_gates(ham.h2_indep, vp.gamma2[0])
    gates += [sv.RX(q, -2 * vp.beta2[0]) for q in layout.second_stage_qubits]
    oracle = sv.run_circuit(sv.Circuit(layout.n_total, gates))

    np.testing.assert_allclose(state.amps, oracle.amps, atol=1e-10)


def test_map_solution():
    layout = RegisterLayout(2, 3)
    one_hot = np.zeros(8)
    one_hot[5] = 1.0
    assert map_solution(one_hot, layout) == (1, 0, 1)

    tie = np.zeros(8)
    tie[3] = 0.5
    tie[5] = 0.5
    assert map_solution(tie, layout) == (1, 1, 0)

    counts = np.zeros(2**layout.n_total, dtype=np.int64)
    counts[0b11_011_10] = 3
    counts[0b00_110_01] = 7
    # first-stage bits sit in the middle register (qubits 2..4)
    marginal = sv.marginal_probs(counts, layout.first_stage_qubits)
    assert map_solution(marginal, layout) == (0, 1, 1)

    with pytest.raises(StructureError):
        map_solution(np.zeros(4), layout)


def test_map_solution_from_state():
    _, layout, ham = case_study(30.0)
    gen = make_generator(2)
    vp = VariationalParams([0.0], [0.0], [0.0], [0.0])
    state = final_state(gen, ham, vp, layout)
    marginal = sv.marginal_probs(sv.probabilities(state),
                                 layout.first_stage_qubits)
    bits = map_solution(marginal, layout)
    assert bits == (0, 0, 0)  # uniform marginal, smallest-index tie


def test_optimize_is_deterministic():
    _, layout, ham = toy_problem()
    gen = make_generator(1)
    cfg = QaoaConfig(p1=1, p2=1, maxiter=60)
    a = optimize(gen, ham, layout, cfg, np.random.default_rng(21))
    b = optimize(gen, ham, layout, cfg, np.random.default_rng(21))
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.best_params.to_vector(),
                                  b.best_params.to_vector())
    assert a.best_objective == min(a.trace)
    assert abs(a.first_stage_marginal.sum() - 1.0) < 1e-9


def test_optimize_constant_objective():
    params = UcpParams(
        n_units=1, demand=0.0, p_min=(-1.0,), p_max=(1.0,),
        startup_cost=(0.0,), unit_cost=(0.0,), lam=0.0,
    )
    layout = RegisterLayout(1, 1)
    ham = build_hamiltonian(params, layout, 0.0, 1.0)
    cfg = QaoaConfig(p1=1, p2=1, maxiter=25)
    got = optimize(make_generator(1), ham, layout, cfg,
                   np.random.default_rng(2))
    assert got.best_objective == pytest.approx(0.0, abs=1e-9)


def test_optimize_toy_against_grid_oracle():
    # depth-1 so a dense angle grid is a tractable global-minimum oracle
    _, layout, ham = toy_problem()
    gen = make_generator(1)
    diag = reconstruct(ham.total())

    lin_g = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    lin_b = np.linspace(0.0, np.pi, 16, endpoint=False)
    grid_best = np.inf
    for g1 in lin_g:
        for b1 in lin_b:
            for g2 in lin_g:
                for b2 in lin_b:
                    vp = VariationalParams([g1], [b1], [g2], [b2])
                    state = final_state(gen, ham, vp, layout)
                    grid_best = min(grid_best,
                                    sv.expectation_diagonal(state, diag))

    cfg = QaoaConfig(p1=1, p2=1, maxiter=400)
    found = min(
        optimize(gen, ham, layout, cfg, np.random.default_rng(seed)).best_objective
        for seed in range(3)
    )
    assert found <= grid_best + 0.05 * abs(grid_best)


def scaled_case_study(scale: float = 1e-3):
    """Case-study proportions with O(1) coefficients, so cost-layer phase
    arguments stay small and float argument reduction is benign."""
    params = UcpParams(
        n_units=3, demand=2500.0 * scale,
        p_min=(300.0 * scale, 500.0 * scale, 100.0 * scale),
        p_max=(750.0 * scale, 1000.0 * scale, 200.0 * scale),
        startup_cost=(4000.0 * scale, 5000.0 * scale, 1000.0 * scale),
        unit_cost=(15.0 * scale, 20.0 * scale, 10.0 * scale),
        lam=30.0 * scale,
    )
    layout = RegisterLayout(2, 3)
    ham = build_hamiltonian(params, layout, 0.0, 2500.0 * scale)
    return params, layout, ham


def test_prop1_residual_small():
    params, layout, ham = scaled_case_study()
    theta = np.random.default_rng(17).uniform(-0.6, 0.6, 6)
    gen = make_generator(2, theta)
    rng = np.random.default_rng(23)
    for _ in range(5):
        vp = random_params(2, 2, rng)
        residual = verify_prop1(
            gen, params, layout, 0.0, 2500.0 * 1e-3, ham, vp
        )
        assert residual < 1e-9


def test_prop1_case_study_scale_relative():
    # with coefficients ~1e9 the phase arguments wrap many times, so the
    # identity holds to relative precision rather than absolute 1e-9
    params, layout, ham = case_study(30.0)
    theta = np.random.default_rng(17).uniform(-0.6, 0.6, 6)
    gen = make_generator(2, theta)
    rng = np.random.default_rng(23)
    for _ in range(3):
        vp = random_params(2, 2, rng)
        residual = verify_prop1(gen, params, layout, 0.0, 2500.0, ham, vp)
        assert residual < 1e-8 * abs(objective(gen, ham, vp, layout))


def test_prop1_zero_angles_and_empty_second_stage():
    params, layout, ham = case_study(30.0)
    gen = make_generator(2)
    zero = VariationalParams([0.0], [0.0], [0.0], [0.0])
    assert verify_prop1(gen, params, layout, 0.0, 2500.0, ham, zero) < 1e-6

    no_second = VariationalParams([0.4], [0.2], [], [])
    assert verify_prop1(gen, params, layout, 0.0, 2500.0, ham, no_second) < 1e-6


def test_nonanticipativity_holds_and_control_breaks():
    _, layout, ham = case_study(30.0)
    theta = np.random.default_rng(29).uniform(-1, 1, 6)
    gen = make_generator(2, theta)
    vp = random_params(2, 2, np.random.default_rng(31))

    state = final_state(gen, ham, vp, layout)
    assert verify_nonanticipativity(state, layout) < 1e-10

    # negative control: couple a scenario qubit into the first stage
    circ = assemble(gen, ham, vp, layout)
    circ.gates.append(sv.CX(0, layout.commit_qubit(0)))
    broken = sv.run_circuit(circ)
    assert verify_nonanticipativity(broken, layout) > 1e-2


def test_nonanticipativity_product_state():
    _, layout, ham = case_study(30.0)
    gen = make_generator(2)
    vp = VariationalParams([0.0], [0.0], [0.0], [0.0])
    state = final_state(gen, ham, vp, layout)
    assert verify_nonanticipativity(state, layout) < 1e-14


def test_shots_mode_is_unbiased():
    _, layout, ham = case_study(30.0)
    gen = make_generator(2)
    vp = random_params(1, 1, np.random.default_rng(37))
    exact = objective(gen, ham, vp, layout)

    state = final_state(gen, ham, vp, layout)
    diag = reconstruct(ham.total())
    p = sv.probabilities(state)
    sigma = np.sqrt(p @ diag**2 - (p @ diag) ** 2)

    rng = np.random.default_rng(41)
    shots = 2000
    reps = 50
    estimates = [
        objective(gen, ham, vp, layout, shots=shots, rng=rng)
        for _ in range(reps)
    ]
    standard_error = sigma / np.sqrt(shots * reps)
    assert abs(np.mean(estimates) - exact) <= 3 * standard_error

    with pytest.raises(StructureError):
        objective(gen, ham, vp, layout, shots=100)
