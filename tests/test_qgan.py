import numpy as np
import pytest

from qtwostage import qgan, statevec as sv
from qtwostage.config import TrainConfig
from qtwostage.qgan import (
    Adam,
    Discriminator,
    generator_circuit,
    generator_gradient,
    generator_probs,
    probability_jacobian,
    train,
)
from qtwostage.scenarios import (
    bin_to_grid,
    js_agreement,
    sample_pv,
    uniform_grid,
)

from oracles import bce_loss, forward


def test_circuit_structure():
    # the ansatz depth is the register width: 3 CZ chains of 2 gates, and
    # 3 * (3 + 1) angles, as at the zero angles of a resource sweep
    for theta in (np.arange(12, dtype=float), np.zeros(12)):
        circ = generator_circuit(3, theta)
        kinds = [kind for kind, _, _ in circ.gates]
        want = (
            ["h"] * 3
            + ["ry"] * 3
            + (["cz"] * 2 + ["ry"] * 3) * 3
        )
        assert kinds == want
        # entangler pairs walk down the chain
        cz = [qubits for kind, qubits, _ in circ.gates if kind == "cz"]
        assert cz == [(0, 1), (1, 2)] * 3
        # RY angles consumed in order
        ry = [angle for kind, _, angle in circ.gates if kind == "ry"]
        assert ry == list(theta)


def test_zero_angles_give_uniform():
    for n in (1, 2, 3):
        p = generator_probs(n, np.zeros(n * (n + 1)))
        np.testing.assert_allclose(p, np.full(2**n, 2.0**-n), atol=1e-12)


def test_sampled_probs():
    theta = np.array([0.3, -0.8, 0.5, 0.1, -0.2, 0.9])
    exact = generator_probs(2, theta)
    rng = np.random.default_rng(7)
    freq = generator_probs(2, theta, shots=100_000, rng=rng)
    assert abs(freq.sum() - 1.0) < 1e-12
    assert np.max(np.abs(freq - exact)) < 0.01


def test_discriminator_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    disc = Discriminator(4, rng)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    for target in (0.0, 1.0):
        grads, input_grad = disc.backward(p, target)
        params = disc.parameters()
        h = 1e-5
        for arr, grad in zip(params, grads):
            flat = arr.ravel()
            gflat = grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = bce_loss(forward(disc, p), target)
                flat[i] = keep - h
                down = bce_loss(forward(disc, p), target)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[i]) <= 1e-5 * max(1.0, abs(fd))
        # input gradient against the same oracle
        for i in range(4):
            keep = p[i]
            p[i] = keep + h
            up = bce_loss(forward(disc, p), target)
            p[i] = keep - h
            down = bce_loss(forward(disc, p), target)
            p[i] = keep
            fd = (up - down) / (2 * h)
            assert abs(fd - input_grad[i]) <= 1e-5 * max(1.0, abs(fd))


def test_probability_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    theta = rng.uniform(-1, 1, size=6)
    jac = probability_jacobian(2, theta)
    h = 1e-5
    for j in range(6):
        plus = theta.copy()
        plus[j] += h
        minus = theta.copy()
        minus[j] -= h
        fd = (
            generator_probs(2, plus)
            - generator_probs(2, minus)
        ) / (2 * h)
        np.testing.assert_allclose(jac[j], fd, atol=1e-7)


def test_probability_jacobian_samples_in_shift_order():
    # the batched draws must equal today's loop: theta_j + pi/2, then
    # theta_j - pi/2, for j in order, on one rng
    theta = np.random.default_rng(4).uniform(-1, 1, size=12)
    rng = np.random.default_rng(8)
    jac = probability_jacobian(3, theta, 700, rng)

    ref_rng = np.random.default_rng(8)
    ref = np.empty_like(jac)
    for j in range(len(theta)):
        p = []
        for sign in (1, -1):
            shifted = theta.copy()
            shifted[j] += sign * np.pi / 2
            p.append(generator_probs(3, shifted, 700, ref_rng))
        ref[j] = (p[0] - p[1]) / 2.0
    assert np.array_equal(jac, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("batch_rows", [1, 3, 5])
def test_probability_jacobian_chunks_match_one_batch(monkeypatch, batch_rows):
    theta = np.random.default_rng(6).uniform(-1, 1, size=6)
    exact = probability_jacobian(2, theta)
    sampled = probability_jacobian(2, theta, 300, np.random.default_rng(2))
    monkeypatch.setattr(qgan, "BATCH_AMPS", batch_rows * 4)
    assert np.array_equal(probability_jacobian(2, theta), exact)
    assert np.array_equal(
        probability_jacobian(2, theta, 300, np.random.default_rng(2)), sampled)


@pytest.mark.parametrize("n_xi", [3, 6])  # the workloads' scenario registers
def test_probability_jacobian_is_one_circuit_run(monkeypatch, n_xi):
    calls = []
    run = sv.run_circuit

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(sv, "run_circuit", counted)
    jac = probability_jacobian(n_xi, np.zeros(n_xi * (n_xi + 1)))
    assert jac.shape == (n_xi * (n_xi + 1), 2**n_xi)
    assert len(calls) == 1


def test_generator_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1, 1, size=6)
    disc = Discriminator(4, rng)
    grad = generator_gradient(2, theta, disc, generator_probs(2, theta))

    def loss(t):
        p = generator_probs(2, t)
        return bce_loss(forward(disc, p), 1.0)

    h = 1e-4
    for j in range(6):
        plus = theta.copy()
        plus[j] += h
        minus = theta.copy()
        minus[j] -= h
        fd = (loss(plus) - loss(minus)) / (2 * h)
        assert abs(fd - grad[j]) < 1e-4


def test_adam_zero_gradient_is_fixed_point():
    x = np.array([1.0, -2.0, 3.0])
    opt = Adam([x], lr=0.1)
    for _ in range(5):
        opt.step([x], [np.zeros(3)])
    np.testing.assert_array_equal(x, [1.0, -2.0, 3.0])


def test_adam_first_step_is_signed_learning_rate():
    x = np.array([0.0])
    opt = Adam([x], lr=0.002)
    opt.step([x], [np.array([7.0])])
    assert abs(x[0] - (-0.002)) < 1e-9


def test_uniform_target_zero_init_scores_one_at_epoch_zero():
    uniform = np.full(4, 0.25)
    cfg = TrainConfig(epochs=1, init_scale=0.0)
    got = train([uniform], [uniform], cfg, np.random.default_rng(1))
    assert got.best_epoch == 0
    assert got.test_score == 1.0
    assert got.train_score == 1.0
    np.testing.assert_array_equal(got.theta, np.zeros(6))


def test_train_is_deterministic_per_seed():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    target = np.array([0.6, 0.2, 0.15, 0.05])
    cfg = TrainConfig(epochs=25)
    got_a = train([target], [target], cfg, rng_a)
    got_b = train([target], [target], cfg, rng_b)
    np.testing.assert_array_equal(got_a.theta, got_b.theta)
    assert got_a.test_score == got_b.test_score
    assert got_a.best_epoch == got_b.best_epoch


def test_train_chooses_its_epoch_without_the_test_set():
    # the test distributions score the chosen epoch and never choose it
    target = np.array([0.6, 0.2, 0.15, 0.05])
    uniform = np.full(4, 0.25)
    cfg = TrainConfig(epochs=25)
    got = [train([target], test, cfg, np.random.default_rng(42))
           for test in ([target], [uniform])]
    np.testing.assert_array_equal(got[0].theta, got[1].theta)
    assert got[0].best_epoch == got[1].best_epoch > 0
    assert got[0].train_score == got[1].train_score == got[0].test_score
    assert got[1].test_score == js_agreement(
        generator_probs(2, got[1].theta), uniform)


def test_train_with_shots_is_deterministic_per_seed():
    target = np.array([0.6, 0.2, 0.15, 0.05])
    cfg = TrainConfig(epochs=10, lr_g=0.05, lr_d=0.05, shots=500)
    got_a = train([target], [target], cfg, np.random.default_rng(42))
    got_b = train([target], [target], cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(got_a.theta, got_b.theta)
    assert got_a.best_epoch > 0  # the sampled gradients moved theta


@pytest.mark.parametrize("sampled", [False, True])
def test_train_simulates_the_generator_once_per_epoch(monkeypatch, sampled):
    # per epoch: the exact distribution at theta, which also gives the
    # discriminator's fake input, and one batched Jacobian; then a last score
    calls = []
    run = sv.run_circuit

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(sv, "run_circuit", counted)
    target = np.array([0.6, 0.2, 0.15, 0.05])
    cfg = TrainConfig(epochs=7, shots=500 if sampled else None)
    train([target], [target], cfg, np.random.default_rng(42))
    assert len(calls) == 2 * cfg.epochs + 1


def test_train_one_hot_targets():
    # a point mass is exactly representable, so training should get close
    target = np.array([0.0, 1.0, 0.0, 0.0])
    cfg = TrainConfig(epochs=400)
    wins = 0
    for seed in range(5):
        got = train([target], [target], cfg, np.random.default_rng(seed))
        if got.test_score > 0.95:
            wins += 1
    assert wins >= 4


def test_train_improves_on_skewed_target():
    rng = np.random.default_rng(123)
    samples = sample_pv(1000, 3.0, 7.0, 2500.0, seed=9)
    grid = uniform_grid(0.0, 2500.0, 4)
    target = bin_to_grid(samples, grid)
    got = train([target], [target], TrainConfig(epochs=300), rng)
    start = js_agreement(np.full(4, 0.25), target)
    assert got.test_score > start
    assert got.test_score > 0.97


def test_serialization_round_trip(tmp_path):
    gen = qgan.TrainedGenerator(
        n_xi=2,
        theta=np.array([0.1, -2.5e-3, 1.0 / 3.0, 0.0, -7.0, 1e-300]),
        best_epoch=37,
        train_score=0.987654321,
        test_score=0.991234567,
    )
    path = tmp_path / "generator.txt"
    qgan.save_generator(gen, path)
    # one `key = value` line per field, every float as its repr
    assert path.read_bytes() == (
        b"n_xi = 2\nreps = 2\nbest_epoch = 37\ntrain_score = 0.987654321\n"
        b"test_score = 0.991234567\n"
        b"theta = 0.1,-0.0025,0.3333333333333333,0.0,-7.0,1e-300\n")
    back = qgan.load_generator(path)
    np.testing.assert_array_equal(back.theta, gen.theta)
    assert back.n_xi == gen.n_xi
    assert back.best_epoch == gen.best_epoch
    assert back.train_score == gen.train_score
    assert back.test_score == gen.test_score


def test_save_load(tmp_path):
    gen = qgan.TrainedGenerator(
        n_xi=1, theta=np.array([3.14159, -0.5]),
        best_epoch=0, train_score=1.0, test_score=1.0,
    )
    path = tmp_path / "generator.txt"
    qgan.save_generator(gen, path)
    back = qgan.load_generator(path)
    np.testing.assert_array_equal(back.theta, gen.theta)


def test_load_rejects_malformed_record(tmp_path):
    path = tmp_path / "generator.txt"
    valid = ("n_xi = 1\nreps = 1\nbest_epoch = 0\ntrain_score = 1\n"
             "test_score = 1\ntheta = 0.5,-0.25\n")
    path.write_text(valid)
    assert qgan.load_generator(path).n_xi == 1
    malformed = [
        "n_xi = 2\n",
        "n_xi = x\ntheta = 1.0\nreps = 1\n"
        "best_epoch = 0\ntrain_score = 1\ntest_score = 1",
        valid[:valid.index("theta")],  # truncated before the angles
        valid.replace("reps = 1", "reps = 2"),  # depth other than n_xi
        valid.replace("0.5,-0.25", "0.5"),  # too few angles
        valid.replace("0.5", "nan"),
        valid.replace("-0.25", "-inf"),
        valid.replace("n_xi = 1\nreps = 1", "n_xi = 0\nreps = 0"),
        # n_xi * (n_xi + 1) = 2 angles, but no register has -2 qubits
        valid.replace("n_xi = 1\nreps = 1", "n_xi = -2\nreps = -2"),
        valid.replace("n_xi = 1\nreps = 1", "n_xi = 2\nreps = 2")
        .replace("0.5,-0.25", "0.1,0.2,0.3,0.4,0.5"),  # 5 angles, n_xi = 2
        valid + "bogus = 1\n",  # a key the record does not hold
        valid + "angles in radians\n",  # a line with no "="
        valid + "theta = 0.25,0.5\n",  # a key given twice
    ]
    # a malformed file is an OSError that names it
    for text in malformed:
        path.write_text(text)
        with pytest.raises(OSError,
                           match="generator.txt: malformed generator record"):
            qgan.load_generator(path)
