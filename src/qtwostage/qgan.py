"""Adversarial training of the scenario-loading circuit.

The generator is a TwoLocal circuit (H column, then alternating RY and
CZ-chain layers, one CZ chain per qubit) whose measurement distribution
should match a binned scenario distribution.  The discriminator is a small
dense network that reads a whole probability vector and scores how likely
it is to be real data.  Both are trained with Adam on the standard
non-saturating cross-entropy pair; the generator gradient flows through
the parameter-shift rule chained with the discriminator's input gradient.
Its shifted angle sets run as one batched simulation of the same ansatz.
Every product is an ``np.einsum`` contraction in numpy's own loops, so no
trained angle depends on which BLAS kernel the CPU selects.

Model selection keeps the epoch with the best mean training agreement
(1 - Jensen-Shannon divergence), not the final epoch, and only then scores
that epoch on the test distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .config import TrainConfig, read_text
from .scenarios import js_agreement

BATCH_AMPS = 2**22  # amplitudes one batched generator run may hold: 64 MiB


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def generator_circuit(n_xi: int, theta: np.ndarray) -> sv.Circuit:
    """H column, RY layer, then n_xi x (CZ chain, RY layer): the ansatz
    depth is the register width, so ``theta`` holds n_xi * (n_xi + 1)
    angles, or that many rows with one column per circuit."""
    gates = [("h", (q,), None) for q in range(n_xi)]
    for layer in range(n_xi + 1):
        if layer:
            gates += [("cz", (q, q + 1), None) for q in range(n_xi - 1)]
        gates += [("ry", (q,), theta[layer * n_xi + q]) for q in range(n_xi)]
    return sv.Circuit(n_xi, gates)


def _measure(probs: np.ndarray, shots: int | None, rng) -> np.ndarray:
    """``probs`` itself, or its empirical frequencies at ``shots``."""
    return probs if shots is None else sv.sample(probs, shots, rng) / shots


def generator_probs(n_xi: int, theta: np.ndarray, shots: int | None = None,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Exact output distribution, or empirical frequencies at `shots`; a 2-D
    ``theta`` gives one row per column, sampled in column order."""
    amps = np.tile(sv.new_zero_state(n_xi), (*theta.shape[1:], 1))
    probs = sv.probabilities(sv.run_circuit(generator_circuit(n_xi, theta),
                                            amps))
    return _measure(probs, shots, rng)


# ---------------------------------------------------------------------------
# discriminator: dense [N, 50, 50, 1], leaky rectifier 0.2, logistic output
# ---------------------------------------------------------------------------

_LEAK = 0.2


class Discriminator:
    """Probability vectors carry entries of size ~1/N, so inputs are scaled
    by N to keep the first layer well conditioned at any register width."""

    def __init__(self, n_inputs: int, rng: np.random.Generator):
        widths = [n_inputs, 50, 50, 1]
        self.input_scale = float(n_inputs)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    def parameters(self) -> list:
        return [*self.weights, *self.biases]

    def _forward(self, p: np.ndarray):
        """(inputs of every layer, hidden pre-activations, output logit)."""
        a = np.asarray(p, dtype=float) * self.input_scale
        acts = [a]
        pre = []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = np.einsum("ij,j->i", w, a) + b
            pre.append(z)
            a = np.where(z > 0, z, _LEAK * z)
            acts.append(a)
        logit = np.einsum("ij,j->i", self.weights[-1], a) + self.biases[-1]
        return acts, pre, float(logit[0])

    def backward(self, p: np.ndarray, target: float):
        """Gradients of BCE(D(p), target) w.r.t. weights and the input.

        Returns ([dW..., db...], dp) in the ordering of parameters().
        """
        acts, pre, logit = self._forward(p)

        # d(BCE)/d(logit) is sigmoid(logit) - target, numerically stable
        delta = np.array([_sigmoid(logit) - target])
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        grads_w[-1] = np.outer(delta, acts[-1])
        grads_b[-1] = delta.copy()
        back = np.einsum("ij,i->j", self.weights[-1], delta)
        for layer in range(len(self.weights) - 2, -1, -1):
            back = back * np.where(pre[layer] > 0, 1.0, _LEAK)
            grads_w[layer] = np.outer(back, acts[layer])
            grads_b[layer] = back.copy()
            back = np.einsum("ij,i->j", self.weights[layer], back)
        return [*grads_w, *grads_b], back * self.input_scale


def _sigmoid(z: float) -> float:
    # math.exp: numpy's float64 exp differs between its AVX-512 and AVX2 loops
    e = math.exp(-abs(z))
    return 1.0 / (1.0 + e) if z >= 0 else e / (1.0 + e)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

_B1, _B2, _EPS = 0.9, 0.999, 1e-8  # decay rates and stabiliser


class Adam:
    def __init__(self, params: list, lr: float):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list, grads: list) -> None:
        """Update parameter arrays in place."""
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= _B1
            m += (1 - _B1) * g
            v *= _B2
            v += (1 - _B2) * g * g
            m_hat = m / (1 - _B1**self.t)
            v_hat = v / (1 - _B2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


# ---------------------------------------------------------------------------
# generator gradient via the parameter-shift rule
# ---------------------------------------------------------------------------

def probability_jacobian(n_xi: int, theta: np.ndarray,
                         shots: int | None = None,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """d p_s / d theta_j by the parameter-shift rule; shape (params, 2^n).

    The angle sets theta_0 + pi/2, theta_0 - pi/2, theta_1 + pi/2, ... run
    in that order, batched up to ``BATCH_AMPS`` amplitudes per run.
    """
    n = len(theta)
    angles = np.repeat(theta[:, None], 2 * n, axis=1)
    angles[range(n), range(0, 2 * n, 2)] += np.pi / 2
    angles[range(n), range(1, 2 * n, 2)] -= np.pi / 2
    rows = max(1, BATCH_AMPS >> n_xi)
    probs = np.concatenate([
        generator_probs(n_xi, angles[:, i:i + rows], shots, rng)
        for i in range(0, 2 * n, rows)])
    return (probs[0::2] - probs[1::2]) / 2.0


def generator_gradient(n_xi: int, theta: np.ndarray, disc: Discriminator,
                       p: np.ndarray, shots: int | None = None,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Gradient of -log D(p_theta) w.r.t. theta at the observed p; ``shots``
    and ``rng`` read the Jacobian's circuits as in ``generator_probs``."""
    _, input_grad = disc.backward(p, 1.0)  # BCE with target 1 == -log D
    jacobian = probability_jacobian(n_xi, theta, shots, rng)
    return np.einsum("js,s->j", jacobian, input_grad)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainedGenerator:
    n_xi: int
    theta: np.ndarray
    best_epoch: int
    train_score: float
    test_score: float


def train(
    target_train: list,
    target_test: list,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainedGenerator:
    """Adversarial training; keeps the epoch of best training agreement."""
    size = len(target_train[0])
    n_xi = size.bit_length() - 1

    theta = rng.uniform(-cfg.init_scale, cfg.init_scale, size=n_xi * (n_xi + 1))
    disc = Discriminator(size, rng)
    opt_d = Adam(disc.parameters(), cfg.lr_d)
    opt_g = Adam([theta], cfg.lr_g)

    best = {"score": -1.0, "epoch": -1, "theta": theta.copy(), "probs": None}

    def evaluate(epoch: int) -> np.ndarray:  # theta's exact distribution
        p_exact = generator_probs(n_xi, theta)
        score = float(np.mean([js_agreement(p_exact, t) for t in target_train]))
        if score > best["score"]:
            best.update(score=score, epoch=epoch, theta=theta.copy(),
                        probs=p_exact)
        return p_exact

    for epoch in range(cfg.epochs):
        p_exact = evaluate(epoch)

        target = target_train[int(rng.integers(len(target_train)))]
        # measured from the distribution `evaluate` already simulated at theta
        fake = _measure(p_exact, cfg.shots, rng)

        grads_real, _ = disc.backward(np.asarray(target, dtype=float), 1.0)
        grads_fake, _ = disc.backward(fake, 0.0)
        opt_d.step(disc.parameters(),
                   [gr + gf for gr, gf in zip(grads_real, grads_fake)])

        grad = generator_gradient(n_xi, theta, disc, fake, cfg.shots, rng)
        opt_g.step([theta], [grad])

    evaluate(cfg.epochs)
    test_score = np.mean([js_agreement(best["probs"], t) for t in target_test])
    return TrainedGenerator(n_xi, best["theta"], best["epoch"], best["score"],
                            float(test_score))


# ---------------------------------------------------------------------------
# flat text serialization
# ---------------------------------------------------------------------------

# the record's keys, in the order `save_generator` writes them
_RECORD_KEYS = ("n_xi", "reps", "best_epoch", "train_score", "test_score",
                "theta")


def save_generator(gen: TrainedGenerator, path) -> None:
    """One ``key = value`` line per key; reps, the ansatz depth, is n_xi."""
    values = (gen.n_xi, gen.n_xi, gen.best_epoch, repr(gen.train_score),
              repr(gen.test_score), ",".join(repr(float(t)) for t in gen.theta))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in zip(_RECORD_KEYS, values))


def load_generator(path) -> TrainedGenerator:
    """`save_generator`'s record, each key once; a malformed file is an
    OSError naming it, like any bad data file."""
    fields = {}
    try:
        for line in read_text(path).splitlines():
            if not line.strip():
                continue
            # a line without "=" is all key: unknown, or empty-valued, which
            # then fails to parse
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _RECORD_KEYS or key in fields:
                raise ValueError(f"unexpected line {line.strip()!r}")
            fields[key] = value
        n_xi = int(fields["n_xi"])
        if n_xi < 1:
            raise ValueError("generator needs n_xi >= 1")
        if int(fields["reps"]) != n_xi:
            raise ValueError(f"reps must equal n_xi = {n_xi}")
        theta = np.array([float(v) for v in fields["theta"].split(",")])
        if len(theta) != n_xi * (n_xi + 1):
            raise ValueError(f"theta must have length {n_xi * (n_xi + 1)}, "
                             f"got {len(theta)}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("generator angles must be finite")
        return TrainedGenerator(n_xi, theta, int(fields["best_epoch"]),
                                float(fields["train_score"]),
                                float(fields["test_score"]))
    except (KeyError, ValueError) as err:
        raise OSError(f"{path}: malformed generator record: {err}") from err
