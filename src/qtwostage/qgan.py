"""Adversarial training of the scenario-loading circuit.

The generator is a TwoLocal circuit (H column, then alternating RY and
CZ-chain layers, one CZ chain per qubit) whose measurement distribution
should match a binned scenario distribution.  The discriminator is a small
dense network that reads a whole probability vector and scores how likely
it is to be real data.  Both are trained with Adam on the standard
non-saturating cross-entropy pair; the generator gradient flows through
the parameter-shift rule chained with the discriminator's input gradient.
Its shifted angle sets run as one batched simulation of the same ansatz.

Model selection keeps the epoch with the best mean test agreement
(1 - Jensen-Shannon divergence) rather than the final epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .config import TrainConfig, read_text
from .errors import StructureError
from .scenarios import js_agreement

BATCH_AMPS = 2**22  # amplitudes one batched generator run may hold: 64 MiB


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """Angles of the n_xi-qubit ansatz, whose depth is n_xi CZ-chain layers:
    one set, or a 2-D ``theta`` holding one column per circuit."""

    n_xi: int
    theta: np.ndarray

    def __post_init__(self):
        if self.n_xi < 1:
            raise StructureError("generator needs n_xi >= 1")
        want = self.n_xi * (self.n_xi + 1)
        if len(self.theta) != want:
            raise StructureError(
                f"theta must have length {want}, got {len(self.theta)}"
            )


def default_spec(n_xi: int) -> GeneratorSpec:
    """Zero angles."""
    return GeneratorSpec(n_xi, np.zeros(n_xi * (n_xi + 1)))


def generator_circuit(spec: GeneratorSpec) -> sv.Circuit:
    """H column, RY layer, then n_xi x (CZ chain, RY layer)."""
    n = spec.n_xi
    gates = [("h", (q,), None) for q in range(n)]
    for layer in range(n + 1):
        if layer:
            gates += [("cz", (q, q + 1), None) for q in range(n - 1)]
        gates += [("ry", (q,), spec.theta[layer * n + q]) for q in range(n)]
    return sv.Circuit(n, gates)


def _measure(probs: np.ndarray, shots: int | None, rng) -> np.ndarray:
    """``probs`` itself, or its empirical frequencies at ``shots``."""
    return probs if shots is None else sv.sample(probs, shots, rng) / shots


def generator_probs(spec: GeneratorSpec, shots: int | None = None,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Exact output distribution, or empirical frequencies at `shots`; a 2-D
    ``spec.theta`` gives one row per column, sampled in column order."""
    amps = np.tile(sv.new_zero_state(spec.n_xi), (*spec.theta.shape[1:], 1))
    probs = sv.probabilities(sv.run_circuit(generator_circuit(spec), amps))
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
            z = w @ a + b
            pre.append(z)
            a = np.where(z > 0, z, _LEAK * z)
            acts.append(a)
        return acts, pre, float((self.weights[-1] @ a + self.biases[-1])[0])

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
        back = self.weights[-1].T @ delta
        for layer in range(len(self.weights) - 2, -1, -1):
            back = back * np.where(pre[layer] > 0, 1.0, _LEAK)
            grads_w[layer] = np.outer(back, acts[layer])
            grads_b[layer] = back.copy()
            back = self.weights[layer].T @ back
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

def probability_jacobian(spec: GeneratorSpec, shots: int | None = None,
                         rng: np.random.Generator | None = None) -> np.ndarray:
    """d p_s / d theta_j by the parameter-shift rule; shape (params, 2^n).

    The angle sets theta_0 + pi/2, theta_0 - pi/2, theta_1 + pi/2, ... run
    in that order, batched up to ``BATCH_AMPS`` amplitudes per run.
    """
    n = len(spec.theta)
    angles = np.repeat(spec.theta[:, None], 2 * n, axis=1)
    angles[range(n), range(0, 2 * n, 2)] += np.pi / 2
    angles[range(n), range(1, 2 * n, 2)] -= np.pi / 2
    rows = max(1, BATCH_AMPS >> spec.n_xi)
    probs = np.concatenate([
        generator_probs(GeneratorSpec(spec.n_xi, angles[:, i:i + rows]),
                        shots, rng) for i in range(0, 2 * n, rows)])
    return (probs[0::2] - probs[1::2]) / 2.0


def generator_gradient(spec: GeneratorSpec, disc: Discriminator,
                       p: np.ndarray, shots: int | None = None,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """Gradient of -log D(p_theta) w.r.t. theta at the observed p; ``shots``
    and ``rng`` read the Jacobian's circuits as in ``generator_probs``."""
    _, input_grad = disc.backward(p, 1.0)  # BCE with target 1 == -log D
    return probability_jacobian(spec, shots, rng) @ input_grad


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainedGenerator:
    spec: GeneratorSpec
    best_epoch: int
    train_score: float
    test_score: float


def train(
    target_train: list,
    target_test: list,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainedGenerator:
    """Adversarial training; returns the epoch with the best test agreement."""
    size = len(target_train[0])
    n_xi = size.bit_length() - 1

    theta = rng.uniform(-cfg.init_scale, cfg.init_scale, size=n_xi * (n_xi + 1))
    disc = Discriminator(size, rng)
    opt_d = Adam(disc.parameters(), cfg.lr_d)
    opt_g = Adam([theta], cfg.lr_g)

    best = {"score": -1.0, "epoch": -1, "theta": theta.copy(), "train": 0.0}

    def evaluate(epoch: int) -> np.ndarray:  # theta's exact distribution
        p_exact = generator_probs(GeneratorSpec(n_xi, theta))
        score = float(np.mean([js_agreement(p_exact, t) for t in target_test]))
        if score > best["score"]:
            train_score = float(
                np.mean([js_agreement(p_exact, t) for t in target_train])
            )
            best.update(
                score=score, epoch=epoch, theta=theta.copy(), train=train_score
            )
        return p_exact

    for epoch in range(cfg.epochs):
        p_exact = evaluate(epoch)

        spec = GeneratorSpec(n_xi, theta)
        target = target_train[int(rng.integers(len(target_train)))]
        # measured from the distribution `evaluate` already simulated at theta
        fake = _measure(p_exact, cfg.shots, rng)

        grads_real, _ = disc.backward(np.asarray(target, dtype=float), 1.0)
        grads_fake, _ = disc.backward(fake, 0.0)
        opt_d.step(disc.parameters(),
                   [gr + gf for gr, gf in zip(grads_real, grads_fake)])

        grad = generator_gradient(spec, disc, fake, cfg.shots, rng)
        opt_g.step([theta], [grad])

    evaluate(cfg.epochs)
    return TrainedGenerator(GeneratorSpec(n_xi, best["theta"]),
                            best["epoch"], best["train"], best["score"])


# ---------------------------------------------------------------------------
# flat text serialization
# ---------------------------------------------------------------------------

def generator_to_text(gen: TrainedGenerator) -> str:
    lines = [
        f"n_xi = {gen.spec.n_xi}",
        f"reps = {gen.spec.n_xi}",  # the ansatz depth
        f"best_epoch = {gen.best_epoch}",
        f"train_score = {gen.train_score!r}",
        f"test_score = {gen.test_score!r}",
        "theta = " + ",".join(repr(float(t)) for t in gen.spec.theta),
    ]
    return "\n".join(lines) + "\n"


def generator_from_text(text: str) -> TrainedGenerator:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        n_xi = int(fields["n_xi"])
        if int(fields["reps"]) != n_xi:
            raise StructureError(f"reps must equal n_xi = {n_xi}")
        theta = np.array([float(v) for v in fields["theta"].split(",")])
        if not np.all(np.isfinite(theta)):
            raise StructureError("generator angles must be finite")
        return TrainedGenerator(
            spec=GeneratorSpec(n_xi, theta),
            best_epoch=int(fields["best_epoch"]),
            train_score=float(fields["train_score"]),
            test_score=float(fields["test_score"]),
        )
    except (KeyError, ValueError) as err:  # StructureError is a ValueError
        raise StructureError(f"malformed generator record: {err}") from err


def save_generator(gen: TrainedGenerator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(generator_to_text(gen))


def load_generator(path) -> TrainedGenerator:
    """A malformed file is an OSError naming it, like any bad data file."""
    try:
        return generator_from_text(read_text(path))
    except StructureError as exc:
        raise OSError(f"{path}: {exc}") from exc
