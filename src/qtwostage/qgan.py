"""Adversarial training of the scenario-loading circuit.

The generator is a TwoLocal circuit (H column, then alternating RY and
CZ-chain layers) whose measurement distribution should match a binned
scenario distribution.  The discriminator is a small dense network that
reads a whole probability vector and scores how likely it is to be real
data.  Both are trained with Adam on the standard non-saturating
cross-entropy pair; the generator gradient flows through the
parameter-shift rule chained with the discriminator's input gradient.

Model selection keeps the epoch with the best mean test agreement
(1 - Jensen-Shannon divergence) rather than the final epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import statevec as sv
from .errors import StructureError
from .scenarios import js_agreement


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    n_xi: int
    reps: int
    theta: np.ndarray

    def __post_init__(self):
        if self.n_xi < 1 or self.reps < 0:
            raise StructureError("generator needs n_xi >= 1 and reps >= 0")
        want = self.n_xi * (self.reps + 1)
        if len(self.theta) != want:
            raise StructureError(
                f"theta must have length {want}, got {len(self.theta)}"
            )


def default_spec(n_xi: int, theta: np.ndarray | None = None) -> GeneratorSpec:
    """Layer count tied to the register width; zero angles by default."""
    if theta is None:
        theta = np.zeros(n_xi * (n_xi + 1))
    return GeneratorSpec(n_xi, n_xi, np.asarray(theta, dtype=float))


def generator_circuit(spec: GeneratorSpec) -> sv.Circuit:
    """H column, RY layer, then reps x (CZ chain, RY layer)."""
    gates = [sv.H(q) for q in range(spec.n_xi)]
    k = 0
    for q in range(spec.n_xi):
        gates.append(sv.RY(q, spec.theta[k]))
        k += 1
    for _ in range(spec.reps):
        for q in range(spec.n_xi - 1):
            gates.append(sv.CZ(q, q + 1))
        for q in range(spec.n_xi):
            gates.append(sv.RY(q, spec.theta[k]))
            k += 1
    return sv.Circuit(spec.n_xi, gates)


def generator_state(spec: GeneratorSpec) -> sv.StateVector:
    return sv.run_circuit(generator_circuit(spec))


def generator_probs(
    spec: GeneratorSpec,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Exact output distribution, or empirical frequencies at `shots`."""
    state = generator_state(spec)
    if shots is None:
        return sv.probabilities(state)
    if rng is None:
        raise StructureError("sampled mode needs an rng")
    return sv.sample(state, shots, rng) / shots


# ---------------------------------------------------------------------------
# discriminator: dense [N, 50, 50, 1], leaky rectifier 0.2, logistic output
# ---------------------------------------------------------------------------

_LEAK = 0.2


class Discriminator:
    """Probability vectors carry entries of size ~1/N, so inputs are scaled
    by N to keep the first layer well conditioned at any register width."""

    def __init__(self, n_inputs: int, rng: np.random.Generator,
                 hidden: tuple = (50, 50)):
        widths = [n_inputs, *hidden, 1]
        self.input_scale = float(n_inputs)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    def parameters(self) -> list:
        return [*self.weights, *self.biases]

    def forward_logit(self, p: np.ndarray) -> float:
        a = np.asarray(p, dtype=float) * self.input_scale
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = w @ a + b
            a = np.where(z > 0, z, _LEAK * z)
        return float((self.weights[-1] @ a + self.biases[-1])[0])

    def forward(self, p: np.ndarray) -> float:
        return float(_sigmoid(self.forward_logit(p)))

    def backward(self, p: np.ndarray, target: float):
        """Gradients of BCE(D(p), target) w.r.t. weights and the input.

        Returns ([dW..., db...], dp) in the ordering of parameters().
        """
        a = np.asarray(p, dtype=float) * self.input_scale
        acts = [a]
        pre = []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = w @ a + b
            pre.append(z)
            a = np.where(z > 0, z, _LEAK * z)
            acts.append(a)
        logit = float((self.weights[-1] @ a + self.biases[-1])[0])

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
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def bce_loss(output: float, target: float) -> float:
    eps = 1e-12
    return -(target * np.log(output + eps)
             + (1.0 - target) * np.log(1.0 - output + eps))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    def __init__(self, params: list, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list, grads: list) -> None:
        """Update parameter arrays in place."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# generator gradient via the parameter-shift rule
# ---------------------------------------------------------------------------

def probability_jacobian(spec: GeneratorSpec,
                         probs=generator_probs) -> np.ndarray:
    """d p_s / d theta_j by the parameter-shift rule; shape (params, 2^n).

    ``probs`` maps a spec to its output distribution, exact by default.
    """
    shift = np.pi / 2
    jac = np.empty((len(spec.theta), 2**spec.n_xi))
    for j in range(len(spec.theta)):
        plus = spec.theta.copy()
        plus[j] += shift
        minus = spec.theta.copy()
        minus[j] -= shift
        p_plus = probs(GeneratorSpec(spec.n_xi, spec.reps, plus))
        p_minus = probs(GeneratorSpec(spec.n_xi, spec.reps, minus))
        jac[j] = (p_plus - p_minus) / 2.0
    return jac


def generator_gradient(spec: GeneratorSpec, disc: Discriminator) -> np.ndarray:
    """Gradient of -log D(p_theta) w.r.t. theta."""
    p = generator_probs(spec)
    _, input_grad = disc.backward(p, 1.0)  # BCE with target 1 == -log D
    return probability_jacobian(spec) @ input_grad


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    lr_g: float = 0.002
    lr_d: float = 0.002
    shots: int = 10_000
    use_shots: bool = False
    init_scale: float = 0.1


@dataclass(frozen=True)
class TrainedGenerator:
    theta_star: np.ndarray
    n_xi: int
    reps: int
    best_epoch: int
    train_score: float
    test_score: float

    def spec(self) -> GeneratorSpec:
        return GeneratorSpec(self.n_xi, self.reps, self.theta_star)


def _check_targets(targets, size: int) -> None:
    for t in targets:
        if len(t) != size:
            raise StructureError("all targets must have length 2^n_xi")
        if abs(float(np.sum(t)) - 1.0) > 1e-9 or np.any(np.asarray(t) < -1e-12):
            raise StructureError("targets must be normalized distributions")


def train(
    target_train: list,
    target_test: list,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> TrainedGenerator:
    """Adversarial training; returns the epoch with the best test agreement."""
    if not target_train or not target_test:
        raise StructureError("need at least one train and one test target")
    size = len(target_train[0])
    if size < 2 or size & (size - 1):
        raise StructureError("target length must be a power of two")
    _check_targets(target_train, size)
    _check_targets(target_test, size)
    n_xi = size.bit_length() - 1
    reps = n_xi

    theta = rng.uniform(-cfg.init_scale, cfg.init_scale, size=n_xi * (reps + 1))
    disc = Discriminator(size, rng)
    opt_d = Adam(disc.parameters(), cfg.lr_d)
    opt_g = Adam([theta], cfg.lr_g)

    def observed_probs(spec):
        if cfg.use_shots:
            return generator_probs(spec, shots=cfg.shots, rng=rng)
        return generator_probs(spec)

    best = {"score": -1.0, "epoch": -1, "theta": theta.copy(), "train": 0.0}

    def evaluate(epoch: int) -> None:
        p_exact = generator_probs(GeneratorSpec(n_xi, reps, theta))
        score = float(np.mean([js_agreement(p_exact, t) for t in target_test]))
        if score > best["score"]:
            train_score = float(
                np.mean([js_agreement(p_exact, t) for t in target_train])
            )
            best.update(
                score=score, epoch=epoch, theta=theta.copy(), train=train_score
            )

    for epoch in range(cfg.epochs):
        evaluate(epoch)

        spec = GeneratorSpec(n_xi, reps, theta)
        target = target_train[int(rng.integers(len(target_train)))]
        fake = observed_probs(spec)

        grads_real, _ = disc.backward(np.asarray(target, dtype=float), 1.0)
        grads_fake, _ = disc.backward(fake, 0.0)
        opt_d.step(disc.parameters(),
                   [gr + gf for gr, gf in zip(grads_real, grads_fake)])

        _, input_grad = disc.backward(fake, 1.0)
        grad = probability_jacobian(spec, observed_probs) @ input_grad
        opt_g.step([theta], [grad])

    evaluate(cfg.epochs)
    return TrainedGenerator(
        best["theta"], n_xi, reps, best["epoch"], best["train"], best["score"]
    )


# ---------------------------------------------------------------------------
# flat text serialization
# ---------------------------------------------------------------------------

def generator_to_text(gen: TrainedGenerator) -> str:
    lines = [
        f"n_xi = {gen.n_xi}",
        f"reps = {gen.reps}",
        f"best_epoch = {gen.best_epoch}",
        f"train_score = {gen.train_score!r}",
        f"test_score = {gen.test_score!r}",
        "theta = " + ",".join(repr(float(t)) for t in gen.theta_star),
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
        theta = np.array([float(v) for v in fields["theta"].split(",")])
        return TrainedGenerator(
            theta_star=theta,
            n_xi=int(fields["n_xi"]),
            reps=int(fields["reps"]),
            best_epoch=int(fields["best_epoch"]),
            train_score=float(fields["train_score"]),
            test_score=float(fields["test_score"]),
        )
    except (KeyError, ValueError) as err:
        raise StructureError(f"malformed generator record: {err}") from err


def save_generator(gen: TrainedGenerator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(generator_to_text(gen))


def load_generator(path) -> TrainedGenerator:
    with open(path, encoding="utf-8") as fh:
        return generator_from_text(fh.read())
