"""Two-stage variational optimization over the three-register circuit.

The assembly mirrors the problem structure: a fixed trained generator
loads the scenario distribution, first-stage cost/mixer layers act on the
commitment register, and second-stage layers couple all registers through
the scenario-dependent phase block before mixing the dispatch register.
Because every cost layer is diagonal and the decision mixers never touch
the scenario register, the joint (scenario, first-stage) measurement
distribution factorizes exactly.  `FactorizedEvaluator` is the objective
through that factorization, never simulating the whole register.
`assemble` builds the gate-level circuit it stands for, the one `resources`
counts, and `final_state` simulates it: the tests check the evaluator, and
the paper's factorization and non-anticipativity claims, against that
state.  `optimize(evaluator, cfg, rng)` reads the register only through one
evaluator, which a caller builds once per problem for every restart.

Optimization is derivative-free, by the package's numpy port of Powell's
COBYLA (`cobyla.minimize`), from random angles in per-stage scaled
coordinates, tracking the best objective seen across all evaluations rather
than trusting the optimizer's final iterate, and rerun from that best point
until the evaluation budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .cobyla import minimize
from .config import MAX_QUBITS, QaoaConfig
from .errors import CapacityError, StructureError
from .qgan import generator_circuit, generator_probs
from .ucp import ProblemHamiltonian
from .walsh import ZPolynomial, reconstruct


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationalParams:
    gamma1: np.ndarray
    beta1: np.ndarray
    gamma2: np.ndarray
    beta2: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.gamma1, self.beta1, self.gamma2, self.beta2]
        )

    @staticmethod
    def from_vector(p1: int, p2: int, vec: np.ndarray) -> "VariationalParams":
        return VariationalParams(
            vec[:p1], vec[p1:2 * p1],
            vec[2 * p1:2 * p1 + p2], vec[2 * p1 + p2:],
        )


def random_params(p1: int, p2: int, rng: np.random.Generator) -> VariationalParams:
    """Cost angles uniform on [0, 2pi), mixer angles uniform on [0, pi)."""
    return VariationalParams(
        rng.uniform(0.0, 2 * np.pi, size=p1),
        rng.uniform(0.0, np.pi, size=p1),
        rng.uniform(0.0, 2 * np.pi, size=p2),
        rng.uniform(0.0, np.pi, size=p2),
    )


@dataclass(frozen=True)
class RunResult:
    best_params: VariationalParams
    best_objective: float
    first_stage_marginal: np.ndarray
    map_solution: tuple
    trace: np.ndarray
    runs: int  # COBYLA runs the restart took to spend its budget
    message: str  # the last run's stop reason


# ---------------------------------------------------------------------------
# circuit assembly
# ---------------------------------------------------------------------------

def _cost_terms(poly: ZPolynomial) -> list:
    """(support, coefficient) of each term in mask order, the support the
    ascending tuple of its qubits; the constant term is a global phase,
    skipped."""
    return [
        (tuple(q for q in range(mask.bit_length()) if mask >> q & 1), coef)
        for mask, coef in sorted(poly.terms.items())
        if mask != 0
    ]


def stage_layers(polys, gammas, betas, qubits) -> list:
    """The H column, then per (gamma, beta): cost layers, then the RX mixer."""
    terms = [term for poly in polys for term in _cost_terms(poly)]
    gates = [("h", (q,), None) for q in qubits]
    for gamma, beta in zip(gammas, betas):
        gates += [("zphase", support, gamma * coef) for support, coef in terms]
        gates += [("rx", (q,), -2.0 * beta) for q in qubits]
    return gates


def assemble(
    theta: np.ndarray, ham: ProblemHamiltonian, vp: VariationalParams
) -> sv.Circuit:
    """Generator block at angles ``theta`` on the layout's scenario register,
    then the first stage, then the second stage."""
    layout = ham.layout
    gates = list(generator_circuit(layout.n_xi, theta).gates)
    gates += stage_layers([ham.h1], vp.gamma1, vp.beta1,
                          layout.first_stage_qubits)
    gates += stage_layers([ham.h2_dep, ham.h2_indep], vp.gamma2, vp.beta2,
                          layout.second_stage_qubits)
    return sv.Circuit(layout.n_total, gates)


def final_state(
    theta: np.ndarray, ham: ProblemHamiltonian, vp: VariationalParams
) -> np.ndarray:
    return sv.run_circuit(assemble(theta, ham, vp))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _stage_probs(table: np.ndarray, gammas, betas) -> np.ndarray:
    """Column-wise |amplitude|^2 of one stage's layers on an m-qubit register.

    Column c of the (2^m, cols) ``table`` is the cost diagonal its own copy
    of the register sees.  Each copy starts in |+>^m; per (gamma, beta) it
    takes exp(-i gamma table[:, c]) and then RX(-2 beta) on every qubit:
    `stage_layers` on that register, H column included.  A constant down a
    column is a global phase there and drops out of |amplitude|^2.
    """
    size, cols = table.shape
    amps = np.full(table.shape, size ** -0.5, dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        amps = amps * np.exp(table * (-1j * gamma))
        c, s = np.cos(beta), 1j * np.sin(beta)  # RX(-2 beta) = c I + s X
        for q in range(size.bit_length() - 1):
            # X on qubit q swaps the two halves of axis 1
            view = amps.reshape(size >> (q + 1), 2, (1 << q) * cols)
            amps = (c * view + s * view[:, ::-1]).reshape(size, cols)
    return sv.probabilities(amps)


class FactorizedEvaluator:
    """The objective of `assemble`'s circuit without simulating the register.

    Every cost layer is diagonal and the decision mixers never touch the
    scenario register, so the joint distribution factors exactly as
    P(s) * P1(x) * |phi_{x,s}(b)|^2: P(s) is the generator's, P1 the
    first-stage register's under h1 alone, and phi_{x,s} the dispatch
    register's under the cost column of commitment x in scenario s.  The
    costs are a view of ``ham.diagonal``; P(s) and h1 are read once.
    """

    def __init__(self, theta: np.ndarray, ham: ProblemHamiltonian):
        layout = ham.layout
        if layout.n_total > MAX_QUBITS:
            raise CapacityError(
                f"{layout.n_total} qubits exceed the {MAX_QUBITS}-qubit cap"
            )
        m, n_xi = layout.n_units, layout.n_xi
        self.layout = layout
        # column x * 2^n_xi + s holds that pair's cost over b, h1(x) included:
        # a C-order view of the diagonal, so table.ravel() is the diagonal
        self.table = layout.split(ham.diagonal).reshape(2**m, -1)
        self.scenario_probs = generator_probs(n_xi, theta)
        h1 = {mask >> n_xi: c for mask, c in ham.h1.terms.items()}
        self.h1 = reconstruct(ZPolynomial(m, h1))
        # per-stage angle scales: the largest |Z coefficient| of h1 and the
        # largest dispatch spread over (x, s); 1 for a constant stage
        spread = float(np.max(np.ptp(self.table, axis=0)))
        self.scales = (
            max((abs(c) for mask, c in h1.items() if mask), default=1.0),
            spread if spread > 0 else 1.0,
        )

    def first_stage(self, vp: VariationalParams) -> np.ndarray:
        """P1: the 2^M commitment marginal."""
        return _stage_probs(self.h1[:, None], vp.gamma1, vp.beta1)[:, 0]

    def joint(self, vp: VariationalParams) -> np.ndarray:
        """P(s) * P1(x) * |phi_{x,s}(b)|^2 in the register's basis order."""
        weights = np.outer(self.first_stage(vp), self.scenario_probs)
        dispatch = _stage_probs(self.table, vp.gamma2, vp.beta2)
        return (dispatch * weights.reshape(1, -1)).ravel()

    def __call__(
        self,
        vp: VariationalParams,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """The cost's expectation, exact or as the mean of ``shots`` draws."""
        return _estimate(self.joint(vp), self.table.ravel(), shots, rng)

    def surrogate_optimum(self) -> float:
        """min_x [h1(x) + sum_s P(s) min_b E2(x, b, s)].

        The cost of a perfectly scenario-adapted recourse under the
        generator's distribution; no angles reach below it.
        """
        best = self.table.min(axis=0).reshape(len(self.h1), -1)  # (x, s)
        return float(np.min(best @ self.scenario_probs))


def _estimate(
    probs: np.ndarray,
    diag: np.ndarray,
    shots: int | None,
    rng: np.random.Generator | None,
) -> float:
    if shots is None:
        return float(probs @ diag)
    return _sample_mean(sv.sample(probs, shots, rng), diag, shots)


def _sample_mean(counts: np.ndarray, diag: np.ndarray, shots: int) -> float:
    """The mean cost of ``shots`` measurements with these outcome counts."""
    nz = np.nonzero(counts)[0]
    # a left-to-right sum over observed outcomes; ``counts @ diag`` rounds
    # differently and would change the sampled objective values
    total = np.cumsum(counts[nz] * diag[nz])[-1]
    return float(total / shots)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

COBYLA_TOL = 1e-3  # final trust-region radius, COBYLA's rho_end
COBYLA_RHOBEG = 0.6  # initial trust-region radius, COBYLA's rho_beg


def optimize(
    evaluator: FactorizedEvaluator,
    cfg: QaoaConfig,
    rng: np.random.Generator,
) -> RunResult:
    """Derivative-free search; returns the best parameters ever evaluated.

    COBYLA searches scaled angles: each stage's gamma is its physical angle
    times that stage's scale (`FactorizedEvaluator.scales`), so a unit step
    turns that stage's phases by about a radian.  Unscaled, gamma2 * E2
    reaches ~1e9 rad and the landscape in gamma2 has a period of ~1e-8, so
    COBYLA's trust region collapses long before its budget.  Everything
    this returns is in physical angles.

    A run that stops before the budget (in shots mode, noise shrinks the
    trust region to ``rhoend`` within a few hundred evaluations) is followed
    by another from the best point so far, with what is left of the budget,
    until ``cfg.maxiter`` evaluations are spent; in either mode a rerun
    evaluates its start again.  In shots mode, as the least of noisy
    estimates is biased low, the returned objective comes from a fresh draw
    at the chosen angles, which gives the marginal too.
    """
    sigma1, sigma2 = evaluator.scales
    divisor = VariationalParams(
        np.full(cfg.p1, sigma1), np.ones(cfg.p1),
        np.full(cfg.p2, sigma2), np.ones(cfg.p2)).to_vector()
    trace: list = []
    best = {"value": np.inf, "x": None}

    def fun(x: np.ndarray) -> float:
        vp = VariationalParams.from_vector(cfg.p1, cfg.p2, x / divisor)
        value = evaluator(vp, cfg.shots, rng)
        trace.append(value)
        if value < best["value"]:
            best["value"] = value
            best["x"] = x.copy()
        return value

    x, runs = random_params(cfg.p1, cfg.p2, rng).to_vector(), 0
    # a run with maxfun >= 1 calls ``fun`` at least once, so the loop ends;
    # ``minimize`` is looked up as ``qaoa.minimize`` at call time, so a
    # wrapper installed there sees every objective evaluation
    while len(trace) < cfg.maxiter:
        message = minimize(fun, x, rhobeg=COBYLA_RHOBEG, rhoend=COBYLA_TOL,
                           maxfun=cfg.maxiter - len(trace))
        runs += 1
        if best["x"] is None:
            raise StructureError(
                f"none of {len(trace)} objective evaluations was finite "
                f"({message})"
            )
        x = best["x"]
    vp_best = VariationalParams.from_vector(cfg.p1, cfg.p2, x / divisor)

    if cfg.shots is None:
        marginal = evaluator.first_stage(vp_best)
        objective = best["value"]
    else:
        counts = sv.sample(evaluator.joint(vp_best), cfg.shots, rng)
        marginal = evaluator.layout.split(counts).sum(axis=(0, 2)) / cfg.shots
        objective = _sample_mean(counts, evaluator.table.ravel(), cfg.shots)
    return RunResult(
        best_params=vp_best,
        best_objective=objective,
        first_stage_marginal=marginal,
        map_solution=map_solution(marginal),
        trace=np.asarray(trace),
        runs=runs,
        message=message,
    )


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def map_solution(marginal: np.ndarray) -> tuple:
    """Most probable commitment of a 2^units marginal; ties go to the first."""
    size = len(marginal)
    k = int(np.argmax(marginal))  # argmax returns the first (smallest) tie
    return tuple((k >> j) & 1 for j in range(size.bit_length() - 1))
