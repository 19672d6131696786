"""Two-stage variational optimization over the three-register circuit.

The assembly mirrors the problem structure: a fixed trained generator
loads the scenario distribution, first-stage cost/mixer layers act on the
commitment register, and second-stage layers couple all registers through
the scenario-dependent phase block before mixing the dispatch register.
Because every cost layer is diagonal and the decision mixers never touch
the scenario register, the joint (scenario, first-stage) measurement
distribution factorizes exactly; `verify_prop1` and
`verify_nonanticipativity` check the two consequences numerically.

Optimization is derivative-free (COBYLA) from random angles, tracking the
best objective seen across all evaluations rather than trusting the
optimizer's final iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import statevec as sv
from .errors import StructureError
from .qgan import TrainedGenerator, generator_circuit, generator_probs
from .ucp import (
    ProblemHamiltonian,
    RegisterLayout,
    UcpParams,
    classical_surrogate,
)
from .walsh import ZPolynomial, fwht_expand, reconstruct


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationalParams:
    gamma1: np.ndarray
    beta1: np.ndarray
    gamma2: np.ndarray
    beta2: np.ndarray

    def __post_init__(self):
        g1, b1 = np.atleast_1d(self.gamma1), np.atleast_1d(self.beta1)
        g2, b2 = np.atleast_1d(self.gamma2), np.atleast_1d(self.beta2)
        object.__setattr__(self, "gamma1", np.asarray(g1, dtype=float))
        object.__setattr__(self, "beta1", np.asarray(b1, dtype=float))
        object.__setattr__(self, "gamma2", np.asarray(g2, dtype=float))
        object.__setattr__(self, "beta2", np.asarray(b2, dtype=float))
        if len(self.gamma1) != len(self.beta1) or \
                len(self.gamma2) != len(self.beta2):
            raise StructureError("cost and mixer angle counts must match")
        for arr in (self.gamma1, self.beta1, self.gamma2, self.beta2):
            if not np.all(np.isfinite(arr)):
                raise StructureError("angles must be finite")

    @property
    def p1(self) -> int:
        return len(self.gamma1)

    @property
    def p2(self) -> int:
        return len(self.gamma2)

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.gamma1, self.beta1, self.gamma2, self.beta2]
        )

    @staticmethod
    def from_vector(p1: int, p2: int, vec: np.ndarray) -> "VariationalParams":
        vec = np.asarray(vec, dtype=float)
        if len(vec) != 2 * (p1 + p2):
            raise StructureError(
                f"expected {2 * (p1 + p2)} angles, got {len(vec)}"
            )
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
class QaoaConfig:
    p1: int = 4
    p2: int = 4
    shots: int | None = None  # None = exact statevector evaluation
    maxiter: int = 400  # objective-evaluation budget
    tol: float = 1e-3
    rhobeg: float = 0.6

    def __post_init__(self):
        if self.p1 < 1 or self.p2 < 1:
            raise StructureError("layer depths must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise StructureError("shots must be >= 1 when given")
        if self.maxiter < 1:
            raise StructureError("maxiter must be >= 1")


@dataclass(frozen=True)
class RunResult:
    best_params: VariationalParams
    best_objective: float
    first_stage_marginal: np.ndarray
    map_solution: tuple
    trace: np.ndarray


# ---------------------------------------------------------------------------
# circuit assembly
# ---------------------------------------------------------------------------

def _cost_gates(poly: ZPolynomial, gamma: float) -> list:
    """One diagonal cost layer; the constant term is a global phase, skipped."""
    return [
        sv.ZPhase(mask, gamma * coef)
        for mask, coef in sorted(poly.terms.items())
        if mask != 0
    ]


def stage_layers(polys, gammas, betas, qubits) -> list:
    """Per (gamma, beta): the cost layers of ``polys``, then the RX mixer."""
    gates: list = []
    for gamma, beta in zip(gammas, betas):
        for poly in polys:
            gates.extend(_cost_gates(poly, gamma))
        gates.extend(sv.RX(q, -2.0 * beta) for q in qubits)
    return gates


def assemble(
    gen: TrainedGenerator,
    ham: ProblemHamiltonian,
    vp: VariationalParams,
    layout: RegisterLayout,
) -> sv.Circuit:
    """Generator block, then first-stage layers, then second-stage layers."""
    if gen.n_xi != layout.n_xi:
        raise StructureError(
            f"generator register ({gen.n_xi}) does not match layout "
            f"({layout.n_xi})"
        )
    if ham.h1.n_qubits != layout.n_total:
        raise StructureError("hamiltonian register does not match layout")

    gates = list(generator_circuit(gen.spec()).gates)
    for q in layout.first_stage_qubits:
        gates.append(sv.H(q))
    for q in layout.second_stage_qubits:
        gates.append(sv.H(q))
    gates += stage_layers([ham.h1], vp.gamma1, vp.beta1,
                          layout.first_stage_qubits)
    gates += stage_layers([ham.h2_dep, ham.h2_indep], vp.gamma2, vp.beta2,
                          layout.second_stage_qubits)
    return sv.Circuit(layout.n_total, gates)


def final_state(
    gen: TrainedGenerator,
    ham: ProblemHamiltonian,
    vp: VariationalParams,
    layout: RegisterLayout,
) -> sv.StateVector:
    return sv.run_circuit(assemble(gen, ham, vp, layout))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _estimate(
    state: sv.StateVector,
    diag: np.ndarray,
    shots: int | None,
    rng: np.random.Generator | None,
) -> float:
    if shots is None:
        return sv.expectation_diagonal(state, diag)
    if rng is None:
        raise StructureError("shots mode needs an rng")
    counts = sv.sample(state, shots, rng)
    nz = np.nonzero(counts)[0]
    # a left-to-right sum over observed outcomes; ``counts @ diag`` rounds
    # differently and would change the sampled objective values
    total = sum(counts[nz] * diag[nz])
    return float(total / shots)


def objective(
    gen: TrainedGenerator,
    ham: ProblemHamiltonian,
    vp: VariationalParams,
    layout: RegisterLayout,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Expectation of the full diagonal cost over the assembled state."""
    state = final_state(gen, ham, vp, layout)
    return _estimate(state, reconstruct(ham.total()), shots, rng)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def optimize(
    gen: TrainedGenerator,
    ham: ProblemHamiltonian,
    layout: RegisterLayout,
    cfg: QaoaConfig,
    rng: np.random.Generator,
) -> RunResult:
    """Derivative-free search; returns the best parameters ever evaluated."""
    diag = reconstruct(ham.total())
    trace: list = []
    best = {"value": np.inf, "x": None}

    def fun(x: np.ndarray) -> float:
        vp = VariationalParams.from_vector(cfg.p1, cfg.p2, x)
        state = final_state(gen, ham, vp, layout)
        value = _estimate(state, diag, cfg.shots, rng)
        trace.append(value)
        if value < best["value"]:
            best["value"] = value
            best["x"] = np.asarray(x, dtype=float).copy()
        return value

    x0 = random_params(cfg.p1, cfg.p2, rng).to_vector()
    minimize(
        fun, x0, method="COBYLA", tol=cfg.tol,
        options={"maxiter": cfg.maxiter, "rhobeg": cfg.rhobeg},
    )

    vp_best = VariationalParams.from_vector(cfg.p1, cfg.p2, best["x"])
    state = final_state(gen, ham, vp_best, layout)
    if cfg.shots is None:
        marginal = sv.marginal_probs(sv.probabilities(state),
                                     layout.first_stage_qubits)
    else:
        counts = sv.sample(state, cfg.shots, rng)
        marginal = (sv.marginal_probs(counts, layout.first_stage_qubits)
                    / cfg.shots)
    return RunResult(
        best_params=vp_best,
        best_objective=best["value"],
        first_stage_marginal=marginal,
        map_solution=map_solution(marginal, layout),
        trace=np.asarray(trace),
    )


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def map_solution(marginal: np.ndarray, layout: RegisterLayout) -> tuple:
    """Most probable first-stage outcome; ties go to the smallest index."""
    if len(marginal) != 2**layout.n_units:
        raise StructureError(
            f"marginal length {len(marginal)} does not match "
            f"{layout.n_units} units"
        )
    k = int(np.argmax(marginal))  # argmax returns the first (smallest) tie
    return tuple((k >> j) & 1 for j in range(layout.n_units))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def verify_prop1(
    gen: TrainedGenerator,
    params: UcpParams,
    layout: RegisterLayout,
    xi_min: float,
    xi_max: float,
    ham: ProblemHamiltonian,
    vp: VariationalParams,
) -> float:
    """|full-circuit expectation - factorized recomputation|.

    The factorized side never builds the joint circuit: first-stage
    amplitudes come from a first-stage-only circuit, scenario weights from
    the generator alone, and each second-stage value from an independently
    simulated dispatch-register circuit with the commitment bits and the
    scenario value substituted as plain numbers.
    """
    n_xi, m = layout.n_xi, layout.n_units

    lhs = objective(gen, ham, vp, layout)

    # first-stage-only circuit on an M-qubit register
    h1_local = ZPolynomial(
        m, {mask >> n_xi: c for mask, c in ham.h1.terms.items() if mask != 0}
    )
    gates1 = [sv.H(q) for q in range(m)]
    gates1 += stage_layers([h1_local], vp.gamma1, vp.beta1, range(m))
    first_probs = sv.probabilities(sv.run_circuit(sv.Circuit(m, gates1)))

    scenario_probs = generator_probs(gen.spec())
    grid = np.linspace(xi_min, xi_max, 2**n_xi)

    rhs = 0.0
    for k in range(2**m):
        x = tuple((k >> i) & 1 for i in range(m))
        h1_val = sum(params.startup_cost[i] * x[i] for i in range(m))
        expected_second = 0.0
        for s in range(2**n_xi):
            diag2 = np.array([
                classical_surrogate(
                    x, tuple((b >> i) & 1 for i in range(m)), grid[s], params
                ) - h1_val
                for b in range(2**m)
            ])
            poly2 = fwht_expand(diag2)
            gates2 = [sv.H(q) for q in range(m)]
            gates2 += stage_layers([poly2], vp.gamma2, vp.beta2, range(m))
            state2 = sv.run_circuit(sv.Circuit(m, gates2))
            expected_second += scenario_probs[s] * sv.expectation_diagonal(
                state2, diag2
            )
        rhs += first_probs[k] * (h1_val + expected_second)

    return abs(lhs - rhs)


def verify_nonanticipativity(
    state: sv.StateVector, layout: RegisterLayout
) -> float:
    """Max |P(first-stage | scenario) - P(first-stage)| over live scenarios."""
    joint = sv.marginal_probs(
        sv.probabilities(state),
        [*layout.scenario_qubits, *layout.first_stage_qubits],
    ).reshape(2**layout.n_units, 2**layout.n_xi)  # [first stage, scenario]
    scenario = joint.sum(axis=0)
    marginal = joint.sum(axis=1)
    live = scenario > 1e-12
    conditional = joint[:, live] / scenario[live]
    return float(np.max(np.abs(conditional - marginal[:, None]), initial=0.0))
