"""Two-stage variational optimization over the three-register circuit.

The assembly mirrors the problem structure: a fixed trained generator
loads the scenario distribution, first-stage cost/mixer layers act on the
commitment register, and second-stage layers couple all registers through
the scenario-dependent phase block before mixing the dispatch register.
Because every cost layer is diagonal and the decision mixers never touch
the scenario register, the joint (scenario, first-stage) measurement
distribution factorizes exactly; `verify_prop1` and
`verify_nonanticipativity` check the two consequences on the gate-level
circuit.  `FactorizedEvaluator` is the objective through that factorization,
never simulating the whole register; `assemble` and `final_state` stay as its
oracles.  `optimize(evaluator, cfg, rng)` reads the register only through
one evaluator, which a caller builds once per problem for every restart.

Optimization is derivative-free, by the package's numpy port of Powell's
COBYLA (`cobyla.minimize`), from random angles in per-stage scaled
coordinates, tracking the best objective seen across all evaluations rather
than trusting the optimizer's final iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .cobyla import minimize
from .errors import CapacityError, StructureError
from .qgan import GeneratorSpec, generator_circuit, generator_probs
from .ucp import (
    ProblemHamiltonian,
    RegisterLayout,
    UcpParams,
    build_hamiltonian,
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

    def __post_init__(self):
        if self.p1 < 1 or self.p2 < 1:
            raise StructureError("layer depths must be >= 1")
        if self.shots is not None and not 1 <= self.shots < 2**63:
            # a multinomial draw takes its count as a C long
            raise StructureError("shots must be in [1, 2**63) when given")
        if self.maxiter < 1:
            raise StructureError("maxiter must be >= 1")


@dataclass(frozen=True)
class RunResult:
    best_params: VariationalParams
    best_objective: float
    first_stage_marginal: np.ndarray
    map_solution: tuple
    trace: np.ndarray
    message: str  # the optimizer's stop reason


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


def _check_register(spec: GeneratorSpec, layout: RegisterLayout) -> None:
    if spec.n_xi != layout.n_xi:
        raise StructureError(
            f"generator register ({spec.n_xi}) does not match the "
            f"hamiltonian's scenario register ({layout.n_xi})"
        )


def assemble(
    spec: GeneratorSpec, ham: ProblemHamiltonian, vp: VariationalParams
) -> sv.Circuit:
    """Generator block, then first-stage layers, then second-stage layers."""
    layout = ham.layout
    _check_register(spec, layout)
    gates = list(generator_circuit(spec).gates)
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
    spec: GeneratorSpec, ham: ProblemHamiltonian, vp: VariationalParams
) -> np.ndarray:
    return sv.run_circuit(assemble(spec, ham, vp))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _stage_probs(table: np.ndarray, gammas, betas) -> np.ndarray:
    """Row-wise |amplitude|^2 of one stage's layers on an m-qubit register.

    Row r of the (rows, 2^m) ``table`` is the cost diagonal its own copy of
    the register sees.  Each copy starts in |+>^m; per (gamma, beta) it takes
    exp(-i gamma table[r]) and then RX(-2 beta) on every qubit, which is what
    `stage_layers` applies to that register.  A phase constant along a row is
    a global phase of that row and drops out of |amplitude|^2.
    """
    rows, size = table.shape
    amps = np.full(table.shape, size ** -0.5, dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        amps = amps * np.exp(table * (-1j * gamma))
        c, s = np.cos(beta), 1j * np.sin(beta)  # RX(-2 beta) = c I + s X
        for q in range(size.bit_length() - 1):
            # X on qubit q swaps the two halves of axis 2
            view = amps.reshape(rows, size >> (q + 1), 2, 1 << q)
            amps = (c * view + s * view[:, :, ::-1]).reshape(rows, size)
    return amps.real * amps.real + amps.imag * amps.imag


class FactorizedEvaluator:
    """The objective of `assemble`'s circuit without simulating the register.

    Every cost layer is diagonal and the decision mixers never touch the
    scenario register, so the joint distribution factors exactly as
    P(s) * P1(x) * |phi_{x,s}(b)|^2: P(s) is the generator's, P1 the
    first-stage register's under h1 alone, and phi_{x,s} the dispatch
    register's under the cost row of commitment x in scenario s.  The tables
    are read once, from ``ham.diagonal`` and the generator, at construction.
    """

    def __init__(self, spec: GeneratorSpec, ham: ProblemHamiltonian):
        layout = ham.layout
        _check_register(spec, layout)
        if layout.n_total > sv.MAX_QUBITS:
            raise CapacityError(
                f"{layout.n_total} qubits exceed the {sv.MAX_QUBITS}-qubit cap"
            )
        m, n_xi = layout.n_units, layout.n_xi
        self.layout = layout
        self.diagonal = ham.diagonal
        self.scenario_probs = generator_probs(spec)
        h1 = {mask >> n_xi: c for mask, c in ham.h1.terms.items()}
        self.h1 = reconstruct(ZPolynomial(m, h1))
        # row x * 2^n_xi + s holds that pair's cost over b.  The rows carry
        # h1(x) too, a constant per row.
        self.rows = (layout.split(self.diagonal)
                     .transpose(1, 2, 0).reshape(-1, 2**m))
        # per-stage angle scales: the largest |Z coefficient| of h1 and the
        # largest dispatch spread over (x, s); 1 for a constant stage
        spread = float(np.max(np.ptp(self.rows, axis=1)))
        self.scales = (
            max((abs(c) for mask, c in h1.items() if mask), default=1.0),
            spread if spread > 0 else 1.0,
        )

    def first_stage(self, vp: VariationalParams) -> np.ndarray:
        """P1: the 2^M commitment marginal."""
        return _stage_probs(self.h1[None, :], vp.gamma1, vp.beta1)[0]

    def joint(self, vp: VariationalParams) -> np.ndarray:
        """P(s) * P1(x) * |phi_{x,s}(b)|^2 in the register's basis order."""
        weights = np.outer(self.first_stage(vp), self.scenario_probs)
        dispatch = _stage_probs(self.rows, vp.gamma2, vp.beta2)
        return (weights.reshape(-1, 1) * dispatch).T.ravel()

    def __call__(
        self,
        vp: VariationalParams,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """The cost's expectation, exact or as the mean of ``shots`` draws."""
        return _estimate(self.joint(vp), self.diagonal, shots, rng)

    def surrogate_optimum(self) -> float:
        """min_x [h1(x) + sum_s P(s) min_b E2(x, b, s)].

        The cost of a perfectly scenario-adapted recourse under the
        generator's distribution; no angles reach below it.
        """
        best = self.rows.min(axis=1).reshape(len(self.h1), -1)  # (x, s)
        return float(np.min(best @ self.scenario_probs))


def _estimate(
    probs: np.ndarray,
    diag: np.ndarray,
    shots: int | None,
    rng: np.random.Generator | None,
) -> float:
    if shots is None:
        return float(probs @ diag)
    counts = sv.sample(probs, shots, rng)
    nz = np.nonzero(counts)[0]
    # a left-to-right sum over observed outcomes; ``counts @ diag`` rounds
    # differently and would change the sampled objective values
    total = sum(counts[nz] * diag[nz])
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
    """
    sigma1, sigma2 = evaluator.scales
    divisor = np.concatenate([np.full(cfg.p1, sigma1), np.ones(cfg.p1),
                              np.full(cfg.p2, sigma2), np.ones(cfg.p2)])
    trace: list = []
    best = {"value": np.inf, "vp": None}

    def fun(x: np.ndarray) -> float:
        vp = VariationalParams.from_vector(cfg.p1, cfg.p2, x / divisor)
        value = evaluator(vp, cfg.shots, rng)
        trace.append(value)
        if value < best["value"]:
            best["value"] = value
            best["vp"] = vp
        return value

    x0 = random_params(cfg.p1, cfg.p2, rng).to_vector()
    # looked up as ``qaoa.minimize`` at call time, so a wrapper installed
    # there sees every objective evaluation
    message = minimize(fun, x0, rhobeg=COBYLA_RHOBEG, rhoend=COBYLA_TOL,
                       maxfun=cfg.maxiter)
    vp_best = best["vp"]
    if vp_best is None:
        raise StructureError(
            f"none of {len(trace)} objective evaluations was finite "
            f"({message})"
        )

    if cfg.shots is None:
        marginal = evaluator.first_stage(vp_best)
    else:
        counts = sv.sample(evaluator.joint(vp_best), cfg.shots, rng)
        marginal = evaluator.layout.split(counts).sum(axis=(0, 2)) / cfg.shots
    return RunResult(
        best_params=vp_best,
        best_objective=best["value"],
        first_stage_marginal=marginal,
        map_solution=map_solution(marginal),
        trace=np.asarray(trace),
        message=message,
    )


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def map_solution(marginal: np.ndarray) -> tuple:
    """Most probable commitment of a 2^units marginal; ties go to the first."""
    size = len(marginal)
    if size < 2 or size & (size - 1):
        raise StructureError(
            f"marginal length {size} is not a power of two >= 2"
        )
    k = int(np.argmax(marginal))  # argmax returns the first (smallest) tie
    return tuple((k >> j) & 1 for j in range(size.bit_length() - 1))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def verify_prop1(
    spec: GeneratorSpec,
    params: UcpParams,
    xi_min: float,
    xi_max: float,
    vp: VariationalParams,
) -> float:
    """|full-circuit expectation - factorized recomputation|.

    Both sides read the problem from ``params`` and the generator alone.
    The factorized side never builds the joint circuit: first-stage
    amplitudes come from a first-stage-only circuit, scenario weights from
    the generator alone, and each second-stage value from an independently
    simulated dispatch-register circuit with the commitment bits and the
    scenario value substituted as plain numbers.
    """
    n_xi, m = spec.n_xi, params.n_units
    ham = build_hamiltonian(params, n_xi, xi_min, xi_max)
    lhs = sv.expectation_diagonal(final_state(spec, ham, vp), ham.diagonal)

    # first-stage-only circuit on an M-qubit register
    h1_local = ZPolynomial(
        m, {mask >> n_xi: c for mask, c in ham.h1.terms.items() if mask != 0}
    )
    gates1 = [sv.H(q) for q in range(m)]
    gates1 += stage_layers([h1_local], vp.gamma1, vp.beta1, range(m))
    first_probs = sv.probabilities(sv.run_circuit(sv.Circuit(m, gates1)))

    scenario_probs = generator_probs(spec)
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
    amps: np.ndarray, layout: RegisterLayout
) -> float:
    """Max |P(first-stage | scenario) - P(first-stage)| over live scenarios."""
    joint = layout.split(sv.probabilities(amps)).sum(axis=0)  # (x, s)
    scenario = joint.sum(axis=0)
    marginal = joint.sum(axis=1)
    live = scenario > 1e-12
    conditional = joint[:, live] / scenario[live]
    return float(np.max(np.abs(conditional - marginal[:, None]), initial=0.0))
