"""Reference implementations the tests compare the package against.

No CLI stage runs any of these.  They hold the paper's two structural
claims as checks on the gate-level circuit (`verify_prop1`,
`verify_nonanticipativity`), the unit-commitment cost one basis state at a
time (`classical_surrogate`, `surrogate_diagonal`) with its index plumbing
(`decode_basis`, `encode_basis`), the exact diagonal phase a synthesized
Z-string block must equal (`diagonal_phase`), the Z-string gate on the
qubits of a bitmask (`zphase`), a lowered circuit's
basis-gate triples run by dense matrices (`run_lowered`), the dense Walsh
transform, the per-term dense diagonal and pointwise evaluation of
Z-polynomials (`fwht_expand`, `reconstruct_per_term`, `eval_at`), the
evaluator's joint distribution built over a transposed
(commitment, scenario, level bits) table of the diagonal
(`row_major_joint`), and the discriminator's loss and output (`bce_loss`,
`forward`).

Test modules import them as ``from oracles import ...``: ``tests/`` has no
``__init__.py``, so pytest puts the directory itself on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from qtwostage import statevec as sv
from qtwostage.config import UcpParams
from qtwostage.errors import StructureError
from qtwostage.qaoa import VariationalParams, final_state, stage_layers
from qtwostage.qgan import Discriminator, _sigmoid, generator_probs
from qtwostage.ucp import RegisterLayout, build_hamiltonian
from qtwostage.walsh import ZPolynomial, _pruned, reconstruct


# ---------------------------------------------------------------------------
# the classical model, one basis state at a time
# ---------------------------------------------------------------------------

def classical_surrogate(x, b, xi: float, params: UcpParams,
                        lam: float) -> float:
    """Start-up + generation + quadratic imbalance penalty for one scenario."""
    if len(x) != params.n_units or len(b) != params.n_units:
        raise StructureError("x and b must have one bit per unit")
    y = tuple(
        x[i] * (params.p_min[i] + (params.p_max[i] - params.p_min[i]) * b[i])
        for i in range(params.n_units)
    )
    gap = params.demand - xi - sum(y)
    return (
        sum(params.startup_cost[i] * x[i] for i in range(params.n_units))
        + sum(params.unit_cost[i] * y[i] for i in range(params.n_units))
        + lam * gap * gap
    )


def decode_basis(index: int, layout: RegisterLayout):
    """Split a basis index into (scenario index, x bits, level bits)."""
    if not 0 <= index < 2**layout.n_total:
        raise StructureError(f"basis index {index} out of range")
    s = index & layout.scenario_mask
    x = tuple((index >> q) & 1 for q in layout.first_stage_qubits)
    b = tuple((index >> q) & 1 for q in layout.second_stage_qubits)
    return s, x, b


def encode_basis(s: int, x, b, layout: RegisterLayout) -> int:
    if not 0 <= s < 2**layout.n_xi:
        raise StructureError(f"scenario index {s} out of range")
    index = s
    for i in range(layout.n_units):
        index |= (x[i] & 1) << layout.first_stage_qubits[i]
        index |= (b[i] & 1) << layout.second_stage_qubits[i]
    return index


def surrogate_diagonal(
    params: UcpParams, lam: float, n_xi: int, xi_min: float, xi_max: float
) -> np.ndarray:
    """`classical_surrogate` at every basis state of the n_xi-scenario-qubit
    register, with scenario s at the grid point linspace(xi_min, xi_max)[s]."""
    layout = RegisterLayout(n_xi, params.n_units)
    grid = np.linspace(xi_min, xi_max, 2**n_xi)
    out = np.empty(2**layout.n_total)
    for index in range(len(out)):
        s, x, b = decode_basis(index, layout)
        out[index] = classical_surrogate(x, b, grid[s], params, lam)
    return out


# ---------------------------------------------------------------------------
# gates and lowered circuits
# ---------------------------------------------------------------------------

def zphase(mask: int, angle) -> tuple:
    """The ("zphase", support, angle) gate on the qubits set in ``mask``."""
    support = tuple(q for q in range(mask.bit_length()) if mask >> q & 1)
    return ("zphase", support, angle)


_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# CX on (control, target), indexed [control out, target out, control in,
# target in]: the basis states 10 and 11 swap
_CX = np.eye(4)[[0, 1, 3, 2]].reshape(2, 2, 2, 2)


def run_lowered(lowered: sv.Circuit, amps: np.ndarray) -> np.ndarray:
    """The state a lowered circuit's (kind, qubits, angle) triples make of
    ``amps``: each triple's 2x2 (rz, sx, x) or 4x4 (cx) matrix contracted
    into the little-endian amplitudes by ``np.tensordot``."""
    n = lowered.n_qubits
    psi = np.asarray(amps, dtype=complex).reshape((2,) * n)  # axis n-1-q: qubit q
    for kind, qubits, angle in lowered.gates:
        if kind == "rz":
            u = np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
        else:
            u = {"sx": _SX, "x": _X, "cx": _CX}[kind]
        k = len(qubits)
        axes = [n - 1 - q for q in qubits]
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(-1)


# ---------------------------------------------------------------------------
# Z-polynomials
# ---------------------------------------------------------------------------

def diagonal_phase(amps: np.ndarray, values: np.ndarray, angle: float) -> None:
    """exp(-i*angle*diag(values)) applied in place to a state's amplitudes."""
    amps *= np.exp(-1j * angle * np.asarray(values, dtype=float))


def fwht_expand(values: np.ndarray) -> ZPolynomial:
    """Expand a length-2^n diagonal into Z-strings, c = (1/2^n) * H_n * values."""
    values = np.asarray(values, dtype=float)
    size = values.shape[0] if values.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise StructureError(f"diagonal length must be a power of two, got {values.shape}")
    n = size.bit_length() - 1

    a = values.copy()
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a[:, 0, :] = top
        a[:, 1, :] = bot
        a = a.reshape(size)
        h *= 2
    coeffs = a / size
    return _pruned(n, {int(m): float(c) for m, c in enumerate(coeffs)})


def reconstruct_per_term(poly: ZPolynomial) -> np.ndarray:
    """The dense diagonal one term at a time: each term adds +-c at every
    index, by the parity of popcount(mask & i), in O(terms * 2^n)."""
    index = np.arange(2**poly.n_qubits, dtype=np.int64)
    out = np.zeros(len(index))
    for m, c in poly.terms.items():
        v = index & np.int64(m)
        for shift in (32, 16, 8, 4, 2, 1):
            v = v ^ (v >> shift)
        out += np.where(v & 1, -c, c)
    return out


def eval_at(poly: ZPolynomial, basis_index: int) -> float:
    if not 0 <= basis_index < 2**poly.n_qubits:
        raise StructureError(f"basis index {basis_index} out of range")
    total = 0.0
    for m, c in poly.terms.items():
        total += c if (m & basis_index).bit_count() % 2 == 0 else -c
    return total


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------

def forward(disc: Discriminator, p: np.ndarray) -> float:
    """D(p): the discriminator's logistic output."""
    return float(_sigmoid(disc._forward(p)[2]))


def bce_loss(output: float, target: float) -> float:
    eps = 1e-12
    return -(target * np.log(output + eps)
             + (1.0 - target) * np.log(1.0 - output + eps))


# ---------------------------------------------------------------------------
# the factorized objective, row by row
# ---------------------------------------------------------------------------

def _row_stage_probs(table: np.ndarray, gammas, betas) -> np.ndarray:
    """|amplitude|^2 of one QAOA stage run on each row of ``table``."""
    rows, size = table.shape
    amps = np.full(table.shape, size ** -0.5, dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        amps = amps * np.exp(table * (-1j * gamma))
        c, s = np.cos(beta), 1j * np.sin(beta)
        for q in range(size.bit_length() - 1):
            view = amps.reshape(rows, size >> (q + 1), 2, 1 << q)
            amps = (c * view + s * view[:, :, ::-1]).reshape(rows, size)
    return amps.real * amps.real + amps.imag * amps.imag


def row_major_joint(
    theta: np.ndarray, ham, vp: VariationalParams
) -> np.ndarray:
    """P(s) * P1(x) * |phi_{x,s}(b)|^2 over a transposed table of the cost.

    Row x * 2^n_xi + s of the (strided) table holds that pair's cost over b; each row
    runs the dispatch stage on its own, and ``.T.ravel()`` returns the
    weighted rows to the register's basis order.  The same arithmetic as
    `FactorizedEvaluator.joint` on the same operands, so equal bit for bit.
    """
    layout = ham.layout
    m, n_xi = layout.n_units, layout.n_xi
    h1 = reconstruct(ZPolynomial(
        m, {mask >> n_xi: c for mask, c in ham.h1.terms.items()}))
    rows = (layout.split(ham.diagonal)
            .transpose(1, 2, 0).reshape(-1, 2**m))
    first = _row_stage_probs(h1[None, :], vp.gamma1, vp.beta1)[0]
    weights = np.outer(first, generator_probs(n_xi, theta))
    dispatch = _row_stage_probs(rows, vp.gamma2, vp.beta2)
    return (weights.reshape(-1, 1) * dispatch).T.ravel()


# ---------------------------------------------------------------------------
# the paper's structural claims on the gate-level circuit
# ---------------------------------------------------------------------------

def verify_prop1(
    n_xi: int,
    theta: np.ndarray,
    params: UcpParams,
    lam: float,
    xi_min: float,
    xi_max: float,
    vp: VariationalParams,
) -> float:
    """|full-circuit expectation - factorized recomputation|.

    Both sides read the problem from ``params``, ``lam`` and the n_xi-qubit
    generator's angles ``theta`` alone.
    The factorized side never builds the joint circuit: first-stage
    amplitudes come from a first-stage-only circuit, scenario weights from
    the generator alone, and each second-stage value from an independently
    simulated dispatch-register circuit with the commitment bits and the
    scenario value substituted as plain numbers.
    """
    m = params.n_units
    ham = build_hamiltonian(params, lam, n_xi, xi_min, xi_max)
    lhs = sv.expectation_diagonal(final_state(theta, ham, vp), ham.diagonal)

    # first-stage-only circuit on an M-qubit register
    h1_local = ZPolynomial(
        m, {mask >> n_xi: c for mask, c in ham.h1.terms.items() if mask != 0}
    )
    gates1 = stage_layers([h1_local], vp.gamma1, vp.beta1, range(m))
    first_probs = sv.probabilities(sv.run_circuit(sv.Circuit(m, gates1)))

    scenario_probs = generator_probs(n_xi, theta)
    grid = np.linspace(xi_min, xi_max, 2**n_xi)

    rhs = 0.0
    for k in range(2**m):
        x = tuple((k >> i) & 1 for i in range(m))
        h1_val = sum(params.startup_cost[i] * x[i] for i in range(m))
        expected_second = 0.0
        for s in range(2**n_xi):
            diag2 = np.array([
                classical_surrogate(
                    x, tuple((b >> i) & 1 for i in range(m)), grid[s], params,
                    lam) - h1_val
                for b in range(2**m)
            ])
            poly2 = fwht_expand(diag2)
            gates2 = stage_layers([poly2], vp.gamma2, vp.beta2, range(m))
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
