"""Dense statevector simulation for the gate set this workflow needs.

Conventions:
  * little-endian indexing — qubit ``q`` contributes the bit of weight
    ``2**q`` to a basis index;
  * global phase is never tracked or compared;
  * amplitudes are complex128 and gates act in place on the amplitude
    array (no gate matrix is ever materialized over the full register),
    of shape ``(2**n,)`` or ``(rows, 2**n)``: a batch of states that run
    the same gates, with RX / RY / RZ angles scalar or one per row.

``ZPhase`` applies ``exp(-i*t*Z_string)`` for the Z-string on a support
mask: amplitude ``i`` picks up ``exp(-i*t*(-1)**popcount(mask & i))``.
``DiagPhase`` is the exact-diagonal analogue used purely as an oracle for
cross-checking synthesized phase blocks; production circuits use ZPhase.

``sample(probs, shots, rng)`` draws counts from a basis-ordered probability
vector, of a simulated state or of one computed without a state, and
one count vector per row, in row order, of a 2-D ``probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import CapacityError, StructureError
from .walsh import parity

MAX_QUBITS = 28


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RX:
    qubit: int
    angle: float


@dataclass(frozen=True)
class RY:
    qubit: int
    angle: float


@dataclass(frozen=True)
class RZ:
    qubit: int
    angle: float


@dataclass(frozen=True)
class H:
    qubit: int


@dataclass(frozen=True)
class X:
    qubit: int


@dataclass(frozen=True)
class SX:
    qubit: int


@dataclass(frozen=True)
class CX:
    control: int
    target: int


@dataclass(frozen=True)
class CZ:
    control: int
    target: int


@dataclass(frozen=True)
class ZPhase:
    """exp(-i*angle*Z...Z) on the qubits set in ``mask``."""

    mask: int
    angle: float


@dataclass(frozen=True, eq=False)
class DiagPhase:
    """exp(-i*angle*diag(values)); oracle only, never lowered to hardware."""

    values: np.ndarray
    angle: float


Gate = Union[RX, RY, RZ, H, X, SX, CX, CZ, ZPhase, DiagPhase]


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def new_zero_state(n_qubits: int) -> StateVector:
    """All-zeros computational basis state on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise StructureError(f"qubit {q} out of range for {n}-qubit register")


def _apply_single(amps: np.ndarray, n: int, q: int, *u) -> None:
    _check_qubit(q, n)
    # axes (rows, bits above q, bit q, bits below q); u scalar or one per row
    view = amps.reshape(-1, 2 ** (n - 1 - q), 2, 2**q)
    u00, u01, u10, u11 = (np.reshape(c, (-1, 1, 1)) for c in u)
    lo = view[:, :, 0, :].copy()
    hi = view[:, :, 1, :]
    view[:, :, 0, :] = u00 * lo + u01 * hi
    view[:, :, 1, :] = u10 * lo + u11 * hi


def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place; returns the same StateVector for chaining."""
    n, amps = state.n_qubits, state.amps

    if isinstance(gate, RY):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        _apply_single(amps, n, gate.qubit, c, -s, s, c)
    elif isinstance(gate, RZ):
        ph = np.exp(-0.5j * gate.angle)
        _apply_single(amps, n, gate.qubit, ph, 0.0, 0.0, np.conj(ph))
    elif isinstance(gate, RX):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        _apply_single(amps, n, gate.qubit, c, -1j * s, -1j * s, c)
    elif isinstance(gate, H):
        r = _INV_SQRT2
        _apply_single(amps, n, gate.qubit, r, r, r, -r)
    elif isinstance(gate, X):
        _apply_single(amps, n, gate.qubit, 0.0, 1.0, 1.0, 0.0)
    elif isinstance(gate, SX):
        a, b = 0.5 + 0.5j, 0.5 - 0.5j
        _apply_single(amps, n, gate.qubit, a, b, b, a)
    elif isinstance(gate, (CX, CZ)):
        c, t = gate.control, gate.target
        _check_qubit(c, n)
        _check_qubit(t, n)
        if c == t:
            raise StructureError(
                f"{type(gate).__name__} control and target must differ"
            )
        # axis n-q of the (rows,) + (2,)*n view is qubit q; length-1 slices
        # keep every part a writable view
        view = amps.reshape((-1,) + (2,) * n)
        sel = [slice(None)] * (n + 1)
        sel[n - c] = slice(1, 2)
        sel[n - t] = slice(1, 2)
        one = view[tuple(sel)]
        if isinstance(gate, CZ):
            one *= -1.0
        else:
            sel[n - t] = slice(0, 1)
            zero = view[tuple(sel)]
            tmp = zero.copy()
            # a ufunc resolves the interleaved slices' overlap exactly, where
            # plain assignment would stage ``one`` in a second temporary
            np.positive(one, out=zero)
            one[...] = tmp
    elif isinstance(gate, ZPhase):
        if not 0 < gate.mask < 2**n:
            raise StructureError(f"ZPhase mask {gate.mask} invalid for {n} qubits")
        par = parity(n, gate.mask)
        f_even = np.exp(-1j * gate.angle)
        amps *= np.where(par, np.conj(f_even), f_even)
    elif isinstance(gate, DiagPhase):
        if gate.values.shape != (2**n,):
            raise StructureError(
                f"DiagPhase needs {2**n} values, got {gate.values.shape}"
            )
        amps *= np.exp(-1j * gate.angle * gate.values)
    else:
        raise StructureError(f"unknown gate {gate!r}")
    return state


def run_circuit(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Run all gates; starts from |0...0> when no state is given."""
    if state is None:
        state = new_zero_state(circuit.n_qubits)
    elif state.n_qubits != circuit.n_qubits:
        raise StructureError(
            f"circuit on {circuit.n_qubits} qubits, state on {state.n_qubits}"
        )
    for gate in circuit.gates:
        apply(state, gate)
    return state


# ---------------------------------------------------------------------------
# measurement-side operations
# ---------------------------------------------------------------------------

def probabilities(state: StateVector) -> np.ndarray:
    a = state.amps
    return a.real * a.real + a.imag * a.imag


def expectation_diagonal(state: StateVector, diag: np.ndarray) -> float:
    """<state| diag(diag) |state> for a real diagonal operator."""
    diag = np.asarray(diag, dtype=float)
    if diag.shape != state.amps.shape:
        raise StructureError(
            f"diagonal length {diag.shape} does not match state {state.amps.shape}"
        )
    return float(probabilities(state) @ diag)


def sample(probs: np.ndarray, shots: int,
           rng: np.random.Generator | None) -> np.ndarray:
    """Counts of ``shots`` measurements of each basis-ordered distribution."""
    if shots < 1:
        raise StructureError(f"shots must be >= 1, got {shots}")
    if rng is None:
        raise StructureError("sampled mode needs an rng")
    return rng.multinomial(shots, probs / probs.sum(axis=-1, keepdims=True))
