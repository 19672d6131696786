"""Dense statevector simulation of the five gate kinds the package builds:
H, RX, RY, CZ and ZPhase.

Conventions:
  * little-endian indexing — qubit ``q`` contributes the bit of weight
    ``2**q`` to a basis index;
  * global phase is never tracked or compared;
  * a state is its complex128 amplitude array, of shape ``(2**n,)`` or
    ``(rows, 2**n)``: a batch of states that run the same gates, with
    RX / RY angles scalar or one per row; ``n`` is read from the last
    axis.  Gates act in place on that array (no gate matrix is ever
    materialized over the full register).

``ZPhase`` applies ``exp(-i*t*Z)`` for the Z-string Z on a support mask,
whose +-1 diagonal is `walsh.reconstruct` of the one-term polynomial.
``resources`` lowers exactly these kinds to its hardware basis.

``sample(probs, shots, rng)`` draws counts from a basis-ordered probability
vector, of a simulated state or of one computed without a state, and
one count vector per row, in row order, of a 2-D ``probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .config import MAX_QUBITS
from .errors import CapacityError, StructureError
from .walsh import ZPolynomial, reconstruct


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
class H:
    qubit: int


@dataclass(frozen=True)
class CZ:
    control: int
    target: int


@dataclass(frozen=True)
class ZPhase:
    """exp(-i*angle*Z...Z) on the qubits set in ``mask``."""

    mask: int
    angle: float


Gate = Union[RX, RY, H, CZ, ZPhase]


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def new_zero_state(n_qubits: int) -> np.ndarray:
    """Amplitudes of the all-zeros basis state on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def check_qubits(n: int, *qubits: int) -> None:
    """Each qubit lies in [0, n), and no qubit appears twice."""
    for q in qubits:
        if not 0 <= q < n:
            raise StructureError(f"qubit {q} out of range for {n}-qubit register")
    if len(set(qubits)) < len(qubits):
        raise StructureError(f"control and target must differ, got {qubits}")


def check_mask(n: int, mask: int) -> None:
    """A Z-string support mask names at least one of the n qubits."""
    if not 0 < mask < 2**n:
        raise StructureError(f"ZPhase mask {mask} invalid for {n} qubits")


def _apply_single(amps: np.ndarray, n: int, q: int, *u) -> None:
    check_qubits(n, q)
    # axes (rows, bits above q, bit q, bits below q); u scalar or one per row
    view = amps.reshape(-1, 2 ** (n - 1 - q), 2, 2**q)
    u00, u01, u10, u11 = (np.reshape(c, (-1, 1, 1)) for c in u)
    lo = view[:, :, 0, :].copy()
    hi = view[:, :, 1, :]
    view[:, :, 0, :] = u00 * lo + u01 * hi
    view[:, :, 1, :] = u10 * lo + u11 * hi


def apply(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate in place; returns the same array for chaining."""
    n = amps.shape[-1].bit_length() - 1

    if isinstance(gate, RY):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        _apply_single(amps, n, gate.qubit, c, -s, s, c)
    elif isinstance(gate, RX):
        c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        _apply_single(amps, n, gate.qubit, c, -1j * s, -1j * s, c)
    elif isinstance(gate, H):
        r = _INV_SQRT2
        _apply_single(amps, n, gate.qubit, r, r, r, -r)
    elif isinstance(gate, CZ):
        c, t = gate.control, gate.target
        check_qubits(n, c, t)
        # axis n-q of the (rows,) + (2,)*n view is qubit q; the amplitudes
        # with both bits set are one writable view, negated in place
        sel = [slice(None)] * (n + 1)
        sel[n - c] = sel[n - t] = 1
        both = amps.reshape((-1,) + (2,) * n)[tuple(sel)]
        both *= -1.0
    elif isinstance(gate, ZPhase):
        check_mask(n, gate.mask)
        odd = reconstruct(ZPolynomial(n, {gate.mask: 1.0})) < 0
        f_even = np.exp(-1j * gate.angle)
        amps *= np.where(odd, np.conj(f_even), f_even)
    else:
        raise StructureError(f"unknown gate {gate!r}")
    return amps


def run_circuit(circuit: Circuit, amps: np.ndarray | None = None) -> np.ndarray:
    """Run all gates in place; starts from |0...0> when no state is given."""
    if amps is None:
        amps = new_zero_state(circuit.n_qubits)
    elif amps.shape[-1] != 2**circuit.n_qubits:
        raise StructureError(
            f"circuit on {circuit.n_qubits} qubits, state of "
            f"{amps.shape[-1]} amplitudes"
        )
    for gate in circuit.gates:
        apply(amps, gate)
    return amps


# ---------------------------------------------------------------------------
# measurement-side operations
# ---------------------------------------------------------------------------

def probabilities(amps: np.ndarray) -> np.ndarray:
    return amps.real * amps.real + amps.imag * amps.imag


def expectation_diagonal(amps: np.ndarray, diag: np.ndarray) -> float:
    """<state| diag(diag) |state> for a real diagonal of the state's shape."""
    return float(probabilities(amps) @ diag)


def sample(probs: np.ndarray, shots: int,
           rng: np.random.Generator) -> np.ndarray:
    """Counts of ``shots`` measurements of each basis-ordered distribution."""
    return rng.multinomial(shots, probs / probs.sum(axis=-1, keepdims=True))
