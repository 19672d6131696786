"""Dense statevector simulation of the gates the package builds.

A gate is a ``(kind, qubits, angle)`` triple, the same shape as the basis
gates `resources` lowers it to:

  * ``("h", (q,), None)``, ``("rx", (q,), t)`` and ``("ry", (q,), t)``;
  * ``("cz", (c, t), None)``;
  * ``("zphase", support, t)``: exp(-i*t*Z...Z) for the Z-string on the
    ascending tuple ``support`` of qubits, whose +-1 diagonal is
    `walsh.reconstruct` of the one-term polynomial.

Conventions:
  * little-endian indexing — qubit ``q`` contributes the bit of weight
    ``2**q`` to a basis index;
  * global phase is never tracked or compared;
  * a state is its complex128 amplitude array, of shape ``(2**n,)`` or
    ``(rows, 2**n)``: a batch of states that run the same gates, with
    rx / ry angles scalar or one per row; ``n`` is read from the last
    axis.  Gates act in place on that array (no gate matrix is ever
    materialized over the full register).

``sample(probs, shots, rng)`` draws counts from a basis-ordered probability
vector, of a simulated state or of one computed without a state, and
one count vector per row, in row order, of a 2-D ``probs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MAX_QUBITS, StructureError
from .walsh import ZPolynomial, reconstruct


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
        raise StructureError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


# qubits each kind acts on; 0: a zphase acts on a support of any size
_ARITY = {"h": 1, "rx": 1, "ry": 1, "cz": 2, "zphase": 0}


def check_qubits(n: int, gate) -> tuple:
    """A (kind, qubits, angle) triple of a known kind on at least one qubit,
    as many as its kind takes, each in [0, n) and none twice; returned."""
    if type(gate) is not tuple or len(gate) != 3 or gate[0] not in _ARITY:
        raise StructureError(f"unknown gate {gate!r}")
    qubits = gate[1]
    if not qubits or _ARITY[gate[0]] not in (0, len(qubits)):
        raise StructureError(f"wrong qubit count in {gate!r}")
    for q in qubits:
        if not 0 <= q < n:
            raise StructureError(f"qubit {q} out of range for {n}-qubit register")
    if len(qubits) > 1 and len(set(qubits)) < len(qubits):
        raise StructureError(f"repeated qubit in {gate!r}")
    return gate


def _apply_single(amps: np.ndarray, n: int, q: int, *u) -> None:
    # axes (rows, bits above q, bit q, bits below q); u scalar or one per row
    view = amps.reshape(-1, 2 ** (n - 1 - q), 2, 2**q)
    u00, u01, u10, u11 = (np.reshape(c, (-1, 1, 1)) for c in u)
    lo = view[:, :, 0, :].copy()
    hi = view[:, :, 1, :]
    view[:, :, 0, :] = u00 * lo + u01 * hi
    view[:, :, 1, :] = u10 * lo + u11 * hi


def apply(amps: np.ndarray, gate: tuple) -> np.ndarray:
    """Apply one gate in place; returns the same array for chaining."""
    n = amps.shape[-1].bit_length() - 1
    kind, qubits, angle = check_qubits(n, gate)

    if kind in ("rx", "ry"):
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        u = (c, -s, s, c) if kind == "ry" else (c, -1j * s, -1j * s, c)
        _apply_single(amps, n, qubits[0], *u)
    elif kind == "h":
        r = _INV_SQRT2
        _apply_single(amps, n, qubits[0], r, r, r, -r)
    elif kind == "cz":
        # axis n-q of the (rows,) + (2,)*n view is qubit q; the amplitudes
        # with both bits set are one writable view, negated in place
        sel = [slice(None)] * (n + 1)
        sel[n - qubits[0]] = sel[n - qubits[1]] = 1
        both = amps.reshape((-1,) + (2,) * n)[tuple(sel)]
        both *= -1.0
    else:
        mask = sum(1 << q for q in qubits)
        odd = reconstruct(ZPolynomial(n, {mask: 1.0})) < 0
        f_even = np.exp(-1j * angle)
        amps *= np.where(odd, np.conj(f_even), f_even)
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
