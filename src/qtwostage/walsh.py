"""Z-polynomial algebra for diagonal operators.

A diagonal operator on n qubits is stored as a sparse polynomial in
Pauli-Z factors: a map from support bitmask to real coefficient, where
mask 0 is the identity term.  Its value at basis index ``i`` is

    sum over masks m of  c_m * (-1)**popcount(m & i).

Operators are built from sparse pieces and never expanded from a dense
diagonal.  A diagonal that forms an arithmetic progression has a closed
form with n+1 terms (`arithmetic_expansion`), which is what makes
amplitude-encoded scenario registers cheap to couple into cost
Hamiltonians.  `reconstruct`, the fast Walsh-Hadamard transform of the
coefficients, evaluates a polynomial into its dense diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MAX_Z_QUBITS, StructureError

ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True)
class ZPolynomial:
    """Immutable sparse Z-string expansion of a real diagonal operator."""

    n_qubits: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_Z_QUBITS:
            raise StructureError(f"n_qubits out of range: {self.n_qubits}")
        for mask in self.terms:
            if not 0 <= mask < 2**self.n_qubits:
                raise StructureError(
                    f"mask {mask} out of range for {self.n_qubits} qubits"
                )


def _pruned(n_qubits: int, terms: dict) -> ZPolynomial:
    kept = {m: c for m, c in terms.items() if abs(c) >= ZERO_THRESHOLD}
    return ZPolynomial(n_qubits, kept)


def constant(n_qubits: int, value: float) -> ZPolynomial:
    return _pruned(n_qubits, {0: float(value)})


def arithmetic_expansion(xi_min: float, xi_max: float, n_xi: int) -> ZPolynomial:
    """Closed-form expansion of the uniform grid xi_s = xi_min + s*dxi.

    Exactly n_xi + 1 terms: the identity carries the grid midpoint and each
    single-qubit Z_i carries -dxi * 2**(i-1).
    """
    dxi = (xi_max - xi_min) / (2**n_xi - 1)
    terms = {0: xi_min + dxi * (2**n_xi - 1) / 2.0}
    for i in range(n_xi):
        terms[1 << i] = -dxi * 2.0 ** (i - 1)
    return _pruned(n_xi, terms)


def _check_same_register(a: ZPolynomial, b: ZPolynomial) -> None:
    if a.n_qubits != b.n_qubits:
        raise StructureError(
            f"register mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )


def zpoly_add(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    _check_same_register(a, b)
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out.get(m, 0.0) + c
    return _pruned(a.n_qubits, out)


def zpoly_scale(a: ZPolynomial, k: float) -> ZPolynomial:
    return _pruned(a.n_qubits, {m: c * k for m, c in a.terms.items()})


def zpoly_sub(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    return zpoly_add(a, zpoly_scale(b, -1.0))


def zpoly_mul(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    """Product under Z_i**2 = I: masks combine by XOR, coefficients accumulate."""
    _check_same_register(a, b)
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = m1 ^ m2
            out[m] = out.get(m, 0.0) + c1 * c2
    return _pruned(a.n_qubits, out)


def reconstruct(poly: ZPolynomial) -> np.ndarray:
    """Dense diagonal: the fast Walsh-Hadamard transform of the coefficients
    indexed by mask, one (a + b, a - b) butterfly per qubit, O(n * 2**n)."""
    out = np.zeros(2**poly.n_qubits)
    out[list(poly.terms)] = list(poly.terms.values())
    for q in range(poly.n_qubits):
        a, b = out.reshape(-1, 2, 2**q).swapaxes(0, 1)  # bit q clear, set
        a[:], b[:] = a + b, a - b
    return out
