"""Z-polynomial algebra checks against brute-force transforms."""

import numpy as np
import pytest

from qtwostage import walsh
from qtwostage.config import StructureError

from oracles import eval_at, fwht_expand, reconstruct_per_term


def brute_force_expand(values):
    """O(N^2) Walsh-Hadamard coefficients: c_j = (1/N) sum_s (-1)^(j.s) v_s."""
    n = len(values)
    coeffs = {}
    for j in range(n):
        total = 0.0
        for s, v in enumerate(values):
            total += v if bin(j & s).count("1") % 2 == 0 else -v
        coeffs[j] = total / n
    return coeffs


def test_fwht_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for size in (2, 4, 8, 16):
        values = rng.normal(size=size) * 10
        oracle = brute_force_expand(values)
        poly = fwht_expand(values)
        for mask in range(size):
            assert poly.terms.get(mask, 0.0) == pytest.approx(oracle[mask], abs=1e-10)


def test_fwht_examples():
    assert fwht_expand(np.array([5.0, 5, 5, 5])).terms == {0: 5.0}
    assert fwht_expand(np.array([1.0, -1.0])).terms == {1: 1.0}
    poly = fwht_expand(np.array([0.0, 1.0, 2.0, 3.0]))
    assert poly.terms == {0: 1.5, 1: -0.5, 2: -1.0}


def test_fwht_rejects_bad_lengths():
    for bad in ([1.0, 2.0, 3.0], [1.0], []):
        with pytest.raises(StructureError):
            fwht_expand(np.array(bad))


def test_fwht_round_trip_random():
    rng = np.random.default_rng(17)
    for n in (2, 4, 16, 256, 1024):
        values = rng.normal(size=n) * 100
        back = walsh.reconstruct(fwht_expand(values))
        assert np.max(np.abs(back - values)) < 1e-10


def _random_polynomials(rng, n):
    """Random polynomials on n qubits: with and without the identity term,
    with the all-ones mask, and the empty polynomial."""
    size = 2**n
    masks = rng.choice(np.arange(1, size), size=min(size - 1, 64),
                       replace=False)
    coeffs = rng.normal(size=len(masks)) * 100
    terms = {int(m): float(c) for m, c in zip(masks, coeffs)}
    yield walsh.ZPolynomial(n, terms)
    yield walsh.ZPolynomial(n, {**terms, 0: float(rng.normal() * 1000)})
    yield walsh.ZPolynomial(n, {**terms, size - 1: float(rng.normal())})
    yield walsh.ZPolynomial(n, {size - 1: -2.5, 0: 0.75})
    yield walsh.ZPolynomial(n, {})


def test_reconstruct_matches_per_term_oracle():
    rng = np.random.default_rng(43)
    for n in range(1, 17):
        for poly in _random_polynomials(rng, n):
            fast, slow = walsh.reconstruct(poly), reconstruct_per_term(poly)
            scale = sum(abs(c) for c in poly.terms.values())
            assert fast.shape == (2**n,)
            assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


def test_reconstruct_one_term_is_exact_parity():
    """A one-term diagonal is c * (-1)**popcount(mask & i), bit for bit."""
    for n, masks in [*((n, range(2**n)) for n in range(1, 7)),
                     (12, (1, 2**11, 0b101010101010, 2**12 - 1))]:
        for mask in masks:
            signs = np.array([(-1.0) ** (mask & i).bit_count()
                              for i in range(2**n)])
            for c in (1.0, -0.3):
                got = walsh.reconstruct(walsh.ZPolynomial(n, {mask: c}))
                assert got.tobytes() == (c * signs).tobytes()


def test_arithmetic_expansion_examples():
    poly = walsh.arithmetic_expansion(0.0, 3.0, 2)
    assert poly.terms == {0: 1.5, 1: -0.5, 2: -1.0}

    poly = walsh.arithmetic_expansion(0.0, 2500.0, 5)
    assert poly.terms.get(0, 0.0) == pytest.approx(1250.0)
    assert poly.terms.get(1, 0.0) == pytest.approx(-(2500.0 / 31) / 2)
    assert len(poly.terms) == 6


def test_arithmetic_expansion_sparsity_and_closed_form():
    """Uniform grids expand to exactly n+1 terms with the predicted weights."""
    rng = np.random.default_rng(29)
    for n_xi in range(1, 11):
        for _ in range(20):
            xi_min = float(rng.uniform(-5, 5))
            xi_max = xi_min + float(rng.uniform(0.5, 10))
            grid = np.linspace(xi_min, xi_max, 2**n_xi)
            poly = fwht_expand(grid)
            dxi = (xi_max - xi_min) / (2**n_xi - 1)
            assert len(poly.terms) == n_xi + 1
            assert poly.terms.get(0, 0.0) == pytest.approx(
                xi_min + dxi * (2**n_xi - 1) / 2, abs=1e-12
            )
            for i in range(n_xi):
                assert poly.terms.get(1 << i, 0.0) == pytest.approx(
                    -dxi * 2.0 ** (i - 1), abs=1e-12
                )
            closed = walsh.arithmetic_expansion(xi_min, xi_max, n_xi)
            assert np.max(
                np.abs(walsh.reconstruct(closed) - walsh.reconstruct(poly))
            ) < 1e-10


def test_arithmetic_expansion_matches_fwht_at_scenario_scale():
    grid = np.linspace(0.0, 2500.0, 32)
    direct = fwht_expand(grid)
    closed = walsh.arithmetic_expansion(0.0, 2500.0, 5)
    assert np.max(np.abs(walsh.reconstruct(closed) - grid)) < 1e-10
    for mask, c in closed.terms.items():
        assert direct.terms.get(mask, 0.0) == pytest.approx(c, abs=1e-10)


def test_zpoly_arithmetic_examples():
    z = walsh.ZPolynomial(1, {1: 1.0})
    assert walsh.zpoly_mul(z, z).terms == {0: 1.0}

    ident = walsh.ZPolynomial(3, {0: 2.0})
    other = walsh.ZPolynomial(3, {5: 3.0})
    assert walsh.zpoly_mul(ident, other).terms == {5: 6.0}

    proj = walsh.ZPolynomial(1, {0: 0.5, 1: -0.5})  # (1 - Z)/2
    sq = walsh.zpoly_mul(proj, proj)
    assert sq.terms == pytest.approx({0: 0.5, 1: -0.5})


def test_zpoly_mul_matches_pointwise_product():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 8):
        size = 2**n
        a = fwht_expand(rng.normal(size=size))
        b = fwht_expand(rng.normal(size=size))
        prod = walsh.zpoly_mul(a, b)
        expected = walsh.reconstruct(a) * walsh.reconstruct(b)
        assert np.max(np.abs(walsh.reconstruct(prod) - expected)) < 1e-9


def test_zpoly_register_mismatch():
    a = walsh.ZPolynomial(2, {1: 1.0})
    b = walsh.ZPolynomial(3, {1: 1.0})
    with pytest.raises(StructureError):
        walsh.zpoly_add(a, b)
    with pytest.raises(StructureError):
        walsh.zpoly_mul(a, b)


def test_embedded_grid_reads_scenario_bits():
    """The grid operator on a wider register reproduces xi_s from the low bits."""
    n_xi, total = 5, 11
    grid = np.linspace(0.0, 2500.0, 2**n_xi)
    xi_hat = walsh.ZPolynomial(
        total, walsh.arithmetic_expansion(0.0, 2500.0, n_xi).terms)
    rng = np.random.default_rng(2)
    for s in range(2**n_xi):
        high = int(rng.integers(2 ** (total - n_xi)))
        index = (high << n_xi) | s
        assert eval_at(xi_hat, index) == pytest.approx(grid[s], abs=1e-9)


def test_eval_at_examples():
    const = walsh.ZPolynomial(4, {0: 2.5})
    assert eval_at(const, 7) == 2.5
    z0 = walsh.ZPolynomial(1, {1: 1.0})
    assert eval_at(z0, 0) == 1.0
    assert eval_at(z0, 1) == -1.0
    with pytest.raises(StructureError):
        eval_at(z0, 2)


def test_squared_grid_term_count_bound():
    for n_xi in range(1, 9):
        xi = walsh.arithmetic_expansion(0.0, 2500.0, n_xi)
        sq = walsh.zpoly_mul(xi, xi)
        assert len(sq.terms) <= (n_xi + 1) ** 2


def test_pruning_drops_tiny_coefficients():
    a = walsh.ZPolynomial(1, {0: 1.0, 1: 1.0})
    b = walsh.ZPolynomial(1, {0: 1.0, 1: -1.0})
    # (1 + Z)(1 - Z) = 1 - Z^2 = 0
    assert walsh.zpoly_mul(a, b).terms == {}
