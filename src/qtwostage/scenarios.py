"""Uncertainty model for the PV supply.

The PV output for one period is xi = xi_max * CF with the capacity factor
CF drawn from a Beta distribution.  Continuous samples are discretized two
ways: binned onto a power-of-two uniform grid (the distribution a quantum
register can load), and compressed into a small equal-weight test-scenario
set by the quantile method (the distribution classical evaluation uses).
Distribution agreement is scored as 1 minus the base-2 Jensen-Shannon
divergence, so the score lives in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import StructureError


def sample_pv(
    n: int, alpha: float, beta: float, xi_max: float, seed: int
) -> np.ndarray:
    """n i.i.d. PV outputs, Beta-distributed capacity factor scaled by xi_max.

    The Beta variate is formed from two Gamma draws, g1/(g1+g2).
    """
    if alpha <= 0 or beta <= 0:
        raise StructureError("Beta shape parameters must be positive")
    if n < 1:
        raise StructureError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(seed))  # counter-based
    g1 = rng.gamma(alpha, 1.0, size=n)
    g2 = rng.gamma(beta, 1.0, size=n)
    cf = g1 / (g1 + g2)
    return xi_max * cf


def uniform_grid(xi_min: float, xi_max: float, n: int) -> np.ndarray:
    """N equally spaced points, endpoints inclusive; N must be a power of two."""
    if n < 2 or n & (n - 1):
        raise StructureError(f"grid size must be a power of two >= 2, got {n}")
    if not xi_max > xi_min:
        raise StructureError(f"degenerate interval [{xi_min}, {xi_max}]")
    return np.linspace(xi_min, xi_max, n)


def bin_to_grid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Relative frequencies in equal-width bins centered on the grid points.

    Bin edges sit at midpoints between neighboring grid points; the outer
    bins absorb everything beyond the end points.
    """
    if len(values) == 0:
        raise StructureError("empty sample set")
    edges = (grid[:-1] + grid[1:]) / 2.0
    counts = np.bincount(
        np.searchsorted(edges, values, side="right"), minlength=len(grid)
    ).astype(float)
    probs = counts / len(values)
    # the largest bin absorbs float rounding so the masses total 1 to within
    # a couple of ulps without any empty bin ever dipping below zero; an
    # exact float total is not always representable under round-to-even
    probs[np.argmax(probs)] -= probs.sum() - 1.0
    return probs


def quantile_test_set(values: np.ndarray, n_test: int) -> np.ndarray:
    """Equal-weight scenarios at the (s + 0.5)/n_test empirical quantiles."""
    if not 1 <= n_test <= len(values):
        raise StructureError(f"n_test must be in [1, {len(values)}], "
                             f"got {n_test}")
    levels = (np.arange(n_test) + 0.5) / n_test
    return np.quantile(values, levels)


def js_agreement(p: np.ndarray, q: np.ndarray) -> float:
    """1 - JS(p, q) with base-2 logs; 1 means identical, 0 disjoint."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise StructureError(f"length mismatch: {p.shape} vs {q.shape}")
    for dist in (p, q):
        if np.any(dist < -1e-12) or abs(dist.sum() - 1.0) > 1e-9:
            raise StructureError("inputs must be probability distributions")
    # entries within the negative tolerance are rounding artifacts
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    m = (p + q) / 2.0

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 1.0 - (kl(p, m) + kl(q, m)) / 2.0
