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

import math

import numpy as np


def sample_pv(
    n: int, alpha: float, beta: float, xi_max: float, seed: int
) -> np.ndarray:
    """n i.i.d. PV outputs, Beta-distributed capacity factor scaled by xi_max.

    The Beta variate is formed from two Gamma draws, g1/(g1+g2).
    """
    rng = np.random.Generator(np.random.Philox(seed))  # counter-based
    g1 = rng.gamma(alpha, 1.0, size=n)
    g2 = rng.gamma(beta, 1.0, size=n)
    cf = g1 / (g1 + g2)
    return xi_max * cf


def uniform_grid(xi_min: float, xi_max: float, n: int) -> np.ndarray:
    """N equally spaced points, endpoints inclusive."""
    return np.linspace(xi_min, xi_max, n)


def bin_to_grid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Relative frequencies in equal-width bins centered on the grid points.

    Bin edges sit at midpoints between neighboring grid points; the outer
    bins absorb everything beyond the end points.
    """
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
    """Equal-weight scenarios at the (s + 0.5)/n_test empirical quantiles.

    This is numpy's default linear rule, ``np.quantile(values, levels)``
    bitwise, written out from one sort: numpy's own path runs ``np.unique``,
    which imports ``numpy.ma`` and sets ``gen-data``'s peak memory.
    """
    levels = (np.arange(n_test) + 0.5) / n_test
    ordered = np.sort(values)
    index = levels * (len(ordered) - 1)
    below = index.astype(np.intp)  # the floor, as no index is negative
    t = index - below
    a, b = ordered[below], ordered[np.minimum(below + 1, len(ordered) - 1)]
    # numpy's _lerp: interpolate from the nearer end point
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def js_agreement(p: np.ndarray, q: np.ndarray) -> float:
    """1 - JS(p, q) with base-2 logs; 1 means identical, 0 disjoint."""
    # slightly negative entries are rounding artifacts
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    m = (p + q) / 2.0

    def kl(a, b):
        mask = a > 0
        # math.log2: numpy's float64 log2 differs between its AVX-512 and AVX2 loops
        logs = np.array([math.log2(r) for r in a[mask] / b[mask]])
        return float(np.sum(a[mask] * logs))

    return 1.0 - (kl(p, m) + kl(q, m)) / 2.0
