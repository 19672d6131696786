"""Scenario-data checks: sampling moments, grids, binning, quantiles, JS."""

import numpy as np
import pytest
from scipy.spatial.distance import jensenshannon

from qtwostage import scenarios as sc
from qtwostage.errors import StructureError


def test_sample_mean_matches_beta_mean():
    values = sc.sample_pv(2000, 3.0, 7.0, 2500.0, seed=101)
    assert np.all((0 <= values) & (values <= 2500.0))
    stderr = values.std() / np.sqrt(len(values))
    assert abs(values.mean() - 750.0) < 3 * stderr


def test_beta_moments():
    alpha, beta = 3.0, 7.0
    cf = sc.sample_pv(2000, alpha, beta, 1.0, seed=7)
    mean = alpha / (alpha + beta)
    var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1))
    assert abs(cf.mean() - mean) < 4 * np.sqrt(var / 2000)
    # std error of the sample variance via the fourth central moment
    m4 = np.mean((cf - cf.mean()) ** 4)
    se_var = np.sqrt((m4 - var**2) / 2000)
    assert abs(cf.var() - var) < 4 * se_var


def test_flat_beta_is_uniform():
    values = sc.sample_pv(2000, 1.0, 1.0, 2500.0, seed=3)
    sorted_v = np.sort(values) / 2500.0
    ecdf = np.arange(1, 2001) / 2000.0
    ks = max(np.max(np.abs(ecdf - sorted_v)),
             np.max(np.abs(ecdf - 1 / 2000 - sorted_v)))
    assert ks < 0.05


def test_sampling_deterministic_per_seed():
    a = sc.sample_pv(50, 3.0, 7.0, 2500.0, seed=42)
    b = sc.sample_pv(50, 3.0, 7.0, 2500.0, seed=42)
    c = sc.sample_pv(50, 3.0, 7.0, 2500.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

    with pytest.raises(StructureError):
        sc.sample_pv(10, 0.0, 7.0, 2500.0, seed=1)


def test_uniform_grid():
    grid = sc.uniform_grid(0.0, 2500.0, 32)
    assert len(grid) == 32
    assert grid[0] == 0.0 and grid[-1] == 2500.0
    assert np.allclose(np.diff(grid), 2500.0 / 31)

    assert np.array_equal(sc.uniform_grid(0.0, 3.0, 4), [0.0, 1.0, 2.0, 3.0])

    for bad in (3, 1, 0, 12):
        with pytest.raises(StructureError):
            sc.uniform_grid(0.0, 1.0, bad)


def test_binning():
    grid = sc.uniform_grid(0.0, 3.0, 4)

    point = np.full(10, 2.0)
    assert np.array_equal(sc.bin_to_grid(point, grid), [0, 0, 1, 0])

    # clamping: outliers beyond the end points land in the outer bins
    wild = sc.bin_to_grid(np.array([-5.0, 9.0, 9.0]), grid)
    assert np.allclose(wild, [1 / 3, 0, 0, 2 / 3], atol=1e-15)
    assert abs(wild.sum() - 1.0) <= 5e-16

    uniform = np.random.Generator(np.random.Philox(5)).uniform(
        0.0, 3.0, size=2000)
    binned = sc.bin_to_grid(uniform, grid)
    assert abs(binned.sum() - 1.0) <= 5e-16
    # interior bins cover 1/3 of the mass, outer bins 1/6 each
    expected = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert np.max(np.abs(binned - expected)) < 5 / np.sqrt(2000)


def test_binning_conservation_random():
    grid = sc.uniform_grid(0.0, 2500.0, 16)
    for seed in range(5):
        samples = sc.sample_pv(777, 3.0, 7.0, 2500.0, seed=seed)
        assert abs(sc.bin_to_grid(samples, grid).sum() - 1.0) <= 5e-16


def test_binning_never_goes_negative():
    # rounding absorption must not push an empty bin below zero
    for size in (4, 8, 16):
        grid = sc.uniform_grid(0.0, 2500.0, size)
        for seed in range(40):
            samples = sc.sample_pv(2000, 3.0, 7.0, 2500.0, seed=seed)
            probs = sc.bin_to_grid(samples, grid)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) <= 5e-16


def test_quantile_test_set():
    ladder = np.arange(200.0)
    test_set = sc.quantile_test_set(ladder, 200)
    assert test_set.shape == (200,)
    assert np.max(np.abs(test_set - np.arange(200.0))) <= 1.0
    assert np.all(np.diff(test_set) >= 0)

    single = sc.quantile_test_set(ladder, 1)
    assert single[0] == pytest.approx(np.median(ladder))

    samples = sc.sample_pv(2000, 3.0, 7.0, 2500.0, seed=11)
    qs = sc.quantile_test_set(samples, 200)
    assert abs(qs.mean() - samples.mean()) < 0.02 * samples.mean()

    with pytest.raises(StructureError):
        sc.quantile_test_set(ladder, 201)


def test_js_agreement_examples():
    p = np.array([0.2, 0.5, 0.3])
    assert sc.js_agreement(p, p) == pytest.approx(1.0)

    assert sc.js_agreement(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == \
        pytest.approx(0.0)

    assert sc.js_agreement(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == \
        pytest.approx(0.6887, abs=5e-5)

    with pytest.raises(StructureError):
        sc.js_agreement(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(StructureError):
        sc.js_agreement(np.array([1.0, 0.5]), np.array([0.5, 0.5]))


def test_js_agreement_tolerates_rounding_negatives():
    # entries a hair below zero (within tolerance) must not poison the logs
    p = np.array([0.5, 0.5 - 1e-16, 1.11e-16, -1.11e-16])
    q = np.array([0.5, 0.5, 0.0, 0.0])
    got = sc.js_agreement(p, q)
    assert np.isfinite(got)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_js_agreement_against_library_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        want = 1.0 - jensenshannon(p, q, base=2) ** 2
        assert sc.js_agreement(p, q) == pytest.approx(want, abs=1e-10)
        assert sc.js_agreement(p, q) == sc.js_agreement(q, p)
