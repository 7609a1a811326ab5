"""Bulk ESS against chains whose effective sample size is known.

Run from the repository root: python -m pytest perfbench
"""

import math

import numpy as np
import pytest

from ess import _autocovariance, bulk_ess


def ar1(phi: float, chains: int, n: int, seed: int) -> np.ndarray:
    """Stationary unit-variance AR(1) chains; ESS = chains * n * (1 - phi) / (1 + phi)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((chains, n)) * math.sqrt(1.0 - phi * phi)
    x = np.empty((chains, n))
    x[:, 0] = rng.standard_normal(chains)
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.5])
def test_ar1_chains_match_known_ess(phi):
    chains, n = 4, 5000
    x = ar1(phi, chains, n, seed=int(100 * (phi + 1)))
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(x) == pytest.approx(expected, rel=0.15)


def test_fft_autocovariance_matches_direct_sums():
    x = ar1(0.6, 3, 257, seed=2)
    c = x - x.mean(axis=1, keepdims=True)
    n = x.shape[1]
    direct = np.array([[c[m, : n - t] @ c[m, t:] / n for t in range(n)] for m in range(3)])
    np.testing.assert_allclose(_autocovariance(x), direct, rtol=0, atol=1e-12)


def test_single_chain_is_split_in_two():
    x = ar1(0.5, 1, 20000, seed=7)
    assert bulk_ess(x[0]) == pytest.approx(20000 / 3.0, rel=0.15)


def test_rank_normalisation_ignores_monotone_transforms():
    x = ar1(0.7, 2, 400, seed=3)
    assert bulk_ess(np.exp(3.0 * x)) == bulk_ess(x)


def test_trend_within_a_chain_lowers_ess():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2000) + np.linspace(0.0, 6.0, 2000)
    assert bulk_ess(x) < 0.1 * 2000


def test_antithetic_chain_is_capped():
    x = ar1(-0.95, 1, 100, seed=5)
    assert bulk_ess(x) <= 100 * math.log10(100) + 1e-9


def test_rejects_short_or_non_finite_draws():
    with pytest.raises(ValueError):
        bulk_ess([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        bulk_ess([0.0, 1.0, np.nan, 2.0, 3.0])
