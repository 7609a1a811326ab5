"""Rank-normalised bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16(2), 2021: split every chain in half, replace the
pooled draws by normal scores of their ranks, then estimate the integrated
autocorrelation time with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def split_chains(draws: np.ndarray) -> np.ndarray:
    """(chains, n) -> (2 * chains, n // 2); the middle draw of odd n is dropped."""
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half:]])


def rank_normalise(draws: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks, with Blom's (r - 3/8) / (S + 1/4) offset."""
    ranks = stats.rankdata(draws, method="average").reshape(draws.shape)
    return stats.norm.ppf((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, by zero-padded FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size of (chains, n) draws, without splitting or ranking."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while their sum stays positive, and force
    # the pair sums to be non-increasing.
    tau = -1.0
    bound = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        bound = min(bound, pair)
        tau += 2.0 * bound
    # An antithetic chain can give tau < 1; cap the estimate at S log10(S).
    tau = max(tau, 1.0 / math.log10(m * n))
    return float(m * n / tau)


def bulk_ess(draws) -> float:
    """Rank-normalised split bulk ESS of a scalar quantity.

    ``draws`` is (n,) for one chain or (chains, n) for several; n >= 4.
    """
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("need (chains, n) draws with n >= 4")
    if not np.all(np.isfinite(x)):
        raise ValueError("draws must be finite")
    return ess(rank_normalise(split_chains(x)))
