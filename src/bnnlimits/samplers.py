"""Random-variate generation.

Covers Inverse-Gamma, multivariate Gaussian, multivariate Student-t (via the
Gaussian-Inverse-Gamma mixture), and the non-standard conditional of the
likelihood variance sigma2 given the network parameters, whose density is
p(s) ∝ s^{-(a'+1)} exp(-b'/s) exp(c'/sqrt(s)) on (0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import psd_cholesky
from .posteriors import LinearAlgebraError
from .rng import RngStream

REJECTION_BUDGET = 10_000


class SamplerError(RuntimeError):
    pass


def sample_inverse_gamma(
    a: float, b: float, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draws with density ∝ s^{-(a+1)} e^{-b/s} (reciprocal of Gamma(a, rate b))."""
    if a <= 0 or b <= 0:
        raise ValueError("Inverse-Gamma parameters must be strictly positive")
    g = rng.gen.gamma(shape=a, scale=1.0 / b, size=size)
    return 1.0 / g


def sample_mvn(
    mean: np.ndarray, cov: np.ndarray, rng: RngStream, size: int | None = None
) -> np.ndarray:
    """Multivariate normal draws through the Cholesky factor of cov.

    A singular PSD covariance gets the smallest shift on the jitter ladder
    that factors (kernels.psd_cholesky). Returns shape (d,) or (size, d).
    """
    mean = np.ravel(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError("covariance shape does not match mean")
    factor = psd_cholesky(0.5 * (cov + cov.T))
    if factor is None:
        raise LinearAlgebraError("covariance is not PSD within the jitter budget")
    n = 1 if size is None else size
    z = rng.gen.standard_normal((n, d))
    draws = mean + z @ factor[0].T
    return draws[0] if size is None else draws


def sample_mvt(
    nu: float,
    mu: np.ndarray,
    sigma: np.ndarray,
    rng: RngStream,
    size: int | None = None,
) -> np.ndarray:
    """Multivariate Student-t via the scale mixture s ~ IG(nu/2, nu/2), z ~ N(mu, s Sigma)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    mu = np.ravel(np.asarray(mu, dtype=float))
    n = 1 if size is None else size
    s = np.asarray(sample_inverse_gamma(nu / 2.0, nu / 2.0, rng, size=n))
    centered = sample_mvn(np.zeros_like(mu), sigma, rng, size=n)
    draws = mu + np.sqrt(s)[:, None] * centered
    return draws[0] if size is None else draws


@dataclass(frozen=True)
class Sigma2ConditionalParams:
    """Parameters (a', b', c') of the sigma2 | theta, D conditional density."""

    a_prime: float
    b_prime: float
    c_prime: float

    def __post_init__(self):
        if self.a_prime <= 0 or self.b_prime <= 0:
            raise ValueError("a' and b' must be strictly positive")

    def log_density(self, s: np.ndarray) -> np.ndarray:
        """Unnormalized log density in the sigma2 variable."""
        s = np.asarray(s, dtype=float)
        return (
            -(self.a_prime + 1.0) * np.log(s)
            - self.b_prime / s
            + self.c_prime / np.sqrt(s)
        )

    def log_density_y(self, y: np.ndarray) -> np.ndarray:
        """Unnormalized log density after the substitution y = 1/sqrt(s)."""
        y = np.asarray(y, dtype=float)
        return (
            (2.0 * self.a_prime - 1.0) * np.log(y)
            - self.b_prime * y * y
            + self.c_prime * y
        )


def _y_mode(p: Sigma2ConditionalParams) -> float:
    """Mode of the y-substituted density (requires a' > 1/2)."""
    a2 = 2.0 * p.a_prime - 1.0
    return (p.c_prime + math.sqrt(p.c_prime**2 + 8.0 * p.b_prime * a2)) / (
        4.0 * p.b_prime
    )


def _slice_sample_y(p: Sigma2ConditionalParams, rng: RngStream, n: int) -> np.ndarray:
    """Slice sampler on the y-density; fallback when rejection stalls."""
    y = _y_mode(p)
    out = np.empty(n)
    gen = rng.gen
    for i in range(n * 10):
        logu = p.log_density_y(y) + math.log(gen.uniform(1e-300, 1.0))
        w = 1.0 / math.sqrt(p.b_prime)
        lo, hi = max(y - w * gen.uniform(), 1e-300), y + w * gen.uniform()
        while p.log_density_y(lo) > logu and lo > 1e-300:
            lo = max(lo - w, 1e-300)
        while p.log_density_y(hi) > logu:
            hi += w
        while True:
            cand = gen.uniform(lo, hi)
            if p.log_density_y(cand) > logu:
                y = cand
                break
            if cand < y:
                lo = cand
            else:
                hi = cand
        if i % 10 == 9:  # thin to reduce slice-chain autocorrelation
            out[(i + 1) // 10 - 1] = y
    return out


def sample_sigma2_conditional(
    p: Sigma2ConditionalParams, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Exact draws from the sigma2 conditional.

    Substituting y = 1/sqrt(s) gives density ∝ y^{2a'-1} e^{-b' y^2 + c' y}.
    Proposal: Gamma(2a', rate lambda) with lambda = (2a'-1)/y* matched at the
    target mode y*; the acceptance probability is exp(-b'(y - y*)^2) <= 1
    exactly. Falls back to slice sampling if the rejection budget is spent.
    Returns s = y^{-2}.
    """
    if 2.0 * p.a_prime <= 1.0:
        y = _slice_sample_y(p, rng, 1 if size is None else size)
        return float(y[0] ** -2) if size is None else y**-2.0

    n = 1 if size is None else int(size)
    y_star = _y_mode(p)
    lam = (2.0 * p.a_prime - 1.0) / y_star
    out = np.empty(n)
    filled = 0
    gen = rng.gen
    attempts = 0
    while filled < n:
        batch = max(2 * (n - filled), 64)
        cand = gen.gamma(shape=2.0 * p.a_prime, scale=1.0 / lam, size=batch)
        acc = gen.uniform(size=batch) < np.exp(-p.b_prime * (cand - y_star) ** 2)
        good = cand[acc]
        take = min(good.shape[0], n - filled)
        out[filled : filled + take] = good[:take]
        filled += take
        attempts += batch
        if attempts > REJECTION_BUDGET * max(n, 1) and filled == 0:
            out[:] = _slice_sample_y(p, rng, n)
            break
    s = out**-2.0
    return float(s[0]) if size is None else s
