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
    """Draws with density ∝ s^{-(a+1)} e^{-b/s} (reciprocal of Gamma(a, rate b)).

    Raises SamplerError if a Gamma draw is below the smallest normal float.
    """
    if a <= 0 or b <= 0:
        raise ValueError("Inverse-Gamma parameters must be strictly positive")
    g = rng.gen.gamma(shape=a, scale=1.0 / b, size=size)
    if not np.all(g >= np.finfo(float).tiny):  # a tiny shape underflows g
        raise SamplerError(
            f"Gamma(a={a:.3g}, rate {b:.3g}) draw underflowed, so the "
            "Inverse-Gamma draw 1/g is out of floating-point range"
        )
    return 1.0 / g


def sample_mvn(mean: np.ndarray, cov: np.ndarray, rng: RngStream, size: int) -> np.ndarray:
    """Multivariate normal draws through the Cholesky factor of cov.

    A singular PSD covariance gets the smallest shift on the jitter ladder
    that factors (kernels.psd_cholesky). Returns shape (size, d).
    """
    mean = np.ravel(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError("covariance shape does not match mean")
    factor = psd_cholesky(0.5 * (cov + cov.T))
    if factor is None:
        raise LinearAlgebraError("covariance is not PSD within the jitter budget")
    z = rng.gen.standard_normal((size, d))
    return mean + z @ factor[0].T


def sample_mvt(
    nu: float,
    mu: np.ndarray,
    sigma: np.ndarray,
    rng: RngStream,
    size: int,
) -> np.ndarray:
    """Multivariate Student-t via the scale mixture s ~ IG(nu/2, nu/2), z ~ N(mu, s Sigma)."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    mu = np.ravel(np.asarray(mu, dtype=float))
    s = sample_inverse_gamma(nu / 2.0, nu / 2.0, rng, size=size)
    centered = sample_mvn(np.zeros_like(mu), sigma, rng, size=size)
    return mu + np.sqrt(s)[:, None] * centered


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


def sample_sigma2_conditional(
    p: Sigma2ConditionalParams, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Exact draws from the sigma2 conditional, for every a' > 0.

    Substituting y = 1/sqrt(s) gives density ∝ y^{2a'-1} e^{-b' y^2 + c' y}.
    Proposal: Gamma(2a', rate lam), with y* the positive root of
    2b'y^2 - c'y - q = 0 and lam = q / y* = 2b'y* - c'; the acceptance
    probability is then exp(-b'(y - y*)^2) <= 1 exactly for any q > 0.
    q = 2a' - 1 makes y* the mode of the target; below a' = 1 it is floored
    at a' to stay positive. Raises SamplerError if lam is not a positive
    float (c'^2 overflows, or y* rounds to 0 or inf) or if the rejection
    budget is spent without an accepted draw. Returns s = y^{-2}.
    """
    n = 1 if size is None else int(size)
    q = max(2.0 * p.a_prime - 1.0, p.a_prime)
    try:
        y_star = (p.c_prime + math.sqrt(p.c_prime**2 + 8.0 * p.b_prime * q)) / (
            4.0 * p.b_prime
        )
        lam = q / y_star
    except (OverflowError, ZeroDivisionError):
        lam = math.nan
    if not 0.0 < lam < math.inf:
        raise SamplerError(
            f"sigma2 conditional (a'={p.a_prime:.3g}, b'={p.b_prime:.3g}, "
            f"c'={p.c_prime:.3g}) has no finite proposal rate"
        )
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
            raise SamplerError(
                f"sigma2 rejection step accepted none of {attempts} proposals "
                f"(a'={p.a_prime:.3g}, b'={p.b_prime:.3g}, c'={p.c_prime:.3g})"
            )
    s = out**-2.0
    return float(s[0]) if size is None else s
