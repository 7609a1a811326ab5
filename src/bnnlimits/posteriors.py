"""Closed-form limiting posteriors.

Under the hierarchical model the infinite-width posterior of the network
output at the training inputs is Gaussian given sigma2 with covariance
sigma2 * M^{-1}, M = I + K'^{-1}, while sigma2 | D is Inverse-Gamma;
marginalizing gives a multivariate Student-t. Every posterior here is one
Gaussian conditioning step (_condition) on a kernel with noise * I: the GP
baseline on K with noise_var (gp_posterior), the Student-t on K' with unit
noise (tp_posterior_predict), its scale then multiplied by the Inverse-Gamma
rate over the shape. At the training inputs the step
gives M^{-1} = K'(K' + I)^{-1} = K' - K'(K' + I)^{-1}K', and
I - M^{-1} = (K' + I)^{-1}, so the rate is beta = b + y^T (K' + I)^{-1} y / 2.
Single-output networks only (n_L = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .kernels import KernelMatrix, LinearAlgebraError, psd_cholesky


def _condition(kd, kc, kt, y, noise):
    """Condition a zero-mean Gaussian on y observed with noise * I.

    With alpha = (kd + noise I)^{-1} y, returns (kc alpha,
    kt - kc (kd + noise I)^{-1} kc^T, y^T alpha), each a fresh array. No
    data (n = 0) gives the prior (0, kt, 0). The solve factors kd + noise I on
    the full jitter ladder (psd_cholesky). Raises LinearAlgebraError if no
    rung factors it, or if y or y^T alpha is not finite (observations too
    large for floating point).
    """
    y = np.ravel(np.asarray(y, dtype=float))
    if y.shape[0] != kd.shape[0]:
        raise ValueError("y length must match the train kernel")
    if not np.all(np.isfinite(y)):
        raise LinearAlgebraError("observations are not finite: they overflow floating point")
    factor = psd_cholesky(kd + noise * np.eye(kd.shape[0]))
    if factor is None:
        raise LinearAlgebraError(
            "matrix is singular beyond the jitter budget; "
            "add jitter explicitly or deduplicate near-identical inputs"
        )
    sol = cho_solve((factor[0], True), np.column_stack([y, kc.T]))
    y_alpha = float(y @ sol[:, 0])
    if not math.isfinite(y_alpha):
        raise LinearAlgebraError(
            f"y^T (K + noise I)^-1 y = {y_alpha}: the observations overflow floating point"
        )
    cov = kc @ sol[:, 1:]
    np.subtract(kt, cov, out=cov)  # in place: one m x m temporary fewer
    return kc @ sol[:, 0], cov, y_alpha


@dataclass(frozen=True)
class GaussianPosterior:
    """The conditioning step's mean and covariance (symmetric up to rounding)."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class StudentTPosterior:
    """Multivariate Student-t: dof nu, location mu, scale matrix Sigma.

    Holds the arrays it is given: a scale is symmetric up to rounding.
    """

    nu: float
    location: np.ndarray
    scale: np.ndarray


def gp_posterior(
    k_train: np.ndarray,
    k_cross: np.ndarray,
    k_test: np.ndarray,
    y: np.ndarray,
    noise_var: float,
) -> GaussianPosterior:
    """GP regression: mean = Kc (Kt + s I)^{-1} y, cov = K* - Kc (...)^{-1} Kc^T."""
    if noise_var <= 0:
        raise ValueError("noise_var must be strictly positive")
    k_train = np.atleast_2d(np.asarray(k_train, dtype=float))
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    k_test = np.atleast_2d(np.asarray(k_test, dtype=float))
    mean, cov, _ = _condition(k_train, k_cross, k_test, y, noise_var)
    return GaussianPosterior(mean, cov)


def tp_posterior_predict(
    kprime_full: KernelMatrix, y: np.ndarray, a: float, b: float
) -> StudentTPosterior:
    """Student-t posterior predictive at the test partition.

    location = K'_TD (K'_D + I)^{-1} y;
    scale = beta_post * (2/nu) * [K'_T - K'_TD (K'_D + I)^{-1} K'_DT];
    nu = 2a + k, beta_post = b + y (K'_D + I)^{-1} y^T / 2; with no data
    (k = 0) this is the marginal prior t_{2a}(0, (b/a) K'_T).
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    location, schur, y_alpha = _condition(
        kprime_full.train, kprime_full.cross, kprime_full.test, y, 1.0
    )
    alpha = a + kprime_full.n_train / 2.0
    schur *= (b + 0.5 * y_alpha) / alpha  # in place: the conditioning step's own array
    return StudentTPosterior(2.0 * alpha, location, schur)

