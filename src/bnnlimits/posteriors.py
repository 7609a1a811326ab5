"""Closed-form limiting posteriors.

Under the hierarchical model the infinite-width posterior of the network
output at the training inputs is Gaussian given sigma2 with covariance
sigma2 * M^{-1}, M = I + K'^{-1}, while sigma2 | D is Inverse-Gamma;
marginalizing gives a multivariate Student-t. Every posterior here is one
Gaussian conditioning step (_condition) on a kernel with noise * I: the GP
baseline on K with noise_var (gp_posterior), the Student-t on K' with unit
noise (_t_predictive), its scale then multiplied by the Inverse-Gamma rate. At the training inputs the step
gives M^{-1} = K'(K' + I)^{-1} = K' - K'(K' + I)^{-1}K', and
I - M^{-1} = (K' + I)^{-1}, so the rate is beta = b + y^T (K' + I)^{-1} y / 2.
Single-output networks only (n_L = 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import gammaln

from .kernels import KernelMatrix, LinearAlgebraError, psd_cholesky


def solve_psd(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric PD A on the full jitter ladder (psd_cholesky).

    Raises with a hint to deduplicate inputs if the jitter budget fails.
    """
    factor = psd_cholesky(np.asarray(A, dtype=float))
    if factor is None:
        raise LinearAlgebraError(
            "matrix is singular beyond the jitter budget; "
            "add jitter explicitly or deduplicate near-identical inputs"
        )
    return cho_solve((factor[0], True), B)


def _condition(kd, kc, kt, y, noise):
    """Condition a zero-mean Gaussian on y observed with noise * I.

    With alpha = (kd + noise I)^{-1} y, returns (kc alpha,
    kt - kc (kd + noise I)^{-1} kc^T, y^T alpha), each a fresh array. No
    data (n = 0) gives the prior (0, kt, 0). Raises LinearAlgebraError if y
    or y^T alpha is not finite (observations too large for floating point).
    """
    y = np.ravel(np.asarray(y, dtype=float))
    if y.shape[0] != kd.shape[0]:
        raise ValueError("y length must match the train kernel")
    if not np.all(np.isfinite(y)):
        raise LinearAlgebraError("observations are not finite: they overflow floating point")
    A = kd + noise * np.eye(kd.shape[0])
    sol = solve_psd(A, np.column_stack([y, kc.T]))
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
class IGPosterior:
    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Inverse-Gamma parameters must be strictly positive")


@dataclass(frozen=True)
class StudentTPosterior:
    """Multivariate Student-t: dof nu, location mu, scale matrix Sigma.

    Holds the arrays it is given: a scale is symmetric up to rounding.
    """

    nu: float
    location: np.ndarray
    scale: np.ndarray

    def mean(self) -> np.ndarray:
        if self.nu <= 1:
            raise ValueError("mean requires nu > 1")
        return self.location

    def covariance(self) -> np.ndarray:
        if self.nu <= 2:
            raise ValueError("covariance requires nu > 2")
        return self.nu / (self.nu - 2.0) * self.scale


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


def _train_block(kprime_train: KernelMatrix | np.ndarray) -> np.ndarray:
    """K'_D as a 2-D float array, from a KernelMatrix or a matrix."""
    k = kprime_train.train if isinstance(kprime_train, KernelMatrix) else kprime_train
    return np.atleast_2d(np.asarray(k, dtype=float))


def nig_posterior(
    kprime_train: KernelMatrix | np.ndarray, y: np.ndarray, a: float, b: float
) -> tuple[np.ndarray, GaussianPosterior, IGPosterior]:
    """Joint posterior pieces under the hierarchical model.

    Returns (M, Gaussian given sigma2 with covariance template M^{-1} to be
    scaled by sigma2, and the Inverse-Gamma posterior of sigma2):
    M = I + K'^{-1}; mean = y M^{-1}; sigma2 | D ~ IG(a + k/2,
    b + y (I - M^{-1}) y^T / 2).
    """
    k = _train_block(kprime_train)
    mean, minv, alpha, beta = _t_predictive(k, k, k, y, a, b)
    kinv = solve_psd(k, np.eye(k.shape[0]))
    return (np.eye(k.shape[0]) + 0.5 * (kinv + kinv.T), GaussianPosterior(mean, minv),
            IGPosterior(alpha, beta))


def tp_posterior_train(
    kprime_train: KernelMatrix | np.ndarray, y: np.ndarray, a: float, b: float
) -> StudentTPosterior:
    """Marginal Student-t posterior at the training inputs.

    nu = 2a + k, location = y M^{-1},
    scale = (b + y(I - M^{-1})y^T/2) * (2/(2a+k)) * M^{-1}.
    """
    if a <= 0.5:
        warnings.warn(
            f"a={a} <= 1/2: outside the admissible hyperparameter region; "
            "the Student-t posterior may lack a mean",
            stacklevel=2,
        )
    k = _train_block(kprime_train)
    location, minv, alpha, beta = _t_predictive(k, k, k, y, a, b)
    minv *= beta / alpha  # in place: minv is the conditioning step's own array
    return StudentTPosterior(2.0 * alpha, location, minv)


def tp_posterior_predict(
    kprime_full: KernelMatrix, y: np.ndarray, a: float, b: float
) -> StudentTPosterior:
    """Student-t posterior predictive at the test partition.

    location = K'_TD (K'_D + I)^{-1} y;
    scale = beta_post * (2/nu) * [K'_T - K'_TD (K'_D + I)^{-1} K'_DT];
    nu = 2a + k, beta_post = b + y (K'_D + I)^{-1} y^T / 2; with no data
    (k = 0) this is the marginal prior t_{2a}(0, (b/a) K'_T).
    """
    location, schur, alpha, beta = _t_predictive(
        kprime_full.train, kprime_full.cross, kprime_full.test, y, a, b
    )
    schur *= beta / alpha  # in place: schur is the conditioning step's own array
    return StudentTPosterior(2.0 * alpha, location, schur)


def _t_predictive(kd, kc, kt, y, a: float, b: float
                  ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(location, Schur complement, alpha, beta): _condition on K' with unit noise.

    The t has nu = 2 alpha and scale (beta / alpha) times the Schur complement.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    location, schur, y_alpha = _condition(kd, kc, kt, y, 1.0)
    return location, schur, a + kd.shape[0] / 2.0, b + 0.5 * y_alpha


def marginalize_nig_to_t(
    mu: np.ndarray, lam: np.ndarray, alpha: float, beta: float
) -> StudentTPosterior:
    """z | s ~ N(mu, s Lam), s ~ IG(alpha, beta)  =>  z ~ t_{2alpha}(mu, (beta/alpha) Lam)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be strictly positive")
    return StudentTPosterior(2.0 * alpha, np.ravel(np.asarray(mu, dtype=float)),
                             (beta / alpha) * np.atleast_2d(lam))


def student_t_logpdf(
    x: np.ndarray, nu: float, mu: np.ndarray, sigma: np.ndarray
) -> float:
    """Log density of the k-dimensional Student-t with scale matrix sigma."""
    x = np.ravel(np.asarray(x, dtype=float))
    mu = np.ravel(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    k = x.shape[0]
    if nu <= 0:
        raise ValueError("nu must be positive")
    factor = psd_cholesky(0.5 * (sigma + sigma.T), 0.0)
    if factor is None:
        raise LinearAlgebraError("scale matrix must be positive definite")
    L = factor[0]
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    d = x - mu
    q = float(d @ cho_solve((L, True), d))
    return float(
        gammaln((nu + k) / 2.0)
        - gammaln(nu / 2.0)
        - 0.5 * k * math.log(nu * math.pi)
        - 0.5 * logdet
        - 0.5 * (nu + k) * math.log1p(q / nu)
    )
