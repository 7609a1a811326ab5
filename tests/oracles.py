"""Reference implementations the tests check the package against.

None of these runs in a subcommand. Each is a second path beside one that
does: a separate log prior and log likelihood beside
`log_posterior_and_grad`, `pack`/`unpack` beside the architecture's layer
plan, any last-layer variance beside `unit_last_layer`, a PSD solve beside
`_condition`'s, a train-only and a joint Normal-Inverse-Gamma posterior
beside `tp_posterior_predict`, a Student-t log density beside the
evidence `gibbs._collapsed` computes, a sorted 1-D W1 beside
`sliced_w1`'s projections, a weighted W1 (its own assignment, at any size)
beside `w1_exact`, the sigma2 conditional's log density beside
`sample_sigma2_conditional`, and a CSV reader that round-trips
`emit_figure_data`. They still call the package's `prior_scales`,
`_condition` and `psd_cholesky`, so their tests exercise that code too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import gammaln

from bnnlimits.kernels import KernelMatrix, LinearAlgebraError, psd_cholesky
from bnnlimits.network import Architecture, VarianceVector, prior_scales
from bnnlimits.posteriors import (
    GaussianPosterior,
    StudentTPosterior,
    _condition,
)
from bnnlimits.samplers import Sigma2ConditionalParams
from bnnlimits.wasserstein import _as_array

REPLICATION_CAP = 100_000


def unpack(arch: Architecture, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of theta as per-layer (W, b) with W shaped (n_l, n_{l-1})."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (arch.n_params,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({arch.n_params},)"
        )
    return [(theta[ws].reshape(n_out, n_in), theta[bs])
            for ws, bs, n_out, n_in, _, _ in arch._plan]


def pack(arch: Architecture, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    theta = np.empty(arch.n_params)
    for (ws, bs), (W, b) in zip(arch.layout(), layers):
        theta[ws] = np.ravel(W)
        theta[bs] = np.ravel(b)
    return theta


def with_last_layer(variances: VarianceVector, sigma2: float) -> VarianceVector:
    """Both last-layer variances replaced by sigma2 (the centered hierarchical
    parametrization)."""
    return VarianceVector(variances.weight[:-1] + (sigma2,),
                          variances.bias[:-1] + (sigma2,))


def log_likelihood(outputs: np.ndarray, y: np.ndarray, sigma2: float) -> float:
    """Log Gaussian likelihood: -(n_L k/2) log(2 pi s) - ||y - z||_F^2/(2s)."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be strictly positive")
    outputs = np.asarray(outputs, dtype=float)
    y = np.asarray(y, dtype=float)
    if outputs.shape != y.shape:
        raise ValueError(f"shape mismatch: outputs {outputs.shape} vs y {y.shape}")
    resid2 = float(np.sum((y - outputs) ** 2))
    n = outputs.size
    return -0.5 * n * math.log(2.0 * math.pi * sigma2) - resid2 / (2.0 * sigma2)


def log_prior(
    arch: Architecture,
    variances: VarianceVector,
    theta: np.ndarray,
    sigma2: float | None = None,
) -> float:
    """Log density of theta under the layer-wise Gaussian prior."""
    if sigma2 is not None:
        variances = with_last_layer(variances, sigma2)
    scale = prior_scales(arch, variances)
    z = np.asarray(theta, dtype=float) / scale
    return (-0.5 * float(z @ z) - float(np.sum(np.log(scale)))
            - 0.5 * len(scale) * math.log(2 * math.pi))


@dataclass(frozen=True)
class IGPosterior:
    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Inverse-Gamma parameters must be strictly positive")


def _train_block(kprime_train: KernelMatrix | np.ndarray) -> np.ndarray:
    """K'_D as a 2-D float array, from a KernelMatrix or a matrix."""
    k = kprime_train.train if isinstance(kprime_train, KernelMatrix) else kprime_train
    return np.atleast_2d(np.asarray(k, dtype=float))


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


def _nig_update(k: np.ndarray, y: np.ndarray, a: float, b: float
                ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(mean, M^{-1}, alpha, beta) at the training inputs: _condition on K'
    with unit noise, then the Inverse-Gamma update of (a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    mean, minv, y_alpha = _condition(k, k, k, y, 1.0)
    return mean, minv, a + k.shape[0] / 2.0, b + 0.5 * y_alpha


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
    mean, minv, alpha, beta = _nig_update(k, y, a, b)
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
    location, minv, alpha, beta = _nig_update(k, y, a, b)
    minv *= beta / alpha  # in place: minv is the conditioning step's own array
    return StudentTPosterior(2.0 * alpha, location, minv)


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


def replicate_weighted(
    support: np.ndarray, weights: np.ndarray, cap: int = REPLICATION_CAP
) -> np.ndarray:
    """Equal-size empirical stand-in for a weighted discrete measure.

    Rational weights are brought to a common denominator and each atom is
    replicated proportionally; raises if the common denominator explodes.
    """
    support = _as_array(support)
    fracs = [Fraction(w).limit_denominator(10_000) for w in np.ravel(weights)]
    total = sum(fracs)
    if total == 0:
        raise ValueError("weights must not all be zero")
    fracs = [f / total for f in fracs]
    denom = lcm(*[f.denominator for f in fracs])
    if denom > cap:
        raise ValueError(f"common denominator {denom} exceeds cap {cap}")
    counts = [int(f * denom) for f in fracs]
    return np.repeat(support, counts, axis=0)


def sigma2_log_density(p: Sigma2ConditionalParams, s) -> np.ndarray:
    """Unnormalized log density of the sigma2 conditional with parameters p at s."""
    s = np.asarray(s, dtype=float)
    return -(p.a_prime + 1.0) * np.log(s) - p.b_prime / s + p.c_prime / np.sqrt(s)


def w1_1d(xs, ys) -> float:
    """Exact 1-D W1 for equal-size samples: mean |x_(i) - y_(i)| over sorted order."""
    x = np.ravel(_as_array(xs))
    y = np.ravel(_as_array(ys))
    if x.shape[0] != y.shape[0]:
        raise ValueError("sample sizes must match")
    return float(np.mean(np.abs(np.sort(x) - np.sort(y))))


def w1_weighted(support_x, weights_x, support_y, weights_y) -> float:
    """Exact W1 between finitely-supported weighted measures via replication."""
    x = replicate_weighted(support_x, weights_x)
    y = replicate_weighted(support_y, weights_y)
    n = lcm(x.shape[0], y.shape[0])
    x = np.repeat(x, n // x.shape[0], axis=0)
    y = np.repeat(y, n // y.shape[0], axis=0)
    if x.shape[1] == 1:
        return w1_1d(x, y)
    cost = cdist(x, y)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def read_figure_csv(path: str) -> dict[str, list[float]]:
    """Read an emitted CSV back into column lists (round-trip of emit_figure_data)."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        cols = {h: [] for h in header}
        for line in f:
            if not line.strip():
                continue
            for h, v in zip(header, line.strip().split(",")):
                cols[h].append(float(v))
    return cols
