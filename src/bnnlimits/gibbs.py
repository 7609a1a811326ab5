"""Samplers for the network posterior: hierarchical and fixed-variance.

Both keep every layer as z = theta / prior scale, whose prior is N(0, I),
and run one sweep (_slice_sweep). Given the hidden layers h, the output at
the k training points is sigma u psi, with u the last layer's z and psi its
scaled inputs (network.last_layer_inputs) divided by sqrt(noise); with u
integrated out, y | h, sigma2 ~ N(0, sigma2 (K'_D + I)), K'_D = psi^T psi.

- Hierarchical (gibbs_run): the last layer has unit prior variances, noise
  is 1 and the likelihood N(y; sigma * f_std(x), sigma2 I) scales it by sigma.
- Fixed variance (gibbs_run_fixed_variance): the last layer keeps its prior
  (sigma_W^2, sigma_b^2) and sigma2 = noise = s is held, so
  K'_D + I = (K_D + s I) / s and y | h ~ N(0, K_D + s I) (Liu, JASA 1994).
  psi is divided by sqrt(s) after it is formed, never through variances
  sigma_W^2 / s, which can underflow to 0.

Each outer step is a partially collapsed Gibbs sweep (van Dyk & Park, JASA
2008):

1. one elliptical slice step (Murray, Adams & MacKay, AISTATS 2010) on the
   hidden layers' z against that likelihood, one k x k Cholesky per
   evaluation;
2. u | h, sigma2, y ~ N(A^{-1} psi y / sigma, A^{-1}), A = I + psi psi^T,
   drawn through the same factor (Bhattacharya, Chakraborty & Mallick,
   Biometrika 2016);
3. in the hierarchical model, sigma2 | theta_std from its exact conditional

    p(sigma2 | theta_std, D) ∝ sigma2^{-(a'+1)} e^{-b'/sigma2} e^{c'/sqrt(sigma2)}
    a' = a + k n_L / 2,  b' = b + ||y||_F^2 / 2,  c' = <y, f_theta_std(x)>.

Raw parameters scale the last layer of z by sigma / sqrt(noise): by sigma in
the hierarchical model, by 1 in the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, log1p, pi, sin, sqrt

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import LinearAlgebraError, psd_cholesky
from .network import (
    Architecture,
    Dataset,
    VarianceVector,
    forward,
    last_layer_inputs,
    prior_scales,
)
# read by no code here: the benchmark hooks both names on this module, until
# ROADMAP direction 2 drops those hooks
from .network import log_posterior_and_grad  # noqa: F401
from .nuts import nuts_transition  # noqa: F401
from .rng import RngStream
from .samplers import (
    SamplerError,
    Sigma2ConditionalParams,
    sample_inverse_gamma,
    sample_sigma2_conditional,
)


@dataclass(frozen=True)
class GibbsConfig:
    """Outer-loop settings: n_samples retained draws after burn_in, thinned.

    An outer step of either chain is one slice step on the hidden layers and
    one last-layer draw, and in the hierarchical chain one sigma2 draw.
    """

    n_samples: int = 100
    burn_in: int = 200
    thinning: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid Gibbs schedule")


@dataclass
class PosteriorSamples:
    """Retained sigma2 draws and the evaluation f_theta(test) of each draw.

    The raw parameters of a draw are not kept: the W1 compares output
    distributions, and a (draws, n_params) store would dominate memory at
    large widths.
    """

    sigma2: np.ndarray  # (n,)
    evals: np.ndarray  # (n, n_test * d_out)
    diagnostics: dict


def _kept(cfg: GibbsConfig, it: int) -> bool:
    """Whether outer step `it` of a chain on this schedule is a retained draw."""
    return it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0


def _collapsed(arch: Architecture, variances: VarianceVector, noise: float,
               hidden: np.ndarray, data: Dataset):
    """(psi, lower Cholesky factor of K'_D + I, log det(K'_D + I) / 2,
    tr(y (K'_D + I)^{-1} y^T)) at the hidden layers' z, where
    psi = last_layer_inputs / sqrt(noise) and K'_D = psi^T psi, or None if
    K'_D + I is not finite or does not factor."""
    psi = last_layer_inputs(arch, variances, hidden, data.x) / sqrt(noise)
    factor = psd_cholesky(psi.T @ psi + np.eye(data.k), 0.0)
    if factor is None:
        return None
    chol = factor[0]
    alpha = solve_triangular(chol, data.y.T, lower=True, check_finite=False)
    return psi, chol, float(np.sum(np.log(np.diag(chol)))), float(np.vdot(alpha, alpha))


def _last_layer_draw(psi: np.ndarray, chol: np.ndarray, y_scaled: np.ndarray,
                    gen: np.random.Generator) -> np.ndarray:
    """Rows u ~ N(A^{-1} psi y_j, A^{-1}), A = I + psi psi^T, one per row y_j of y_scaled.

    chol is the lower Cholesky factor of psi^T psi + I. With u0 ~ N(0, I) and
    e ~ N(0, I_k), u = u0 + psi (psi^T psi + I)^{-1} (y_j - psi^T u0 - e)
    (Bhattacharya, Chakraborty & Mallick, Biometrika 2016): no factor of A.
    Returns shape (rows of y_scaled, psi rows).
    """
    u0 = gen.standard_normal((y_scaled.shape[0], psi.shape[0]))
    resid = y_scaled - u0 @ psi - gen.standard_normal(y_scaled.shape)
    return u0 + (psi @ cho_solve((chol, True), resid.T, check_finite=False)).T


# an overflow is a rejected proposal or a typed error at the chain's state
@np.errstate(over="ignore", invalid="ignore")
def _slice_sweep(arch: Architecture, variances: VarianceVector, noise: float,
                 sigma2: float, sigma2_step, data: Dataset, test_inputs: np.ndarray,
                 cfg: GibbsConfig) -> PosteriorSamples:
    """The sweep of the module docstring, from sigma2; sigma2_step(u, psi, rng)
    draws the next sigma2, or is None to hold it."""
    rng_theta, rng_sigma, rng_init = RngStream(cfg.seed).split(3)
    gen = rng_theta.gen
    scale = prior_scales(arch, variances)
    y = data.y
    d_out, top = arch.d_out, arch.layout()[-1][0].start
    n_last = arch.widths[-2]

    def loglik(state):
        # log N(y; 0, sigma2 (K'_D + I)) up to its sigma2-only constant
        return -d_out * state[2] - state[3] / (2.0 * sigma2)

    # the prior draw sample_prior_params would scale; the slice steps move
    # its hidden part, and each outer step draws the last layer afresh
    z = rng_init.gen.standard_normal(arch.n_params)
    hidden = z[:top]
    state = _collapsed(arch, variances, noise, hidden, data)
    if state is None:
        raise LinearAlgebraError("K'_D + I is not finite or does not factor at the "
                                 "chain's initial state; the chain cannot start")
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    sigma2s = np.empty(cfg.n_samples)
    evals = np.empty((cfg.n_samples, test_inputs.shape[1] * d_out))
    n_evals = kept = 0
    n_outer = cfg.burn_in + cfg.n_samples * cfg.thinning
    for it in range(n_outer):
        ll = loglik(state)
        if not isfinite(ll):
            raise SamplerError(f"log likelihood is {ll} at the chain's state "
                               f"(sigma2 = {sigma2:.3e}); the chain cannot move")
        # 1. elliptical slice step: shrink the angle bracket towards the
        # current state, which always lies on the slice
        nu = gen.standard_normal(top)
        log_level = ll + log1p(-gen.random())
        angle = gen.uniform(0.0, 2.0 * pi)
        lo, hi = angle - 2.0 * pi, angle
        while True:
            prop = hidden * cos(angle) + nu * sin(angle)
            cand = _collapsed(arch, variances, noise, prop, data)
            n_evals += 1
            if cand is not None and loglik(cand) >= log_level:
                break
            if angle < 0.0:
                lo = angle
            else:
                hi = angle
            angle = gen.uniform(lo, hi)
        hidden, state = prop, cand
        # 2. the last layer, exactly
        psi, chol = state[:2]
        u = _last_layer_draw(psi, chol, y / sqrt(sigma2), gen)
        # 3. sigma2, exactly, or held
        if sigma2_step is not None:
            sigma2 = sigma2_step(u, psi, rng_sigma)
        if _kept(cfg, it):
            z[:top] = hidden
            z[top:] = np.concatenate([u[:, :n_last].ravel(), u[:, n_last]])
            raw = z * scale
            raw[top:] *= sqrt(sigma2) / sqrt(noise)
            sigma2s[kept] = sigma2
            evals[kept] = np.ravel(forward(arch, raw, test_inputs))
            kept += 1

    diagnostics = {
        "loglik_evals": n_evals,
        "n_divergent": 0,  # a slice step has no step size to diverge on
        "n_transitions": n_outer,
    }
    return PosteriorSamples(sigma2s, evals, diagnostics)


def gibbs_run(
    arch: Architecture,
    variances: VarianceVector,
    a: float,
    b: float,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
) -> PosteriorSamples:
    """Posterior sampling under the hierarchical (Inverse-Gamma variance) model.

    Each outer step is a slice step on the hidden layers, an exact draw of the
    last layer and an exact draw of sigma2 (module docstring). Raises
    LinearAlgebraError if K'_D + I does not factor at the initial state, and
    SamplerError if the log-likelihood at the chain's state is not finite.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    a_prime = a + data.k * arch.d_out / 2.0
    b_prime = b + 0.5 * float(np.sum(data.y**2))

    def sigma2_step(u, psi, rng):
        c_prime = float(np.sum(data.y * (u @ psi)))
        p = Sigma2ConditionalParams(a_prime, b_prime, c_prime)
        return float(sample_sigma2_conditional(p, rng))

    sigma2 = float(sample_inverse_gamma(a, b, RngStream(cfg.seed, (999,))))
    return _slice_sweep(arch, variances.unit_last_layer(), 1.0, sigma2, sigma2_step,
                        data, test_inputs, cfg)


def gibbs_run_fixed_variance(
    arch: Architecture,
    variances: VarianceVector,
    noise_var: float,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
) -> PosteriorSamples:
    """Posterior sampling with the likelihood variance held at noise_var.

    Each outer step is a slice step on the hidden layers and an exact draw
    of the last layer (module docstring). Raises as gibbs_run does.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be strictly positive")
    return _slice_sweep(arch, variances, noise_var, noise_var, None, data, test_inputs, cfg)
