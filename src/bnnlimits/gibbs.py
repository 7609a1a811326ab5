"""Samplers for the network posterior: hierarchical and fixed-variance.

Both keep every layer as z = theta / prior scale, whose prior is N(0, I).
In the hierarchical model (gibbs_run) the last layer has unit prior
variances and the likelihood N(y; sigma * f_std(x), sigma2 I) scales it by
sigma. Given the hidden layers h, f_std(x) = u psi, with u the last layer's
z and psi = [phi(h_L) / sqrt(n); 1] its scaled inputs at the k training
points (network.last_layer_inputs); with u integrated out,
y | h, sigma2 ~ N(0, sigma2 (K'_D + I)), K'_D = psi^T psi. Each outer step
is a partially collapsed Gibbs sweep (van Dyk & Park, JASA 2008):

1. one elliptical slice step (Murray, Adams & MacKay, AISTATS 2010) on the
   hidden layers' z against that likelihood, one k x k Cholesky per
   evaluation;
2. u | h, sigma2, y ~ N(A^{-1} psi y / sigma, A^{-1}), A = I + psi psi^T,
   drawn through the same factor (Bhattacharya, Chakraborty & Mallick,
   Biometrika 2016);
3. sigma2 | theta_std from its exact conditional

    p(sigma2 | theta_std, D) ∝ sigma2^{-(a'+1)} e^{-b'/sigma2} e^{c'/sqrt(sigma2)}
    a' = a + k n_L / 2,  b' = b + ||y||_F^2 / 2,  c' = <y, f_theta_std(x)>.

Raw parameters scale the last layer of theta_std by sigma. The
fixed-variance baseline (gibbs_run_fixed_variance) runs HMC_STEPS NUTS
transitions on z per outer step with sigma2 held; NUTS's identity mass
matrix on z is the prior precision on theta.
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
    log_posterior_and_grad,
    prior_scales,
)
from .nuts import DualAveraging, find_reasonable_epsilon, nuts_transition
from .rng import RngStream
from .samplers import (
    SamplerError,
    Sigma2ConditionalParams,
    sample_inverse_gamma,
    sample_sigma2_conditional,
)

# NUTS transitions of theta in each outer step of the fixed-variance baseline.
HMC_STEPS = 5


@dataclass(frozen=True)
class GibbsConfig:
    """Outer-loop settings: n_samples retained draws after burn_in, thinned.

    An outer step of the hierarchical chain is one slice step on the hidden
    layers, one last-layer draw and one sigma2 draw; one of the baseline is
    HMC_STEPS NUTS transitions; its step size adapts during burn_in and is
    then held at its dual average.
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


def _collapsed(arch: Architecture, variances: VarianceVector, hidden: np.ndarray,
               data: Dataset):
    """(psi, lower Cholesky factor of K'_D + I, log det(K'_D + I) / 2,
    tr(y (K'_D + I)^{-1} y^T)) at the hidden layers' z, where K'_D = psi^T psi,
    or None if K'_D + I is not finite or does not factor."""
    psi = last_layer_inputs(arch, variances, hidden, data.x)
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
    sigma2 = float(sample_inverse_gamma(a, b, RngStream(cfg.seed, (999,))))
    rng_theta, rng_sigma, rng_init = RngStream(cfg.seed).split(3)
    gen = rng_theta.gen
    variances = variances.unit_last_layer()
    scale = prior_scales(arch, variances)
    y = data.y
    a_prime = a + data.k * arch.d_out / 2.0
    b_prime = b + 0.5 * float(np.sum(y**2))
    d_out, top = arch.d_out, arch.layout()[-1][0].start
    n_last = arch.widths[-2]

    def loglik(state):
        # log N(y; 0, sigma2 (K'_D + I)) up to its sigma2-only constant
        return -d_out * state[2] - state[3] / (2.0 * sigma2)

    # the prior draw sample_prior_params would scale; the slice steps move
    # its hidden part, and each outer step draws the last layer afresh
    z = rng_init.gen.standard_normal(arch.n_params)
    hidden = z[:top]
    state = _collapsed(arch, variances, hidden, data)
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
            cand = _collapsed(arch, variances, prop, data)
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
        # 3. sigma2, exactly
        c_prime = float(np.sum(y * (u @ psi)))
        p = Sigma2ConditionalParams(a_prime, b_prime, c_prime)
        sigma2 = float(sample_sigma2_conditional(p, rng_sigma))
        if _kept(cfg, it):
            z[:top] = hidden
            z[top:] = np.concatenate([u[:, :n_last].ravel(), u[:, n_last]])
            raw = z * scale
            raw[top:] *= sqrt(sigma2)
            sigma2s[kept] = sigma2
            evals[kept] = np.ravel(forward(arch, raw, test_inputs))
            kept += 1

    diagnostics = {
        "loglik_evals": n_evals,
        "n_divergent": 0,  # a slice step has no step size to diverge on
        "n_transitions": n_outer,
    }
    return PosteriorSamples(sigma2s, evals, diagnostics)


# an overflow is a divergence (non-finite energy) or a SamplerError (non-finite
# target), the step-size search included
@np.errstate(over="ignore", invalid="ignore")
def _run_chain(
    arch: Architecture,
    variances: VarianceVector,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
    sigma2: float,
) -> PosteriorSamples:
    """The baseline's NUTS loop at the fixed likelihood variance sigma2.

    The state z maps to the raw theta = z * scale where the network is
    evaluated.
    """
    rng_theta, _, rng_init = RngStream(cfg.seed).split(3)
    gen = rng_theta.gen
    scale = prior_scales(arch, variances)

    def value_and_grad(z):
        # This name, like every other one from this module's imports, is
        # looked up at call time, so a wrapper set on this module (e.g. for
        # tracing) sees every call
        return log_posterior_and_grad(arch, variances, z, sigma2, data)

    # the prior draw sample_prior_params would scale
    z = rng_init.gen.standard_normal(arch.n_params)
    eps = find_reasonable_epsilon(value_and_grad, z, gen)
    da = DualAveraging(eps)
    logp, g = value_and_grad(z)
    if not isfinite(logp):
        raise SamplerError(f"log target is {logp} at the chain's state "
                           f"(sigma2 = {sigma2:.3e}); the chain cannot move")

    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    evals = np.empty((cfg.n_samples, test_inputs.shape[1] * arch.d_out))
    n_div = 0
    accepts = []
    kept = 0
    for it in range(cfg.burn_in + cfg.n_samples * cfg.thinning):
        if it == cfg.burn_in:
            eps = da.adapted
        for _ in range(HMC_STEPS):
            z, logp, g, acc, _, div = nuts_transition(value_and_grad, z, logp, g, eps, gen)
            n_div += int(div)
            accepts.append(acc)
            if it < cfg.burn_in:
                eps = da.update(acc)
        if _kept(cfg, it):
            evals[kept] = np.ravel(forward(arch, z * scale, test_inputs))
            kept += 1

    n_trans = len(accepts)
    if n_div > 0.5 * n_trans:
        raise SamplerError(
            f"persistent divergence: {n_div}/{n_trans} transitions diverged "
            f"(step size {eps:.3e}); reduce the step size or reparametrize"
        )
    diagnostics = {
        "accept_rate": float(np.mean(accepts)),
        "n_divergent": n_div,
        "n_transitions": n_trans,
        "step_size": eps,
    }
    return PosteriorSamples(np.full(cfg.n_samples, sigma2), evals, diagnostics)


def gibbs_run_fixed_variance(
    arch: Architecture,
    variances: VarianceVector,
    noise_var: float,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
) -> PosteriorSamples:
    """Posterior sampling with a fixed likelihood variance (pure NUTS on theta)."""
    if noise_var <= 0:
        raise ValueError("noise_var must be strictly positive")
    return _run_chain(arch, variances, data, test_inputs, cfg, noise_var)
