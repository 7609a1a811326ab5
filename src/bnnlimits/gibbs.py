"""Gibbs sampler for the hierarchical network posterior.

Alternates NUTS updates of the parameters given the likelihood variance with
exact draws of the variance given the parameters. The chain state keeps the
last layer standardized (unit prior variances) so that the variance
conditional stays exact:

    p(sigma2 | theta_std, D) ∝ sigma2^{-(a'+1)} e^{-b'/sigma2} e^{c'/sqrt(sigma2)}
    a' = a + k n_L / 2,  b' = b + ||y||_F^2 / 2,  c' = <y, f_theta_std(x)>,

which follows from the likelihood N(y; sigma * f_theta_std(x), sigma2 I)
after the constant e^{-||f||^2/2} factor drops. Raw parameters are recovered
by scaling the last layer by sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .network import (
    Architecture,
    Dataset,
    VarianceVector,
    forward,
    log_posterior_and_grad,
    sample_prior_params,
)
from .nuts import MAX_TREE_DEPTH, DualAveraging, find_reasonable_epsilon, nuts_transition
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

    Each outer step makes hmc_steps NUTS transitions; the step size adapts
    during burn_in and is then held at its dual average.
    """

    n_samples: int = 100
    burn_in: int = 200
    thinning: int = 1
    hmc_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid Gibbs schedule")
        if self.hmc_steps < 1:
            raise ValueError("hmc_steps must be >= 1")


@dataclass
class PosteriorSamples:
    """Retained draws plus the evaluation matrix f_theta(test) per draw."""

    theta: np.ndarray  # (n, n_params), raw parametrization
    sigma2: np.ndarray  # (n,)
    evals: np.ndarray  # (n, n_test * d_out)
    diagnostics: dict

    @property
    def n(self) -> int:
        return self.theta.shape[0]


def _scale_last_layer(arch: Architecture, theta_std: np.ndarray, sigma: float):
    ws, bs = arch.layout()[-1]
    theta = theta_std.copy()
    theta[ws] *= sigma
    theta[bs] *= sigma
    return theta


def _run_chain(
    arch: Architecture,
    variances: VarianceVector,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
    target_factory,
    sigma2_step,
    init_sigma2: float,
    raw_theta,
) -> PosteriorSamples:
    """Shared outer loop for the hierarchical and fixed-variance samplers.

    target_factory(sigma2) -> value_and_grad(theta) -> (logp, grad) for the
    current variance;
    sigma2_step(theta, rng) -> next variance (or the same one when fixed);
    raw_theta(theta, sigma2) -> parameters in the raw parametrization.
    """
    rng = RngStream(cfg.seed)
    rng_theta, rng_sigma, rng_init = rng.split(3)
    gen = rng_theta.gen

    sigma2 = init_sigma2
    theta = sample_prior_params(arch, variances, rng_init)
    eps = find_reasonable_epsilon(target_factory(sigma2), theta, gen)
    da = DualAveraging(eps)

    n_outer = cfg.burn_in + cfg.n_samples * cfg.thinning
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    n_eval = test_inputs.shape[1] * arch.d_out

    thetas = np.empty((cfg.n_samples, arch.n_params))
    sigma2s = np.empty(cfg.n_samples)
    evals = np.empty((cfg.n_samples, n_eval))
    n_div = 0
    n_trans = 0
    accepts = []
    kept = 0

    for it in range(n_outer):
        if it == cfg.burn_in:
            eps = da.adapted
        value_and_grad = target_factory(sigma2)
        logp, g = value_and_grad(theta)
        for _ in range(cfg.hmc_steps):
            theta, logp, g, acc, _, div = nuts_transition(
                value_and_grad, theta, logp, g, eps, MAX_TREE_DEPTH, gen
            )
            n_div += int(div)
            n_trans += 1
            accepts.append(acc)
            if it < cfg.burn_in:
                eps = da.update(acc)
        sigma2 = sigma2_step(theta, rng_sigma)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            raw = raw_theta(theta, sigma2)
            thetas[kept] = raw
            sigma2s[kept] = sigma2
            evals[kept] = np.ravel(forward(arch, raw, test_inputs))
            kept += 1

    if n_trans and n_div > 0.5 * n_trans:
        raise SamplerError(
            f"persistent divergence: {n_div}/{n_trans} transitions diverged "
            f"(step size {eps:.3e}); reduce the step size or reparametrize"
        )
    diagnostics = {
        "accept_rate": float(np.mean(accepts)) if accepts else 0.0,
        "n_divergent": n_div,
        "n_transitions": n_trans,
        "step_size": eps,
    }
    return PosteriorSamples(thetas[:kept], sigma2s[:kept], evals[:kept], diagnostics)


def gibbs_run(
    arch: Architecture,
    variances: VarianceVector,
    a: float,
    b: float,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
) -> PosteriorSamples:
    """Posterior sampling under the hierarchical (Inverse-Gamma variance) model."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    std_vars = variances.unit_last_layer()
    n_L = arch.d_out
    a_prime = a + data.k * n_L / 2.0
    b_prime = b + 0.5 * float(np.sum(data.y**2))

    def target_factory(sigma2):
        output_scale = sqrt(sigma2)
        # log_posterior_and_grad is looked up at call time, so a wrapper set
        # on this module (e.g. for tracing) sees every evaluation
        return lambda theta: log_posterior_and_grad(
            arch, std_vars, theta, sigma2, data, output_scale=output_scale
        )

    def sigma2_step(theta, rng_sigma):
        c_prime = float(np.sum(data.y * forward(arch, theta, data.x)))
        p = Sigma2ConditionalParams(a_prime, b_prime, c_prime)
        return float(sample_sigma2_conditional(p, rng_sigma))

    init_sigma2 = float(sample_inverse_gamma(a, b, RngStream(cfg.seed, (999,))))

    def raw_theta(theta, sigma2):
        return _scale_last_layer(arch, theta, sqrt(sigma2))

    return _run_chain(
        arch, std_vars, data, test_inputs, cfg,
        target_factory, sigma2_step, init_sigma2, raw_theta,
    )


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

    def target_factory(sigma2):
        return lambda theta: log_posterior_and_grad(arch, variances, theta, sigma2, data)

    def sigma2_step(theta, rng_sigma):
        return noise_var

    def raw_theta(theta, sigma2):
        return theta

    return _run_chain(
        arch, variances, data, test_inputs, cfg,
        target_factory, sigma2_step, noise_var, raw_theta,
    )
