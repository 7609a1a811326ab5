"""Gibbs sampler for the hierarchical network posterior.

Alternates NUTS updates of the parameters given the likelihood variance with
exact draws of the variance given the parameters. The chain state is the
standardized vector z = theta / prior scale of every layer, on which the
prior is N(0, I); NUTS's identity mass matrix on z is the prior precision on
theta. The last layer's prior scale is that of unit variances, so theta_std =
z * scale has a standardized last layer and the variance conditional stays
exact:

    p(sigma2 | theta_std, D) ∝ sigma2^{-(a'+1)} e^{-b'/sigma2} e^{c'/sqrt(sigma2)}
    a' = a + k n_L / 2,  b' = b + ||y||_F^2 / 2,  c' = <y, f_theta_std(x)>,

which follows from the likelihood N(y; sigma * f_theta_std(x), sigma2 I)
after the constant e^{-||f||^2/2} factor drops. Raw parameters are recovered
by scaling the last layer of theta_std by sigma. The fixed-variance baseline
runs the same loop with the raw prior's scale and sigma2 held.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .network import (
    Architecture,
    Dataset,
    VarianceVector,
    _prior_scale,
    forward,
    log_posterior_and_grad,
)
from .nuts import DualAveraging, find_reasonable_epsilon, nuts_transition
from .rng import RngStream
from .samplers import (
    SamplerError,
    Sigma2ConditionalParams,
    sample_inverse_gamma,
    sample_sigma2_conditional,
)

# NUTS transitions of theta in each outer step, between sigma2 draws.
HMC_STEPS = 5


@dataclass(frozen=True)
class GibbsConfig:
    """Outer-loop settings: n_samples retained draws after burn_in, thinned.

    Each outer step makes HMC_STEPS NUTS transitions; the step size adapts
    during burn_in and is then held at its dual average.
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


# an overflow is a divergence (non-finite energy) or a SamplerError (non-finite
# target or sigma2 rate), the step-size search included
@np.errstate(over="ignore", invalid="ignore")
def _run_chain(
    arch: Architecture,
    variances: VarianceVector,
    data: Dataset,
    test_inputs: np.ndarray,
    cfg: GibbsConfig,
    sigma2: float,
    ig: tuple[float, float] | None,
) -> PosteriorSamples:
    """Shared outer loop; sigma2 is the initial likelihood variance.

    With ig = (a, b), the last-layer variances are unit, the output is scaled
    by sqrt(sigma2), and sigma2 is drawn from its exact conditional after
    each outer step. With ig = None, sigma2 is fixed and the scale is 1.
    The state z maps to theta = z * scale only where the network is
    evaluated; scaling a kept draw's last layer by the output scale gives its
    raw theta.
    """
    rng = RngStream(cfg.seed)
    rng_theta, rng_sigma, rng_init = rng.split(3)
    gen = rng_theta.gen
    if ig is not None:
        a, b = ig
        a_prime = a + data.k * arch.d_out / 2.0
        b_prime = b + 0.5 * float(np.sum(data.y**2))
    output_scale = 1.0 if ig is None else sqrt(sigma2)
    scale = _prior_scale(arch, variances)

    def value_and_grad(z):
        # Reads the current sigma2 and output_scale. This name, like every
        # other one from this module's imports, is looked up at call time, so
        # a wrapper set on this module (e.g. for tracing) sees every call
        return log_posterior_and_grad(
            arch, variances, z, sigma2, data, output_scale=output_scale
        )

    # the prior draw sample_prior_params would scale
    z = rng_init.gen.standard_normal(arch.n_params)
    eps = find_reasonable_epsilon(value_and_grad, z, gen)
    da = DualAveraging(eps)

    n_outer = cfg.burn_in + cfg.n_samples * cfg.thinning
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    n_eval = test_inputs.shape[1] * arch.d_out

    sigma2s = np.empty(cfg.n_samples)
    evals = np.empty((cfg.n_samples, n_eval))
    n_div = 0
    accepts = []
    kept = 0

    # The target at the state moves only with sigma2, and each transition
    # returns the one at its new state; None marks it as not yet evaluated.
    logp = None
    for it in range(n_outer):
        if it == cfg.burn_in:
            eps = da.adapted
        if logp is None:
            logp, g = value_and_grad(z)
            if not isfinite(logp):
                raise SamplerError(f"log target is {logp} at the chain's state "
                                   f"(sigma2 = {sigma2:.3e}); the chain cannot move")
        for _ in range(HMC_STEPS):
            z, logp, g, acc, _, div = nuts_transition(value_and_grad, z, logp, g, eps, gen)
            n_div += int(div)
            accepts.append(acc)
            if it < cfg.burn_in:
                eps = da.update(acc)
        if ig is not None:
            c_prime = float(np.sum(data.y * forward(arch, z * scale, data.x)))
            p = Sigma2ConditionalParams(a_prime, b_prime, c_prime)
            sigma2 = float(sample_sigma2_conditional(p, rng_sigma))
            output_scale = sqrt(sigma2)
            logp = None
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thinning == 0:
            sigma2s[kept] = sigma2
            raw = z * scale
            for sl in arch.layout()[-1]:
                raw[sl] *= output_scale
            evals[kept] = np.ravel(forward(arch, raw, test_inputs))
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
    """Posterior sampling under the hierarchical (Inverse-Gamma variance) model."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be strictly positive")
    init_sigma2 = float(sample_inverse_gamma(a, b, RngStream(cfg.seed, (999,))))
    return _run_chain(arch, variances.unit_last_layer(), data, test_inputs, cfg,
                      init_sigma2, (a, b))


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
    return _run_chain(arch, variances, data, test_inputs, cfg, noise_var, None)
