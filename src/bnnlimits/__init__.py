"""Finite-width Bayesian neural networks, their Gaussian and Student-t
process limits, and Wasserstein convergence experiments."""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    Architecture,
    Dataset,
    VarianceVector,
    forward,
    forward_batch,
    log_posterior_and_grad,
    sample_prior_params,
)
from .kernels import (  # noqa: F401
    ConstraintReport,
    KernelDegeneracyError,
    KernelMatrix,
    check_hyperparams,
    kernel_recursion,
    operator_norm,
    rescaled_kernel,
)
from .posteriors import (  # noqa: F401
    GaussianPosterior,
    StudentTPosterior,
    gp_posterior,
    tp_posterior_predict,
)
from .samplers import (  # noqa: F401
    Sigma2ConditionalParams,
    sample_inverse_gamma,
    sample_mvn,
    sample_mvt,
    sample_sigma2_conditional,
)
from .gibbs import GibbsConfig, PosteriorSamples, gibbs_run, gibbs_run_fixed_variance  # noqa: F401
from .rng import RngStream  # noqa: F401
from .wasserstein import sliced_w1, w1_exact  # noqa: F401
