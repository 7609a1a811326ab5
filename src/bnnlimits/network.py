"""Finite-width fully connected networks with Gaussian priors.

Parameter layout is layer-major, weights before biases, row-major within a
weight block: theta = [vec(W1), b1, vec(W2), b2, ..., vec(WL), bL] with
vec() row-major. All forward/gradient code treats inputs and outputs as
(d, m) matrices whose columns are data points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf as _erf

from .rng import RngStream

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


# Each activation comes with c * its derivative, so that the target folds a
# layer's weight scale c into the derivative at no extra array operation.
def _identity(x):
    return x


def _identity_deriv(x, c):
    return np.full_like(x, c)


def _erf_deriv(x, c):
    return np.exp(-x * x) * (c * TWO_OVER_SQRT_PI)


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x, c):
    # subgradient at 0 is 0
    return (x > 0) * c


def _tanh_deriv(x, c):
    t = np.tanh(x)
    return (1.0 - t * t) * c


ACTIVATIONS = {
    "identity": (_identity, _identity_deriv),
    "erf": (_erf, _erf_deriv),
    "relu": (_relu, _relu_deriv),
    "tanh": (np.tanh, _tanh_deriv),
}


@dataclass(frozen=True)
class Architecture:
    """Layer widths n_0..n_L and per-layer activation tags (L >= 2 layers)."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.widths) < 3:
            raise ValueError("need at least widths (n_0, n_1, n_2), i.e. L >= 2")
        if any(w < 1 for w in self.widths):
            raise ValueError("all widths must be >= 1")
        if len(self.activations) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} activation tags, got {len(self.activations)}"
            )
        if self.activations[0] != "identity":
            raise ValueError("first activation must be identity")
        for tag in self.activations:
            if tag not in ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}")
        # The layer plan is read on every target evaluation, so it is built
        # once: per layer (weight slice, bias slice, n_out, n_in, activation,
        # its scaled derivative). n_params and _plan are plain attributes,
        # outside eq and hash.
        plan, pos = [], 0
        for n_in, n_out, tag in zip(self.widths, self.widths[1:], self.activations):
            w = slice(pos, pos + n_out * n_in)
            b = slice(w.stop, w.stop + n_out)
            pos = b.stop
            plan.append((w, b, n_out, n_in) + ACTIVATIONS[tag])
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "n_params", pos)

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def d_in(self) -> int:
        return self.widths[0]

    @property
    def d_out(self) -> int:
        return self.widths[-1]

    def layout(self) -> tuple[tuple[slice, slice], ...]:
        """Per layer l=1..L, (weight slice, bias slice) into the flat vector."""
        return tuple(p[:2] for p in self._plan)


@dataclass(frozen=True)
class VarianceVector:
    """Per-layer weight and bias prior variances, l = 1..L."""

    weight: tuple[float, ...]
    bias: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weight", tuple(float(v) for v in self.weight))
        object.__setattr__(self, "bias", tuple(float(v) for v in self.bias))
        if len(self.weight) != len(self.bias):
            raise ValueError("weight and bias variance lists must have equal length")
        if any(v <= 0 for v in self.weight) or any(v <= 0 for v in self.bias):
            raise ValueError("all prior variances must be strictly positive")

    @classmethod
    def constant(cls, value: float, n_layers: int) -> "VarianceVector":
        return cls((value,) * n_layers, (value,) * n_layers)

    def unit_last_layer(self) -> "VarianceVector":
        """Both last-layer variances set to 1 (the hierarchical model's
        standardized last layer)."""
        return VarianceVector(self.weight[:-1] + (1.0,), self.bias[:-1] + (1.0,))

    @property
    def n_layers(self) -> int:
        return len(self.weight)


@dataclass(frozen=True)
class Dataset:
    """Training data: x has shape (d_in, k), y has shape (d_out, k)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if x.shape[1] != y.shape[1]:
            raise ValueError("x and y must have equal numbers of columns")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def k(self) -> int:
        return self.x.shape[1]


def _check_arch_vars(arch: Architecture, variances: VarianceVector) -> None:
    if variances.n_layers != arch.n_layers:
        raise ValueError(
            f"variance vector has {variances.n_layers} layers, "
            f"architecture has {arch.n_layers}"
        )


def prior_scales(arch: Architecture, variances: VarianceVector) -> np.ndarray:
    """Per-coordinate prior standard deviations in the flat layout.

    Weight entries at layer l have variance sigma2_W(l)/n_{l-1}; biases have
    variance sigma2_b(l).
    """
    _check_arch_vars(arch, variances)
    scale = np.empty(arch.n_params)
    for l, (ws, bs) in enumerate(arch.layout(), start=1):
        scale[ws] = math.sqrt(variances.weight[l - 1] / arch.widths[l - 1])
        scale[bs] = math.sqrt(variances.bias[l - 1])
    return scale


# Priors whose scale is kept. Every sampler and the prior sweep read one
# prior per width, so one entry serves the width that runs, and the next
# width's prior frees the array of the last one.
PRIOR_CACHE_SIZE = 1


@lru_cache(maxsize=PRIOR_CACHE_SIZE)
def _prior_scale(arch: Architecture, variances: VarianceVector) -> np.ndarray:
    """prior_scales of one prior, built once and read-only: every caller shares it."""
    scale = prior_scales(arch, variances)
    scale.flags.writeable = False
    return scale


def sample_prior_params(
    arch: Architecture,
    variances: VarianceVector,
    rng: RngStream,
    n_draws: int | None = None,
) -> np.ndarray:
    """Draw theta from the layer-wise Gaussian prior.

    Draws are standard normals scaled per coordinate, so two calls with the
    same stream and different variances are coupled by an exact rescaling.
    The scale is the cached one (_prior_scale), applied in place, so a call
    builds no scale vector and allocates one array of the returned shape.
    Consecutive calls on one stream give the same draws as one call for their
    total, which lets callers draw in blocks.
    Returns shape (n_params,) or (n_draws, n_params).
    """
    scale = _prior_scale(arch, variances)
    shape = (arch.n_params,) if n_draws is None else (n_draws, arch.n_params)
    theta = rng.gen.standard_normal(shape)
    theta *= scale
    return theta


def forward(arch: Architecture, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Evaluate one draw on a (d_in, m) batch; (d_out, m), as forward_batch gives."""
    h = np.atleast_2d(np.asarray(inputs, dtype=float))
    if h.shape[0] != arch.d_in:
        raise ValueError(f"inputs have {h.shape[0]} rows, expected d_in={arch.d_in}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (arch.n_params,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({arch.n_params},)")
    return forward_batch(arch, theta[None, :], h)[0]


def forward_batch(
    arch: Architecture, thetas: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """Evaluate many parameter vectors at once.

    thetas has shape (n, n_params); returns (n, d_out, m). Used by prior
    Monte Carlo where per-draw python loops would dominate. Each draw is
    evaluated independently of the others in the batch, so the prior sweep
    passes one block of draws at a time and its memory stays bounded by one
    block of parameters.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = thetas.shape[0]
    h = np.broadcast_to(x, (n,) + x.shape)
    for ws, bs, n_out, n_in, phi, _ in arch._plan:
        h = thetas[:, ws].reshape(n, n_out, n_in) @ phi(h) + thetas[:, bs][:, :, None]
    return h


def last_layer_inputs(
    arch: Architecture, variances: VarianceVector, hidden: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The last layer's scaled inputs psi = [s_w phi(h_L); s_b 1] at the columns of x.

    hidden is z = theta / prior scale of layers 1..L-1, the flat layout up to
    the last layer's weights. The output at x is u psi, with u = [W_L | b_L]
    the last layer's z, so given the hidden layers the output's covariance is
    psi^T psi. Returns shape (n_{L-1} + 1, m).
    """
    h = x
    for (ws, bs, n_out, n_in, phi, _), var_w, var_b in zip(
        arch._plan[:-1], variances.weight, variances.bias
    ):
        a = math.sqrt(var_w / n_in) * phi(h)
        h = hidden[ws].reshape(n_out, n_in) @ a + math.sqrt(var_b) * hidden[bs][:, None]
    n_in, phi = arch._plan[-1][3:5]
    return np.vstack([math.sqrt(variances.weight[-1] / n_in) * phi(h),
                      np.full((1, h.shape[1]), math.sqrt(variances.bias[-1]))])


def log_posterior_and_grad(
    arch: Architecture,
    variances: VarianceVector,
    z: np.ndarray,
    sigma2: float,
    data: Dataset,
) -> tuple[float, np.ndarray]:
    """Log posterior of the standardized parameters z given sigma2, and its gradient.

    z is theta / prior_scales(arch, variances), so its prior is N(0, I). Target:
    log N(z; 0, I) + log N(y; f_theta(x), sigma2 I) at theta = z * scale, i.e.
    the log posterior of theta plus sum(log scale). Each layer's scale enters
    as two scalars, sqrt(sigma2_W/n_in) on its activations and sigma_b on its
    bias, so no full-length product runs and the gradient is -z plus backprop.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be strictly positive")
    _check_arch_vars(arch, variances)
    z = np.asarray(z, dtype=float)
    if z.shape != (arch.n_params,):
        raise ValueError(f"z has shape {z.shape}, expected ({arch.n_params},)")
    logpri = -0.5 * float(z @ z) - 0.5 * z.size * math.log(2.0 * math.pi)
    grad = np.empty_like(z)

    # Forward pass keeping each layer's input h, weights W and scaled
    # activation a = s_w * phi(h), which serves the layer's output and its
    # weight gradient.
    cache = []
    h = data.x
    last = arch.n_layers - 1
    for (ws, bs, n_out, n_in, phi, _), var_w, var_b in zip(
        arch._plan, variances.weight, variances.bias
    ):
        s_w, s_b = math.sqrt(var_w / n_in), math.sqrt(var_b)
        a = s_w * phi(h)
        W = z[ws].reshape(n_out, n_in)
        cache.append((h, a, W, s_w, s_b))
        h = W @ a + s_b * z[bs][:, None]
    resid = data.y - h
    loglik = (
        -0.5 * data.y.size * math.log(2.0 * math.pi * sigma2)
        - float(np.vdot(resid, resid)) / (2.0 * sigma2)
    )

    # Backprop d loglik / d z, written into the gradient as backprop - z.
    g_out = resid / sigma2
    for l in range(last, -1, -1):
        h, a, W, s_w, s_b = cache[l]
        ws, bs, n_out, n_in, _, dphi = arch._plan[l]
        np.subtract(g_out @ a.T, W, out=grad[ws].reshape(n_out, n_in))
        np.subtract(s_b * np.add.reduce(g_out, 1), z[bs], out=grad[bs])
        if l > 0:
            g_out = (W.T @ g_out) * dphi(h, s_w)
    return logpri + loglik, grad
