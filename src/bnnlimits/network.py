"""Finite-width fully connected networks with Gaussian priors.

Parameter layout is layer-major, weights before biases, row-major within a
weight block: theta = [vec(W1), b1, vec(W2), b2, ..., vec(WL), bL] with
vec() row-major. All forward/gradient code treats inputs and outputs as
(d, m) matrices whose columns are data points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf as _erf

from .rng import RngStream

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _identity(x):
    return x


def _identity_deriv(x):
    return np.ones_like(x)


def _erf_deriv(x):
    return TWO_OVER_SQRT_PI * np.exp(-x * x)


def _relu(x):
    return np.maximum(x, 0.0)


def _relu_deriv(x):
    # subgradient at 0 is 0
    return (x > 0).astype(float)


def _tanh_deriv(x):
    t = np.tanh(x)
    return 1.0 - t * t


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
        # The layout is read on every target evaluation, so it is built once;
        # n_params and _layout are plain attributes, outside eq and hash.
        layout, pos = [], 0
        for n_in, n_out in zip(self.widths, self.widths[1:]):
            w = slice(pos, pos + n_out * n_in)
            pos += n_out * n_in
            b = slice(pos, pos + n_out)
            pos += n_out
            layout.append((w, b))
        object.__setattr__(self, "_layout", tuple(layout))
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
        return self._layout

    def unpack(self, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of theta as per-layer (W, b) with W shaped (n_l, n_{l-1})."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.n_params},)"
            )
        out = []
        for l, (ws, bs) in enumerate(self._layout, start=1):
            n_out, n_in = self.widths[l], self.widths[l - 1]
            out.append((theta[ws].reshape(n_out, n_in), theta[bs]))
        return out

    def pack(self, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        theta = np.empty(self.n_params)
        for (ws, bs), (W, b) in zip(self.layout(), layers):
            theta[ws] = np.ravel(W)
            theta[bs] = np.ravel(b)
        return theta


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

    def with_last_layer(self, sigma2: float) -> "VarianceVector":
        """Replace both last-layer variances by sigma2 (hierarchical model)."""
        if sigma2 <= 0:
            raise ValueError("sigma2 must be strictly positive")
        return VarianceVector(
            self.weight[:-1] + (float(sigma2),), self.bias[:-1] + (float(sigma2),)
        )

    def unit_last_layer(self) -> "VarianceVector":
        return self.with_last_layer(1.0)

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


@lru_cache(maxsize=64)
def _target_constants(arch: Architecture, variances: VarianceVector):
    """(scale, scale**2, sum(log scale)) of one prior, built once.

    The arrays are read-only because every caller shares them.
    """
    scale = prior_scales(arch, variances)
    scale2 = scale**2
    scale.flags.writeable = False
    scale2.flags.writeable = False
    return scale, scale2, np.sum(np.log(scale))


def sample_prior_params(
    arch: Architecture,
    variances: VarianceVector,
    rng: RngStream,
    sigma2: float | None = None,
    n_draws: int | None = None,
) -> np.ndarray:
    """Draw theta from the layer-wise Gaussian prior.

    If sigma2 is given, it replaces both last-layer variances (the
    hierarchical model conditions the last layer on a shared variance).
    Draws are standard normals scaled per coordinate, so two calls with the
    same stream and different variances are coupled by an exact rescaling.
    The scale is applied in place, so a call allocates one array of the
    returned shape. Consecutive calls on one stream give the same draws as
    one call for their total, which lets callers draw in blocks.
    Returns shape (n_params,) or (n_draws, n_params).
    """
    if sigma2 is not None:
        variances = variances.with_last_layer(sigma2)
    scale = prior_scales(arch, variances)
    shape = (arch.n_params,) if n_draws is None else (n_draws, arch.n_params)
    theta = rng.gen.standard_normal(shape)
    theta *= scale
    return theta


def forward(arch: Architecture, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (d_in, m) batch; returns (d_out, m)."""
    h, _ = forward_with_cache(arch, theta, inputs)
    return h


def forward_with_cache(arch: Architecture, theta: np.ndarray, inputs: np.ndarray):
    """Forward pass returning the output plus per-layer pre-activations.

    The cache holds (activated inputs to layer l, pre-activation of layer l)
    for each l, as needed by reverse-mode accumulation.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[0] != arch.d_in:
        raise ValueError(f"inputs have {x.shape[0]} rows, expected d_in={arch.d_in}")
    layers = arch.unpack(theta)
    cache = []
    h = x
    for (W, b), tag in zip(layers, arch.activations):
        phi, _ = ACTIVATIONS[tag]
        a = phi(h)
        z = W @ a + b[:, None]
        cache.append((h, a))
        h = z
    return h, cache


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
    for l, ((ws, bs), tag) in enumerate(zip(arch.layout(), arch.activations), start=1):
        n_out, n_in = arch.widths[l], arch.widths[l - 1]
        W = thetas[:, ws].reshape(n, n_out, n_in)
        b = thetas[:, bs]
        phi, _ = ACTIVATIONS[tag]
        h = W @ phi(h) + b[:, :, None]
    return h


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
        variances = variances.with_last_layer(sigma2)
    scale = prior_scales(arch, variances)
    z = np.asarray(theta, dtype=float) / scale
    return float(
        -0.5 * z @ z - np.sum(np.log(scale)) - 0.5 * len(scale) * math.log(2 * math.pi)
    )


def log_posterior_and_grad(
    arch: Architecture,
    variances: VarianceVector,
    theta: np.ndarray,
    sigma2: float,
    data: Dataset,
    output_scale: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Unnormalized log posterior of theta given sigma2 and its gradient.

    Target: log prior(theta | variances) + log N(y; output_scale * f_theta(x), sigma2 I).
    With output_scale=1 and last-layer variances set to sigma2 this is the
    centered parametrization; with unit last-layer variances and
    output_scale=sqrt(sigma2) it is the standardized one. The gradient is
    computed by reverse-mode accumulation through the network.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be strictly positive")
    scale, scale2, sum_log_scale = _target_constants(arch, variances)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != scale.shape:
        raise ValueError(f"theta has shape {theta.shape}, expected {scale.shape}")
    z = theta / scale
    logpri = float(
        -0.5 * z @ z - sum_log_scale - 0.5 * len(scale) * math.log(2 * math.pi)
    )
    grad = -theta / scale2
    if data.k == 0:
        return logpri, grad

    out, cache = forward_with_cache(arch, theta, data.x)
    resid = data.y - output_scale * out
    loglik = (
        -0.5 * data.y.size * math.log(2.0 * math.pi * sigma2)
        - float(np.sum(resid**2)) / (2.0 * sigma2)
    )

    # Backprop d loglik / d theta. d loglik/d out = output_scale * resid / sigma2.
    g_out = output_scale * resid / sigma2
    for l in range(arch.n_layers - 1, -1, -1):
        h, a = cache[l]
        ws, bs = arch.layout()[l]
        grad[ws] += np.ravel(g_out @ a.T)
        grad[bs] += g_out.sum(axis=1)
        if l > 0:
            W = theta[ws].reshape(arch.widths[l + 1], arch.widths[l])
            _, dphi = ACTIVATIONS[arch.activations[l]]
            g_out = (W.T @ g_out) * dphi(h)
    return logpri + loglik, grad

