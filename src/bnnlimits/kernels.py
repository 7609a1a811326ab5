"""Infinite-width (NNGP) kernels via the layer recursion.

K^{(1)}(x, x') = s2_W(1) x.x'/d_in + s2_b(1);
K^{(l)}(x, x') = s2_W(l) E[phi(u) phi(v)] + s2_b(l), with (u, v) bivariate
normal having the layer-(l-1) 2x2 kernel block as covariance. The rescaled
kernel K' uses unit last-layer variances plus the implicit +1 bias block,
so the full kernel factorizes as sigma2 * K'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from .network import ACTIVATIONS, Architecture, VarianceVector, _check_arch_vars
from .rng import RngStream

PSD_FLOOR = -1e-10
SYM_TOL = 1e-12
# Diagonal jitter ladder, in units of a matrix's scale, climbed by
# psd_cholesky: KernelMatrix climbs it up to |PSD_FLOOR| to certify a kernel,
# posteriors.solve_psd and samplers.sample_mvn climb all of it, and
# posteriors.student_t_logpdf stays on rung 0.
JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

GH_DEFAULT_ORDER = 32
MC_DEFAULT_DRAWS = 200_000


class KernelDegeneracyError(RuntimeError):
    """A kernel block violated positive semidefiniteness beyond tolerance."""


def psd_cholesky(
    a: np.ndarray, max_jitter: float = JITTERS[-1]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor of the first shift of `a` on the jitter ladder.

    Tries a + t * scale * I for t in JITTERS up to max_jitter, with
    scale = max(1, max|diag a|), and returns (L, shifted) for the first
    shift that factors, or None if none does (or `a` is not finite).
    """
    if not np.all(np.isfinite(a)):
        return None
    scale = float(np.max(np.abs(np.diag(a)), initial=1.0))
    for jit in (j for j in JITTERS if j <= max_jitter):
        shifted = a + jit * scale * np.eye(a.shape[0]) if jit else a
        try:
            return np.linalg.cholesky(shifted), shifted
        except np.linalg.LinAlgError:
            continue
    return None


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD Gram matrix over an input set, with train/test partition.

    flavor is "K" for the full kernel or "K_prime" for the rescaled kernel
    (unit last-layer variances; diagonal >= 1).

    The stored values always have a Cholesky factor: they are the
    symmetrised input plus the first shift of psd_cholesky's ladder, up to
    |PSD_FLOOR|, that factors. A positive definite input is stored
    unchanged; a rounding-level violation gets the smallest shift.
    """

    values: np.ndarray
    n_train: int
    flavor: str = "K"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not 0 <= self.n_train <= v.shape[0]:
            raise ValueError("n_train out of range")
        if self.flavor not in ("K", "K_prime"):
            raise ValueError("flavor must be 'K' or 'K_prime'")
        if not np.all(np.isfinite(v)):
            raise KernelDegeneracyError("kernel matrix has non-finite entries")
        scale = float(np.max(np.abs(v), initial=1.0))
        if np.max(np.abs(v - v.T), initial=0.0) > SYM_TOL * scale:
            raise ValueError("kernel matrix is not symmetric")
        v = 0.5 * (v + v.T)
        factor = psd_cholesky(v, -PSD_FLOOR)
        if factor is None:
            # no rung factors: indefinite beyond the largest shift, |PSD_FLOOR| * scale
            raise KernelDegeneracyError(
                f"kernel matrix has eigenvalue {np.linalg.eigvalsh(v)[0]:.3e}; "
                "inputs may be degenerate or the recursion lost PSD"
            )
        object.__setattr__(self, "values", factor[1])

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def train(self) -> np.ndarray:
        return self.values[: self.n_train, : self.n_train]

    @property
    def test(self) -> np.ndarray:
        return self.values[self.n_train :, self.n_train :]

    @property
    def cross(self) -> np.ndarray:
        """Test-by-train block."""
        return self.values[self.n_train :, : self.n_train]


@dataclass(frozen=True)
class ConstraintReport:
    """Hyperparameter admissibility: a > 1/2 and b above an operator-norm bound."""

    epsilon: float
    op_norm: float
    b_lower_bound: float
    a_ok: bool
    b_ok: bool

    @property
    def ok(self) -> bool:
        return self.a_ok and self.b_ok

    def summary(self) -> str:
        return (
            f"hyperparameter check: epsilon={self.epsilon:.6g}, "
            f"||K'||_op={self.op_norm:.6g}, required b > {self.b_lower_bound:.6g}, "
            f"a_ok={self.a_ok}, b_ok={self.b_ok}"
        )


def _gh_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # probabilists' normalization: integrates against N(0, 1)
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / math.sqrt(2.0 * math.pi)


def _expect_analytic_erf(k11, k12, k22):
    """E[erf(u) erf(v)] under N(0, [[k11,k12],[k12,k22]]) (arcsine closed form)."""
    denom = np.sqrt((1.0 + 2.0 * k11) * (1.0 + 2.0 * k22))
    arg = np.clip(2.0 * k12 / denom, -1.0, 1.0)
    return (2.0 / math.pi) * np.arcsin(arg)


def _expect_analytic_relu(k11, k12, k22):
    """E[relu(u) relu(v)] under N(0, [[k11,k12],[k12,k22]]) (arc-cosine closed form).

    With theta the angle between u and v,
    E = sqrt(k11 k22) (sin theta + (pi - theta) cos theta) / (2 pi).
    """
    denom = np.sqrt(np.maximum(k11 * k22, 0.0))
    cos = np.divide(
        k12, denom, out=np.zeros_like(k12 + denom), where=denom > 0
    )
    cos = np.clip(cos, -1.0, 1.0)
    theta = np.arccos(cos)
    return denom * (np.sin(theta) + (math.pi - theta) * cos) / (2.0 * math.pi)


def _chol2(k11, k12, k22):
    """Cholesky factors of 2x2 PSD blocks, elementwise over arrays."""
    k11 = np.maximum(k11, 0.0)
    k22 = np.maximum(k22, 0.0)
    l11 = np.sqrt(k11)
    l21 = np.divide(k12, l11, out=np.zeros_like(k12 + l11), where=l11 > 0)
    rem = np.maximum(k22 - l21 * l21, 0.0)
    l22 = np.sqrt(rem)
    return l11, l21, l22


def _check_block_psd(k11, k12, k22):
    scale = np.maximum(1.0, np.maximum(k11, k22))
    det = k11 * k22 - k12 * k12
    bad = (k11 < PSD_FLOOR * scale) | (k22 < PSD_FLOOR * scale) | (
        det < PSD_FLOOR * scale * scale
    )
    if np.any(bad):
        raise KernelDegeneracyError(
            "non-PSD intermediate 2x2 kernel block beyond tolerance"
        )


def _expect_gh(phi, k11, k12, k22, order: int):
    """E[phi(u) phi(v)] by tensor Gauss-Hermite on a 2-D grid.

    Diagonal entries (u = v) reduce to a 1-D rule.
    """
    x, w = _gh_nodes(order)
    _check_block_psd(k11, k12, k22)
    l11, l21, l22 = _chol2(k11, k12, k22)
    # u = l11*z1, v = l21*z1 + l22*z2 over the tensor grid
    z1 = x[:, None]
    z2 = x[None, :]
    ww = w[:, None] * w[None, :]
    u = l11[..., None, None] * z1
    v = l21[..., None, None] * z1 + l22[..., None, None] * z2
    return np.sum(phi(u) * phi(v) * ww, axis=(-2, -1))


def _expect_gh_diag(phi, kdiag, order: int):
    x, w = _gh_nodes(order)
    u = np.sqrt(np.maximum(kdiag, 0.0))[..., None] * x
    return np.sum(phi(u) ** 2 * w, axis=-1)


def _expect_mc(phi, k11, k12, k22, n_draws: int, rng: RngStream):
    """Monte-Carlo estimate with antithetic pairs."""
    _check_block_psd(k11, k12, k22)
    l11, l21, l22 = _chol2(k11, k12, k22)
    half = n_draws // 2
    z = rng.gen.standard_normal((half, 2))
    u = l11[..., None] * z[:, 0]
    v = l21[..., None] * z[:, 0] + l22[..., None] * z[:, 1]
    vals = phi(u) * phi(v) + phi(-u) * phi(-v)
    return 0.5 * np.mean(vals, axis=-1)


def _recursion(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
    gh_order: int = GH_DEFAULT_ORDER,
    mc_draws: int = MC_DEFAULT_DRAWS,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Raw K^{(L)} over all pairs of input columns, before the PSD check."""
    _check_arch_vars(arch, variances)
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[0] != arch.d_in:
        raise ValueError(f"inputs have {x.shape[0]} rows, expected {arch.d_in}")
    m = x.shape[1]
    if method not in ("analytic_erf", "analytic_relu", "gauss_hermite", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method == "analytic_erf" and any(
        t != "erf" for t in arch.activations[1:]
    ):
        raise ValueError("analytic_erf requires erf activations at layers 2..L")
    if method == "analytic_relu" and any(
        t != "relu" for t in arch.activations[1:]
    ):
        raise ValueError("analytic_relu requires relu activations at layers 2..L")
    if method == "monte_carlo" and rng is None:
        rng = RngStream(0)

    K = variances.weight[0] * (x.T @ x) / arch.d_in + variances.bias[0]
    for l in range(2, arch.n_layers + 1):
        tag = arch.activations[l - 1]
        phi, _ = ACTIVATIONS[tag]
        k11 = np.broadcast_to(np.diag(K)[:, None], (m, m))
        k22 = np.broadcast_to(np.diag(K)[None, :], (m, m))
        if method == "analytic_erf":
            _check_block_psd(k11, K, k22)
            E = _expect_analytic_erf(k11, K, k22)
        elif method == "analytic_relu":
            _check_block_psd(k11, K, k22)
            E = _expect_analytic_relu(k11, K, k22)
        elif method == "gauss_hermite":
            E = _expect_gh(phi, k11, K, k22, gh_order)
            np.fill_diagonal(E, _expect_gh_diag(phi, np.diag(K), gh_order))
        else:
            E = _expect_mc(phi, k11, K, k22, mc_draws, rng.child(l))
        E = 0.5 * (E + E.T)
        K = variances.weight[l - 1] * E + variances.bias[l - 1]
    return K


def kernel_recursion(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
    n_train: int | None = None,
    **kwargs,
) -> KernelMatrix:
    """NNGP kernel K^{(L)} over all pairs of input columns.

    method is one of analytic_erf (erf activations at layers 2..L only),
    analytic_relu (relu activations at layers 2..L only), gauss_hermite,
    or monte_carlo; kwargs (gh_order, mc_draws, rng) tune the last two.
    """
    K = _recursion(arch, variances, inputs, method=method, **kwargs)
    return KernelMatrix(K, n_train=K.shape[0] if n_train is None else n_train)


def rescaled_kernel(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
    n_train: int | None = None,
    **kwargs,
) -> KernelMatrix:
    """Rescaled kernel K': the NNGP kernel with unit last-layer variances.

    Independent of any last-layer variance in `variances`; satisfies
    K = sigma2 * K' when both last-layer variances equal sigma2, and
    K'(x, x) >= 1 because the unit bias variance adds a constant 1.
    """
    K = _recursion(arch, variances.unit_last_layer(), inputs, method=method, **kwargs)
    return KernelMatrix(
        K, n_train=K.shape[0] if n_train is None else n_train, flavor="K_prime"
    )


def operator_norm(kernel: KernelMatrix | np.ndarray) -> float:
    """Largest eigenvalue of the symmetrized matrix."""
    v = kernel.values if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
    v = 0.5 * (v + v.T)
    return float(np.linalg.eigvalsh(v)[-1])


def b_lower_bound(epsilon: float, y_norm2: float) -> float:
    return (1.0 + (epsilon + 2.0) / (2.0 * epsilon + 2.0)) * y_norm2


def check_hyperparams(
    a: float,
    b: float,
    y: np.ndarray,
    kprime: KernelMatrix,
    epsilon: float | None = None,
) -> ConstraintReport:
    """Validator for a > 1/2 and b > (1 + (eps+2)/(2eps+2)) ||y||_F^2.

    epsilon must satisfy eps < 1/||K'||_op; if omitted, 0.99/||K'||_op is used.
    The constraint conditions the convergence theorem; violating it does not
    invalidate sampling, so callers log the report rather than abort.
    """
    op = operator_norm(kprime)
    if epsilon is None:
        epsilon = 0.99 / op
    elif epsilon >= 1.0 / op:
        raise ValueError(
            f"epsilon={epsilon} must be < 1/||K'||_op = {1.0 / op:.6g}"
        )
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    y_norm2 = float(np.sum(np.asarray(y, dtype=float) ** 2))
    bound = b_lower_bound(epsilon, y_norm2)
    return ConstraintReport(
        epsilon=float(epsilon),
        op_norm=op,
        b_lower_bound=bound,
        a_ok=a > 0.5,
        b_ok=b > bound,
    )
