"""Infinite-width (NNGP) kernels via the layer recursion.

K^{(1)}(x, x') = s2_W(1) x.x'/d_in + s2_b(1);
K^{(l)}(x, x') = s2_W(l) E[phi(u) phi(v)] + s2_b(l), with (u, v) bivariate
normal having the layer-(l-1) 2x2 kernel block as covariance. The rescaled
kernel K' uses unit last-layer variances plus the implicit +1 bias block,
so the full kernel factorizes as sigma2 * K'. One recursion's last-layer
E gives both: K = s2_W(L) E + s2_b(L) and K' = E + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .network import ACTIVATIONS, Architecture, VarianceVector, _check_arch_vars

PSD_FLOOR = -1e-10
SYM_TOL = 1e-12
# Diagonal jitter ladder, in units of a matrix's scale, climbed by
# psd_cholesky: KernelMatrix climbs it up to |PSD_FLOOR| to certify a kernel,
# posteriors._condition and samplers.sample_mvn climb all of it, and
# posteriors.student_t_logpdf stays on rung 0.
JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

KERNEL_METHODS = ("analytic_erf", "analytic_relu", "hermite_series")
# activation -> the method of its exact closed form; a config whose
# activation has none takes hermite_series
CLOSED_FORMS = {"erf": "analytic_erf", "relu": "analytic_relu"}
# hermite_series sums this many terms, with coefficients from a Gauss-Hermite
# rule of this many nodes; more terms on the same rule alias (400 on 300 do)
SERIES_TERMS = 200
SERIES_NODES = 300
# _recursion computes each layer's expectation over blocks of rows whose
# per-entry temporaries (one float per entry) come to about this many bytes
KERNEL_BLOCK_BYTES = 1 << 17


class KernelDegeneracyError(RuntimeError):
    """A kernel block violated positive semidefiniteness beyond tolerance."""


class LinearAlgebraError(RuntimeError):
    pass


def psd_cholesky(
    a: np.ndarray, max_jitter: float = JITTERS[-1]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Lower Cholesky factor of the first shift of `a` on the jitter ladder.

    Tries a + t * scale * I for t in JITTERS up to max_jitter, with
    scale = max(1, max|diag a|), and returns (L, shifted) for the first
    shift that factors, or None if none does (or `a` is not finite).
    `a` is never written. It should be exactly symmetric: the factor is
    taken from its upper triangle, so a caller whose matrix is symmetric
    only up to rounding (a posterior scale) symmetrises it first.
    """
    if not np.all(np.isfinite(a)):
        return None
    scale = float(np.max(np.abs(np.diag(a)), initial=1.0))
    shifted = a
    for jit in (j for j in JITTERS if j <= max_jitter):
        if jit:  # every rung shifts the diagonal of one copy of a
            shifted = a.copy() if shifted is a else shifted
            np.fill_diagonal(shifted, np.diag(a) + jit * scale)
        # shifted is symmetric, so its transpose is the same matrix in
        # column-major order: LAPACK factors one contiguous copy of it
        L, info = lapack.dpotrf(shifted.T, lower=1, clean=1)
        if info == 0:
            return L, shifted
        del L  # free a failed rung's factor before the next rung copies
    return None


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD Gram matrix over an input set, with train/test partition.

    The stored values always have a Cholesky factor: they are the
    symmetrised input plus the first shift of psd_cholesky's ladder, up to
    |PSD_FLOOR|, that factors. A positive definite input is stored
    unchanged (an exactly symmetric float array without a copy); a
    rounding-level violation gets the smallest shift.
    """

    values: np.ndarray
    n_train: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("kernel matrix must be square")
        if not 0 <= self.n_train <= v.shape[0]:
            raise ValueError("n_train out of range")
        if not np.all(np.isfinite(v)):
            raise KernelDegeneracyError("kernel matrix has non-finite entries")
        if not np.array_equal(v, v.T):
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


@functools.lru_cache(maxsize=1)
def _series_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SERIES_NODES-node rule (x, w) against N(0, 1) and the table of
    w He_n(x) / sqrt(n!), n < SERIES_TERMS; built once, read-only as shared."""
    x, w = np.polynomial.hermite_e.hermegauss(SERIES_NODES)
    w /= math.sqrt(2.0 * math.pi)
    table = np.empty((SERIES_TERMS, SERIES_NODES))
    table[0], table[1] = w, x * w
    for n in range(1, SERIES_TERMS - 1):
        table[n + 1] = (x * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    x.flags.writeable = w.flags.writeable = table.flags.writeable = False
    return x, w, table


def _correlation(k11, k12, k22):
    """sqrt(max(k11 k22, 0)), and k12 over it in [-1, 1] (0 where it is 0)."""
    denom = np.sqrt(np.maximum(k11 * k22, 0.0))
    cos = np.divide(k12, denom, out=np.zeros_like(k12 + denom), where=denom > 0)
    return denom, np.clip(cos, -1.0, 1.0, out=cos)


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
    denom, cos = _correlation(k11, k12, k22)
    theta = np.arccos(cos)
    return denom * (np.sin(theta) + (math.pi - theta) * cos) / (2.0 * math.pi)


def _series_coefficients(phi, d):
    """(a, e): a[n] = E[phi(sqrt(d) z) He_n(z)] / sqrt(n!) for n < SERIES_TERMS,
    an (N, m) array, and e = E[phi(sqrt(d) z)^2], both from the one cached rule."""
    x, w, table = _series_rule()
    f = phi(np.sqrt(np.maximum(d, 0.0))[:, None] * x)
    a = table @ f.T
    f *= f  # in place: the squares would be a second (m, nodes) array
    return a, f @ w


def _expect_series(k11, k12, k22, a11, a22):
    """E[phi(u) phi(v)] as the Mehler series sum_n a11[n] a22[n] rho^n, by Horner.

    a11 and a22 are _series_coefficients' a as a column and a row. For PSD rho
    each term diag(a_n) rho^n diag(a_n) is PSD (Schur product), whatever a is."""
    rho = _correlation(k11, k12, k22)[1]
    e = a11[-1] * a22[-1]
    term = np.empty_like(e)
    for n in range(len(a11) - 2, -1, -1):
        e *= rho
        e += np.multiply(a11[n], a22[n], out=term)
    return e


def _check_block_psd(k11, k12, k22):
    scale = np.maximum(np.maximum(1.0, k11), k22)
    floor = PSD_FLOOR * scale
    bad = (k11 < floor) | (k22 < floor)
    floor *= scale  # PSD_FLOOR * scale * scale, without another (m, m) array
    det = k11 * k22
    det -= k12 * k12
    bad |= det < floor
    if np.any(bad):
        raise KernelDegeneracyError(
            "non-PSD intermediate 2x2 kernel block beyond tolerance"
        )


def _recursion(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
) -> np.ndarray:
    """Last-layer E over all pairs of input columns, a fresh symmetric array.

    K = s2_W(L) E + s2_b(L) and K' = E + 1; the last-layer variances are not read.
    """
    _check_arch_vars(arch, variances)
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    if x.shape[0] != arch.d_in:
        raise ValueError(f"inputs have {x.shape[0]} rows, expected {arch.d_in}")
    if method not in KERNEL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    for act, closed in CLOSED_FORMS.items():
        if method == closed and any(t != act for t in arch.activations[1:]):
            raise ValueError(f"{closed} requires {act} activations at layers 2..L")
    expect = {"analytic_erf": _expect_analytic_erf,
              "analytic_relu": _expect_analytic_relu}.get(method, _expect_series)

    K = x.T @ x  # the floats of s2_W * (x.T @ x) / d_in + s2_b, in one array
    rows = max(1, KERNEL_BLOCK_BYTES // max(1, 8 * len(K)))
    l = 1  # the layer whose kernel is being built
    try:  # an overflow, or inf - inf, would leave it non-finite or silently wrong
        with np.errstate(over="raise", invalid="raise"):
            K *= variances.weight[0]
            K /= arch.d_in
            K += variances.bias[0]
            for l in range(2, arch.n_layers + 1):
                # each entry's E reads only itself and the diagonal, so E overwrites K
                # block by block; the diagonal, a column and a row, is read first.
                # Every entry's formula is symmetric in its two points, so E is too.
                d = K.diagonal().copy()
                if not np.all(np.isfinite(d)):  # from the inputs, or _affine's inf
                    raise KernelDegeneracyError(
                        f"kernel matrix has non-finite entries at layer {l - 1}")
                k22, a = d[None, :], None
                if expect is _expect_series:
                    a, e_diag = _series_coefficients(ACTIVATIONS[arch.activations[l - 1]][0], d)
                for r in range(0, len(K), rows):
                    block, k11 = K[r : r + rows], d[r : r + rows, None]
                    _check_block_psd(k11, block, k22)
                    coefs = () if a is None else (a[:, r : r + rows, None], a[:, None, :])
                    block[...] = expect(k11, block, k22, *coefs)
                if a is not None:  # the exact 1-D value only adds to a PSD diagonal
                    np.fill_diagonal(K, np.maximum(K.diagonal(), e_diag))
                if l < arch.n_layers:
                    _affine(K, variances.weight[l - 1], variances.bias[l - 1])
    except FloatingPointError as exc:
        raise KernelDegeneracyError(f"kernel matrix has non-finite entries at layer {l}") from exc
    return K


@np.errstate(over="ignore")  # an inf that the next layer or KernelMatrix raises on
def _affine(e: np.ndarray, weight: float, bias: float) -> np.ndarray:
    """weight * e + bias, computed in e: the same floats, no second array."""
    e *= weight
    e += bias
    return e


def kernel_recursion(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
    n_train: int | None = None,
) -> KernelMatrix:
    """NNGP kernel K^{(L)} over all pairs of input columns.

    method is one of analytic_erf (erf activations at layers 2..L only),
    analytic_relu (relu activations at layers 2..L only), or
    hermite_series, a truncated Hermite (Mehler) series of each layer's
    expectation that is PSD by construction, for any activation.
    """
    K = _affine(_recursion(arch, variances, inputs, method=method),
               variances.weight[-1], variances.bias[-1])
    return KernelMatrix(K, n_train=K.shape[0] if n_train is None else n_train)


def rescaled_kernel(
    arch: Architecture,
    variances: VarianceVector,
    inputs: np.ndarray,
    method: str = "analytic_erf",
    n_train: int | None = None,
) -> KernelMatrix:
    """Rescaled kernel K': the NNGP kernel with unit last-layer variances.

    Independent of any last-layer variance in `variances`; satisfies
    K = sigma2 * K' when both last-layer variances equal sigma2, and
    K'(x, x) >= 1 because the unit bias variance adds a constant 1.
    """
    return kernel_recursion(arch, variances.unit_last_layer(), inputs,
                            method=method, n_train=n_train)


def operator_norm(kernel: KernelMatrix) -> float:
    """Largest eigenvalue of the kernel's (exactly symmetric) stored values."""
    return float(np.linalg.eigvalsh(kernel.values)[-1])


def b_lower_bound(epsilon: float, y_norm2: float) -> float:
    return (1.0 + (epsilon + 2.0) / (2.0 * epsilon + 2.0)) * y_norm2


def check_hyperparams(
    a: float,
    b: float,
    y: np.ndarray,
    kprime: KernelMatrix,
) -> ConstraintReport:
    """Validator for a > 1/2 and b > (1 + (eps+2)/(2eps+2)) ||y||_F^2.

    eps must satisfy eps < 1/||K'||_op, and the bound falls as eps grows, so
    eps = 0.99/||K'||_op. The constraint conditions the convergence theorem;
    violating it does not invalidate sampling, so callers log the report
    rather than abort. A bound that floating point cannot hold (||y||_F^2
    overflows) raises LinearAlgebraError.
    """
    op = operator_norm(kprime)
    epsilon = 0.99 / op
    with np.errstate(over="ignore"):  # an overflow raises below
        y_norm2 = float(np.sum(np.asarray(y, dtype=float) ** 2))
    bound = b_lower_bound(epsilon, y_norm2)
    if not math.isfinite(bound):
        raise LinearAlgebraError(
            f"||y||^2 = {y_norm2:.6g} gives the b bound {bound:.6g}: "
            "the observations are too large for floating point"
        )
    return ConstraintReport(
        epsilon=float(epsilon),
        op_norm=op,
        b_lower_bound=bound,
        a_ok=a > 0.5,
        b_ok=b > bound,
    )
