"""Kernel recursion, operator norm, and hyperparameter-constraint tests."""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from bnnlimits import (
    Architecture,
    VarianceVector,
    check_hyperparams,
    kernel_recursion,
    operator_norm,
    rescaled_kernel,
)
from bnnlimits import kernels
from bnnlimits.kernels import (
    JITTERS,
    PSD_FLOOR,
    SYM_TOL,
    KernelDegeneracyError,
    KernelMatrix,
    LinearAlgebraError,
    _check_block_psd,
    _expect_analytic_erf,
    _expect_analytic_relu,
    _expect_series,
    b_lower_bound,
    psd_cholesky,
)
from bnnlimits.experiments import ExperimentConfig
from bnnlimits.network import ACTIVATIONS
from bnnlimits.rng import RngStream
from oracles import with_last_layer

ERF_ARCH = Architecture((1, 8, 1), ("identity", "erf"))
V5 = VarianceVector.constant(5.0, 2)


def _chol2(k11, k12, k22):
    """Cholesky factors of 2x2 PSD blocks, elementwise over arrays."""
    k11 = np.maximum(k11, 0.0)
    k22 = np.maximum(k22, 0.0)
    l11 = np.sqrt(k11)
    l21 = np.divide(k12, l11, out=np.zeros_like(k12 + l11), where=l11 > 0)
    l22 = np.sqrt(np.maximum(k22 - l21 * l21, 0.0))
    return l11, l21, l22


def _tensor_rule_expect(phi, k11, k12, k22, order):
    """Reference E[phi(u) phi(v)] by a tensor Gauss-Hermite rule on a 2-D grid."""
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / math.sqrt(2.0 * math.pi)
    l11, l21, l22 = _chol2(k11, k12, k22)
    # u = l11*z1, v = l21*z1 + l22*z2 over the tensor grid
    z1, z2 = x[:, None], x[None, :]
    u = l11[..., None, None] * z1
    v = l21[..., None, None] * z1 + l22[..., None, None] * z2
    return np.sum(phi(u) * phi(v) * (w[:, None] * w[None, :]), axis=(-2, -1))


def _antithetic_mc_expect(phi, k11, k12, k22, z):
    """Reference Monte Carlo E[phi(u) phi(v)] with antithetic pairs over the
    (half, 2) normals z."""
    l11, l21, l22 = _chol2(k11, k12, k22)
    u = l11[..., None] * z[:, 0]
    v = l21[..., None] * z[:, 0] + l22[..., None] * z[:, 1]
    return 0.5 * np.mean(phi(u) * phi(v) + phi(-u) * phi(-v), axis=-1)


def _config_inputs(cfg):
    """A config's training inputs followed by its test grid."""
    return np.concatenate([cfg.make_dataset().x, cfg.make_test_grid()], axis=1)


class TestBaseCase:
    def test_scalar_substitution(self):
        # first-layer kernel at x = x' = 1 with all variances 5
        k = kernel_recursion(
            Architecture((1, 2, 1), ("identity", "identity")),
            VarianceVector((5.0, 1.0), (5.0, 1.0)),
            np.array([[1.0]]),
            method="hermite_series",
        )
        # layer 2 with identity activation: 1 * K1 + 1 = 11 where K1 = 10
        assert k.values[0, 0] == pytest.approx(11.0, abs=1e-9)

    def test_zero_input_gives_bias_variance(self):
        arch = Architecture((1, 2, 1), ("identity", "identity"))
        v = VarianceVector((3.0, 1.0), (0.25, 1.0))
        k = kernel_recursion(arch, v, np.array([[0.0]]), method="hermite_series")
        # K1(0,0) = 0.25; layer 2 identity: 1*0.25 + 1
        assert k.values[0, 0] == pytest.approx(1.25, abs=1e-9)


class TestRecursion:
    def test_k_equals_sigma2_times_kprime(self):
        x = np.linspace(-1, 1, 4)[None, :]
        for method in ("analytic_erf", "hermite_series"):
            kp = rescaled_kernel(ERF_ARCH, V5, x, method=method)
            for sigma2 in (0.5, 2.0, 7.0):
                v = with_last_layer(V5, sigma2)
                k = kernel_recursion(ERF_ARCH, v, x, method=method)
                assert np.allclose(k.values, sigma2 * kp.values, atol=1e-10)

    def test_kprime_diagonal_at_least_one(self):
        kp = rescaled_kernel(ERF_ARCH, V5, np.array([[0.0, 0.3]]))
        assert np.all(np.diag(kp.values) >= 1.0 - 1e-12)

    def test_exchangeability_under_input_permutation(self):
        rng = RngStream(1)
        x = rng.gen.standard_normal((1, 5))
        perm = rng.gen.permutation(5)
        k = kernel_recursion(ERF_ARCH, V5, x)
        kp = kernel_recursion(ERF_ARCH, V5, x[:, perm])
        assert np.allclose(kp.values, k.values[np.ix_(perm, perm)], atol=1e-12)

    def test_analytic_erf_step_matches_quadrature(self):
        # moderate-scale random PSD 2x2 previous-layer blocks
        rng = RngStream(2)
        for _ in range(20):
            A = rng.gen.standard_normal((2, 2))
            C = A @ A.T + 0.05 * np.eye(2)
            C *= 1.0 / max(1.0, np.max(np.diag(C)))  # keep scales moderate
            a = _expect_analytic_erf(C[0, 0], C[0, 1], C[1, 1])
            g = _tensor_rule_expect(
                erf, np.array(C[0, 0]), np.array(C[0, 1]), np.array(C[1, 1]), 64
            )
            assert abs(a - g) < 1e-8

    def test_gh_matches_analytic_on_full_recursion(self):
        # the Hermite series against the closed form at moderate variances
        v = VarianceVector.constant(1.0, 2)
        x = np.linspace(-1, 1, 4)[None, :]
        ka = kernel_recursion(ERF_ARCH, v, x, method="analytic_erf")
        kg = kernel_recursion(ERF_ARCH, v, x, method="hermite_series")
        assert np.allclose(ka.values, kg.values, atol=1e-12)

    def test_rescaled_matches_order64_quadrature(self):
        # variance-5 blocks saturate erf, where the series is slowest to converge
        x = np.array([[-0.7, 0.1, 0.9]])
        ka = rescaled_kernel(ERF_ARCH, V5, x, method="analytic_erf")
        kg = rescaled_kernel(ERF_ARCH, V5, x, method="hermite_series")
        assert np.allclose(ka.values, kg.values, atol=1e-7)

    def test_mc_within_4_stderr_of_gh(self):
        x = np.array([[-0.5, 0.4]])
        arch = Architecture((1, 4, 1), ("identity", "tanh"))
        v = VarianceVector.constant(1.0, 2)
        n = 200_000
        kg = kernel_recursion(arch, v, x, method="hermite_series")
        # one tanh layer by antithetic Monte Carlo on the first-layer kernel
        k1 = v.weight[0] * (x.T @ x) + v.bias[0]
        d = np.diag(k1)
        z = RngStream(3).child(2).gen.standard_normal((n // 2, 2))
        e = _antithetic_mc_expect(np.tanh, d[:, None], k1, d[None, :], z)
        km = v.weight[1] * e + v.bias[1]
        # tanh values bounded by 1 -> per-entry MC stderr <= sigma2_W / sqrt(n)
        stderr = 1.0 / math.sqrt(n)
        assert np.max(np.abs(kg.values - km)) < 4 * stderr

    def test_analytic_requires_erf(self):
        arch = Architecture((1, 2, 1), ("identity", "tanh"))
        with pytest.raises(ValueError):
            kernel_recursion(arch, VarianceVector.constant(1.0, 2), np.array([[0.0]]))

    @pytest.mark.slow
    def test_wide_network_monte_carlo_oracle(self):
        # 2 hidden layers, erf, all variances 5: the analytic kernel matches
        # the empirical covariance of 1e5 prior networks of width 512.
        # Each layer's pre-activations are rows-iid Gaussian given the
        # previous layer, so draws are generated layer-conditionally (exact
        # in distribution) instead of materializing 512x512 weight matrices.
        width, n_draws, chunk = 512, 100_000, 2_000
        sw = sb = 5.0
        x = np.array([[-1.0, -0.25, 0.4, 1.0]])
        m = x.shape[1]
        arch = Architecture((1, width, width, 1), ("identity", "erf", "erf"))
        k = kernel_recursion(arch, VarianceVector.constant(5.0, 3), x,
                             method="analytic_erf")
        rng = RngStream(4)
        s = np.zeros(m)
        ss = np.zeros((m, m))
        s4 = np.zeros((m, m))  # second moment of f_i f_j for stderr bands
        cov1 = sw * (x.T @ x) / 1 + sb  # rank 2: outer product plus constant
        L1 = np.linalg.cholesky(cov1 + 1e-10 * np.eye(m))
        for r in rng.split(n_draws // chunk):
            gen = r.gen
            h = gen.standard_normal((chunk, width, m)) @ L1.T
            for _ in range(1):  # second hidden layer
                phi = erf(h)
                covs = sw * np.einsum("cwi,cwj->cij", phi, phi) / width + sb
                covs += 1e-12 * np.eye(m)
                L = np.linalg.cholesky(covs)
                h = np.einsum("cij,cwj->cwi", L, gen.standard_normal((chunk, width, m)))
            phi = erf(h)
            covs = sw * np.einsum("cwi,cwj->cij", phi, phi) / width + sb
            covs += 1e-12 * np.eye(m)
            L = np.linalg.cholesky(covs)
            f = np.einsum("cij,cj->ci", L, gen.standard_normal((chunk, m)))
            s += f.sum(axis=0)
            prods = np.einsum("ni,nj->nij", f, f)
            ss += prods.sum(axis=0)
            s4 += (prods**2).sum(axis=0)
        mean = s / n_draws
        second = ss / n_draws
        cov = second - np.outer(mean, mean)
        var_prod = s4 / n_draws - second**2
        stderr = np.sqrt(var_prod / n_draws)
        assert np.max(np.abs(mean)) < 0.1  # prior mean is zero
        assert np.all(np.abs(cov - k.values) < 3 * stderr + 1e-12)


class TestHermiteSeries:
    """The series is PSD by construction and matches every exact kernel."""

    @pytest.mark.parametrize("variance, tol", [(5.0, 1e-6), (2.0, 1e-10)])
    def test_matches_analytic_erf(self, variance, tol):
        # 2 hidden layers over 8 training and 64 grid points
        cfg = ExperimentConfig(weight_variance=variance, bias_variance=variance)
        x = _config_inputs(cfg)
        arch, v = cfg.architecture(1), cfg.variances()
        series = kernels._recursion(arch, v, x, method="hermite_series")
        exact = kernels._recursion(arch, v, x, method="analytic_erf")
        assert np.max(np.abs(series - exact)) < tol

    @pytest.mark.parametrize("variance, test_grid", [(1.0, 64), (2.0, 64), (5.0, 64),
                                                     (5.0, 1024)])
    def test_tanh_kernel_certifies(self, variance, test_grid):
        cfg = ExperimentConfig(activation="tanh", weight_variance=variance,
                               bias_variance=variance, test_grid=test_grid)
        x = _config_inputs(cfg)
        kp = rescaled_kernel(cfg.architecture(1), cfg.variances(), x,
                             method=cfg.kernel_method, n_train=cfg.k)
        assert kp.values.shape[0] == 8 + test_grid

    def test_identity_layers_give_affine_kernel(self):
        arch = Architecture((2, 3, 3, 3, 1), ("identity",) * 4)
        v = VarianceVector((1.5, 0.7, 2.2, 1.0), (0.3, 1.1, 0.4, 1.0))
        x = RngStream(6).gen.uniform(-1.0, 1.0, (2, 9))
        e = kernels._recursion(arch, v, x, method="hermite_series")
        want = v.weight[0] * (x.T @ x) / 2 + v.bias[0]
        for l in (1, 2):
            want = v.weight[l] * want + v.bias[l]
        assert np.max(np.abs(e - want)) <= 1e-12 * np.max(np.abs(want))

    def test_psd_for_any_coefficients(self):
        # random coefficients, shrinking as 0.9^n, are no dual activation's
        # expansion, yet every term is a Schur product of PSD matrices
        gen = RngStream(7).gen
        b = gen.standard_normal((40, 3))
        K = b @ b.T + 0.5
        d = np.diag(K).copy()
        a = gen.standard_normal((kernels.SERIES_TERMS, 40))
        a *= 0.9 ** np.arange(kernels.SERIES_TERMS)[:, None]
        e = _expect_series(d[:, None], K, d[None, :], a[:, :, None], a[:, None, :])
        assert np.array_equal(e, e.T)
        assert np.linalg.eigvalsh(e)[0] > 0.0


def _two_recursions_k(arch, variances, inputs, method):
    """Reference K^{(L)}, one full recursion per kernel: the diagonal as (m, m)
    broadcasts, every E symmetrised, the last affine map fused."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    m = x.shape[1]
    expect = {"analytic_erf": _expect_analytic_erf,
              "analytic_relu": _expect_analytic_relu}[method]
    K = variances.weight[0] * (x.T @ x) / arch.d_in + variances.bias[0]
    for l in range(2, arch.n_layers + 1):
        k11 = np.broadcast_to(np.diag(K)[:, None], (m, m))
        k22 = np.broadcast_to(np.diag(K)[None, :], (m, m))
        E = expect(k11, K, k22)
        E = 0.5 * (E + E.T)
        K = variances.weight[l - 1] * E + variances.bias[l - 1]
    return K


def _whole_matrix_e(arch, variances, x, method):
    """Reference last-layer E with every layer's expectation over the whole
    (m, m) matrix at once, in a fresh array per layer."""
    K = variances.weight[0] * (x.T @ x) / arch.d_in + variances.bias[0]
    for l in range(2, arch.n_layers + 1):
        phi = ACTIVATIONS[arch.activations[l - 1]][0]
        d = np.diag(K)
        k11, k22 = d[:, None], d[None, :]
        if method == "analytic_erf":
            E = _expect_analytic_erf(k11, K, k22)
        elif method == "analytic_relu":
            E = _expect_analytic_relu(k11, K, k22)
        else:  # the Hermite series in Horner's rule, diagonal from the 1-D rule
            nodes, w, table = kernels._series_rule()
            f = phi(np.sqrt(np.maximum(d, 0.0))[:, None] * nodes)
            a = table @ f.T
            denom = np.sqrt(np.maximum(k11 * k22, 0.0))
            rho = np.clip(np.divide(K, denom, out=np.zeros_like(K), where=denom > 0),
                          -1.0, 1.0)
            E = np.multiply.outer(a[-1], a[-1])
            for n in range(len(a) - 2, -1, -1):
                E *= rho
                E += np.multiply.outer(a[n], a[n])
            np.fill_diagonal(E, np.maximum(np.diag(E), (f * f) @ w))
        if not np.array_equal(E, E.T):
            E = 0.5 * (E + E.T)
        K = variances.weight[l - 1] * E + variances.bias[l - 1]
    return E


def _reference_shift(a, max_jitter):
    """Reference jitter ladder: the first a + jit * scale * np.eye(m) that factors."""
    scale = float(np.max(np.abs(np.diag(a)), initial=1.0))
    for jit in (j for j in JITTERS if j <= max_jitter):
        shifted = a + jit * scale * np.eye(a.shape[0]) if jit else a
        try:
            np.linalg.cholesky(shifted)
            return shifted
        except np.linalg.LinAlgError:
            continue
    return None


class TestSharedRecursion:
    """K and K' are two affine maps of one E, with the floats of two recursions."""

    @pytest.mark.parametrize("method, act", [("analytic_erf", "erf"),
                                             ("analytic_relu", "relu")])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("with_test", [False, True])
    def test_bit_identical_to_two_recursions(self, method, act, depth, with_test):
        arch = Architecture((1,) + (3,) * depth + (1,), ("identity",) + (act,) * depth)
        v = VarianceVector(tuple(1.5 + 0.7 * i for i in range(depth + 1)),
                           tuple(0.3 + 1.1 * i for i in range(depth + 1)))
        x_train = np.linspace(-1.0, 1.0, 6)[None, :]
        x = (np.concatenate([x_train, np.linspace(-1.3, 1.2, 11)[None, :]], axis=1)
             if with_test else x_train)
        kw = dict(method=method, n_train=x_train.shape[1])
        k = kernel_recursion(arch, v, x, **kw)
        kp = rescaled_kernel(arch, v, x, **kw)
        for got, vs in ((k, v), (kp, v.unit_last_layer())):
            old = _two_recursions_k(arch, vs, x, method)
            assert np.array_equal(got.values, _reference_shift(old, -PSD_FLOOR))

    BLOCK_METHODS = [("analytic_erf", "erf", 8), ("analytic_relu", "relu", 8),
                     ("hermite_series", "tanh", 8)]

    @pytest.mark.parametrize("method, act, point_bytes", BLOCK_METHODS,
                             ids=[m for m, *_ in BLOCK_METHODS])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("size", ["1", "rows-1", "rows", "rows+1", "1032"])
    def test_row_blocks_bit_identical_to_whole_matrix(self, method, act, point_bytes,
                                                      depth, size):
        # m0 rows of m0 points fill one block; m0 - 1 points fit in one block,
        # m0 + 1 points take a full block and a short one
        m0 = math.isqrt(kernels.KERNEL_BLOCK_BYTES // point_bytes)
        assert kernels.KERNEL_BLOCK_BYTES // (m0 * point_bytes) == m0
        m = {"1": 1, "rows-1": m0 - 1, "rows": m0, "rows+1": m0 + 1, "1032": 1032}[size]
        arch = Architecture((2,) + (3,) * depth + (1,), ("identity",) + (act,) * depth)
        v = VarianceVector(tuple(0.8 + 0.3 * i for i in range(depth + 1)),
                           tuple(0.2 + 0.4 * i for i in range(depth + 1)))
        x = RngStream(m).gen.uniform(-1.0, 1.0, (2, m))
        got = kernels._recursion(arch, v, x, method=method)
        want = _whole_matrix_e(arch, v, x, method)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.T)

    def test_recursion_ignores_last_layer_variances(self):
        x = np.linspace(-1.0, 1.0, 5)[None, :]
        e = kernels._recursion(ERF_ARCH, V5, x)
        assert np.array_equal(e, kernels._recursion(ERF_ARCH, with_last_layer(V5, 0.3), x))
        assert np.array_equal(e, e.T)


class TestJointRecursion:
    """One recursion over train + grid has, in its train and grid blocks, the
    floats of a train-only and a grid-only recursion."""

    @pytest.mark.parametrize("method, act", [("analytic_erf", "erf"),
                                             ("analytic_relu", "relu"),
                                             ("hermite_series", "tanh")])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_blocks_equal_separate_recursions(self, method, act, depth):
        arch = Architecture((1,) + (3,) * depth + (1,), ("identity",) + (act,) * depth)
        v = VarianceVector(tuple(1.5 + 0.7 * i for i in range(depth + 1)),
                           tuple(0.3 + 1.1 * i for i in range(depth + 1)))
        x_train = np.linspace(-1.0, 1.0, 8)[None, :]
        grid = np.linspace(-1.0, 1.0, 64)[None, :]
        e = kernels._recursion(arch, v, np.concatenate([x_train, grid], axis=1),
                               method=method)
        k = x_train.shape[1]
        assert np.array_equal(e[:k, :k], kernels._recursion(arch, v, x_train, method=method))
        assert np.array_equal(e[k:, k:], kernels._recursion(arch, v, grid, method=method))


class TestBlockCheck:
    """The 2x2 block check reads the diagonal as a column and a row."""

    def test_off_diagonal_determinant_alone_raises(self):
        # unit diagonal, so only the determinant 1 - (1 + 1e-6)^2 fails
        d = np.ones(3)
        K = np.eye(3)
        K[0, 2] = K[2, 0] = 1.0 + 1e-6
        with pytest.raises(KernelDegeneracyError, match="2x2"):
            _check_block_psd(d[:, None], K, d[None, :])
        with pytest.raises(KernelDegeneracyError, match="2x2"):
            _check_block_psd(np.broadcast_to(d[:, None], (3, 3)), K,
                             np.broadcast_to(d[None, :], (3, 3)))

    def test_determinant_within_floor_passes(self):
        d = np.ones(2)
        c = math.sqrt(1.0 - 0.5 * PSD_FLOOR)  # det = PSD_FLOOR / 2 < 0
        _check_block_psd(d[:, None], np.array([[1.0, c], [c, 1.0]]), d[None, :])

    def test_negative_diagonal_raises(self):
        d = np.array([1.0, -1e-6])
        with pytest.raises(KernelDegeneracyError):
            _check_block_psd(d[:, None], np.diag(d), d[None, :])

    @pytest.mark.parametrize("weight_variance, x0, layer", [
        # relu scales each layer by about 1e200: layer 2 overflows to inf
        (1e200, 0.5, 2),
        # a NaN input makes the first layer's kernel NaN
        (1.0, math.nan, 1),
    ])
    def test_non_finite_layer_named(self, weight_variance, x0, layer):
        arch = Architecture((1, 4, 4, 1), ("identity", "relu", "relu"))
        v = VarianceVector.constant(weight_variance, 3)
        x = np.array([[x0, -0.3, 0.8]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(KernelDegeneracyError,
                               match=f"non-finite entries at layer {layer}$"):
                kernels._recursion(arch, v, x, method="analytic_relu")


class TestKernelMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            KernelMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), n_train=2)

    def test_repairs_rounding_level_violation(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]])
        k = KernelMatrix(v, n_train=2)
        assert np.linalg.eigvalsh(k.values)[0] >= 0.0

    def test_rejects_large_violation(self):
        from bnnlimits.kernels import KernelDegeneracyError

        with pytest.raises(KernelDegeneracyError):
            KernelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), n_train=2)

    def test_rescaled_kernel_checks_psd_once(self, monkeypatch):
        built = []

        class Counted(KernelMatrix):
            def __post_init__(self):
                built.append(self.values.shape[0])
                super().__post_init__()

        monkeypatch.setattr(kernels, "KernelMatrix", Counted)
        rescaled_kernel(ERF_ARCH, V5, np.array([[0.0, 0.3, 1.0]]))
        assert built == [3]

    def test_large_violation_names_eigenvalue(self):
        from bnnlimits.kernels import KernelDegeneracyError

        with pytest.raises(KernelDegeneracyError, match=r"eigenvalue -1\.000e\+00"):
            KernelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), n_train=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        from bnnlimits.kernels import KernelDegeneracyError

        with pytest.raises(KernelDegeneracyError, match="non-finite"):
            KernelMatrix(np.array([[1.0, bad], [bad, 1.0]]), n_train=2)
        with pytest.raises(KernelDegeneracyError, match="non-finite"):
            KernelMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), n_train=2)

    def test_cheap_checks_before_factorisation(self, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("factorised before the argument checks")

        for name in ("cholesky", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, no_factor)
        monkeypatch.setattr(kernels.lapack, "dpotrf", no_factor)
        with pytest.raises(ValueError, match="n_train"):
            KernelMatrix(np.eye(2), n_train=3)

    def test_accepting_runs_no_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        KernelMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]), n_train=2)
        KernelMatrix(np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]]), n_train=2)
        assert calls == []

    def test_positive_definite_input_stored_unchanged(self):
        rng = RngStream(3)
        a = rng.gen.standard_normal((6, 6))
        v = a @ a.T + 0.1 * np.eye(6)
        v[0, 1] += 1e-14  # asymmetric within SYM_TOL
        assert np.array_equal(KernelMatrix(v, n_train=6).values, 0.5 * (v + v.T))

    def test_symmetric_input_stored_without_copy(self):
        v = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert KernelMatrix(v, n_train=2).values is v

    @pytest.mark.parametrize(
        "v",
        [
            np.array([[2.0, 0.5], [0.5, 1.0]]),
            np.array([[2.0, 0.5 + 1e-13], [0.5, 1.0]]),  # asymmetric within SYM_TOL
            np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]]),  # needs a shift
            np.array([[1.0, 1.0 + 5e-13], [1.0, 1.0 - 5e-11]]),  # both
            np.ones((4, 4)) * 3.0,  # rank one, singular
        ],
    )
    def test_stored_values_as_before(self, v):
        # symmetrise within SYM_TOL, then the first shift a + jit * scale * I
        assert np.max(np.abs(v - v.T)) <= SYM_TOL * max(1.0, np.max(np.abs(v)))
        want = _reference_shift(0.5 * (v + v.T), -PSD_FLOOR)
        assert np.array_equal(KernelMatrix(v, n_train=v.shape[0]).values, want)

    @pytest.mark.parametrize(
        "v",
        [
            np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]]),
            np.ones((4, 4)) * 3.0,  # rank one, singular
        ],
    )
    def test_shift_is_diagonal_and_within_floor(self, v):
        stored = KernelMatrix(v, n_train=v.shape[0]).values
        scale = max(1.0, np.max(np.abs(v)))
        shift = np.diag(stored) - np.diag(v)
        off = ~np.eye(v.shape[0], dtype=bool)
        assert np.array_equal(stored[off], v[off])
        assert np.all(shift > 0)
        assert np.all(shift <= abs(kernels.PSD_FLOOR) * scale + 4 * np.spacing(scale))
        np.linalg.cholesky(stored)

    def test_partition_blocks(self):
        vals = np.arange(16, dtype=float).reshape(4, 4)
        vals = (vals + vals.T) / 2 + 10 * np.eye(4)
        k = KernelMatrix(vals, n_train=3)
        assert k.train.shape == (3, 3)
        assert k.test.shape == (1, 1)
        assert k.cross.shape == (1, 3)
        assert np.array_equal(k.cross, vals[3:, :3])


class TestPsdCholesky:
    @pytest.mark.parametrize("max_jitter", [0.0, -PSD_FLOOR, JITTERS[-1]])
    @pytest.mark.parametrize(
        "v",
        [
            np.array([[2.0, 0.5], [0.5, 1.0]]),  # rung 0
            np.array([[1.0, 1.0], [1.0, 1.0 - 5e-11]]),  # needs a shift
            np.ones((4, 4)) * 3.0,  # rank one, singular
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # no rung factors
        ],
    )
    def test_never_writes_its_input(self, v, max_jitter):
        a = v.copy()
        a.setflags(write=False)  # a write into a raises
        got = psd_cholesky(a, max_jitter)
        assert np.array_equal(a, v)
        want = _reference_shift(v, max_jitter)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[1], want)
            assert (got[1] is a) == np.array_equal(want, v)
        if want is not None and np.array_equal(want, v):
            assert KernelMatrix(a, n_train=a.shape[0]).values is a

    @pytest.mark.parametrize("rescaled", [True, False], ids=["K_prime", "K"])
    def test_band_kernels_same_rung_as_reference(self, rescaled):
        from test_experiments import _band_config

        cfg = _band_config(test_grid=1024)
        x = np.concatenate([cfg.make_dataset().x, cfg.make_test_grid()], axis=1)
        e = kernels._recursion(cfg.architecture(1), cfg.variances(), x,
                               method=cfg.kernel_method)
        a = e + 1.0 if rescaled else kernels._affine(e, cfg.weight_variance,
                                                     cfg.bias_variance)
        assert a.shape == (1032, 1032)
        L, shifted = psd_cholesky(a, -PSD_FLOOR)
        assert np.array_equal(shifted, _reference_shift(a, -PSD_FLOOR))
        assert not np.array_equal(shifted, a)  # rung 0 fails on both band kernels
        assert not np.any(np.triu(L, 1))
        scale = float(np.max(np.abs(np.diag(a))))
        assert np.max(np.abs(L @ L.T - shifted)) <= 1e-12 * scale


def _matching_lines(pattern: str) -> list[tuple[str, str]]:
    """(innermost enclosing def or class, line) for each package source line matching pattern."""
    found = []
    for path in sorted(pathlib.Path(kernels.__file__).parent.glob("*.py")):
        text = path.read_text()
        spans = []

        def visit(node, prefix=""):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    spans.append((child.lineno, child.end_lineno, name))
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(text))
        for i, line in enumerate(text.splitlines(), start=1):
            if re.search(pattern, line):
                inner = [s for s in spans if s[0] <= i <= s[1]]
                found.append((max(inner)[2] if inner else path.name, line))
    return found


class TestOneFactorisationPath:
    """Every factorisation in the package goes through kernels.psd_cholesky."""

    def test_cholesky_only_in_psd_cholesky(self):
        # any cholesky, whether np.linalg's, scipy.linalg's or an imported name,
        # and any LAPACK potrf
        assert [d for d, _ in _matching_lines(r"\bcholesky\b|\w*potrf\b")] == ["psd_cholesky"]

    def test_no_other_factorisation(self):
        assert _matching_lines(r"\bcho_factor\b|\bslogdet\b|\beigh\b") == []

    def test_eigvalsh_only_in_operator_norm_and_kernel_error(self):
        found = _matching_lines(r"\beigvalsh\b")
        assert [d for d, _ in found] == ["KernelMatrix.__post_init__", "operator_norm"]
        assert "kernel matrix has eigenvalue" in found[0][1]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(KernelMatrix(np.eye(3), 3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(KernelMatrix(np.diag([2.0, 3.0]), 2)) == pytest.approx(3.0)

    def test_matches_eigendecomposition(self):
        rng = RngStream(5)
        A = rng.gen.standard_normal((8, 8))
        psd = A @ A.T
        assert operator_norm(KernelMatrix(psd, 8)) == pytest.approx(
            float(np.max(np.linalg.eigvals(psd)).real), abs=1e-10
        )


class TestCheckHyperparams:
    def test_bound_substitution(self):
        # ||K'||_op = 1, eps = 0.99, ||y||^2 = 1 -> bound = 1 + 2.99/3.98
        rep = check_hyperparams(0.6, 2.0, np.array([1.0]), KernelMatrix(np.eye(1), 1))
        assert rep.b_lower_bound == pytest.approx(1.0 + 2.99 / 3.98, abs=1e-12)
        assert rep.a_ok and rep.b_ok

    def test_a_boundary_is_strict(self):
        rep = check_hyperparams(0.5, 100.0, np.array([1.0]), KernelMatrix(np.eye(1), 1))
        assert not rep.a_ok

    def test_auto_epsilon(self):
        k = KernelMatrix(np.diag([2.0, 1.0]), 2)
        rep = check_hyperparams(3.0, 2.0, np.array([1.0, 0.0]), k)
        assert rep.epsilon == pytest.approx(0.99 / 2.0)
        assert rep.epsilon < 1.0 / rep.op_norm

    @pytest.mark.parametrize("y", [1e200, 1.2e154])  # ||y||^2, then only the bound, overflow
    def test_bound_beyond_floating_point_raises(self, y):
        with pytest.raises(LinearAlgebraError, match="too large for floating point"):
            check_hyperparams(3.0, 2.0, np.array([y]), KernelMatrix(np.eye(1), 1))

    @given(st.floats(0.01, 0.98), st.floats(0.01, 0.98))
    @settings(max_examples=100, deadline=None)
    def test_b_bound_decreasing_in_epsilon(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        assert b_lower_bound(hi, 1.0) < b_lower_bound(lo, 1.0)
