"""Kernel recursion, operator norm, and hyperparameter-constraint tests."""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
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
    KernelMatrix,
    _expect_analytic_erf,
    _expect_gh,
    b_lower_bound,
)
from bnnlimits.network import forward_batch, sample_prior_params
from bnnlimits.rng import RngStream

ERF_ARCH = Architecture((1, 8, 1), ("identity", "erf"))
V5 = VarianceVector.constant(5.0, 2)


class TestBaseCase:
    def test_scalar_substitution(self):
        # first-layer kernel at x = x' = 1 with all variances 5
        k = kernel_recursion(
            Architecture((1, 2, 1), ("identity", "identity")),
            VarianceVector((5.0, 1.0), (5.0, 1.0)),
            np.array([[1.0]]),
            method="gauss_hermite",
        )
        # layer 2 with identity activation: 1 * K1 + 1 = 11 where K1 = 10
        assert k.values[0, 0] == pytest.approx(11.0, abs=1e-9)

    def test_zero_input_gives_bias_variance(self):
        arch = Architecture((1, 2, 1), ("identity", "identity"))
        v = VarianceVector((3.0, 1.0), (0.25, 1.0))
        k = kernel_recursion(arch, v, np.array([[0.0]]), method="gauss_hermite")
        # K1(0,0) = 0.25; layer 2 identity: 1*0.25 + 1
        assert k.values[0, 0] == pytest.approx(1.25, abs=1e-9)


class TestRecursion:
    def test_k_equals_sigma2_times_kprime(self):
        x = np.linspace(-1, 1, 4)[None, :]
        for method in ("analytic_erf", "gauss_hermite", "monte_carlo"):
            kp = rescaled_kernel(
                ERF_ARCH, V5, x, method=method, rng=RngStream(0), mc_draws=50_000
            )
            for sigma2 in (0.5, 2.0, 7.0):
                v = V5.with_last_layer(sigma2)
                k = kernel_recursion(
                    ERF_ARCH, v, x, method=method, rng=RngStream(0), mc_draws=50_000
                )
                assert np.allclose(k.values, sigma2 * kp.values, atol=1e-10)

    def test_kprime_diagonal_at_least_one(self):
        kp = rescaled_kernel(ERF_ARCH, V5, np.array([[0.0, 0.3]]))
        assert np.all(np.diag(kp.values) >= 1.0 - 1e-12)
        assert kp.flavor == "K_prime"

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
            g = _expect_gh(
                erf, np.array(C[0, 0]), np.array(C[0, 1]), np.array(C[1, 1]), 64
            )
            assert abs(a - g) < 1e-8

    def test_gh_matches_analytic_on_full_recursion(self):
        # moderate variances keep order-32 quadrature sharp
        v = VarianceVector.constant(1.0, 2)
        x = np.linspace(-1, 1, 4)[None, :]
        ka = kernel_recursion(ERF_ARCH, v, x, method="analytic_erf")
        kg = kernel_recursion(ERF_ARCH, v, x, method="gauss_hermite")
        # order-32 quadrature of erf^2 on the diagonal is the accuracy floor
        assert np.allclose(ka.values, kg.values, atol=1e-4)

    def test_rescaled_matches_order64_quadrature(self):
        x = np.array([[-0.7, 0.1, 0.9]])
        ka = rescaled_kernel(ERF_ARCH, V5, x, method="analytic_erf")
        kg = rescaled_kernel(ERF_ARCH, V5, x, method="gauss_hermite", gh_order=64)
        # variance-5 blocks saturate erf; order 64 reaches ~1e-3 here
        assert np.allclose(ka.values, kg.values, atol=5e-3)

    def test_mc_within_4_stderr_of_gh(self):
        x = np.array([[-0.5, 0.4]])
        arch = Architecture((1, 4, 1), ("identity", "tanh"))
        v = VarianceVector.constant(1.0, 2)
        n = 200_000
        kg = kernel_recursion(arch, v, x, method="gauss_hermite")
        km = kernel_recursion(arch, v, x, method="monte_carlo", rng=RngStream(3))
        # tanh values bounded by 1 -> per-entry MC stderr <= sigma2_W / sqrt(n)
        stderr = 1.0 / math.sqrt(n)
        assert np.max(np.abs(kg.values - km.values)) < 4 * stderr

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
                built.append(self.flavor)
                super().__post_init__()

        monkeypatch.setattr(kernels, "KernelMatrix", Counted)
        rescaled_kernel(ERF_ARCH, V5, np.array([[0.0, 0.3, 1.0]]))
        assert built == ["K_prime"]

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
        with pytest.raises(ValueError, match="n_train"):
            KernelMatrix(np.eye(2), n_train=3)
        with pytest.raises(ValueError, match="flavor"):
            KernelMatrix(np.eye(2), n_train=2, flavor="Q")

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
        # any cholesky, whether np.linalg's, scipy.linalg's or an imported name
        assert [d for d, _ in _matching_lines(r"\bcholesky\b")] == ["psd_cholesky"]

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
        assert operator_norm(psd) == pytest.approx(
            float(np.max(np.linalg.eigvals(psd)).real), abs=1e-10
        )


class TestCheckHyperparams:
    def test_bound_substitution(self):
        # ||K'||_op = 1, eps = 0.9, ||y||^2 = 1 -> bound = 1 + 2.9/3.8
        rep = check_hyperparams(
            0.6, 2.0, np.array([1.0]), KernelMatrix(np.eye(1), 1), epsilon=0.9
        )
        assert rep.b_lower_bound == pytest.approx(1.0 + 2.9 / 3.8, abs=1e-12)
        assert rep.a_ok and rep.b_ok

    def test_a_boundary_is_strict(self):
        rep = check_hyperparams(0.5, 100.0, np.array([1.0]), KernelMatrix(np.eye(1), 1))
        assert not rep.a_ok

    def test_auto_epsilon(self):
        k = KernelMatrix(np.diag([2.0, 1.0]), 2)
        rep = check_hyperparams(3.0, 2.0, np.array([1.0, 0.0]), k)
        assert rep.epsilon == pytest.approx(0.99 / 2.0)
        assert rep.epsilon < 1.0 / rep.op_norm

    def test_epsilon_above_limit_rejected(self):
        with pytest.raises(ValueError):
            check_hyperparams(
                3.0, 2.0, np.array([1.0]), KernelMatrix(np.eye(1), 1), epsilon=1.5
            )

    @given(st.floats(0.01, 0.98), st.floats(0.01, 0.98))
    @settings(max_examples=100, deadline=None)
    def test_b_bound_decreasing_in_epsilon(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        assert b_lower_bound(hi, 1.0) < b_lower_bound(lo, 1.0)
