"""Limiting-posterior tests: GP regression, NIG posterior, Student-t forms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from bnnlimits import (
    Architecture,
    KernelMatrix,
    VarianceVector,
    gp_posterior,
    rescaled_kernel,
    student_t_logpdf,
    tp_posterior_predict,
)
from bnnlimits.posteriors import LinearAlgebraError
from bnnlimits.rng import RngStream
from oracles import marginalize_nig_to_t, nig_posterior, solve_psd, tp_posterior_train
from test_kernels import _matching_lines


def random_kprime(rng, k, extra=0):
    """A realistic rescaled kernel over k train (+ extra test) inputs."""
    arch = Architecture((1, 6, 1), ("identity", "erf"))
    v = VarianceVector.constant(2.0, 2)
    x = rng.gen.uniform(-1, 1, size=(1, k + extra))
    return rescaled_kernel(arch, v, x, n_train=k)


class TestSolvePsd:
    def test_solves_well_conditioned(self):
        rng = RngStream(0)
        A = rng.gen.standard_normal((5, 5))
        psd = A @ A.T + np.eye(5)
        b = rng.gen.standard_normal(5)
        assert np.allclose(psd @ solve_psd(psd, b), b, atol=1e-10)

    def test_fails_beyond_jitter_budget(self):
        with pytest.raises(LinearAlgebraError):
            solve_psd(np.array([[1.0, 1.0], [1.0, -1.0]]), np.ones(2))


class TestGpPosterior:
    def test_scalar_substitution(self):
        post = gp_posterior(
            np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
            np.array([1.0]), 0.1,
        )
        assert post.mean[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)

    def test_huge_noise_recovers_prior(self):
        rng = RngStream(1)
        k = random_kprime(rng, 3, extra=2)
        post = gp_posterior(k.train, k.cross, k.test, rng.gen.standard_normal(3), 1e8)
        assert np.max(np.abs(post.mean)) < 1e-6
        assert np.allclose(post.cov, k.test, atol=1e-6)

    def test_matches_joint_conditioning_oracle(self):
        # condition the full (train+test) Gaussian by the Schur complement
        rng = RngStream(2)
        k = random_kprime(rng, 5, extra=3)
        y = rng.gen.standard_normal(5)
        noise = 0.3
        post = gp_posterior(k.train, k.cross, k.test, y, noise)
        full = k.values.copy()
        full[:5, :5] += noise * np.eye(5)
        inv = np.linalg.inv(full[:5, :5])
        mean = full[5:, :5] @ inv @ y
        cov = full[5:, 5:] - full[5:, :5] @ inv @ full[:5, 5:]
        assert np.allclose(post.mean, mean, atol=1e-10)
        assert np.allclose(post.cov, cov, atol=1e-10)

    def test_no_data_returns_prior(self):
        kt = np.array([[2.0, 0.5], [0.5, 1.0]])
        post = gp_posterior(np.empty((0, 0)), np.empty((2, 0)), kt, np.empty(0), 0.1)
        assert np.array_equal(post.mean, np.zeros(2))
        assert np.array_equal(post.cov, kt)

    def test_rejects_y_of_wrong_length(self):
        with pytest.raises(ValueError, match="y length"):
            gp_posterior(np.eye(2), np.ones((1, 2)), np.eye(1), np.ones(3), 0.1)

    def test_singular_block_solved_on_jitter_ladder(self):
        # duplicated inputs with noise below rounding: K + noise I is singular
        # at rung 0, and a jittered rung solves it in the range of K
        k = np.ones((2, 2))
        y = np.array([1.0, 1.0])
        post = gp_posterior(k, k, k, y, 1e-20)
        assert np.allclose(post.mean, y, atol=1e-10)

    def test_indefinite_block_rejected(self):
        with pytest.raises(LinearAlgebraError, match="jitter budget"):
            gp_posterior(np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2), np.eye(2),
                         np.ones(2), 0.1)

    def test_non_finite_observations_rejected(self):
        with pytest.raises(LinearAlgebraError, match="observations are not finite"):
            gp_posterior(np.eye(1), np.eye(1), np.eye(1), np.array([np.nan]), 0.1)

    def test_overflowing_quadratic_form_rejected(self):
        # y is finite, but y^T (K + I)^-1 y = 1e400 is not
        with pytest.raises(LinearAlgebraError, match=r"y\^T \(K \+ noise I\)\^-1 y = inf"), \
                np.errstate(over="ignore"):
            gp_posterior(np.array([[1e-300]]), np.eye(1), np.eye(1), np.array([1e200]), 1.0)


class TestNigPosterior:
    def test_identity_kernel_substitution(self):
        y = np.array([0.8])
        M, gauss, ig = nig_posterior(np.array([[1.0]]), y, 3.0, 2.0)
        assert M[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert gauss.mean[0] == pytest.approx(0.4, abs=1e-12)
        assert ig.shape == pytest.approx(3.5)
        assert ig.rate == pytest.approx(2.0 + 0.8**2 / 4.0, abs=1e-12)

    def test_zero_data(self):
        k = random_kprime(RngStream(3), 4)
        M, gauss, ig = nig_posterior(k, np.zeros(4), 3.0, 2.0)
        assert np.allclose(gauss.mean, 0.0, atol=1e-14)
        assert ig.shape == pytest.approx(5.0)
        assert ig.rate == pytest.approx(2.0)

    def test_rate_matches_dense_inverse_oracle(self):
        rng = RngStream(4)
        k = random_kprime(rng, 4)
        y = rng.gen.standard_normal(4)
        a, b = 3.0, 2.0
        M, gauss, ig = nig_posterior(k, y, a, b)
        minv = np.linalg.inv(np.eye(4) + np.linalg.inv(k.train))
        assert np.allclose(gauss.cov, minv, atol=1e-9)
        expected = 0.5 * y @ y + b - 0.5 * y @ minv @ y
        assert ig.rate == pytest.approx(expected, abs=1e-9)


def tp_moments_by_grid(kprime, y, a, b, n_grid=10_000):
    """First/second moments via marginalizing N(yM^{-1}, s M^{-1}) over IG(s)."""
    M, gauss, ig = nig_posterior(kprime, y, a, b)
    s = np.logspace(-6, 4, n_grid)
    logw = stats.invgamma.logpdf(s, ig.shape, scale=ig.rate)
    w = np.exp(logw)
    w /= np.trapezoid(w, s)
    mean = gauss.mean  # independent of s
    es = np.trapezoid(w * s, s)
    cov = es * gauss.cov
    return mean, cov


class TestTpPosteriorTrain:
    def test_identity_kernel_substitution(self):
        tp = tp_posterior_train(np.array([[1.0]]), np.array([1.0]), 3.0, 2.0)
        assert tp.nu == pytest.approx(7.0)
        assert tp.location[0] == pytest.approx(0.5, abs=1e-12)
        assert tp.scale[0, 0] == pytest.approx((2 + 0.25) * (2 / 7) * 0.5, abs=1e-12)

    def test_zero_data(self):
        k = random_kprime(RngStream(5), 3)
        a, b = 3.0, 2.0
        tp = tp_posterior_train(k, np.zeros(3), a, b)
        assert np.allclose(tp.location, 0.0, atol=1e-14)
        minv = np.linalg.inv(np.eye(3) + np.linalg.inv(k.train))
        assert np.allclose(tp.scale, (2 * b / (2 * a + 3)) * minv, atol=1e-9)

    def test_moments_match_grid_marginalization(self):
        rng = RngStream(6)
        for seed in range(3):
            k = random_kprime(RngStream(100 + seed), 3)
            y = rng.gen.standard_normal(3)
            a, b = 3.0, 2.0
            tp = tp_posterior_train(k, y, a, b)
            mean, cov = tp_moments_by_grid(k, y, a, b)
            assert np.allclose(tp.location, mean, rtol=1e-3, atol=1e-12)
            assert np.allclose(tp.nu / (tp.nu - 2.0) * tp.scale, cov, rtol=1e-3)

    def test_warns_for_small_a(self):
        with pytest.warns(UserWarning):
            tp_posterior_train(np.array([[1.0]]), np.array([1.0]), 0.3, 2.0)

    def test_permutation_invariance(self):
        rng = RngStream(7)
        k = random_kprime(rng, 5)
        y = rng.gen.standard_normal(5)
        perm = rng.gen.permutation(5)
        tp = tp_posterior_train(k, y, 3.0, 2.0)
        tp_p = tp_posterior_train(k.train[np.ix_(perm, perm)], y[perm], 3.0, 2.0)
        assert np.allclose(tp_p.location, tp.location[perm], atol=1e-10)
        assert np.allclose(tp_p.scale, tp.scale[np.ix_(perm, perm)], atol=1e-10)

    def test_large_a_converges_to_gp(self):
        # a -> inf with b = a*s0 recovers the fixed-variance GP posterior
        rng = RngStream(8)
        k = random_kprime(rng, 4, extra=0)
        y = rng.gen.standard_normal(4)
        a, s0 = 1e4, 0.7
        tp = tp_posterior_train(k, y, a, a * s0)
        minv = np.linalg.inv(np.eye(4) + np.linalg.inv(k.train))
        gp_mean = minv @ y
        gp_cov = s0 * minv
        assert np.max(np.abs(tp.location - gp_mean)) < 1e-3
        tp_cov = tp.nu / (tp.nu - 2.0) * tp.scale
        assert np.max(np.abs(tp_cov - gp_cov)) < 1e-2 * np.max(np.abs(gp_cov))


class TestTpPosteriorPredict:
    def test_test_equals_train_consistency(self):
        rng = RngStream(9)
        arch = Architecture((1, 6, 1), ("identity", "erf"))
        v = VarianceVector.constant(2.0, 2)
        x = rng.gen.uniform(-1, 1, size=(1, 4))
        kfull = rescaled_kernel(arch, v, np.concatenate([x, x], axis=1), n_train=4)
        y = rng.gen.standard_normal(4)
        tr = tp_posterior_train(KernelMatrix(kfull.train, 4), y, 3.0, 2.0)
        pr = tp_posterior_predict(kfull, y, 3.0, 2.0)
        assert pr.nu == tr.nu
        assert np.allclose(pr.location, tr.location, atol=1e-10)
        assert np.allclose(pr.scale, tr.scale, atol=1e-10)

    def test_decoupled_test_point(self):
        # cross-covariance ~ 0: location ~ 0 and scale ~ (2 beta/nu) K'_T
        kd = np.array([[2.0, 0.3], [0.3, 1.5]])
        kt = np.array([[1.8]])
        vals = np.block([[kd, np.full((2, 1), 1e-14)], [np.full((1, 2), 1e-14), kt]])
        kfull = KernelMatrix(vals, n_train=2)
        y = np.array([1.0, -0.5])
        a, b = 3.0, 2.0
        tp = tp_posterior_predict(kfull, y, a, b)
        minv = np.linalg.inv(np.eye(2) + np.linalg.inv(kd))
        beta = b + 0.5 * y @ (y - minv @ y)
        assert abs(tp.location[0]) < 1e-12
        assert tp.scale[0, 0] == pytest.approx(2 * beta / (2 * a + 2) * 1.8, rel=1e-10)

    def test_matches_joint_grid_oracle(self):
        # condition the joint train+test Student-t built by NIG marginalization
        rng = RngStream(10)
        kfull = random_kprime(rng, 2, extra=2)
        y = rng.gen.standard_normal(2)
        a, b = 3.0, 2.0
        pr = tp_posterior_predict(kfull, y, a, b)
        # oracle: for each sigma2 on a grid, Gaussian-condition the joint
        # N(0, s(K'+I on train, K' cross/test)) on the observed y, then mix.
        s_grid = np.logspace(-4, 3, 4000)
        kd, kc, kt = kfull.train, kfull.cross, kfull.test
        A = kd + np.eye(2)
        Ainv = np.linalg.inv(A)
        c_mean = kc @ Ainv @ y  # s-independent direction
        schur = kt - kc @ Ainv @ kc.T
        # sigma2 | y has density prop to N(y; 0, sA) IG(s; a, b)
        logp = (
            -0.5 * (y @ Ainv @ y) / s_grid
            - 0.5 * 2 * np.log(s_grid)
            + stats.invgamma.logpdf(s_grid, a, scale=b)
        )
        w = np.exp(logp - logp.max())
        w /= np.trapezoid(w, s_grid)
        es = np.trapezoid(w * s_grid, s_grid)
        mean = c_mean
        cov = es * schur
        assert np.allclose(pr.location, mean, atol=1e-10)
        assert np.allclose(pr.nu / (pr.nu - 2.0) * pr.scale, cov, rtol=2e-3)

    def test_empty_train_reduces_to_prior_t(self):
        kt = np.array([[2.0, 0.5], [0.5, 1.0]])
        kfull = KernelMatrix(kt, n_train=0)
        tp = tp_posterior_predict(kfull, np.empty(0), 3.0, 2.0)
        assert tp.nu == pytest.approx(6.0)
        assert np.allclose(tp.location, 0.0)
        assert np.allclose(tp.scale, (2.0 / 3.0) * kt, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:a=-3.0 <= 1/2")
    @pytest.mark.parametrize("a, b", [(-3.0, 2.0), (3.0, 0.0)])
    def test_rejects_non_positive_prior_parameters(self, a, b):
        kfull = random_kprime(RngStream(12), 2, extra=1)
        y = np.array([1.0, -0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            tp_posterior_predict(kfull, y, a, b)
        with pytest.raises(ValueError, match="strictly positive"):
            tp_posterior_train(kfull, y, a, b)


class TestMarginalizeNigToT:
    def test_parameter_mapping(self):
        tp = marginalize_nig_to_t(np.zeros(2), np.eye(2), 3.0, 2.0)
        assert tp.nu == pytest.approx(6.0)
        assert np.allclose(tp.scale, (2.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_large_alpha_approaches_gaussian(self):
        alpha = 1e4
        tp = marginalize_nig_to_t(np.zeros(1), np.eye(1), alpha, alpha)
        grid = np.linspace(-6, 6, 2001)
        t_cdf = stats.t.cdf(grid, df=tp.nu, scale=math.sqrt(tp.scale[0, 0]))
        n_cdf = stats.norm.cdf(grid)
        assert np.max(np.abs(t_cdf - n_cdf)) < 1e-3

    def test_hierarchical_sampling_ks(self):
        # draw sigma2 ~ IG(alpha, beta), z ~ N(mu, sigma2 * lam): z is t
        alpha, beta, mu, lam = 3.0, 2.0, 0.7, 1.3
        rng = RngStream(11)
        n = 100_000
        s = 1.0 / rng.gen.gamma(alpha, 1.0 / beta, size=n)
        z = mu + np.sqrt(s * lam) * rng.gen.standard_normal(n)
        tp = marginalize_nig_to_t(np.array([mu]), np.array([[lam]]), alpha, beta)
        d, _ = stats.kstest(
            z, lambda v: stats.t.cdf(v, df=tp.nu, loc=mu,
                                     scale=math.sqrt(tp.scale[0, 0]))
        )
        assert d < 1.63 / math.sqrt(n)  # 1% KS critical value


class TestStudentTLogpdf:
    def test_cauchy_peak(self):
        val = student_t_logpdf(np.zeros(1), 1.0, np.zeros(1), np.eye(1))
        assert val == pytest.approx(math.log(1.0 / math.pi), abs=1e-12)

    def test_univariate_normalization(self):
        grid = np.linspace(-50, 50, 200_001)
        pdf = np.exp([student_t_logpdf(np.array([g]), 3.0, np.zeros(1), np.eye(1))
                      for g in grid[::100]])
        total = np.trapezoid(pdf, grid[::100])
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_matches_scipy_univariate(self):
        for x in (-2.0, 0.3, 5.0):
            mine = student_t_logpdf(np.array([x]), 4.0, np.array([0.5]),
                                    np.array([[2.0]]))
            ref = stats.t.logpdf(x, df=4.0, loc=0.5, scale=math.sqrt(2.0))
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_2d_matches_nig_mixture_quadrature(self):
        nu = 5.0
        mu = np.array([0.2, -0.4])
        lam = np.array([[1.2, 0.3], [0.3, 0.8]])
        x = np.array([0.5, 0.1])
        # t_nu(mu, lam) == int N(x; mu, s*lam) IG(s; nu/2, nu/2) ds
        def integrand(s):
            return stats.multivariate_normal.pdf(x, mu, s * lam) * stats.invgamma.pdf(
                s, nu / 2.0, scale=nu / 2.0
            )
        val, _ = integrate.quad(integrand, 0, np.inf, limit=200)
        assert math.exp(student_t_logpdf(x, nu, mu, lam)) == pytest.approx(
            val, abs=1e-6
        )

    def test_scale_asymmetric_at_rounding_level_as_its_transpose(self):
        # a posterior scale is symmetric only up to rounding; the density
        # symmetrises it before the factorisation reads one triangle
        rng = RngStream(12)
        a = rng.gen.standard_normal((12, 12))
        s = a @ a.T + np.eye(12)
        s += 1e-15 * np.max(s) * np.triu(rng.gen.standard_normal((12, 12)), 1)
        assert not np.array_equal(s, s.T)
        x, mu = rng.gen.standard_normal(12), rng.gen.standard_normal(12)
        assert student_t_logpdf(x, 5.0, mu, s) == student_t_logpdf(x, 5.0, mu, s.T)

    def test_singular_scale_rejected(self):
        # the density stays on rung 0 of the jitter ladder, which a singular scale fails
        with pytest.raises(LinearAlgebraError, match="positive definite"):
            student_t_logpdf(np.zeros(2), 3.0, np.zeros(2), np.ones((2, 2)))


class TestOneConditioningPath:
    """Every posterior is one _condition call, made by tp_posterior_predict or gp_posterior."""

    def test_condition_called_only_in_tp_posterior_predict_and_gp_posterior(self):
        found = _matching_lines(r"(?<!def )\b_condition\(")
        assert sorted(d for d, _ in found) == ["gp_posterior", "tp_posterior_predict"]

    @pytest.mark.parametrize("family", ["t", "gp"])
    def test_posterior_holds_the_one_test_by_test_array(self, family):
        # no scaled or symmetrised copy of the conditioning step's m x m array
        kfull = random_kprime(RngStream(13), 4, extra=400)
        y = RngStream(14).gen.standard_normal(4)
        tracemalloc.start()
        try:
            if family == "t":
                tp_posterior_predict(kfull, y, 3.0, 2.0)
            else:
                gp_posterior(kfull.train, kfull.cross, kfull.test, y, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kfull.test.nbytes <= peak < 1.5 * kfull.test.nbytes
