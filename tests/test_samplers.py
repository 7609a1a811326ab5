"""Variate-generation tests: IG, MVN, MVT and the sigma2 conditional."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from bnnlimits import (
    Sigma2ConditionalParams,
    sample_inverse_gamma,
    sample_mvn,
    sample_mvt,
    sample_sigma2_conditional,
)
from bnnlimits.rng import RngStream
from bnnlimits.samplers import SamplerError
from oracles import sigma2_log_density

KS_1PCT = 1.63  # critical value factor for the KS statistic at the 1% level


class TestDeterminism:
    def test_same_stream_same_draws(self):
        a = sample_inverse_gamma(3, 2, RngStream(5, (1, 2)), size=10)
        b = sample_inverse_gamma(3, 2, RngStream(5, (1, 2)), size=10)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        r1, r2 = RngStream(5).split(2)
        assert not np.array_equal(
            r1.gen.standard_normal(10), r2.gen.standard_normal(10)
        )


class TestInverseGamma:
    def test_mean_and_variance(self):
        a, b, n = 3.0, 2.0, 1_000_000
        d = sample_inverse_gamma(a, b, RngStream(0), size=n)
        mean = b / (a - 1)
        var = b**2 / ((a - 1) ** 2 * (a - 2))
        assert abs(d.mean() - mean) < 3 * math.sqrt(var / n)
        assert abs(d.var() - var) < 0.05 * var

    def test_reciprocal_is_gamma(self):
        d = sample_inverse_gamma(3.0, 2.0, RngStream(1), size=100_000)
        stat, _ = stats.kstest(1.0 / d, lambda x: stats.gamma.cdf(x, 3.0, scale=0.5))
        assert stat < KS_1PCT / math.sqrt(len(d))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            sample_inverse_gamma(0.0, 1.0, RngStream(0))


class TestMvn:
    def test_zero_cov_returns_mean(self):
        mean = np.array([1.0, -2.0])
        assert np.allclose(sample_mvn(mean, np.zeros((2, 2)), RngStream(2), size=1), mean,
                           atol=1e-6)

    def test_marginals_standard_normal(self):
        d = sample_mvn(np.zeros(2), np.eye(2), RngStream(3), size=100_000)
        for j in range(2):
            stat, _ = stats.kstest(d[:, j], "norm")
            assert stat < KS_1PCT / math.sqrt(d.shape[0])

    def test_empirical_covariance(self):
        rng = RngStream(4)
        A = rng.gen.standard_normal((3, 3))
        cov = A @ A.T
        n = 200_000
        d = sample_mvn(np.zeros(3), cov, RngStream(5), size=n)
        emp = np.cov(d.T)
        # var of cov estimate ~ (cov_ij^2 + cov_ii cov_jj)/n
        stderr = np.sqrt((cov**2 + np.outer(np.diag(cov), np.diag(cov))) / n)
        assert np.all(np.abs(emp - cov) < 4 * stderr)

    @pytest.mark.parametrize("dip", [0.0, 3e-13])
    def test_singular_covariance_without_eigendecomposition(self, monkeypatch, dip):
        calls = []

        def counted(*args, _fn=np.linalg.eigh, **kwargs):
            calls.append("eigh")
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        # rank one, or indefinite at rounding level (an eigenvalue of order -dip)
        cov = 3.0 * np.ones((3, 3)) - dip * np.diag([0.0, 0.0, 1.0])
        n = 200_000
        d = sample_mvn(np.zeros(3), cov, RngStream(8), size=n)
        assert calls == []
        emp = np.cov(d.T)
        stderr = np.sqrt((cov**2 + np.outer(np.diag(cov), np.diag(cov))) / n)
        assert np.all(np.abs(emp - cov) < 4 * stderr)

    def test_empty_covariance(self):
        assert sample_mvn(np.zeros(0), np.zeros((0, 0)), RngStream(9), size=5).shape == (5, 0)

    def test_indefinite_rejected(self):
        from bnnlimits.posteriors import LinearAlgebraError

        with pytest.raises(LinearAlgebraError):
            sample_mvn(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), RngStream(6), size=1)

    def test_nan_covariance_rejected(self):
        from bnnlimits.posteriors import LinearAlgebraError

        # psd_cholesky rejects a non-finite matrix before LAPACK reads it
        with pytest.raises(LinearAlgebraError):
            sample_mvn(np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), RngStream(6),
                       size=1)


class TestMvt:
    def test_ks_against_analytic_cdf(self):
        nu, mu, s2 = 7.0, 0.5, 0.32143
        d = sample_mvt(nu, np.array([mu]), np.array([[s2]]), RngStream(7), size=100_000)
        stat, _ = stats.kstest(
            d[:, 0], lambda x: stats.t.cdf(x, df=nu, loc=mu, scale=math.sqrt(s2))
        )
        assert stat < KS_1PCT / math.sqrt(d.shape[0])

    def test_large_nu_matches_gaussian_moments(self):
        d = sample_mvt(1e4, np.zeros(2), np.eye(2), RngStream(8), size=100_000)
        assert np.max(np.abs(d.mean(0))) < 0.02
        assert np.max(np.abs(np.cov(d.T) - np.eye(2))) < 0.02

    def test_second_moment(self):
        nu = 7.0
        d = sample_mvt(nu, np.zeros(1), np.array([[2.0]]), RngStream(9), size=400_000)
        assert d.var() == pytest.approx(nu / (nu - 2) * 2.0, rel=0.03)


def sigma2_quadrature_moments(p: Sigma2ConditionalParams):
    f = lambda s: np.exp(sigma2_log_density(p, s))
    z, _ = integrate.quad(f, 0, np.inf, limit=500)
    m1, _ = integrate.quad(lambda s: s * f(s), 0, np.inf, limit=500)
    m2, _ = integrate.quad(lambda s: s * s * f(s), 0, np.inf, limit=500)
    return m1 / z, m2 / z - (m1 / z) ** 2


def inverse_sqrt_quadrature_moments(p: Sigma2ConditionalParams):
    """Mean and variance of y = 1/sqrt(sigma2), integrated in y.

    The y-density is the s-density times the Jacobian |ds/dy| = 2 y^{-3}.
    """
    f = lambda y: np.exp(sigma2_log_density(p, y**-2.0)) * 2.0 * y**-3.0
    z, _ = integrate.quad(f, 0, np.inf, limit=500)
    m1, _ = integrate.quad(lambda y: y * f(y), 0, np.inf, limit=500)
    m2, _ = integrate.quad(lambda y: y * y * f(y), 0, np.inf, limit=500)
    return m1 / z, m2 / z - (m1 / z) ** 2


class NeverAccepts:
    """Generator stand-in whose uniforms are all 1: no proposal is accepted."""

    def __init__(self, gen):
        self.gamma = gen.gamma

    def uniform(self, size=None):
        return np.ones(size)


class TestSampleSigma2Conditional:
    @pytest.mark.parametrize("a_prime", [4.0, 0.5, 0.3])
    def test_c_zero_reduces_to_inverse_gamma(self, a_prime):
        p = Sigma2ConditionalParams(a_prime, 3.0, 0.0)
        d = sample_sigma2_conditional(p, RngStream(13), size=100_000)
        ig = sample_inverse_gamma(a_prime, 3.0, RngStream(14), size=100_000)
        stat, pval = stats.ks_2samp(d, ig)
        assert pval > 0.01

    @pytest.mark.parametrize("abc", [(10.5, 5.0, 2.0), (10.5, 5.0, -50.0),
                                     (4.0, 3.0, 0.0)])
    def test_moments_match_quadrature(self, abc):
        p = Sigma2ConditionalParams(*abc)
        n = 1_000_000
        d = sample_sigma2_conditional(p, RngStream(15), size=n)
        m1, var = sigma2_quadrature_moments(p)
        assert abs(d.mean() - m1) < 3 * math.sqrt(var / n)
        # stderr of the sample variance via the empirical fourth moment
        m4 = np.mean((d - d.mean()) ** 4)
        var_of_var = (m4 - var**2) / n
        assert abs(d.var() - var) < 3 * math.sqrt(var_of_var)

    @pytest.mark.parametrize("abc", [(0.5, 2.0, -2.0), (0.5, 2.0, 2.0),
                                     (0.3, 2.0, -2.0), (0.3, 2.0, 2.0)])
    def test_small_a_inverse_sqrt_moments_match_quadrature(self, abc):
        # sigma2 has no mean for a' <= 1; y = 1/sqrt(sigma2) has every moment
        p = Sigma2ConditionalParams(*abc)
        n = 1_000_000
        y = sample_sigma2_conditional(p, RngStream(16), size=n) ** -0.5
        m1, var = inverse_sqrt_quadrature_moments(p)
        assert abs(y.mean() - m1) < 3 * math.sqrt(var / n)
        m4 = np.mean((y - y.mean()) ** 4)
        assert abs(y.var() - var) < 3 * math.sqrt((m4 - var**2) / n)

    def test_spent_rejection_budget_raises(self):
        p = Sigma2ConditionalParams(4.0, 3.0, 0.5)
        rng = RngStream(17)
        rng.gen = NeverAccepts(rng.gen)
        with pytest.raises(SamplerError, match="accepted none"):
            sample_sigma2_conditional(p, rng)
