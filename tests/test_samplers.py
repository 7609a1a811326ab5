"""Variate-generation tests: IG, MVN, MVT, the sigma2 conditional, and NUTS."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from bnnlimits import (
    Architecture,
    Dataset,
    HmcConfig,
    Sigma2ConditionalParams,
    VarianceVector,
    conditional_sigma2_params,
    forward,
    hmc_sample,
    sample_inverse_gamma,
    sample_mvn,
    sample_mvt,
    sample_sigma2_conditional,
)
from bnnlimits.network import log_likelihood, log_prior, sample_prior_params
from bnnlimits.rng import RngStream

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
        assert np.allclose(sample_mvn(mean, np.zeros((2, 2)), RngStream(2)), mean,
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
            sample_mvn(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), RngStream(6))


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


ARCH = Architecture((1, 4, 1), ("identity", "erf"))
VARS = VarianceVector.constant(1.0, 2)


class TestConditionalSigma2Params:
    def test_a_prime_substitution(self):
        # n_{L-1} = 4, k = 10, n_L = 1 -> a' = a + 15/2
        data = Dataset(np.linspace(-1, 1, 10)[None, :], np.zeros((1, 10)))
        p = conditional_sigma2_params(3.0, 2.0, ARCH, np.zeros(ARCH.n_params), data)
        assert p.a_prime == pytest.approx(10.5)

    def test_zero_last_layer_and_zero_y(self):
        rng = RngStream(10)
        theta = rng.gen.standard_normal(ARCH.n_params)
        ws, bs = ARCH.layout()[-1]
        theta[ws] = 0.0
        theta[bs] = 0.0
        data = Dataset(np.array([[0.1, 0.5]]), np.zeros((1, 2)))
        p = conditional_sigma2_params(3.0, 2.0, ARCH, theta, data)
        assert p.b_prime == pytest.approx(2.0)
        assert p.c_prime == pytest.approx(0.0)

    def test_density_ratio_oracle(self):
        # p(s1)/p(s2) from the raw model factors must match the (a',b',c')
        # form, where the raw factors are: IG(a,b) prior on s, last-layer
        # Gaussian prior with variances (s, s), and a Gaussian likelihood
        # with mean sqrt(s) * f_std evaluated at the standardized parameters.
        rng = RngStream(11)
        theta = rng.gen.standard_normal(ARCH.n_params)
        data = Dataset(rng.gen.standard_normal((1, 5)),
                       rng.gen.standard_normal((1, 5)))
        a, b = 3.0, 2.0
        p = conditional_sigma2_params(a, b, ARCH, theta, data)
        ws, bs = ARCH.layout()[-1]
        n_prev = ARCH.widths[-2]

        def raw_log_kernel(s):
            lp_s = -(a + 1) * math.log(s) - b / s
            # last-layer prior at the raw parameters under variances (s, s)
            w2 = float(np.sum(theta[ws] ** 2))
            b2 = float(np.sum(theta[bs] ** 2))
            nw = len(theta[ws])
            nb = len(theta[bs])
            lp_w = -0.5 * nw * math.log(s / n_prev) - n_prev * w2 / (2 * s)
            lp_b = -0.5 * nb * math.log(s) - b2 / (2 * s)
            out_std = forward(ARCH, theta, data.x)
            ll = log_likelihood(math.sqrt(s) * out_std, data.y, s)
            return lp_s + lp_w + lp_b + ll

        for s1, s2 in [(0.5, 1.7), (0.2, 3.0), (1.0, 0.9)]:
            raw = raw_log_kernel(s1) - raw_log_kernel(s2)
            form = float(p.log_density(s1) - p.log_density(s2))
            assert raw == pytest.approx(form, abs=1e-9)

    def test_standardization_argument(self):
        # passing sigma2 divides the last layer before computing c'
        rng = RngStream(12)
        theta = rng.gen.standard_normal(ARCH.n_params)
        data = Dataset(rng.gen.standard_normal((1, 3)),
                       rng.gen.standard_normal((1, 3)))
        s = 4.0
        scaled = theta.copy()
        ws, bs = ARCH.layout()[-1]
        scaled[ws] *= math.sqrt(s)
        scaled[bs] *= math.sqrt(s)
        p_std = conditional_sigma2_params(3.0, 2.0, ARCH, theta, data)
        p_raw = conditional_sigma2_params(3.0, 2.0, ARCH, scaled, data, sigma2=s)
        assert p_raw.c_prime == pytest.approx(p_std.c_prime, rel=1e-12)
        assert p_raw.a_prime == p_std.a_prime


def sigma2_quadrature_moments(p: Sigma2ConditionalParams):
    f = lambda s: np.exp(p.log_density(np.asarray(s)))
    z, _ = integrate.quad(f, 0, np.inf, limit=500)
    m1, _ = integrate.quad(lambda s: s * f(s), 0, np.inf, limit=500)
    m2, _ = integrate.quad(lambda s: s * s * f(s), 0, np.inf, limit=500)
    return m1 / z, m2 / z - (m1 / z) ** 2


class TestSampleSigma2Conditional:
    def test_c_zero_reduces_to_inverse_gamma(self):
        p = Sigma2ConditionalParams(4.0, 3.0, 0.0)
        d = sample_sigma2_conditional(p, RngStream(13), size=100_000)
        ig = sample_inverse_gamma(4.0, 3.0, RngStream(14), size=100_000)
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

    def test_internal_y_density_is_substituted_form(self):
        # the y = 1/sqrt(s) substitution gives ∝ y^{2a'-1} e^{-b'y^2 + c'y}:
        # check density ratios against the s-form with the Jacobian s^{-3/2}
        p = Sigma2ConditionalParams(5.0, 2.0, 1.5)
        pts = [0.3, 0.8, 1.0, 2.5, 7.0]
        for y1, y2 in zip(pts, pts[1:]):
            s1, s2 = y1**-2.0, y2**-2.0
            lhs = float(p.log_density_y(y1) - p.log_density_y(y2))
            # d s / d y = -2 y^{-3}; density transforms with |ds/dy| = 2/y^3
            rhs = float(
                p.log_density(s1) + math.log(2.0 / y1**3)
                - p.log_density(s2) - math.log(2.0 / y2**3)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestHmc:
    def test_standard_normal_target(self):
        logp = lambda th: -0.5 * float(th @ th)
        grad = lambda th: -th
        chain, diag = hmc_sample(
            lambda th: (logp(th), grad(th)), np.zeros(2), HmcConfig(warmup=300), 10_000,
            RngStream(16),
        )
        assert np.max(np.abs(chain.mean(0))) < 0.05
        assert np.max(np.abs(np.cov(chain.T) - np.eye(2))) < 0.1
        assert diag.n_divergent == 0

    def test_log_ig_target_matches_direct_sampler(self):
        # sample log(s) with s ~ IG(3, 2); back-transform and compare by KS
        a, b = 3.0, 2.0

        def logp(th):
            t = th[0]
            return -a * t - b * math.exp(-t)  # log density of t = log s

        def grad(th):
            return np.array([-a + b * math.exp(-th[0])])

        chain, _ = hmc_sample(lambda th: (logp(th), grad(th)), np.zeros(1),
                              HmcConfig(warmup=300), 20_000, RngStream(17))
        s = np.exp(chain[::4, 0])  # thin to reduce autocorrelation
        stat, pval = stats.kstest(s, lambda x: stats.invgamma.cdf(x, a, scale=b))
        assert pval > 0.01

    def test_zero_draws_empty_chain(self):
        chain, _ = hmc_sample(
            lambda th: (-0.5 * float(th @ th), -th),
            np.zeros(3), HmcConfig(warmup=0), 0, RngStream(18)
        )
        assert chain.shape == (0, 3)

    def test_bit_reproducible(self):
        logp = lambda th: -0.5 * float(th @ th)
        grad = lambda th: -th
        c1, _ = hmc_sample(lambda th: (logp(th), grad(th)), np.zeros(2),
                           HmcConfig(warmup=50), 100, RngStream(19))
        c2, _ = hmc_sample(lambda th: (logp(th), grad(th)), np.zeros(2),
                           HmcConfig(warmup=50), 100, RngStream(19))
        assert np.array_equal(c1, c2)

    def test_gradient_check_catches_mismatch(self):
        with pytest.raises(ValueError):
            hmc_sample(
                lambda th: (-0.5 * float(th @ th), +th),
                np.ones(2), HmcConfig(warmup=10), 10, RngStream(20), check_grad=True,
            )

    def test_one_target_evaluation_per_leapfrog_step(self):
        calls = []

        def value_and_grad(th):
            calls.append(1)
            return -0.5 * float(th @ th), -th

        hmc_sample(
            value_and_grad, np.zeros(2),
            HmcConfig(step_size=0.1, max_tree_depth=1, warmup=0), 50, RngStream(21),
        )
        # one evaluation at init, then one leapfrog step per depth-1 transition
        assert len(calls) == 51

    def test_no_warmup_keeps_heuristic_step(self):
        # with adaptation on but no warmup, the step must come from the
        # heuristic, not from an average that has not been updated (1.0)
        var = 1e-6
        chain, diag = hmc_sample(
            lambda th: (-0.5 * float(th @ th) / var, -th / var),
            np.zeros(2), HmcConfig(warmup=0), 20, RngStream(22),
        )
        assert diag.step_size < 0.01
        assert diag.n_divergent == 0
        assert np.all(np.abs(chain) < 0.01)
