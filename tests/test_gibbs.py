"""Gibbs trainer tests: prior recovery, oracle agreement, reproducibility."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from bnnlimits import (
    Architecture,
    Dataset,
    GibbsConfig,
    VarianceVector,
    forward_batch,
    gibbs_run,
    gibbs_run_fixed_variance,
    sample_prior_params,
)
from bnnlimits import gibbs
from bnnlimits.rng import RngStream
from bnnlimits.samplers import SamplerError

ARCH = Architecture((1, 1, 1), ("identity", "erf"))
VARS = VarianceVector.constant(1.0, 2)
EMPTY = Dataset(np.empty((1, 0)), np.empty((1, 0)))
TEST_X = np.array([[-1.0, 1.0]])


def importance_oracle(arch, variances, a, b, data, test, n, seed):
    """Self-normalized importance sampling from the prior.

    Proposal: sigma2 ~ IG(a, b), standardized theta from the unit-last-layer
    prior; weight = likelihood of y given mean sqrt(sigma2) * f_std(x).
    Returns posterior means of sigma2 and f(test), plus their stderr.
    """
    rng = RngStream(seed)
    r_s, r_t = rng.split(2)
    s2 = 1.0 / r_s.gen.gamma(a, 1.0 / b, size=n)
    theta = sample_prior_params(arch, variances.unit_last_layer(), r_t, n_draws=n)
    allx = np.concatenate([data.x, test], axis=1)
    f = forward_batch(arch, theta, allx)[:, 0, :]
    fx, ft = f[:, : data.k], f[:, data.k :]
    resid2 = ((data.y[0] - np.sqrt(s2)[:, None] * fx) ** 2).sum(axis=1)
    logw = -0.5 * data.k * np.log(2 * np.pi * s2) - resid2 / (2 * s2)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    f_raw = np.sqrt(s2)[:, None] * ft
    est_s2 = float(w @ s2)
    est_f = w @ f_raw
    ess = 1.0 / float(np.sum(w**2))
    se_s2 = math.sqrt(float(w @ (s2 - est_s2) ** 2) / ess)
    se_f = np.sqrt((w @ (f_raw - est_f) ** 2) / ess)
    return est_s2, est_f, se_s2, se_f, ess


def record_raw_thetas(monkeypatch, test_x):
    """Collect the raw theta of each kept draw, at its evaluation on test_x.

    Returns a list that fills as the chain runs; np.array(list) is (n, n_params).
    """
    thetas = []
    real_forward = gibbs.forward

    def recorder(arch, theta, x):
        if x.shape == test_x.shape and np.array_equal(x, test_x):
            thetas.append(np.array(theta))
        return real_forward(arch, theta, x)

    monkeypatch.setattr(gibbs, "forward", recorder)
    return thetas


def mcmc_stderr(x):
    """Batch-means standard error for a correlated scalar chain."""
    n = len(x)
    nb = max(int(math.sqrt(n)), 2)
    bs = n // nb
    means = np.array([x[i * bs : (i + 1) * bs].mean() for i in range(nb)])
    return float(means.std(ddof=1) / math.sqrt(nb))


class TestPriorRecovery:
    @pytest.mark.parametrize("a", [3.0, 0.5, 0.3])
    def test_empty_dataset_recovers_prior(self, a, monkeypatch):
        b = 2.0
        cfg = GibbsConfig(n_samples=2000, burn_in=100, seed=21)
        thetas = record_raw_thetas(monkeypatch, TEST_X)
        out = gibbs_run(ARCH, VARS, a, b, EMPTY, TEST_X, cfg)
        # sigma2 is an exact IG(a, b) draw each outer step when k = 0
        stat, pval = stats.kstest(
            out.sigma2, lambda s: stats.invgamma.cdf(s, a, scale=b)
        )
        assert pval > 0.01
        if a > 1:  # E[sigma2] is infinite for a <= 1
            # last-layer raw variance: E[W_L^2] = E[sigma2] = b/(a-1)
            ws, _ = ARCH.layout()[-1]
            w = np.array(thetas)[:, ws].ravel()
            target = b / (a - 1)
            assert abs(np.mean(w**2) - target) < 5 * mcmc_stderr(w**2)

    def test_fixed_variance_empty_dataset(self, monkeypatch):
        cfg = GibbsConfig(n_samples=3000, burn_in=100, seed=22)
        thetas = record_raw_thetas(monkeypatch, TEST_X)
        gibbs_run_fixed_variance(ARCH, VARS, 0.1, EMPTY, TEST_X, cfg)
        # theta is a prior Gaussian: check first-layer weight moments
        ws, _ = ARCH.layout()[0]
        w = np.array(thetas)[:, ws].ravel()
        assert abs(w.mean()) < 5 * mcmc_stderr(w)
        assert abs(np.mean(w**2) - 1.0) < 5 * mcmc_stderr(w**2)


@pytest.mark.slow
class TestOracleAgreement:
    def test_gibbs_matches_importance_sampling(self):
        # small version of the acceptance criterion (full size runs there)
        data = Dataset(np.array([[-0.5, 0.1, 0.7]]), np.array([[0.3, -0.2, 0.5]]))
        a, b = 3.0, 2.0
        est_s2, est_f, se_s2, se_f, ess = importance_oracle(
            ARCH, VARS, a, b, data, TEST_X, 1_000_000, seed=23
        )
        cfg = GibbsConfig(n_samples=3000, burn_in=300, seed=24)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = gibbs_run(ARCH, VARS, a, b, data, TEST_X, cfg)
        g_se_s2 = mcmc_stderr(out.sigma2)
        assert abs(out.sigma2.mean() - est_s2) < 3 * math.hypot(se_s2, g_se_s2)
        for j in range(2):
            g_se = mcmc_stderr(out.evals[:, j])
            assert abs(out.evals[:, j].mean() - est_f[j]) < 3 * math.hypot(
                se_f[j], g_se
            )

    def test_fixed_variance_matches_importance_sampling(self):
        data = Dataset(np.array([[-0.5, 0.1, 0.7]]), np.array([[0.3, -0.2, 0.5]]))
        noise = 0.1
        # oracle with a point-mass at sigma2 = noise and raw prior draws
        n = 1_000_000
        rng = RngStream(25)
        theta = sample_prior_params(ARCH, VARS, rng, n_draws=n)
        allx = np.concatenate([data.x, TEST_X], axis=1)
        f = forward_batch(ARCH, theta, allx)[:, 0, :]
        fx, ft = f[:, :3], f[:, 3:]
        logw = -((data.y[0] - fx) ** 2).sum(axis=1) / (2 * noise)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        est_f = w @ ft
        ess = 1.0 / float(np.sum(w**2))
        se_f = np.sqrt((w @ (ft - est_f) ** 2) / ess)
        cfg = GibbsConfig(n_samples=3000, burn_in=300, seed=26)
        out = gibbs_run_fixed_variance(ARCH, VARS, noise, data, TEST_X, cfg)
        for j in range(2):
            g_se = mcmc_stderr(out.evals[:, j])
            assert abs(out.evals[:, j].mean() - est_f[j]) < 3 * math.hypot(
                se_f[j], g_se
            )

    def test_doubling_m_keeps_means_in_band(self):
        # chain-stationarity smoke test
        data = Dataset(np.array([[-0.5, 0.1, 0.7]]), np.array([[0.3, -0.2, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            short = gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X,
                              GibbsConfig(n_samples=1500, burn_in=300, seed=27))
            long = gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X,
                             GibbsConfig(n_samples=3000, burn_in=300, seed=28))
        band = 3 * math.hypot(mcmc_stderr(short.sigma2), mcmc_stderr(long.sigma2))
        assert abs(short.sigma2.mean() - long.sigma2.mean()) < band


class TestMechanics:
    def test_bit_reproducible(self, monkeypatch):
        data = Dataset(np.array([[0.2]]), np.array([[0.4]]))
        cfg = GibbsConfig(n_samples=20, burn_in=10, seed=29)
        thetas = record_raw_thetas(monkeypatch, TEST_X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X, cfg)
            theta_a = np.array(thetas)
            thetas.clear()
            b = gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X, cfg)
        assert theta_a.shape == (20, ARCH.n_params)
        assert np.array_equal(theta_a, np.array(thetas))
        assert np.array_equal(a.sigma2, b.sigma2)
        assert np.array_equal(a.evals, b.evals)

    def test_test_input_permutation_permutes_evals(self):
        data = Dataset(np.array([[0.2]]), np.array([[0.4]]))
        cfg = GibbsConfig(n_samples=15, burn_in=5, seed=30)
        grid = np.array([[-1.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = gibbs_run(ARCH, VARS, 3.0, 2.0, data, grid, cfg)
            b = gibbs_run(ARCH, VARS, 3.0, 2.0, data, grid[:, ::-1], cfg)
        assert np.allclose(a.evals, b.evals[:, ::-1], atol=1e-12)

    def test_sigma2_strictly_positive(self):
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X,
                            GibbsConfig(n_samples=50, burn_in=20, seed=31))
        assert np.all(out.sigma2 > 0)

    def test_wider_architecture_runs(self):
        arch = Architecture((1, 8, 8, 1), ("identity", "erf", "erf"))
        v = VarianceVector.constant(5.0, 3)
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = gibbs_run(arch, v, 3.0, 2.0, data, TEST_X,
                            GibbsConfig(n_samples=20, burn_in=20, seed=33))
        assert out.evals.shape == (20, 2)
        assert out.diagnostics["n_divergent"] <= 0.5 * out.diagnostics["n_transitions"]

    def test_chain_memory_does_not_grow_with_parameters_per_draw(self, monkeypatch):
        # 500 kept draws of 1153 parameters would take 4.6 MB if stored; the
        # chain keeps sigma2 and the test evaluations only
        arch = Architecture((1, 32, 32, 1), ("identity", "erf", "erf"))
        data = Dataset(np.array([[0.2]]), np.array([[0.4]]))
        cfg = GibbsConfig(n_samples=500, burn_in=5, seed=35)
        monkeypatch.setattr(gibbs, "HMC_STEPS", 1)  # keeps the 500-draw chain fast
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = gibbs_run(arch, VarianceVector.constant(1.0, 3), 3.0, 2.0,
                                data, TEST_X, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.evals.shape == (500, 2)
        assert peak < 0.5 * cfg.n_samples * arch.n_params * 8

    @pytest.mark.parametrize("noise_var", [1e308, 2.9e307])
    def test_target_not_finite_at_the_state_raises(self, noise_var, monkeypatch):
        # log(2 pi sigma2) overflows, so the target is -inf at every theta: the
        # chain stops before its first transition rather than after burn-in
        transitions = []
        real = gibbs.nuts_transition

        def counted(*args):
            transitions.append(args)
            return real(*args)

        monkeypatch.setattr(gibbs, "nuts_transition", counted)
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with pytest.raises(SamplerError, match=r"log target is -inf .*sigma2 = "):
            gibbs_run_fixed_variance(ARCH, VARS, noise_var, data, TEST_X,
                                     GibbsConfig(n_samples=4, burn_in=2, seed=36))
        assert transitions == []

    def test_persistent_divergence_raises_sampler_error(self, monkeypatch):
        def always_divergent(value_and_grad, theta, logp, grad, eps, gen):
            return theta, logp, grad, 0.0, 0, True

        monkeypatch.setattr(gibbs, "nuts_transition", always_divergent)
        data = Dataset(np.array([[0.2]]), np.array([[0.4]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SamplerError, match="persistent divergence"):
                gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X,
                          GibbsConfig(n_samples=5, burn_in=5, seed=34))
