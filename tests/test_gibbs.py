"""Gibbs trainer tests: prior recovery, oracle agreement, reproducibility."""

import json
import math
import pathlib
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
from bnnlimits.experiments import ExperimentConfig
from bnnlimits.kernels import LinearAlgebraError
from bnnlimits.network import ACTIVATIONS, last_layer_inputs, prior_scales
from bnnlimits.rng import RngStream
from bnnlimits.samplers import SamplerError
from oracles import student_t_logpdf

ARCH = Architecture((1, 1, 1), ("identity", "erf"))
VARS = VarianceVector.constant(1.0, 2)
EMPTY = Dataset(np.empty((1, 0)), np.empty((1, 0)))
TEST_X = np.array([[-1.0, 1.0]])
IS_BLOCK = 200_000  # importance draws per block
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
POSTERIOR_CONFIG = CONFIGS / "posterior_convergence.json"
BASELINE_CONFIG = CONFIGS / "gaussian_baseline.json"


def importance_oracle(arch, variances, a, b, data, test, n, seed):
    """Self-normalized importance sampling from the prior.

    Proposal: sigma2 ~ IG(a, b), standardized theta from the unit-last-layer
    prior; weight = likelihood of y given mean sqrt(sigma2) * f_std(x).
    Returns posterior means of sigma2 and f(test), plus their stderr.
    """
    rng = RngStream(seed)
    r_s, r_t = rng.split(2)
    s2 = 1.0 / r_s.gen.gamma(a, 1.0 / b, size=n)
    allx = np.concatenate([data.x, test], axis=1)
    logw, ft = np.empty(n), np.empty((n, test.shape[1]))
    # in blocks of draws, which give the same draws as one call
    for lo in range(0, n, IS_BLOCK):
        block = slice(lo, min(lo + IS_BLOCK, n))
        theta = sample_prior_params(arch, variances.unit_last_layer(), r_t,
                                    n_draws=block.stop - block.start)
        f = forward_batch(arch, theta, allx)[:, 0, :]
        ft[block] = f[:, data.k :]
        resid2 = ((data.y[0] - np.sqrt(s2[block])[:, None] * f[:, : data.k]) ** 2).sum(axis=1)
        logw[block] = -0.5 * data.k * np.log(2 * np.pi * s2[block]) - resid2 / (2 * s2[block])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    f_raw = np.sqrt(s2)[:, None] * ft
    est_s2 = float(w @ s2)
    est_f = w @ f_raw
    ess = 1.0 / float(np.sum(w**2))
    se_s2 = math.sqrt(float(w @ (s2 - est_s2) ** 2) / ess)
    se_f = np.sqrt((w @ (f_raw - est_f) ** 2) / ess)
    return est_s2, est_f, se_s2, se_f, ess


def hidden_features(arch, variances, hidden, x):
    """phi(h_L) at the columns of x, (draws, n_{L-1}, m), from forward_batch on
    the hidden layers alone; hidden is (draws, n hidden parameters) of z."""
    top = arch.layout()[-1][0].start
    hidden_arch = Architecture(arch.widths[:-1], arch.activations[:-1])
    h = forward_batch(hidden_arch, hidden * prior_scales(arch, variances)[:top], x)
    return ACTIVATIONS[arch.activations[-1]][0](h)


def baseline_importance_oracle(arch, variances, noise, data, test, n, seed):
    """Self-normalized importance sampling of the fixed-variance posterior's
    first and second moments of f(test), from the prior of the hidden layers.

    Given the hidden layers, f at the training and test inputs is Gaussian
    with covariance K = sigma_W^2 / n phi^T phi + sigma_b^2 (last layer),
    so each draw is weighted by N(y; 0, K_DD + noise I) and carries the exact
    conditional mean and variance of f(test): the last layer is integrated
    out, not drawn. Returns ((estimate, stderr) of E f, of E f^2, and the ESS).
    """
    top, k, m = arch.layout()[-1][0].start, data.k, test.shape[1]
    allx = np.concatenate([data.x, test], axis=1)
    gen = RngStream(seed).gen
    logw, moments = np.empty(n), np.empty((2, n, m))
    step = IS_BLOCK // 10  # each draw holds a (k + m) x (k + m) kernel
    for lo in range(0, n, step):
        block = slice(lo, min(lo + step, n))
        phi = hidden_features(arch, variances, gen.standard_normal((block.stop - lo, top)),
                              allx)
        K = (variances.weight[-1] / arch.widths[-2]) * (phi.transpose(0, 2, 1) @ phi)
        K += variances.bias[-1]
        c = K[:, :k, :k] + noise * np.eye(k)
        y = np.broadcast_to(data.y[0][:, None], (len(c), k, 1))
        sol = np.linalg.solve(c, np.concatenate([y, K[:, :k, k:]], axis=2))
        logw[block] = -0.5 * np.linalg.slogdet(c)[1] - 0.5 * sol[..., 0] @ data.y[0]
        mean = (K[:, k:, :k] @ sol[..., :1])[..., 0]
        var = np.diagonal(K[:, k:, k:], axis1=1, axis2=2) - np.einsum(
            "bij,bji->bi", K[:, k:, :k], sol[..., 1:])
        moments[:, block] = mean, var + mean**2
    w = np.exp(logw - logw.max())
    w /= w.sum()
    est = w @ moments
    se = np.sqrt(w**2 @ (moments - est[:, None]) ** 2)
    return (est[0], se[0]), (est[1], se[1]), 1.0 / float(np.sum(w**2))


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

    def test_every_layer_prior_recovered_through_the_scale(self, monkeypatch):
        # the chain runs on theta / prior scale; layers whose scales differ
        # must each come back standard normal after the map to raw theta
        arch = Architecture((1, 3, 3, 1), ("identity", "erf", "erf"))
        v = VarianceVector((5.0, 0.5, 2.0), (0.1, 3.0, 1.0))
        cfg = GibbsConfig(n_samples=2000, burn_in=100, seed=37)
        thetas = record_raw_thetas(monkeypatch, TEST_X)
        gibbs_run_fixed_variance(arch, v, 0.1, EMPTY, TEST_X, cfg)
        z = np.array(thetas) / prior_scales(arch, v)
        assert z.shape == (cfg.n_samples, arch.n_params)
        for ws, bs in arch.layout():
            layer = np.concatenate([z[:, ws], z[:, bs]], axis=1)
            mean, mean_sq = layer.mean(axis=1), (layer**2).mean(axis=1)
            assert abs(mean.mean()) < 5 * mcmc_stderr(mean)
            assert abs(mean_sq.mean() - 1.0) < 5 * mcmc_stderr(mean_sq)

    def test_hierarchical_every_layer_prior_recovered(self, monkeypatch):
        # with no data every slice proposal is accepted, so each step moves
        # the hidden layers to a fresh point of their prior's ellipse; a
        # chain that never moves them would keep its first draw
        arch = Architecture((1, 3, 3, 1), ("identity", "erf", "erf"))
        v = VarianceVector((5.0, 0.5, 2.0), (0.1, 3.0, 1.0))
        cfg = GibbsConfig(n_samples=2000, burn_in=100, seed=38)
        thetas = record_raw_thetas(monkeypatch, TEST_X)
        out = gibbs_run(arch, v, 3.0, 2.0, EMPTY, TEST_X, cfg)
        z = np.array(thetas) / prior_scales(arch, v.unit_last_layer())
        top = arch.layout()[-1][0].start
        z[:, top:] /= np.sqrt(out.sigma2)[:, None]
        assert out.diagnostics["loglik_evals"] == out.diagnostics["n_transitions"]
        for ws, bs in arch.layout():
            layer = np.concatenate([z[:, ws], z[:, bs]], axis=1)
            mean, mean_sq = layer.mean(axis=1), (layer**2).mean(axis=1)
            assert abs(mean.mean()) < 5 * mcmc_stderr(mean)
            assert abs(mean_sq.mean() - 1.0) < 5 * mcmc_stderr(mean_sq)


def test_last_layer_draw_matches_the_dense_conditional():
    # at fixed hidden layers and sigma2, the draw through the k x k factor
    # is N(A^-1 psi y / sigma, A^-1) with A = I + psi psi^T
    arch = Architecture((1, 3, 3, 1), ("identity", "erf", "erf"))
    v = VarianceVector.constant(2.0, 3).unit_last_layer()
    rng = RngStream(39)
    top = arch.layout()[-1][0].start
    x = np.linspace(-1.0, 1.0, 5)[None, :]
    psi = last_layer_inputs(arch, v, rng.gen.standard_normal(top), x)
    y, sigma, n = np.sin(3.0 * x), 0.6, 20_000
    chol = np.linalg.cholesky(psi.T @ psi + np.eye(5))
    u = gibbs._last_layer_draw(psi, chol, np.repeat(y / sigma, n, axis=0), rng.gen)
    cov = np.linalg.inv(np.eye(4) + psi @ psi.T)
    mean = cov @ psi @ y[0] / sigma
    assert u.shape == (n, 4)
    assert np.all(np.abs(u.mean(axis=0) - mean) < 4 * np.sqrt(np.diag(cov) / n))
    d = np.diag(cov)
    cov_se = np.sqrt((np.outer(d, d) + cov**2) / n)
    assert np.all(np.abs(np.cov(u.T) - cov) < 4 * cov_se)


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

    def test_pinned_posterior_at_width_4_matches_importance_sampling(self):
        # the pinned posterior config's data (k = 8, sin(2 pi x)) and its W1
        # subgrid, at width 4
        cfg = ExperimentConfig.from_dict(json.loads(POSTERIOR_CONFIG.read_text()))
        arch, data = cfg.architecture(4), cfg.make_dataset()
        test = cfg.make_test_grid()[:, cfg.w1_subgrid_idx()]
        est_s2, est_f, se_s2, se_f, _ = importance_oracle(
            arch, cfg.variances(), cfg.a, cfg.b, data, test, 2_000_000, seed=40
        )
        out = gibbs_run(arch, cfg.variances(), cfg.a, cfg.b, data, test,
                        GibbsConfig(n_samples=4000, burn_in=300, seed=41))
        assert abs(out.sigma2.mean() - est_s2) < 3 * math.hypot(se_s2, mcmc_stderr(out.sigma2))
        for j in range(test.shape[1]):
            g_se = mcmc_stderr(out.evals[:, j])
            assert abs(out.evals[:, j].mean() - est_f[j]) < 3 * math.hypot(se_f[j], g_se)

    def test_collapsed_evidence_is_the_student_t_density_up_to_a_constant(self):
        # sigma2 ~ IG(a, b) and y | sigma2, hidden ~ N(0, sigma2 (K'_D + I)) give
        # y | hidden ~ t_2a(0, (b/a)(K'_D + I)), whose log density is
        # -log det(K'_D + I) / 2 - (a + k/2) log(b + quad / 2) plus an h-free constant
        cfg = ExperimentConfig.from_dict(json.loads(POSTERIOR_CONFIG.read_text()))
        arch, data = cfg.architecture(4), cfg.make_dataset()
        variances = cfg.variances().unit_last_layer()
        a, b, k = cfg.a, cfg.b, data.k
        top = arch.layout()[-1][0].start
        densities, gaps = [], []
        for seed in (42, 43):
            hidden = RngStream(seed).gen.standard_normal(top)
            psi, _, half_logdet, quad = gibbs._collapsed(arch, variances, 1.0, hidden, data)
            t = student_t_logpdf(data.y[0], 2.0 * a, np.zeros(k),
                                 (b / a) * (psi.T @ psi + np.eye(k)))
            densities.append(t)
            gaps.append(t + half_logdet + (a + k / 2.0) * math.log(b + quad / 2.0))
        assert abs(densities[0] - densities[1]) > 0.1
        assert gaps[0] == pytest.approx(gaps[1], rel=0, abs=1e-10)

    def test_baseline_collapsed_likelihood_is_the_gaussian_density(self):
        # y | hidden ~ N(0, K_D + s I), K_D = sigma_W^2 / n phi^T phi + sigma_b^2;
        # the chain's log N(y; 0, s (K'_D + I)) drops only -k log(2 pi s) / 2
        cfg = ExperimentConfig.from_dict(json.loads(BASELINE_CONFIG.read_text()))
        arch, data, k = cfg.architecture(4), cfg.make_dataset(), cfg.k
        v = VarianceVector((2.0, 2.0, 3.0), (2.0, 2.0, 0.5))
        s = cfg.noise_var
        top = arch.layout()[-1][0].start
        densities, gaps = [], []
        for seed in (44, 45):
            hidden = RngStream(seed).gen.standard_normal(top)
            phi = hidden_features(arch, v, hidden[None, :], data.x)[0]
            kd = (v.weight[-1] / arch.widths[-2]) * (phi.T @ phi) + v.bias[-1]
            dense = stats.multivariate_normal.logpdf(data.y[0], np.zeros(k),
                                                     kd + s * np.eye(k))
            _, _, half_logdet, quad = gibbs._collapsed(arch, v, s, hidden, data)
            densities.append(dense)
            gaps.append(dense - (-half_logdet - quad / (2.0 * s)))
        assert abs(densities[0] - densities[1]) > 0.1
        for gap in gaps:
            assert gap == pytest.approx(-0.5 * k * math.log(2.0 * math.pi * s), rel=0,
                                        abs=1e-10)

    def test_pinned_baseline_at_width_4_matches_importance_sampling(self):
        # the pinned baseline config's data (k = 8, sin(2 pi x)), noise and W1
        # subgrid, at width 4
        cfg = ExperimentConfig.from_dict(json.loads(BASELINE_CONFIG.read_text()))
        arch, data = cfg.architecture(4), cfg.make_dataset()
        test = cfg.make_test_grid()[:, cfg.w1_subgrid_idx()]
        *moments, ess = baseline_importance_oracle(
            arch, cfg.variances(), cfg.noise_var, data, test, 400_000, seed=46)
        assert ess > 1000
        out = gibbs_run_fixed_variance(arch, cfg.variances(), cfg.noise_var, data, test,
                                       GibbsConfig(n_samples=4000, burn_in=300, seed=47))
        assert np.all(out.sigma2 == cfg.noise_var)
        # E f and E f^2: the subgrid's targets are 0, so the means alone would
        # not tell the posterior from the prior
        for power, (est, se) in zip((1, 2), moments):
            for j in range(test.shape[1]):
                f = out.evals[:, j] ** power
                assert abs(f.mean() - est[j]) < 3 * math.hypot(se[j], mcmc_stderr(f))

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

    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_chain_memory_does_not_grow_with_parameters_per_draw(self, hierarchical):
        # 500 kept draws of 1153 parameters would take 4.6 MB if stored; either
        # chain keeps sigma2 and the test evaluations only
        arch = Architecture((1, 32, 32, 1), ("identity", "erf", "erf"))
        data = Dataset(np.array([[0.2]]), np.array([[0.4]]))
        cfg = GibbsConfig(n_samples=500, burn_in=5, seed=35)
        v = VarianceVector.constant(1.0, 3)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = (gibbs_run(arch, v, 3.0, 2.0, data, TEST_X, cfg) if hierarchical
                       else gibbs_run_fixed_variance(arch, v, 0.1, data, TEST_X, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.evals.shape == (500, 2)
        assert peak < 0.5 * cfg.n_samples * arch.n_params * 8

    @pytest.mark.parametrize("noise_var", [1e308, 2.9e307])
    def test_target_not_finite_at_the_state_raises(self, noise_var, monkeypatch):
        # a log determinant that is inf at every state makes the baseline's
        # likelihood -inf there: the check both chains share stops it before
        # its first slice step rather than after burn-in, and names the
        # variance it holds
        evaluated = []
        real = gibbs._collapsed

        def infinite_logdet(*args):
            evaluated.append(args)
            psi, chol, _, quad = real(*args)
            return psi, chol, math.inf, quad

        monkeypatch.setattr(gibbs, "_collapsed", infinite_logdet)
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with pytest.raises(SamplerError, match="log likelihood is -inf at the chain's") as err:
            gibbs_run_fixed_variance(ARCH, VARS, noise_var, data, TEST_X,
                                     GibbsConfig(n_samples=4, burn_in=2, seed=36))
        assert f"(sigma2 = {noise_var:.3e})" in str(err.value)
        assert len(evaluated) == 1  # the initial state's

    def test_likelihood_not_finite_at_the_state_raises(self, monkeypatch):
        # at sigma2 = 1e-320 the collapsed likelihood's quadratic term
        # overflows, so the next slice step has no level to slice at
        monkeypatch.setattr(gibbs, "sample_sigma2_conditional", lambda p, rng: 1e-320)
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with pytest.raises(SamplerError, match=r"log likelihood is -inf .*sigma2 = "):
            gibbs_run(ARCH, VARS, 3.0, 2.0, data, TEST_X,
                      GibbsConfig(n_samples=4, burn_in=2, seed=36))

    def test_initial_state_that_does_not_factor_raises(self):
        # outputs near 1e200 make K'_D infinite at every state
        arch = Architecture((1, 2, 2, 1), ("identity",) * 3)
        data = Dataset(np.array([[0.2, -0.3]]), np.array([[0.4, 0.1]]))
        with pytest.raises(LinearAlgebraError, match="initial state"):
            gibbs_run(arch, VarianceVector.constant(1e200, 3), 3.0, 2.0, data, TEST_X,
                      GibbsConfig(n_samples=4, burn_in=2, seed=36))
