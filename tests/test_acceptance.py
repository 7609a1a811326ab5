"""End-to-end correctness gates.

Each test checks one high-level guarantee against an independent oracle
(quadrature, importance sampling, brute force, or closed forms) at a pinned
tolerance, and prints a one-line summary.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from bnnlimits import (
    Architecture,
    Dataset,
    GibbsConfig,
    Sigma2ConditionalParams,
    VarianceVector,
    gibbs_run,
    rescaled_kernel,
    sample_inverse_gamma,
    sample_sigma2_conditional,
    tp_posterior_predict,
    w1_exact,
)
from bnnlimits.experiments import (
    ExperimentConfig,
    likelihood_lipschitz,
    likelihood_sup,
    run_bound_diagnostics,
    run_posterior_convergence,
    run_prior_convergence,
)
from bnnlimits.network import forward_batch, sample_prior_params
from bnnlimits.rng import RngStream
from oracles import marginalize_nig_to_t, nig_posterior, tp_posterior_train, w1_1d, w1_weighted

KS_1PCT = 1.63  # asymptotic 1% critical constant: D_crit = 1.63 / sqrt(n_eff)


def ks_threshold(n, m=None):
    n_eff = n if m is None else n * m / (n + m)
    return KS_1PCT / math.sqrt(n_eff)


def random_kprime(rng, k, extra=0):
    arch = Architecture((1, 6, 1), ("identity", "erf"))
    v = VarianceVector.constant(2.0, 2)
    x = rng.gen.uniform(-1, 1, size=(1, k + extra))
    return rescaled_kernel(arch, v, x, n_train=k)


class TestHierarchicalMarginalization:
    def test_nig_mixture_is_student_t(self):
        """1e5 hierarchical draws pass a KS test against the closed-form t."""
        t0 = time.perf_counter()
        n = 100_000
        rng = RngStream(202)
        mu, lam, alpha, beta = 0.7, np.array([[2.5]]), 3.0, 2.0
        s = sample_inverse_gamma(alpha, beta, rng.child(0), size=n)
        z = mu + np.sqrt(s * lam[0, 0]) * rng.child(1).gen.standard_normal(n)
        tp = marginalize_nig_to_t(np.array([mu]), lam, alpha, beta)
        scale = math.sqrt(tp.scale[0, 0])
        stat = stats.kstest(
            (z - tp.location[0]) / scale, stats.t(df=tp.nu).cdf
        ).statistic
        elapsed = time.perf_counter() - t0
        print(
            f"\n[marginalization] KS={stat:.5f} threshold={ks_threshold(n):.5f} "
            f"({elapsed:.1f}s)"
        )
        assert stat < ks_threshold(n)
        assert elapsed < 10.0


class TestStudentTTrainMoments:
    def test_moments_match_variance_grid_oracle(self):
        """Mean/cov match marginalizing the NIG posterior over a σ² grid."""
        t0 = time.perf_counter()
        worst = 0.0
        for case in range(5):
            rng = RngStream(300 + case)
            k = int(rng.child(0).gen.integers(1, 5))
            kp = random_kprime(rng.child(1), k)
            y = rng.child(2).gen.standard_normal(k)
            a = float(rng.child(3).gen.uniform(1.5, 4.0))
            b = float(rng.child(4).gen.uniform(1.0, 3.0))
            tp = tp_posterior_train(kp, y, a, b)
            _, gauss, ig = nig_posterior(kp, y, a, b)
            s = np.logspace(-6, 4, 20_000)
            w = np.exp(stats.invgamma.logpdf(s, ig.shape, scale=ig.rate))
            w /= np.trapezoid(w, s)
            mean_oracle = gauss.mean
            cov_oracle = np.trapezoid(w * s, s) * gauss.cov
            rel_mean = np.max(
                np.abs(tp.mean() - mean_oracle) / np.maximum(np.abs(mean_oracle), 1e-3)
            )
            rel_cov = np.max(np.abs(tp.covariance() - cov_oracle)) / np.max(
                np.abs(cov_oracle)
            )
            worst = max(worst, rel_mean, rel_cov)
        elapsed = time.perf_counter() - t0
        print(f"\n[tp-train moments] worst rel err={worst:.2e} ({elapsed:.1f}s)")
        assert worst < 1e-3
        assert elapsed < 30.0


class TestPredictiveConsistency:
    def test_predict_at_train_inputs_equals_train_posterior(self):
        worst = 0.0
        for case in range(5):
            rng = RngStream(400 + case)
            k = int(rng.child(0).gen.integers(1, 5))
            kp = random_kprime(rng.child(1), k)
            y = rng.child(2).gen.standard_normal(k)
            full = np.block([[kp.train, kp.train], [kp.train, kp.train]])
            kfull = type(kp)(full, n_train=k)
            tp_tr = tp_posterior_train(kp, y, 3.0, 2.0)
            tp_pr = tp_posterior_predict(kfull, y, 3.0, 2.0)
            worst = max(
                worst,
                float(np.max(np.abs(tp_pr.location - tp_tr.location))),
                float(np.max(np.abs(tp_pr.scale - tp_tr.scale))),
                abs(tp_pr.nu - tp_tr.nu),
            )
        print(f"\n[tp predictive consistency] worst abs err={worst:.2e}")
        assert worst < 1e-10


class TestSigma2ConditionalSampler:
    CASES = [(10.5, 5.0, 2.0), (10.5, 5.0, -50.0), (4.0, 3.0, 0.0)]

    @pytest.mark.parametrize("abc", CASES)
    def test_moments_match_adaptive_quadrature(self, abc):
        p = Sigma2ConditionalParams(*abc)
        f = lambda s: np.exp(p.log_density(np.asarray(s)))
        z, _ = integrate.quad(f, 0, np.inf, limit=500)
        m1, _ = integrate.quad(lambda s: s * f(s), 0, np.inf, limit=500)
        m2, _ = integrate.quad(lambda s: s * s * f(s), 0, np.inf, limit=500)
        mean_q, var_q = m1 / z, m2 / z - (m1 / z) ** 2
        n = 1_000_000
        d = sample_sigma2_conditional(p, RngStream(hash(abc) % 2**31), size=n)
        se_mean = d.std(ddof=1) / math.sqrt(n)
        m2c = (d - d.mean()) ** 2
        se_var = m2c.std(ddof=1) / math.sqrt(n)
        dm = abs(d.mean() - mean_q)
        dv = abs(d.var(ddof=1) - var_q)
        print(
            f"\n[sigma2 sampler {abc}] |Δmean|={dm:.2e} (3se={3 * se_mean:.2e}) "
            f"|Δvar|={dv:.2e} (3se={3 * se_var:.2e})"
        )
        assert dm < 3 * se_mean
        assert dv < 3 * se_var

    def test_c_zero_two_sample_ks_vs_direct_ig(self):
        n = 200_000
        p = Sigma2ConditionalParams(4.0, 3.0, 0.0)
        d = sample_sigma2_conditional(p, RngStream(77), size=n)
        ig = sample_inverse_gamma(4.0, 3.0, RngStream(78), size=n)
        stat = stats.ks_2samp(d, ig).statistic
        print(f"\n[sigma2 c'=0] two-sample KS={stat:.5f} "
              f"threshold={ks_threshold(n, n):.5f}")
        assert stat < ks_threshold(n, n)


@pytest.mark.slow
class TestGibbsOracle:
    def test_posterior_means_match_importance_sampling(self):
        """4-parameter net, k=3: Gibbs matches a 1e7-draw IS oracle."""
        t0 = time.perf_counter()
        arch = Architecture((1, 1, 1), ("identity", "erf"))
        variances = VarianceVector.constant(2.0, 2)
        a, b = 3.0, 2.0
        x = np.array([[-0.5, 0.1, 0.7]])
        y = np.array([[0.3, -0.2, 0.5]])
        data = Dataset(x, y)
        test = np.array([[-0.8, 0.4]])

        n = 10_000_000
        rng = RngStream(1234)
        r_s, r_t = rng.split(2)
        s2 = 1.0 / r_s.gen.gamma(a, 1.0 / b, size=n)
        theta = sample_prior_params(
            arch, variances.unit_last_layer(), r_t, n_draws=n
        )
        allx = np.concatenate([data.x, test], axis=1)
        f = forward_batch(arch, theta, allx)[:, 0, :]
        fx, ft = f[:, : data.k], f[:, data.k :]
        resid2 = ((data.y[0] - np.sqrt(s2)[:, None] * fx) ** 2).sum(axis=1)
        logw = -0.5 * data.k * np.log(2 * np.pi * s2) - resid2 / (2 * s2)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        f_raw = np.sqrt(s2)[:, None] * ft
        is_s2 = float(w @ s2)
        is_f = w @ f_raw
        ess = 1.0 / float(np.sum(w**2))
        se_s2 = math.sqrt(float(w @ (s2 - is_s2) ** 2) / ess)
        se_f = np.sqrt((w @ (f_raw - is_f) ** 2) / ess)

        cfg = GibbsConfig(n_samples=4000, burn_in=500, thinning=2, seed=5)
        out = gibbs_run(arch, variances, a, b, data, test, cfg)

        def batch_se(v):
            nb = max(int(math.sqrt(len(v))), 2)
            bs = len(v) // nb
            means = np.array([v[i * bs : (i + 1) * bs].mean() for i in range(nb)])
            return float(means.std(ddof=1) / math.sqrt(nb))

        d_s2 = abs(out.sigma2.mean() - is_s2)
        tol_s2 = 3.0 * math.hypot(se_s2, batch_se(out.sigma2))
        ok = d_s2 < tol_s2
        msgs = [f"sigma2 |Δ|={d_s2:.4f} tol={tol_s2:.4f}"]
        for j in range(2):
            dj = abs(out.evals[:, j].mean() - is_f[j])
            tj = 3.0 * math.hypot(se_f[j], batch_se(out.evals[:, j]))
            msgs.append(f"f(x{j}) |Δ|={dj:.4f} tol={tj:.4f}")
            ok = ok and dj < tj
        elapsed = time.perf_counter() - t0
        print(f"\n[gibbs oracle] {'; '.join(msgs)} ess={ess:.0f} ({elapsed:.0f}s)")
        assert ok
        assert elapsed < 300.0


class TestPriorConvergenceTrend:
    def test_w1_decreases_with_width(self):
        """Exact W1 to the limiting GP: separated bands and slope in window."""
        t0 = time.perf_counter()
        cfg = ExperimentConfig(
            n_hidden_layers=3,
            activation="relu",
            weight_variance=2.0,
            bias_variance=0.01,
            widths=(1, 2, 4, 8, 16, 32, 64, 128),
            draws=200,
            w1_grid=2,
            seed=0,
        )
        rep = run_prior_convergence(cfg)
        elapsed = time.perf_counter() - t0
        print(
            f"\n[prior convergence] W1(1)={rep.w1[0]:.3f} W1(128)={rep.w1[-1]:.3f} "
            f"band gap={rep.w1_lo[0] - rep.w1_hi[-1]:.3f} slope={rep.slope:.3f} "
            f"({elapsed:.0f}s)"
        )
        assert rep.w1[0] > rep.w1[-1]
        assert rep.w1_lo[0] > rep.w1_hi[-1]  # non-overlapping resampling bands
        assert -0.8 <= rep.slope <= -0.25
        assert elapsed < 600.0


@pytest.mark.slow
class TestPosteriorConvergenceTrend:
    def test_width_128_at_least_3x_closer_than_width_1(self):
        """Hierarchical posterior vs Student-t limit across widths 1..128."""
        t0 = time.perf_counter()
        cfg = ExperimentConfig(seed=0)
        rep = run_posterior_convergence(cfg)
        ratios = np.array(rep.w1_reps[0]) / np.array(rep.w1_reps[-1])
        elapsed = time.perf_counter() - t0
        print(
            f"\n[posterior convergence] W1(1)={rep.w1[0]:.3f} "
            f"W1(128)={rep.w1[-1]:.3f} min ratio={ratios.min():.2f} "
            f"({elapsed:.0f}s)"
        )
        assert rep.widths == [1, 2, 4, 8, 16, 32, 64, 128]
        assert len(ratios) == 10
        assert np.all(ratios >= 3.0)
        assert elapsed < 3600.0


class TestLikelihoodConstants:
    def test_numeric_maximization_matches_closed_forms(self):
        diag = run_bound_diagnostics(
            ExperimentConfig(k=2, test_grid=4, w1_grid=2),
            settings=((1.0, 1), (4.0, 2), (0.5, 3)),
        )
        worst_sup = worst_lip = worst_res = 0.0
        for (s2, n), sn, ln, r2 in zip(
            diag.settings, diag.sup_numeric, diag.lip_numeric, diag.argmax_resid2
        ):
            worst_sup = max(worst_sup, abs(sn - likelihood_sup(s2, n)) / likelihood_sup(s2, n))
            worst_lip = max(
                worst_lip, abs(ln - likelihood_lipschitz(s2, n)) / likelihood_lipschitz(s2, n)
            )
            worst_res = max(worst_res, abs(r2 - s2))
        print(
            f"\n[likelihood constants] sup rel err={worst_sup:.2e} "
            f"lip rel err={worst_lip:.2e} residual err={worst_res:.2e}"
        )
        assert worst_sup < 1e-5
        assert worst_lip < 1e-5
        assert worst_res < 1e-4


class TestW1Exactness:
    def test_assignment_matches_brute_force_n6(self):
        worst = 0.0
        for case in range(20):
            rng = RngStream(500 + case)
            x = rng.child(0).gen.standard_normal((6, 3))
            y = rng.child(1).gen.standard_normal((6, 3))
            best = min(
                sum(np.linalg.norm(x[i] - y[p[i]]) for i in range(6))
                for p in itertools.permutations(range(6))
            ) / 6.0
            worst = max(worst, abs(w1_exact(x, y) - best))
        print(f"\n[w1 brute force] worst abs err={worst:.2e}")
        assert worst < 1e-12

    def test_assignment_matches_sorted_formula_1d(self):
        worst = 0.0
        for case in range(20):
            rng = RngStream(600 + case)
            x = rng.child(0).gen.standard_normal(40)
            y = rng.child(1).gen.standard_normal(40)
            worst = max(
                worst, abs(w1_exact(x[:, None], y[:, None]) - w1_1d(x, y))
            )
        print(f"[w1 1-d sorted] worst abs err={worst:.2e}")
        assert worst < 1e-12

    def test_positive_homogeneity(self):
        worst = 0.0
        for case in range(20):
            rng = RngStream(700 + case)
            x = rng.child(0).gen.standard_normal((30, 4))
            y = rng.child(1).gen.standard_normal((30, 4))
            a = float(rng.child(2).gen.uniform(0.1, 10.0))
            worst = max(worst, abs(w1_exact(a * x, a * y) - a * w1_exact(x, y)))
        print(f"[w1 scaling] worst abs err={worst:.2e}")
        assert worst < 1e-10


class TestW1StructuralProperties:
    def test_convexity_on_mixtures(self):
        """W1(tμ1+(1-t)μ2, tν1+(1-t)ν2) <= t W1(μ1,ν1) + (1-t) W1(μ2,ν2)."""
        violations = 0
        for case in range(50):
            rng = RngStream(800 + case)
            g = rng.gen
            n = int(g.integers(3, 8))
            d = int(g.integers(1, 4))
            x1, y1 = g.standard_normal((n, d)), g.standard_normal((n, d))
            x2, y2 = g.standard_normal((n, d)), g.standard_normal((n, d))
            t_num = int(g.integers(1, 10))  # t = t_num / 10, rational mixture
            lhs_x = np.vstack([np.repeat(x1, t_num, 0), np.repeat(x2, 10 - t_num, 0)])
            lhs_y = np.vstack([np.repeat(y1, t_num, 0), np.repeat(y2, 10 - t_num, 0)])
            lhs = w1_exact(lhs_x, lhs_y)
            rhs = (t_num / 10) * w1_exact(x1, y1) + (1 - t_num / 10) * w1_exact(x2, y2)
            if lhs > rhs + 1e-10:
                violations += 1
        print(f"\n[w1 convexity] violations={violations}/50")
        assert violations == 0

    def test_total_variation_bound_for_bounded_support(self):
        """W1(μ, ν) <= sum_u ||u|| |μ(u) - ν(u)| on shared finite support."""
        violations = 0
        for case in range(50):
            rng = RngStream(900 + case)
            g = rng.gen
            m = int(g.integers(3, 9))
            d = int(g.integers(1, 4))
            support = g.standard_normal((m, d))
            cu = g.integers(1, 8, size=m)
            cv = g.integers(1, 8, size=m)
            mu = cu / cu.sum()
            nu = cv / cv.sum()
            lhs = w1_weighted(support, mu, support, nu)
            rhs = float(np.sum(np.linalg.norm(support, axis=1) * np.abs(mu - nu)))
            if lhs > rhs + 1e-10:
                violations += 1
        print(f"[w1 tv-bound] violations={violations}/50")
        assert violations == 0
