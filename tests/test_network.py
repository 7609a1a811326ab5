"""Core model tests: priors, forward evaluation, likelihood, gradients."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bnnlimits import (
    Architecture,
    Dataset,
    VarianceVector,
    forward,
    forward_batch,
    log_posterior_and_grad,
    sample_prior_params,
)
from bnnlimits.experiments import ExperimentConfig
from bnnlimits.network import ACTIVATIONS, last_layer_inputs, prior_scales, sample_prior_outputs
from bnnlimits.rng import RngStream
from oracles import log_likelihood, log_prior, pack, unpack, with_last_layer

ARCH_121 = Architecture((1, 2, 1), ("identity", "erf"))


class TestArchitecture:
    def test_layout_partitions_param_vector(self):
        arch = Architecture((2, 3, 4, 1), ("identity", "erf", "tanh"))
        assert arch.n_params == 3 * 3 + 4 * 4 + 1 * 5
        covered = np.zeros(arch.n_params, dtype=int)
        for ws, bs in arch.layout():
            covered[ws] += 1
            covered[bs] += 1
        assert np.all(covered == 1)

    def test_pack_unpack_roundtrip(self):
        arch = Architecture((2, 3, 1), ("identity", "relu"))
        theta = RngStream(0).gen.standard_normal(arch.n_params)
        assert np.array_equal(pack(arch, unpack(arch, theta)), theta)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Architecture((1, 1), ("identity",))  # L = 1 < 2
        with pytest.raises(ValueError):
            Architecture((1, 0, 1), ("identity", "erf"))
        with pytest.raises(ValueError):
            Architecture((1, 1, 1), ("erf", "erf"))  # first must be identity
        with pytest.raises(ValueError):
            Architecture((1, 1, 1), ("identity",))

    def test_variance_vector_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VarianceVector((1.0, 0.0), (1.0, 1.0))


class TestPrior:
    def test_tiny_variance_gives_near_zero_output(self):
        v = VarianceVector.constant(1e-12, 2)
        theta = sample_prior_params(ARCH_121, v, RngStream(0))
        out = forward(ARCH_121, theta, np.array([[1.0, -1.0]]))
        assert np.max(np.abs(out)) < 1e-4

    def test_weight_variance_monte_carlo(self):
        # entries of W1 on a (1,1,1) net have variance 1/n_0 = 1
        arch = Architecture((1, 1, 1), ("identity", "erf"))
        v = VarianceVector.constant(1.0, 2)
        draws = sample_prior_params(arch, v, RngStream(1), n_draws=100_000)
        w1 = draws[:, 0]
        stderr = math.sqrt(2.0 / len(w1))  # Var of sample variance of N(0,1)
        assert abs(w1.var() - 1.0) < 3 * stderr

    def test_last_layer_sigma2_is_exact_rescaling(self):
        v = VarianceVector.constant(1.0, 2)
        a = sample_prior_params(ARCH_121, with_last_layer(v, 4.0), RngStream(7))
        b = sample_prior_params(ARCH_121, with_last_layer(v, 1.0), RngStream(7))
        ws, bs = ARCH_121.layout()[-1]
        assert np.allclose(a[ws], 2.0 * b[ws], rtol=0, atol=1e-15)
        assert np.allclose(a[bs], 2.0 * b[bs], rtol=0, atol=1e-15)
        # inner layers identical
        for sl in ARCH_121.layout()[:-1]:
            assert np.array_equal(a[sl[0]], b[sl[0]])


class TestForward:
    def test_zero_params_zero_output(self):
        theta = np.zeros(ARCH_121.n_params)
        out = forward(ARCH_121, theta, np.array([[0.3, -2.0, 5.0]]))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_identity_network(self):
        arch = Architecture((1, 1, 1), ("identity", "identity"))
        theta = pack(arch, [(np.ones((1, 1)), np.zeros(1))] * 2)
        x = np.array([[-1.5, 0.0, 2.25]])
        assert np.array_equal(forward(arch, theta, x), x)

    def test_batch_equals_per_column(self):
        arch = Architecture((2, 3, 2), ("identity", "tanh"))
        rng = RngStream(2)
        theta = rng.gen.standard_normal(arch.n_params)
        x = rng.gen.standard_normal((2, 3))
        batch = forward(arch, theta, x)
        for j in range(3):
            col = forward(arch, theta, x[:, j : j + 1])
            assert np.allclose(batch[:, j : j + 1], col, atol=1e-14)

    @pytest.mark.parametrize("act", sorted(ACTIVATIONS))
    @pytest.mark.parametrize("width", [1, 8, 128])
    @pytest.mark.parametrize("m", [8, 64])
    def test_forward_batch_matches_loop(self, act, width, m):
        # bit for bit: the chains read forward, the weight-space prior in tests forward_batch
        arch = Architecture((1, width, width, 1), ("identity", act, act))
        v = VarianceVector.constant(5.0, arch.n_layers)
        thetas = sample_prior_params(arch, v, RngStream(3), n_draws=5)
        x = np.linspace(-1, 1, m)[None, :]
        out = forward_batch(arch, thetas, x)
        for i in range(5):
            assert np.array_equal(out[i], forward(arch, thetas[i], x))

    @pytest.mark.parametrize("act", ["erf", "relu", "tanh"])
    @pytest.mark.parametrize("width", [1, 8, 128])
    def test_forward_batch_at_grid_columns_equals_those_columns(self, act, width):
        # a draw at some grid points equals those columns of its full-grid outputs
        arch = Architecture((1, width, width, 1), ("identity", act, act))
        v = VarianceVector.constant(5.0, arch.n_layers)
        thetas = sample_prior_params(arch, v, RngStream(4), n_draws=5)
        grid = np.linspace(-1, 1, 64)[None, :]
        idx = np.array([0, 21, 42, 63])
        full = forward_batch(arch, thetas, grid)[..., idx]
        sub = forward_batch(arch, thetas, grid[:, idx])
        assert sub.shape == full.shape
        assert np.max(np.abs(sub - full)) <= 1e-12 * np.max(np.abs(full))

    def test_last_layer_positive_homogeneity(self):
        arch = Architecture((1, 3, 1), ("identity", "erf"))
        rng = RngStream(4)
        theta = rng.gen.standard_normal(arch.n_params)
        x = rng.gen.standard_normal((1, 4))
        scaled = theta.copy()
        ws, bs = arch.layout()[-1]
        scaled[ws] *= 3.0
        scaled[bs] *= 3.0
        assert np.allclose(
            forward(arch, scaled, x), 3.0 * forward(arch, theta, x), atol=1e-12
        )

    def test_scaling_identity_last_layer_variance(self):
        # same standard-normal draws: sigma2 last layer == sigma * unit last layer
        v = VarianceVector.constant(2.0, 2)
        x = np.linspace(-1, 1, 5)[None, :]
        for sigma2 in (0.5, 4.0):
            a = sample_prior_params(ARCH_121, with_last_layer(v, sigma2), RngStream(9))
            b = sample_prior_params(ARCH_121, with_last_layer(v, 1.0), RngStream(9))
            assert np.allclose(
                forward(ARCH_121, a, x),
                math.sqrt(sigma2) * forward(ARCH_121, b, x),
                atol=1e-12,
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            forward(ARCH_121, np.zeros(ARCH_121.n_params), np.zeros((2, 3)))


class TestPriorOutputs:
    """sample_prior_outputs draws each layer as z r, with r^T r = psi^T psi."""

    @pytest.mark.parametrize("act, width, rank", [("erf", 8, 5), ("relu", 8, 1), ("erf", 1, 2)],
                             ids=["random", "rank-1", "m-above-n_in+1"])
    def test_r_factor_reproduces_the_gram_matrix(self, act, width, rank):
        # psi of a layer at 5 points, as sample_prior_outputs builds it: at
        # rank 1 every relu unit is dead and only the bias row is left, and
        # width 1 gives psi 2 rows for the 5 points
        arch = Architecture((1, width, 1), ("identity", act))
        hidden = RngStream(5).gen.standard_normal(arch.layout()[-1][0].start)
        if rank == 1:
            hidden[:width] = 0.0
            hidden[width:] = -1.0
        m = 5
        psi = last_layer_inputs(arch, VarianceVector.constant(2.0, 2), hidden,
                                np.linspace(-1, 1, m)[None, :])
        assert np.linalg.matrix_rank(psi) == rank
        r = np.linalg.qr(psi, mode="r")
        assert r.shape == (min(width + 1, m), m)
        gram = psi.T @ psi
        assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("width", [1, 4, 64])
    def test_outputs_match_weight_space_draws_in_distribution(self, width):
        # the pinned prior config at its 2 W1 subgrid points
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "prior_convergence.json")
        with open(path) as f:
            cfg = ExperimentConfig.from_dict(json.load(f))
        arch, v = cfg.architecture(width), cfg.variances()
        x = cfg.make_test_grid()[:, cfg.w1_subgrid_idx()]
        n, block = 20_000, 500
        rng = RngStream(11)
        weights = np.concatenate([
            forward_batch(arch, sample_prior_params(arch, v, rng, n_draws=block), x)[:, 0, :]
            for _ in range(n // block)])
        pre = sample_prior_outputs(arch, v, RngStream(12), n, x)[:, 0, :]
        assert pre.shape == weights.shape == (n, 2)
        # rounded: where every unit of the last hidden layer is dead (often at
        # width 1) the two points' outputs are equal, which weight space gives
        # to the bit and the R factor up to rounding
        for a, b in ((pre[:, 0], weights[:, 0]), (pre[:, 1], weights[:, 1]),
                     (pre[:, 1] - pre[:, 0], weights[:, 1] - weights[:, 0])):
            assert stats.ks_2samp(np.round(a, 12), np.round(b, 12)).pvalue > 1e-3

    def test_finite_at_the_largest_finite_variances(self):
        # psi^T psi would overflow here; its R factor does not
        arch = Architecture((1, 8, 1), ("identity", "identity"))
        v = VarianceVector.constant(3e153, 2)
        with np.errstate(over="raise"):
            out = sample_prior_outputs(arch, v, RngStream(0), 50, np.linspace(-1, 1, 4)[None, :])
        assert out.shape == (50, 1, 4)
        assert np.all(np.isfinite(out))


class TestLogLikelihood:
    def test_zero_residual_unit_variance(self):
        y = np.array([[1.5]])
        assert log_likelihood(y, y, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_unit_variance_residual_two(self):
        z = np.array([[0.0]])
        y = np.array([[math.sqrt(2.0)]])
        assert log_likelihood(z, y, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 1.0, abs=1e-12
        )

    def test_matches_high_precision_recomputation(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 50
        rng = RngStream(5)
        z = rng.gen.standard_normal((2, 4))
        y = rng.gen.standard_normal((2, 4))
        s = 0.37
        resid2 = Decimal(0)
        for a, b in zip(z.ravel(), y.ravel()):
            resid2 += (Decimal(repr(float(a))) - Decimal(repr(float(b)))) ** 2
        expected = Decimal(-8) / 2 * Decimal(2 * math.pi * s).ln() - resid2 / (
            2 * Decimal(repr(s))
        )
        assert log_likelihood(z, y, s) == pytest.approx(float(expected), rel=1e-12)

    def test_bounded_by_sup(self):
        rng = RngStream(6)
        y = rng.gen.standard_normal((1, 3))
        for _ in range(20):
            z = y + rng.gen.standard_normal((1, 3))
            s = float(rng.gen.uniform(0.1, 5.0))
            assert log_likelihood(z, y, s) <= -1.5 * math.log(2 * math.pi * s) + 1e-12
        # equality iff z = y
        assert log_likelihood(y, y, 2.0) == pytest.approx(
            -1.5 * math.log(2 * math.pi * 2.0), abs=1e-12
        )

    def test_nonpositive_variance_raises(self):
        with pytest.raises(ValueError):
            log_likelihood(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)


def _fd_gradient(fun, theta, h=1e-5):
    g = np.empty_like(theta)
    for i in range(len(theta)):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (fun(theta + e) - fun(theta - e)) / (2 * h)
    return g


def _theta_space_target(arch, variances, theta, sigma2, data):
    """Log posterior of raw theta and its gradient, by plain backprop in theta."""
    sc = prior_scales(arch, variances)
    val = log_prior(arch, variances, theta)
    grad = -theta / sc**2
    cache, h = [], data.x
    for (W, b), tag in zip(unpack(arch, theta), arch.activations):
        a = ACTIVATIONS[tag][0](h)
        cache.append((h, a))
        h = W @ a + b[:, None]
    val += log_likelihood(h, data.y, sigma2)
    g_out = (data.y - h) / sigma2
    for l in range(arch.n_layers - 1, -1, -1):
        h, a = cache[l]
        ws, bs = arch.layout()[l]
        W = theta[ws].reshape(arch.widths[l + 1], arch.widths[l])
        grad[ws] += np.ravel(g_out @ a.T)
        grad[bs] += g_out.sum(axis=1)
        if l > 0:
            g_out = (W.T @ g_out) * ACTIVATIONS[arch.activations[l]][1](h, 1.0)
    return val, grad


class TestGradient:
    def test_zero_theta_zero_data_gradient_vanishes(self):
        arch = Architecture((1, 2, 1), ("identity", "erf"))
        data = Dataset(np.array([[0.5, -0.5]]), np.zeros((1, 2)))
        _, g = log_posterior_and_grad(
            arch, with_last_layer(VarianceVector.constant(1.0, 2), 1.0),
            np.zeros(arch.n_params), 1.0, data,
        )
        assert np.allclose(g, 0.0, atol=1e-14)

    @pytest.mark.parametrize("act", ["erf", "tanh", "relu", "identity"])
    def test_matches_finite_differences(self, act):
        arch = Architecture((2, 3, 2), ("identity", act))
        v = VarianceVector((1.5, 0.8), (0.5, 2.0))
        rng = RngStream(10)
        theta = rng.gen.standard_normal(arch.n_params) * 0.7
        data = Dataset(rng.gen.standard_normal((2, 4)), rng.gen.standard_normal((2, 4)))
        sigma2 = 0.6

        def fun(t):
            val, _ = log_posterior_and_grad(
                arch, with_last_layer(v, sigma2), t, sigma2, data
            )
            return val

        _, g = log_posterior_and_grad(arch, with_last_layer(v, sigma2), theta, sigma2, data)
        fd = _fd_gradient(fun, theta)
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-6)

    def test_fixed_variance_gradient_finite_differences(self):
        # the baseline's target: last-layer prior variances apart from sigma2
        arch = Architecture((1, 3, 1), ("identity", "erf"))
        v = VarianceVector.constant(1.0, 2)
        rng = RngStream(11)
        theta = rng.gen.standard_normal(arch.n_params)
        data = Dataset(rng.gen.standard_normal((1, 3)), rng.gen.standard_normal((1, 3)))
        sigma2 = 2.3

        def fun(t):
            val, _ = log_posterior_and_grad(arch, v, t, sigma2, data)
            return val

        _, g = log_posterior_and_grad(arch, v, theta, sigma2, data)
        assert np.allclose(g, _fd_gradient(fun, theta), rtol=1e-4, atol=1e-6)

    def test_value_matches_prior_plus_likelihood_as_variances_change(self):
        # the prior scale is cached per (architecture, variances); the target
        # must follow every change of variances, with and without data. In z
        # it is the theta-space log posterior at theta = z * s plus sum(log s),
        # and its gradient is the theta-gradient times s
        arch = Architecture((2, 3, 1), ("identity", "erf"))
        rng = RngStream(13)
        z = rng.gen.standard_normal(arch.n_params)
        data = Dataset(rng.gen.standard_normal((2, 5)), rng.gen.standard_normal((1, 5)))
        empty = Dataset(np.zeros((2, 0)), np.zeros((1, 0)))
        v1 = VarianceVector((1.5, 0.8), (0.5, 2.0))
        v2 = with_last_layer(v1, 3.0)
        for v in (v1, v2, v1):
            sc = prior_scales(arch, v)
            theta = z * sc
            lp = log_prior(arch, v, theta) + float(np.sum(np.log(sc)))
            ll = log_likelihood(forward(arch, theta, data.x), data.y, 0.7)
            val, g = log_posterior_and_grad(arch, v, z, 0.7, data)
            assert val == pytest.approx(lp + ll, rel=1e-12)
            theta_val, theta_grad = _theta_space_target(arch, v, theta, 0.7, data)
            assert theta_val == pytest.approx(lp + ll - np.sum(np.log(sc)), rel=1e-12)
            assert np.allclose(g, theta_grad * sc, rtol=1e-12, atol=1e-12)
            val0, g0 = log_posterior_and_grad(arch, v, z, 0.7, empty)
            assert val0 == pytest.approx(lp, rel=1e-12)
            assert np.array_equal(g0, -z)

    @pytest.mark.parametrize("act", ["erf", "relu", "tanh"])
    def test_bitwise_equal_to_the_unpacked_formulation(self, act):
        # The target walks the layer plan with per-layer prior scalars; every
        # rewrite must round exactly like the plain z-space formulation below.
        arch = Architecture((1, 8, 8, 1), ("identity", act, act))
        v = VarianceVector((2.0, 1.5, 1.0), (0.3, 0.2, 1.0))
        rng = RngStream(14)
        z = rng.gen.standard_normal(arch.n_params)
        data = Dataset(rng.gen.standard_normal((1, 6)), rng.gen.standard_normal((1, 6)))
        sigma2 = 0.7
        val, grad = log_posterior_and_grad(arch, v, z, sigma2, data)

        ref_val = -0.5 * float(z @ z) - 0.5 * len(z) * math.log(2 * math.pi)
        ref_grad = -z
        cache, h = [], data.x
        for l, (Z, zb) in enumerate(unpack(arch, z)):
            s_w = math.sqrt(v.weight[l] / arch.widths[l])
            s_b = math.sqrt(v.bias[l])
            a = s_w * ACTIVATIONS[arch.activations[l]][0](h)
            cache.append((h, a, Z, s_w, s_b))
            h = Z @ a + s_b * zb[:, None]
        resid = data.y - h
        ref_val += (-0.5 * data.y.size * math.log(2.0 * math.pi * sigma2)
                    - float(np.vdot(resid, resid)) / (2.0 * sigma2))
        g_out = resid / sigma2
        for l in range(arch.n_layers - 1, -1, -1):
            h, a, Z, s_w, s_b = cache[l]
            ws, bs = arch.layout()[l]
            ref_grad[ws] += np.ravel(g_out @ a.T)
            ref_grad[bs] += s_b * g_out.sum(axis=1)
            if l > 0:
                g_out = (Z.T @ g_out) * ACTIVATIONS[arch.activations[l]][1](h, s_w)
        assert val == ref_val
        assert grad.tobytes() == ref_grad.tobytes()

    def test_doubling_sigma2_halves_residual_term(self):
        arch = Architecture((1, 2, 1), ("identity", "tanh"))
        v = VarianceVector.constant(1.0, 2)
        rng = RngStream(12)
        theta = rng.gen.standard_normal(arch.n_params)
        data = Dataset(rng.gen.standard_normal((1, 4)), rng.gen.standard_normal((1, 4)))
        out = forward(arch, theta, data.x)
        for s in (0.5, 1.0, 3.0):
            ll = log_likelihood(out, data.y, s)
            ll2 = log_likelihood(out, data.y, 2 * s)
            resid2 = float(np.sum((data.y - out) ** 2))
            assert (ll + 0.5 * data.y.size * math.log(2 * math.pi * s)) == pytest.approx(
                -resid2 / (2 * s)
            )
            assert (
                ll2 + 0.5 * data.y.size * math.log(2 * math.pi * 2 * s)
            ) == pytest.approx(-resid2 / (4 * s))


class TestNormInequalities:
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_lemma_norm_bounds(self, xs, ys, eps):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        d2 = float(np.sum((x - y) ** 2))
        nx2 = float(np.sum(x**2))
        ny2 = float(np.sum(y**2))
        assert d2 <= 2 * (nx2 + ny2) + 1e-9
        assert d2 >= (eps / (eps + 1.0)) * nx2 - eps * ny2 - 1e-9
