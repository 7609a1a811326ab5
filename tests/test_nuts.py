"""Bit-for-bit identities the NUTS hot loop relies on, the leaf's acceptance
and the cost of a transition."""

import math
import struct

import numpy as np
import pytest

from bnnlimits import Architecture, Dataset, VarianceVector, log_posterior_and_grad, nuts
from bnnlimits.nuts import (
    _build_tree,
    _hamiltonian,
    _log_uniform,
    _logaddexp,
    nuts_transition,
)
from bnnlimits.rng import RngStream


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


class TestLogaddexp:
    @pytest.mark.parametrize("x, y", [
        (0.0, 0.0), (-3.5, -3.5), (700.0, 700.0), (-1e-300, -1e-300),
        (math.inf, math.inf), (-math.inf, -math.inf), (math.inf, -math.inf),
        (-math.inf, math.inf), (-math.inf, 2.0), (2.0, -math.inf), (math.inf, 5.0),
        (0.0, -800.0), (-800.0, 0.0), (1e308, -1e308), (-745.0, 0.0), (0.0, -40.0),
        (1.0, 1.0 + 1e-15), (-0.0, 0.0),
    ])
    def test_edge_cases_match_numpy(self, x, y):
        with np.errstate(over="ignore"):  # x - y overflows for (1e308, -1e308)
            expected = np.logaddexp(x, y)
        assert _bits(_logaddexp(x, y)) == _bits(expected)

    def test_nan_propagates(self):
        assert math.isnan(_logaddexp(math.nan, 1.0))
        assert math.isnan(_logaddexp(1.0, math.nan))

    def test_random_pairs_match_numpy(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal(5000) * gen.choice([1e-3, 1.0, 30.0, 1e3], 5000)
        y = x + gen.standard_normal(5000) * gen.choice([1e-12, 1e-3, 1.0, 50.0], 5000)
        expected = np.logaddexp(x, y)
        got = np.array([_logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
        assert got.tobytes() == expected.tobytes()


class TestUniforms:
    def test_random_consumes_the_draw_of_uniform(self):
        # gen.uniform(lo, hi) is lo + (hi - lo) * next_double, one draw per call
        g1, g2 = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2000):
            assert g1.random() == g2.uniform()
            assert _log_uniform(g1) == math.log(g2.uniform(1e-300, 1.0))
        assert g1.random() == g2.random()

    def test_zero_draw_maps_to_the_lower_bound(self):
        class Zero:
            def random(self):
                return 0.0

        assert _log_uniform(Zero()) == math.log(1e-300)
        # 1e-300 + u rounds to u for the smallest nonzero draw, 2**-53
        assert 1e-300 + 2.0**-53 == 2.0**-53


def _network_target():
    arch = Architecture((1, 8, 1), ("identity", "erf"))
    variances = VarianceVector.constant(1.0, 2)
    rng = RngStream(5)
    data = Dataset(rng.gen.standard_normal((1, 6)), rng.gen.standard_normal((1, 6)))
    theta = rng.gen.standard_normal(arch.n_params)
    r = rng.gen.standard_normal(arch.n_params)
    return lambda th: log_posterior_and_grad(arch, variances, th, 0.8, data), theta, r


class TestLeaf:
    @pytest.mark.parametrize("direction", [1, -1])
    def test_signed_step_equals_flipped_momentum(self, direction):
        value_and_grad, theta, r = _network_target()
        logp, grad = value_and_grad(theta)
        eps = 0.0731
        h0 = _hamiltonian(logp, r)
        inputs = (theta.copy(), r.copy(), grad.copy())
        leaf = _build_tree(value_and_grad, (theta, r, grad), 0, direction, eps, h0,
                           np.random.default_rng(0))

        # the textbook form: flip the momentum, step forwards, flip it back
        r1 = r * direction
        r1 = r1 + 0.5 * eps * grad
        theta1 = theta + eps * r1
        logp1, grad1 = value_and_grad(theta1)
        r1 = r1 + 0.5 * eps * grad1
        r1 *= direction

        got_theta, got_r, got_grad = leaf.plus
        assert got_theta.tobytes() == theta1.tobytes()
        assert got_r.tobytes() == r1.tobytes()
        assert got_grad.tobytes() == grad1.tobytes()
        assert leaf.prop[1] == logp1
        assert leaf.log_weight == _hamiltonian(logp1, r1) - h0
        # the in-place kicks touched only fresh arrays
        assert all(np.array_equal(a, b) for a, b in zip((theta, r, grad), inputs))

    def test_nan_energy_counts_as_zero_acceptance(self):
        def value_and_grad(th):
            if np.max(np.abs(th)) > 3:
                return math.nan, np.full_like(th, math.nan)
            return -0.5 * float(th @ th), -th

        theta = np.zeros(2)
        r = np.array([1.0, 0.0])
        logp, grad = value_and_grad(theta)
        leaf = _build_tree(value_and_grad, (theta, r, grad), 0, 1, 10.0,
                           _hamiltonian(logp, r), np.random.default_rng(0))
        assert leaf.divergent
        assert leaf.log_weight == -math.inf
        assert leaf.sum_accept == 0.0

    def test_finite_energy_acceptance_unchanged(self):
        value_and_grad, theta, r = _network_target()
        logp, grad = value_and_grad(theta)
        h0 = _hamiltonian(logp, r)
        for eps in (1e-3, 0.05, 0.3):
            leaf = _build_tree(value_and_grad, (theta, r, grad), 0, 1, eps, h0,
                               np.random.default_rng(0))
            err = _hamiltonian(leaf.prop[1], leaf.plus[1]) - h0
            assert leaf.sum_accept == min(1.0, math.exp(min(0.0, err)))


class TestTransition:
    def test_one_target_evaluation_per_depth_one_transition(self, monkeypatch):
        monkeypatch.setattr(nuts, "MAX_TREE_DEPTH", 1)
        calls = []

        def value_and_grad(th):
            calls.append(1)
            return -0.5 * float(th @ th), -th

        gen = np.random.default_rng(21)
        theta = np.zeros(2)
        logp, grad = -0.0, -theta
        for _ in range(50):
            theta, logp, grad, *_ = nuts_transition(value_and_grad, theta, logp, grad,
                                                    0.1, gen)
        # one leapfrog step per transition; the caller supplies the start's value
        assert len(calls) == 50
