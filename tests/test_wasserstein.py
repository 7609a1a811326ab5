"""Wasserstein estimator tests: exactness, metric axioms, lemma properties."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment

from bnnlimits import sliced_w1, w1_exact, wasserstein
from bnnlimits.rng import RngStream
from bnnlimits.wasserstein import ASSIGNMENT_CAP
from oracles import replicate_weighted, w1_1d, w1_weighted


def brute_force_w1(x, y):
    n = x.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.linalg.norm(x[i] - y[perm[i]]) for i in range(n))
        best = min(best, cost)
    return best / n


class TestW11d:
    def test_identical_sets_zero(self):
        x = RngStream(0).gen.standard_normal(10)
        assert w1_1d(x, x.copy()) == 0.0

    def test_point_masses(self):
        assert w1_1d(np.array([0.0]), np.array([2.0])) == pytest.approx(2.0)

    def test_equals_assignment(self):
        rng = RngStream(1)
        x = rng.gen.standard_normal(5)
        y = rng.gen.standard_normal(5)
        assert w1_1d(x, y) == pytest.approx(w1_exact(x, y), abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            w1_1d(np.zeros(3), np.zeros(4))


class TestW1Exact:
    def test_identical_sets_zero(self):
        x = RngStream(3).gen.standard_normal((8, 3))
        assert w1_exact(x, x.copy()) == pytest.approx(0.0, abs=1e-14)

    def test_matches_permutation_brute_force(self):
        for seed in range(20):
            rng = RngStream(100 + seed)
            x = rng.gen.standard_normal((6, 2))
            y = rng.gen.standard_normal((6, 2))
            assert w1_exact(x, y) == pytest.approx(brute_force_w1(x, y), abs=1e-12)

    def test_translation_cost(self):
        rng = RngStream(4)
        x = rng.gen.standard_normal((15, 3))
        c = np.array([1.0, -2.0, 0.5])
        assert w1_exact(x, x + c) == pytest.approx(np.linalg.norm(c), abs=1e-10)

    def test_scaling_property(self):
        rng = RngStream(5)
        x = rng.gen.standard_normal((12, 2))
        y = rng.gen.standard_normal((12, 2))
        base = w1_exact(x, y)
        for a in (0.5, 2.0, 7.0):
            assert w1_exact(a * x, a * y) == pytest.approx(a * base, abs=1e-10)

    @pytest.mark.parametrize("power", [510, 512])
    def test_huge_samples_scale_exactly(self, power):
        # from 2**500 on the samples are scaled by a power of two, which is
        # exact; at 2**512 the unscaled squared differences would overflow
        rng = RngStream(6)
        x = rng.gen.standard_normal((12, 3))
        y = rng.gen.standard_normal((12, 3))
        assert w1_exact(x * 2.0**power, y * 2.0**power) == 2.0**power * w1_exact(x, y)

    def test_cap_exceeded_instructs_sliced(self):
        # the check raises before the cost matrix is built
        x = np.zeros((ASSIGNMENT_CAP + 1, 1))
        with pytest.raises(ValueError, match="sliced_w1"):
            w1_exact(x, x)

    def test_empty_samples_rejected(self):
        # the mean cost of an empty matching is 0 / 0
        with pytest.raises(ValueError, match="samples are empty"):
            w1_exact(np.zeros((0, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("d", [1, 2, 5, 7])
    def test_cost_equals_broadcast_norm(self, d):
        # below 8 terms numpy sums each squared distance in order, as cdist
        # does, so the cost matrix and the matching are bit-identical
        rng = RngStream(16)
        x = rng.gen.standard_normal((40, d))
        y = rng.gen.standard_normal((40, d))
        cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert w1_exact(x, y) == float(cost[rows, cols].sum() / 40)

    def test_memory_does_not_grow_with_n_squared_times_d(self):
        # an n x n x d temporary at n = 200, d = 128 alone takes 39 MiB
        rng = RngStream(17)
        x = rng.gen.standard_normal((200, 128))
        y = rng.gen.standard_normal((200, 128))
        w1_exact(x, y)  # the lazy scipy imports allocate outside the measurement
        tracemalloc.start()
        try:
            w1_exact(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMetricAxioms:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_triangle(self, seed):
        rng = RngStream(seed)
        x = rng.gen.standard_normal((6, 2))
        y = rng.gen.standard_normal((6, 2))
        z = rng.gen.standard_normal((6, 2))
        dxy = w1_exact(x, y)
        assert dxy == pytest.approx(w1_exact(y, x), abs=1e-12)
        assert dxy <= w1_exact(x, z) + w1_exact(z, y) + 1e-10
        assert dxy >= 0.0

    def test_identity_of_indiscernibles(self):
        rng = RngStream(6)
        x = rng.gen.standard_normal((7, 2))
        assert w1_exact(x, np.random.default_rng(0).permutation(x)) == pytest.approx(
            0.0, abs=1e-12
        )
        y = x.copy()
        y[0] += 0.5
        assert w1_exact(x, y) > 0.0


class TestSlicedW1:
    def test_identical_sets_zero(self):
        x = RngStream(7).gen.standard_normal((20, 3))
        assert sliced_w1(x, x.copy(), RngStream(8)) == pytest.approx(0.0, abs=1e-12)

    def test_d1_equals_w1_1d(self):
        rng = RngStream(9)
        x = rng.gen.standard_normal(30)
        y = rng.gen.standard_normal(30)
        assert sliced_w1(x, y, RngStream(10)) == pytest.approx(w1_1d(x, y), abs=1e-12)

    @pytest.mark.parametrize("shape_x, shape_y",
                             [((1, 3), (5, 3)), ((4, 3), (5, 3)), ((1, 1), (5, 1)),
                              ((3, 2), (3, 3))])
    def test_rejects_unequal_shapes(self, shape_x, shape_y):
        # one sample against several would broadcast into a number
        with pytest.raises(ValueError, match="sample sizes and dimensions must match"):
            sliced_w1(np.zeros(shape_x), np.zeros(shape_y), RngStream(0))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            sliced_w1(np.zeros((0, 2)), np.zeros((0, 2)), RngStream(0))

    def test_projection_count_stability(self, monkeypatch):
        rng = RngStream(11)
        x = rng.gen.standard_normal((200, 3))
        y = rng.gen.standard_normal((200, 3)) + 0.5
        monkeypatch.setattr(wasserstein, "SLICED_PROJECTIONS", 500)
        a = sliced_w1(x, y, RngStream(12))
        monkeypatch.setattr(wasserstein, "SLICED_PROJECTIONS", 1000)
        b = sliced_w1(x, y, RngStream(13))
        assert abs(a - b) / b < 0.05


class TestConvexity:
    def test_mixture_convexity_randomized(self):
        # W1(pooled mu, pooled nu) <= sum_s w_s W1(mu_s, nu_s) where pooling
        # with rational weights is realized by replicating component samples
        for seed in range(50):
            rng = RngStream(1000 + seed)
            n = 4
            n_comp = int(rng.gen.integers(2, 4))
            num = rng.gen.integers(1, 5, size=n_comp)
            weights = num / num.sum()
            mus = [rng.gen.standard_normal((n, 2)) for _ in range(n_comp)]
            nus = [rng.gen.standard_normal((n, 2)) for _ in range(n_comp)]
            denom = int(num.sum())
            pooled_mu = np.concatenate(
                [np.repeat(m, int(c), axis=0) for m, c in zip(mus, num)]
            )
            pooled_nu = np.concatenate(
                [np.repeat(m, int(c), axis=0) for m, c in zip(nus, num)]
            )
            lhs = w1_exact(pooled_mu, pooled_nu)
            rhs = sum(w * w1_exact(m, v) for w, m, v in zip(weights, mus, nus))
            assert lhs <= rhs + 1e-10


class TestTvBound:
    def test_tv_bound_randomized(self):
        # for measures on a common finite support:
        # W1(mu, nu) <= sum_u ||u|| |mu(u) - nu(u)|
        for seed in range(50):
            rng = RngStream(2000 + seed)
            m = int(rng.gen.integers(3, 7))
            support = rng.gen.standard_normal((m, 2))
            cu = rng.gen.integers(1, 6, size=m)
            cv = rng.gen.integers(1, 6, size=m)
            mu_w = cu / cu.sum()
            nu_w = cv / cv.sum()
            lhs = w1_weighted(support, mu_w, support, nu_w)
            rhs = float(
                np.sum(np.linalg.norm(support, axis=1) * np.abs(mu_w - nu_w))
            )
            assert lhs <= rhs + 1e-9


class TestWeighted:
    def test_replication_counts(self):
        out = replicate_weighted(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        assert out.shape[0] == 4
        assert (out == 1.0).sum() == 3

    def test_weighted_equals_plain_for_uniform(self):
        rng = RngStream(14)
        x = rng.gen.standard_normal((4, 2))
        y = rng.gen.standard_normal((4, 2))
        w = np.full(4, 0.25)
        assert w1_weighted(x, w, y, w) == pytest.approx(w1_exact(x, y), abs=1e-10)


class TestConvergenceDirection:
    def test_t_to_gaussian_as_nu_grows(self):
        # heavier tails are farther from the Gaussian in W1
        n = 4000
        rng = RngStream(15)
        z = np.sort(rng.gen.standard_normal(n))
        dists = []
        for nu in (3.0, 10.0, 100.0):
            t = np.sort(stats.t.rvs(nu, size=n, random_state=7))
            dists.append(w1_1d(t, z))
        assert dists[0] > dists[1] > dists[2]
