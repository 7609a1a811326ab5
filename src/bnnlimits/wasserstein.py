"""Empirical Wasserstein distances between sample sets.

Exact 1-D distances via sorted order statistics, exact multivariate W1 for
equal-size samples via minimum-cost assignment, and a sliced-W1 estimator
for larger problems. Weighted discrete measures are reduced to equal-size
empirical measures by replication to a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .rng import RngStream

ASSIGNMENT_CAP = 2048
REPLICATION_CAP = 100_000


def _as_array(xs) -> np.ndarray:
    a = np.asarray(xs, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def w1_1d(xs, ys) -> float:
    """Exact 1-D W1 for equal-size samples: mean |x_(i) - y_(i)| over sorted order."""
    x = np.ravel(_as_array(xs))
    y = np.ravel(_as_array(ys))
    if x.shape[0] != y.shape[0]:
        raise ValueError("sample sizes must match")
    return float(np.mean(np.abs(np.sort(x) - np.sort(y))))


def w1_exact(xs, ys, cap: int = ASSIGNMENT_CAP) -> float:
    """Exact empirical W1 between equal-size samples (Euclidean ground cost).

    Solves the minimum-cost perfect matching and divides by n.
    """
    x = _as_array(xs)
    y = _as_array(ys)
    if x.shape[0] != y.shape[0]:
        raise ValueError("sample sizes must match")
    if x.shape[1] != y.shape[1]:
        raise ValueError("dimensions must match")
    n = x.shape[0]
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the exact-assignment cap {cap}; use sliced_w1"
        )
    from scipy.optimize import linear_sum_assignment  # a slow import, so only here

    cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def sliced_w1(xs, ys, n_projections: int, rng: RngStream) -> float:
    """Average 1-D W1 over uniformly random unit directions."""
    x = _as_array(xs)
    y = _as_array(ys)
    if x.shape[1] != y.shape[1]:
        raise ValueError("dimensions must match")
    d = x.shape[1]
    if d == 1:
        return w1_1d(x, y)
    dirs = rng.gen.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs_proj = np.sort(x @ dirs.T, axis=0)
    ys_proj = np.sort(y @ dirs.T, axis=0)
    return float(np.mean(np.abs(xs_proj - ys_proj)))


def replicate_weighted(
    support: np.ndarray, weights: np.ndarray, cap: int = REPLICATION_CAP
) -> np.ndarray:
    """Equal-size empirical stand-in for a weighted discrete measure.

    Rational weights are brought to a common denominator and each atom is
    replicated proportionally; raises if the common denominator explodes.
    """
    support = _as_array(support)
    fracs = [Fraction(w).limit_denominator(10_000) for w in np.ravel(weights)]
    total = sum(fracs)
    if total == 0:
        raise ValueError("weights must not all be zero")
    fracs = [f / total for f in fracs]
    denom = lcm(*[f.denominator for f in fracs])
    if denom > cap:
        raise ValueError(f"common denominator {denom} exceeds cap {cap}")
    counts = [int(f * denom) for f in fracs]
    return np.repeat(support, counts, axis=0)


def w1_weighted(support_x, weights_x, support_y, weights_y) -> float:
    """Exact W1 between finitely-supported weighted measures via replication."""
    x = replicate_weighted(support_x, weights_x)
    y = replicate_weighted(support_y, weights_y)
    n = lcm(x.shape[0], y.shape[0])
    x = np.repeat(x, n // x.shape[0], axis=0)
    y = np.repeat(y, n // y.shape[0], axis=0)
    if x.shape[1] == 1:
        return w1_1d(x, y)
    return w1_exact(x, y, cap=max(ASSIGNMENT_CAP, n))
