"""Empirical Wasserstein distances between sample sets.

Exact W1 for equal-size samples via minimum-cost assignment, and a
sliced-W1 estimator (sorted order statistics along random directions) for
larger problems.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

ASSIGNMENT_CAP = 2048


def _as_array(xs) -> np.ndarray:
    a = np.asarray(xs, dtype=float)
    return a[:, None] if a.ndim == 1 else a


def w1_exact(xs, ys) -> float:
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
    if n == 0:
        raise ValueError("samples are empty")
    if n > ASSIGNMENT_CAP:
        raise ValueError(
            f"n={n} exceeds the exact-assignment cap {ASSIGNMENT_CAP}; use sliced_w1"
        )
    # slow imports, so only here; cdist builds no n x n x d temporary
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(x, y)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / n)


def sliced_w1(xs, ys, n_projections: int, rng: RngStream) -> float:
    """Average 1-D W1 of equal-size samples over uniformly random unit directions."""
    x = _as_array(xs)
    y = _as_array(ys)
    if x.shape != y.shape:
        raise ValueError("sample sizes and dimensions must match")
    if x.shape[0] == 0 or n_projections < 1:
        raise ValueError("need at least one sample and one projection")
    dirs = rng.gen.standard_normal((n_projections, x.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs_proj = np.sort(x @ dirs.T, axis=0)
    ys_proj = np.sort(y @ dirs.T, axis=0)
    return float(np.mean(np.abs(xs_proj - ys_proj)))

