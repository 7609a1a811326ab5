"""Empirical Wasserstein distances between sample sets.

Exact W1 for equal-size samples via minimum-cost assignment, and a
sliced-W1 estimator (sorted order statistics along random directions) for
larger problems.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngStream

ASSIGNMENT_CAP = 2048
# Random unit directions sliced_w1 averages over.
SLICED_PROJECTIONS = 128


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

    # cdist squares the differences, so samples near 1e154 would cost inf: those
    # are scaled by a power of two, which is exact, and the W1 scaled back
    top = max(np.max(np.abs(x), initial=0.0), np.max(np.abs(y), initial=0.0))
    exp = math.frexp(top)[1] if top >= 2.0**500 else 0
    if exp:
        x, y = np.ldexp(x, -exp), np.ldexp(y, -exp)
    cost = cdist(x, y)
    rows, cols = linear_sum_assignment(cost)
    return math.ldexp(float(cost[rows, cols].sum() / n), exp)


def sliced_w1(xs, ys, rng: RngStream) -> float:
    """Average 1-D W1 of equal-size samples over SLICED_PROJECTIONS random unit directions."""
    x = _as_array(xs)
    y = _as_array(ys)
    if x.shape != y.shape:
        raise ValueError("sample sizes and dimensions must match")
    if x.shape[0] == 0:
        raise ValueError("need at least one sample")
    dirs = rng.gen.standard_normal((SLICED_PROJECTIONS, x.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs_proj = np.sort(x @ dirs.T, axis=0)
    ys_proj = np.sort(y @ dirs.T, axis=0)
    return float(np.mean(np.abs(xs_proj - ys_proj)))

