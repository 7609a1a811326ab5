"""No-U-turn transitions, the initial step-size heuristic and its adaptation.

Recursive doubling with multinomial state selection, identity mass matrix,
and dual-averaged step size. Generic over one value-and-gradient callable,
value_and_grad(theta) -> (log_density, grad), so the same transition serves
the network posterior and scalar test targets. Each leapfrog step evaluates
the target exactly once. The loop that drives these pieces is the
fixed-variance baseline's (gibbs._run_chain); the hierarchical chain moves
its hidden layers by elliptical slice steps instead.
"""

from __future__ import annotations

import math

DIVERGENCE_THRESHOLD = 1000.0
MAX_TREE_DEPTH = 8
TARGET_ACCEPT = 0.8
_LOG2 = math.log(2.0)


class _Tree:
    # minus and plus are the (theta, r, grad) ends of the trajectory; prop is
    # the (theta, logp, grad) proposal
    __slots__ = ("minus", "plus", "prop", "log_weight", "sum_accept", "n_accept",
                 "turning", "divergent")


def _leapfrog(value_and_grad, theta, r, grad, eps):
    """One leapfrog step of signed size eps, kicking in place on fresh arrays.

    IEEE add and multiply commute, so this rounds like r + 0.5 * eps * grad.
    """
    half = 0.5 * eps
    r_new = grad * half
    r_new += r
    theta_new = r_new * eps
    theta_new += theta
    logp, grad_new = value_and_grad(theta_new)
    r_new += grad_new * half
    return theta_new, r_new, grad_new, logp


def _hamiltonian(logp, r):
    return logp - 0.5 * float(r @ r)


def _logaddexp(x, y):
    """np.logaddexp on two floats, branch for branch as numpy's npy_logaddexp."""
    if x == y:
        return x + _LOG2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp  # NaN


def _log_uniform(gen):
    """log gen.uniform(1e-300, 1.0), which is 1e-300 + u: that is u for every u > 0."""
    return math.log(gen.random() or 1e-300)


def _u_turn(minus, plus):
    dtheta = plus[0] - minus[0]
    return float(dtheta @ minus[1]) < 0 or float(dtheta @ plus[1]) < 0


def _build_tree(value_and_grad, edge, depth, direction, eps, h0, gen):
    """Subtree of 2**depth leapfrog steps from edge = (theta, r, grad) along direction."""
    if depth == 0:
        # Negating eps is exact, so this equals stepping the flipped
        # momentum forwards and flipping it back.
        theta1, r1, grad1, logp1 = _leapfrog(value_and_grad, *edge, eps * direction)
        h1 = _hamiltonian(logp1, r1)
        t = _Tree()
        t.minus = t.plus = (theta1, r1, grad1)
        t.prop = (theta1, logp1, grad1)
        energy_err = h1 - h0
        t.divergent = not math.isfinite(h1) or energy_err < -DIVERGENCE_THRESHOLD
        t.log_weight = -math.inf if t.divergent else energy_err
        # a non-finite energy error is a failed step: acceptance 0, as in Stan
        t.sum_accept = math.exp(min(0.0, energy_err)) if math.isfinite(energy_err) else 0.0
        t.n_accept = 1
        t.turning = False
        return t

    first = _build_tree(value_and_grad, edge, depth - 1, direction, eps, h0, gen)
    if first.turning or first.divergent:
        return first
    inner = first.plus if direction == 1 else first.minus
    second = _build_tree(value_and_grad, inner, depth - 1, direction, eps, h0, gen)
    t = _Tree()
    if direction == 1:
        t.minus, t.plus = first.minus, second.plus
    else:
        t.minus, t.plus = second.minus, first.plus
    t.log_weight = _logaddexp(first.log_weight, second.log_weight)
    # multinomial selection between subtrees (divergent states carry no weight)
    chosen = first
    if not second.divergent and _log_uniform(gen) < second.log_weight - t.log_weight:
        chosen = second
    t.prop = chosen.prop
    t.sum_accept = first.sum_accept + second.sum_accept
    t.n_accept = first.n_accept + second.n_accept
    t.divergent = second.divergent
    t.turning = second.turning or _u_turn(t.minus, t.plus)
    return t


def nuts_transition(value_and_grad, theta, logp, grad, eps, gen):
    """One no-U-turn transition. Returns (theta, logp, grad, mean_accept, depth, divergent)."""
    r0 = gen.standard_normal(theta.shape[0])
    h0 = _hamiltonian(logp, r0)
    minus = plus = (theta, r0, grad)
    prop = (theta, logp, grad)
    log_weight = 0.0
    sum_accept, n_accept = 0.0, 0
    divergent = False
    depth = 0
    while depth < MAX_TREE_DEPTH:
        direction = 1 if gen.random() < 0.5 else -1
        sub = _build_tree(value_and_grad, plus if direction == 1 else minus, depth,
                          direction, eps, h0, gen)
        if direction == 1:
            plus = sub.plus
        else:
            minus = sub.minus
        sum_accept += sub.sum_accept
        n_accept += sub.n_accept
        if sub.divergent:
            divergent = True
            break
        if sub.turning:
            break
        # accept the new subtree's proposal with prob weight ratio
        if _log_uniform(gen) < sub.log_weight - log_weight:
            prop = sub.prop
        log_weight = _logaddexp(log_weight, sub.log_weight)
        depth += 1
        if _u_turn(minus, plus):
            break
    mean_accept = sum_accept / max(n_accept, 1)
    theta, logp, grad = prop
    return theta, logp, grad, mean_accept, depth, divergent


def find_reasonable_epsilon(value_and_grad, theta, gen) -> float:
    """Heuristic initial step size: leapfrog acceptance near 0.5."""
    eps = 1.0
    r = gen.standard_normal(theta.shape[0])
    logp, grad = value_and_grad(theta)
    h0 = _hamiltonian(logp, r)

    def log_accept(eps):
        _, r1, _, logp1 = _leapfrog(value_and_grad, theta, r, grad, eps)
        h1 = _hamiltonian(logp1, r1)
        return (h1 if math.isfinite(h1) else -math.inf) - h0

    direction = 1.0 if log_accept(eps) > math.log(0.5) else -1.0
    for _ in range(50):
        eps *= 2.0**direction
        if direction * log_accept(eps) < direction * math.log(0.5):
            break
    return eps


class DualAveraging:
    """Nesterov dual averaging towards TARGET_ACCEPT (Hoffman & Gelman 2014)."""

    gamma, t0, kappa = 0.05, 10.0, 0.75

    def __init__(self, eps0: float):
        self.mu = math.log(10.0 * eps0)
        self.log_eps = math.log(eps0)
        # adapted is eps0 until the first update, which overwrites the
        # average exactly (its weight w is 1 at t = 1)
        self.log_eps_bar = self.log_eps
        self.h_bar = 0.0
        self.t = 0

    def update(self, accept: float) -> float:
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (TARGET_ACCEPT - accept)
        self.log_eps = self.mu - math.sqrt(self.t) / self.gamma * self.h_bar
        w = self.t ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)

