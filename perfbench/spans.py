"""Spans around the public functions of each bnnlimits module.

The benchmark patches module attributes where callers resolve them (for
example ``bnnlimits.gibbs.log_posterior_and_grad``, which the NUTS closures
look up at call time), so nothing under ``src/`` knows it is being traced.
A name that a later version renames or removes is reported as missing and
every metric that depends on it becomes unmeasured; the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). Several attributes may feed one span name.
HOOKS = (
    ("bnnlimits.gibbs", "log_posterior_and_grad", "network.logp_grad"),
    ("bnnlimits.gibbs", "forward", "network.forward"),
    ("bnnlimits.gibbs", "sample_prior_params", "network.sample_prior"),
    ("bnnlimits.gibbs", "nuts_transition", "nuts.transition"),
    ("bnnlimits.gibbs", "sample_sigma2_conditional", "samplers.sigma2"),
    ("bnnlimits.gibbs", "rescaled_kernel", "kernels.recursion"),
    ("bnnlimits.experiments", "gibbs_run", "gibbs.run"),
    ("bnnlimits.experiments", "gibbs_run_fixed_variance", "gibbs.run"),
    ("bnnlimits.experiments", "sample_prior_params", "network.sample_prior"),
    ("bnnlimits.experiments", "forward_batch", "network.forward_batch"),
    ("bnnlimits.experiments", "kernel_recursion", "kernels.recursion"),
    ("bnnlimits.experiments", "rescaled_kernel", "kernels.recursion"),
    ("bnnlimits.experiments", "tp_posterior_predict", "posteriors.tp_predict"),
    ("bnnlimits.experiments", "gp_posterior", "posteriors.gp"),
    ("bnnlimits.experiments", "sample_mvn", "samplers.mvn"),
    ("bnnlimits.experiments", "sample_mvt", "samplers.mvt"),
    ("bnnlimits.experiments", "w1_exact", "wasserstein.w1_exact"),
    ("bnnlimits.experiments", "sliced_w1", "wasserstein.sliced"),
    ("bnnlimits.experiments", "run_prior_convergence", "experiments.runner"),
    ("bnnlimits.experiments", "run_posterior_convergence", "experiments.runner"),
    ("bnnlimits.experiments", "run_gaussian_baseline", "experiments.runner"),
    ("bnnlimits.experiments", "run_comparison", "experiments.runner"),
)

# Spans that set the width for every span they enclose (NUTS has no arch).
WIDTH_SCOPES = {"gibbs.run"}


class SpanStats:
    """Calls, total and self seconds, per-call seconds and calls per parent span."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "by_parent", "summaries")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = []
        self.by_parent = defaultdict(int)
        self.summaries = []


def _width_of(args):
    """Hidden width of the Architecture passed first, if any."""
    widths = getattr(args[0], "widths", None) if args else None
    return widths[1] if widths is not None and len(widths) > 2 else None


@contextlib.contextmanager
def patched(hooks, make_wrapper):
    """Replace each hooked attribute by make_wrapper(original, span name).

    Yields (attached span names, missing "module.attribute" names); the
    originals are restored on exit.
    """
    undo, attached, missing = [], set(), []
    try:
        for module_name, attr, span in hooks:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, make_wrapper(original, span))
            undo.append((module, attr, original))
            attached.add(span)
        yield attached, missing
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


class Tracer:
    """In-memory spans keyed by (span name, hidden width or None)."""

    def __init__(self, summarise):
        """summarise maps a span name to a function of a call's return value
        whose result is kept per call; it returns None when it cannot read it."""
        self.stats = defaultdict(SpanStats)
        self.summarise = summarise
        self._stack = []  # [span name, seconds covered by child spans]
        self._width = None

    def wrapper(self, fn, span):
        def traced(*args, **kwargs):
            width = _width_of(args)
            if width is None:
                width = self._width
            outer_width = self._width
            if span in WIDTH_SCOPES:
                self._width = width
            parent = self._stack[-1][0] if self._stack else None
            frame = [span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._width = outer_width
                if self._stack:
                    self._stack[-1][1] += dt
                rec = self.stats[(span, width)]
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - frame[1]
                rec.durations.append(dt)
                rec.by_parent[parent] += 1
            if span in self.summarise:
                rec.summaries.append(self.summarise[span](out))
            return out

        traced.__wrapped__ = fn
        return traced

    def get(self, span, width=None) -> SpanStats:
        """Stats of one span at one width, or summed over widths if width is None."""
        if width is not None:
            return self.stats.get((span, width), SpanStats())
        total = SpanStats()
        for (name, _), rec in self.stats.items():
            if name == span:
                total.calls += rec.calls
                total.total_s += rec.total_s
                total.self_s += rec.self_s
                total.durations.extend(rec.durations)
        return total


CAPTURE_HOOKS = tuple(h for h in HOOKS if h[2] == "gibbs.run")


class Capture:
    """Keeps each sampler's result by hidden width, without timing.

    The experiment runners return W1 summaries only; ESS and the output
    checks need the draws themselves.
    """

    def __init__(self):
        self.results = {}
        self.attached = False  # set once the hooks are in place

    def wrapper(self, fn, span):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.results[_width_of(args)] = out
            return out

        captured.__wrapped__ = fn
        return captured
