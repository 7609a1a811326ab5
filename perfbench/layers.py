"""Per-layer metrics derived from one traced pass.

A metric is 0 where its layer does no work on the workload, and None
(printed as unmeasured) where a span it needs could not be hooked.
"""

from __future__ import annotations

import statistics

from workloads import MCMC_WIDTHS

K_TRAIN = 8  # training points in every pinned config


def logp_grad_ops(width: int, n_hidden: int = 2, k: int = K_TRAIN) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of one log_posterior_and_grad call.

    Counts the matmuls of a 1-width-...-width-1 network at k inputs: the
    forward W a, the weight gradient g aᵀ, and the backward Wᵀ g below the
    top layer, at 2 flops per multiply-add. Bytes are the float64 operands
    each matmul reads plus the result it writes.
    """
    widths = (1,) + (width,) * n_hidden + (1,)
    flops = nbytes = 0
    for layer, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        w, a, z = n_out * n_in, n_in * k, n_out * k
        flops += 2 * 2 * w * k
        nbytes += (w + a + z) + (z + a + w)
        if layer > 0:
            flops += 2 * w * k
            nbytes += w + z + a
    return flops, 8 * nbytes


def _spec():
    """(name, unit, spans it needs) for every per-layer metric, in report order."""
    out = []
    for n in MCMC_WIDTHS:
        out += [
            (f"network.logp_grad.calls.w{n}", "count", ("network.logp_grad",)),
            (f"network.logp_grad.us.w{n}", "us", ("network.logp_grad",)),
        ]
    out += [
        ("network.logp_grad.gflops.w128", "GFLOP/s", ("network.logp_grad",)),
        ("network.sample_prior.s", "s", ("network.sample_prior",)),
        ("network.forward_batch.s", "s", ("network.forward_batch",)),
    ]
    nuts = ("nuts.transition",)
    for n in MCMC_WIDTHS:
        out += [
            (f"nuts.transitions.w{n}", "count", nuts),
            (f"nuts.grads_per_transition.w{n}", "calls/transition",
             nuts + ("network.logp_grad",)),
            (f"nuts.tree_depth.mean.w{n}", "count", nuts),
            (f"nuts.self_s.w{n}", "s", nuts + ("network.logp_grad",)),
            (f"nuts.accept_rate.w{n}", "ratio", nuts),
            (f"nuts.divergent_frac.w{n}", "ratio", nuts),
        ]
    out += [
        ("samplers.sigma2.calls", "count", ("samplers.sigma2",)),
        ("samplers.sigma2.us", "us", ("samplers.sigma2",)),
        ("samplers.mvn.calls", "count", ("samplers.mvn",)),
        ("samplers.mvn.s", "s", ("samplers.mvn",)),
        ("samplers.mvt.calls", "count", ("samplers.mvt",)),
        ("samplers.mvt.s", "s", ("samplers.mvt",)),
    ]
    gibbs_children = ("gibbs.run", "nuts.transition", "network.logp_grad",
                      "samplers.sigma2", "network.forward")
    for n in MCMC_WIDTHS:
        out += [
            (f"gibbs.run_s.w{n}", "s", ("gibbs.run",)),
            (f"gibbs.self_s.w{n}", "s", gibbs_children),
            (f"gibbs.ess.w{n}", "count", ("gibbs.run",)),
        ]
    out += [
        ("gibbs.ess_per_s", "1/s", ("gibbs.run",)),
        ("kernels.recursion.calls", "count", ("kernels.recursion",)),
        ("kernels.recursion.s", "s", ("kernels.recursion",)),
        ("posteriors.tp_predict.calls", "count", ("posteriors.tp_predict",)),
        ("posteriors.tp_predict.s", "s", ("posteriors.tp_predict",)),
        ("posteriors.gp.calls", "count", ("posteriors.gp",)),
        ("posteriors.gp.s", "s", ("posteriors.gp",)),
        ("wasserstein.w1_exact.calls", "count", ("wasserstein.w1_exact",)),
        ("wasserstein.w1_exact.s", "s", ("wasserstein.w1_exact",)),
        ("wasserstein.sliced.calls", "count", ("wasserstein.sliced",)),
        ("wasserstein.sliced.s", "s", ("wasserstein.sliced",)),
        ("experiments.self_s", "s", ("experiments.runner",)),
        ("trace.overhead_s", "s", ()),
    ]
    return out


SPEC = _spec()


def _median_us(durations) -> float:
    return 1e6 * statistics.median(durations) if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, attached, ess_by_width, untraced_wall_s, traced_wall_s):
    """Every per-layer metric as name -> (value or None, unit).

    ess_by_width maps width -> min bulk ESS, or is None when draws are missing.
    """
    values = {}
    for n in MCMC_WIDTHS:
        grads = tracer.get("network.logp_grad", n)
        trans = tracer.get("nuts.transition", n)
        run = tracer.get("gibbs.run", n)
        values[f"network.logp_grad.calls.w{n}"] = grads.calls
        values[f"network.logp_grad.us.w{n}"] = _median_us(grads.durations)
        summaries = trans.summaries
        readable = all(s is not None for s in summaries)
        values[f"nuts.transitions.w{n}"] = trans.calls
        values[f"nuts.grads_per_transition.w{n}"] = _ratio(
            grads.by_parent["nuts.transition"], trans.calls)
        values[f"nuts.self_s.w{n}"] = trans.self_s
        for key, pos in (("tree_depth.mean", 1), ("accept_rate", 0), ("divergent_frac", 2)):
            values[f"nuts.{key}.w{n}"] = (
                _ratio(sum(float(s[pos]) for s in summaries), len(summaries))
                if readable else None)
        values[f"gibbs.run_s.w{n}"] = run.total_s
        values[f"gibbs.self_s.w{n}"] = run.self_s
        values[f"gibbs.ess.w{n}"] = None if ess_by_width is None else ess_by_width.get(n, 0.0)
    us128 = values["network.logp_grad.us.w128"]
    values["network.logp_grad.gflops.w128"] = _ratio(
        logp_grad_ops(128)[0] / 1e3, us128)
    values["gibbs.ess_per_s"] = (
        None if ess_by_width is None else _ratio(sum(ess_by_width.values()), untraced_wall_s))
    for span in ("network.sample_prior", "network.forward_batch", "samplers.mvn",
                 "samplers.mvt", "kernels.recursion", "posteriors.tp_predict",
                 "posteriors.gp", "wasserstein.w1_exact", "wasserstein.sliced"):
        rec = tracer.get(span)
        values[f"{span}.calls"] = rec.calls
        values[f"{span}.s"] = rec.total_s
    sigma2 = tracer.get("samplers.sigma2")
    values["samplers.sigma2.calls"] = sigma2.calls
    values["samplers.sigma2.us"] = _median_us(sigma2.durations)
    values["experiments.self_s"] = tracer.get("experiments.runner").self_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s

    out = {}
    for name, unit, needs in SPEC:
        value = values[name]
        if any(span not in attached for span in needs):
            value = None
        out[name] = (value, unit)
    return out
