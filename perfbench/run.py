"""End-to-end and per-layer benchmark of bnnlimits.

Run from the root of a checkout:

    python3 perfbench/run.py --workload posterior-sweep --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py): posterior-sweep runs the hierarchical MCMC
experiment at widths 1, 8 and 128 on a short schedule; prior-sweep runs the
pinned prior experiment over consecutive seeds; limit-bands runs the compare
subcommand on a 1024-point test grid.

With --trace 0 the run starts passes through the public runner, at least
two, until --seconds seconds have gone by, with tracing off, and reports the
end-to-end metrics.
With --trace 1 it runs one untraced and one traced pass at the same seed
and reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: the adapted NUTS step size depends on
# the thread count in its last digits, so exact counts need a fixed one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layers import layer_metrics, logp_grad_ops  # noqa: E402
from spans import CAPTURE_HOOKS, HOOKS, Capture, Tracer, patched  # noqa: E402
from workloads import (  # noqa: E402
    MCMC_WIDTHS,
    WORKLOADS,
    LimitKernels,
    check_bands,
    check_limit_side,
    check_mcmc,
    check_prior,
    run_pass,
    width_ess,
)

SRC = "src"
SETUP_REPS = 3
# Seeds of the passes in one run: --seed * SEEDS_PER_RUN + pass index.
SEEDS_PER_RUN = 100
# Slow phases of a shared host last a minute or more; two passes at least
# keep one slow stretch from setting a long pass's median on its own.
MIN_PASSES = 2

# What a user pays on every CLI call before any experiment work starts.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from bnnlimits.cli import load_config; "
    "cfg = load_config(sys.argv[2], None); cfg.make_dataset(); cfg.make_test_grid()"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def setup_seconds(config_path: str) -> float:
    """Median wall time of fresh processes that import, load a config and build data."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, os.path.abspath(SRC), config_path],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(workload, cfg) -> dict:
    from bnnlimits.kernels import check_hyperparams, rescaled_kernel

    data = cfg.make_dataset()
    kp = rescaled_kernel(cfg.architecture(cfg.widths[-1]), cfg.variances(), data.x,
                         method=cfg.kernel_method)
    report = check_hyperparams(cfg.a, cfg.b, data.y, kp)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "config": f"configs/{workload.config}",
        "overrides": workload.overrides,
        "admissibility": {
            "a": cfg.a, "b": cfg.b, "ok": report.ok, "a_ok": report.a_ok,
            "b_ok": report.b_ok, "b_lower_bound": report.b_lower_bound,
            "op_norm": report.op_norm,
        },
        "logp_grad_computed_ops": {
            f"w{n}": dict(zip(("flops", "bytes"), logp_grad_ops(n))) for n in MCMC_WIDTHS
        },
    }


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, per_op: list[list[str]]):
        self.attempted += len(per_op)
        self.failed += sum(1 for p in per_op if p)
        self.problems += [m for p in per_op for m in p]

    def add_exception(self, n_ops: int, exc: BaseException):
        traceback.print_exception(exc, file=sys.stderr)
        self.add([[f"{type(exc).__name__}: {exc}"]] * n_ops)


def timed_pass(workload, cfg, tally, capture):
    """One pass through the runner: (wall seconds, report or None, sampler results)."""
    capture.results = {}
    t0 = time.perf_counter()
    try:
        report = run_pass(workload, cfg)
    except Exception as exc:  # a failed pass counts all its operations as failed
        tally.add_exception(workload.ops_per_pass(cfg), exc)
        report = None
    wall = time.perf_counter() - t0
    return wall, report, capture.results if capture.attached else None


def check_pass(workload, cfg, report, samples, tally, kernels):
    """Check one pass's outputs; returns ESS per width ({} without MCMC, None if unknown)."""
    if report is None:
        return None
    if workload.runner == "run_comparison":
        tally.add(check_bands(cfg, report, kernels))
        return {}
    if not workload.mcmc:
        tally.add(check_prior(cfg, report))
        return {}
    tally.add(check_mcmc(cfg, report, samples))
    if samples is not None and all(w in samples for w in cfg.widths):
        return {w: width_ess(cfg, samples[w]) for w in cfg.widths}
    return None


def limit_checks(workload, cfg, tally, kernels):
    """The limit-side closed forms against dense solves, charged to every op."""
    if kernels is None:
        return
    problems = []
    for gaussian in ((False,) if workload.mcmc else (False, True)):
        problems += check_limit_side(cfg, kernels, gaussian)
    if problems:
        tally.problems += problems
        tally.failed = tally.attempted


def limit_kernels(workload, cfg):
    return None if workload.runner == "run_prior_convergence" else LimitKernels(cfg)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: int):
    tally = Tally()
    capture = Capture()
    passes = []
    t_start = time.perf_counter()
    with patched(CAPTURE_HOOKS, capture.wrapper) as (attached, _):
        capture.attached = bool(attached)
        while True:
            cfg = workload.make_config(seed * SEEDS_PER_RUN + len(passes))
            passes.append((cfg, *timed_pass(workload, cfg, tally, capture)))
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_start >= seconds:
                break
    # read before the checks allocate their own kernels
    rss = peak_rss_mb()
    kernels = limit_kernels(workload, passes[0][0])
    esses = []
    for cfg, wall, report, samples in passes:
        ess = check_pass(workload, cfg, report, samples, tally, kernels)
        if workload.mcmc and ess is not None:
            esses.append(sum(ess.values()) / wall)
    limit_checks(workload, passes[0][0], tally, kernels)
    metrics = {
        "setup_s": setup_seconds(os.path.join("configs", workload.config)),
        "wall_s": statistics.median(p[1] for p in passes),
        "peak_rss_mb": rss,
    }
    text = {"pass_walls_s": [round(p[1], 4) for p in passes],
            "ess_per_s": f"{statistics.median(esses):.6g} 1/s" if esses else "n/a"}
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, text, passes[0][0]


def nuts_summary(out):
    """(mean accept, tree depth, divergent) from a nuts_transition result."""
    try:
        return float(out[3]), int(out[4]), bool(out[5])
    except (TypeError, IndexError, ValueError):
        return None


def per_layer(workload, seed: int):
    tally = Tally()
    cfg = workload.make_config(seed * SEEDS_PER_RUN)
    capture = Capture()
    tracer = Tracer({"nuts.transition": nuts_summary})
    with patched(CAPTURE_HOOKS, capture.wrapper) as (captured, _):
        capture.attached = bool(captured)
        untraced = timed_pass(workload, cfg, tally, capture)
        with patched(HOOKS, tracer.wrapper) as (attached, missing):
            traced = timed_pass(workload, cfg, tally, capture)
    kernels = limit_kernels(workload, cfg)
    check_pass(workload, cfg, untraced[1], untraced[2], tally, kernels)
    ess_by_width = check_pass(workload, cfg, traced[1], traced[2], tally, kernels)
    limit_checks(workload, cfg, tally, kernels)
    metrics = layer_metrics(tracer, attached, ess_by_width, untraced[0], traced[0])
    text = {"passes": 2, "untraced_wall_s": untraced[0], "traced_wall_s": traced[0],
            "missing_hooks": missing}
    return tally, metrics, text, cfg


def main(argv=None) -> int:
    if not (os.path.isfile(os.path.join(SRC, "bnnlimits", "__init__.py"))
            and os.path.isdir("configs")):
        print("perfbench: run from the root of a bnnlimits checkout "
              "(src/bnnlimits and configs/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))
    import bnnlimits

    if not os.path.abspath(bnnlimits.__file__).startswith(os.path.abspath(SRC) + os.sep):
        print(f"perfbench: imported bnnlimits from {bnnlimits.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, text, cfg = per_layer(workload, args.seed)
    else:
        tally, metrics, text, cfg = end_to_end(workload, args.seed, args.seconds)

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(workload, cfg), sort_keys=True))
    for key, value in text.items():
        print(f"  {key:34s} {value}")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        label = " (computed flops / measured time)" if "gflops" in name else ""
        print(f"  {name:34s} {shown} {unit}{label}")
    fail_rate = tally.failed / tally.attempted
    print(f"  {'fail_rate':34s} {fail_rate:.6g} ratio ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
