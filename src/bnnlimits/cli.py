"""Command-line entry point for the convergence experiments.

Subcommands: prior-convergence, posterior-convergence, gaussian-baseline,
compare, diagnostics. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .experiments import (
    ConfigError,
    ExperimentConfig,
    emit_figure_data,
    run_bound_diagnostics,
    run_comparison,
    run_gaussian_baseline,
    run_posterior_convergence,
    run_prior_convergence,
)
from .kernels import KernelDegeneracyError
from .posteriors import LinearAlgebraError
from .samplers import SamplerError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# subcommand -> (runner, whether it runs its widths in --jobs processes)
COMMANDS = {
    "prior-convergence": (run_prior_convergence, False),
    "posterior-convergence": (run_posterior_convergence, True),
    "gaussian-baseline": (run_gaussian_baseline, True),
    "compare": (run_comparison, False),
    "diagnostics": (run_bound_diagnostics, False),
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnnlimits",
        description="Width-convergence experiments for Bayesian neural "
        "networks and their Gaussian/Student-t process limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, jobs) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file path")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", default="out", help="output directory")
        if jobs:
            p.add_argument("--jobs", type=positive_int, default=1, help="parallel width jobs")
    return parser


def load_config(path: str | None, seed: int | None) -> ExperimentConfig:
    d = {}
    if path is not None:
        try:
            with open(path) as f:
                d = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config file must contain a JSON object")
    if seed is not None:
        d["seed"] = seed
    return ExperimentConfig.from_dict(d)


def make_out_dir(path: str) -> list[str]:
    """Create path and its missing parents; return the ones made, deepest first."""
    made = []
    p = os.path.abspath(path)
    while not os.path.exists(p):
        made.append(p)
        p = os.path.dirname(p)
    os.makedirs(path, exist_ok=True)
    return made


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    # An unusable --out fails here, before the run rather than after it
    try:
        made = make_out_dir(args.out)
    except OSError as e:
        print(f"config error: cannot create output directory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    runner, jobs = COMMANDS[args.command]
    try:
        report = runner(cfg, jobs=args.jobs) if jobs else runner(cfg)
        paths = emit_figure_data(report, args.out)
    except (KernelDegeneracyError, LinearAlgebraError, SamplerError) as e:
        for d in made:  # a failed run leaves no directory behind that it made
            os.rmdir(d)
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    for p in paths:
        print(p)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
