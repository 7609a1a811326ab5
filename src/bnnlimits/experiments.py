"""Configuration-driven convergence experiments and plot-ready data export.

Each experiment compares finite-width network draws against draws from the
corresponding infinite-width limit on a fixed test grid, summarizing the
exact empirical 1-Wasserstein distance per width with resampling bands and
a fitted log-log slope.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import math
import numbers
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import special

from . import __version__, kernels, network
from .gibbs import GibbsConfig, PosteriorSamples, gibbs_run, gibbs_run_fixed_variance
from .kernels import (
    CLOSED_FORMS,
    ConstraintReport,
    KernelMatrix,
    LinearAlgebraError,
    check_hyperparams,
    kernel_recursion,
)
from .network import (
    ACTIVATIONS,
    Architecture,
    Dataset,
    VarianceVector,
    forward_batch,
    sample_prior_params,
)
from .posteriors import (
    GaussianPosterior,
    StudentTPosterior,
    gp_posterior,
    tp_posterior_predict,
)
from .rng import RngStream
from .samplers import sample_mvn, sample_mvt
from .wasserstein import ASSIGNMENT_CAP, w1_exact, sliced_w1

log = logging.getLogger("bnnlimits")

# Bytes of prior draws one width job holds at a time: each of its threads
# draws and evaluates the prior in blocks of whole draws, whose parameters
# and layer activations at the W1 subgrid points take about this size
# divided by the thread count.
PRIOR_BLOCK_BYTES = 2 << 20

# The training inputs and the test grid are evenly spaced on this interval.
DOMAIN = (-1.0, 1.0)
# (sigma2, n_L * k) settings at which run_bound_diagnostics checks the
# constants, and the Nelder-Mead starts of each of its maximizations.
BOUND_SETTINGS = ((1.0, 1), (4.0, 2), (0.5, 3))
BOUND_RESTARTS = 8
# Resampling repetitions of each width's W1, which give its bands.
W1_REPS = 10


class ConfigError(ValueError):
    pass


# python type of a config field's default -> (accepted value types, noun)
FIELD_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a finite number"),
    str: (str, "a string"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the width-convergence experiments (single-output nets)."""

    n_hidden_layers: int = 2
    activation: str = "erf"
    weight_variance: float = 5.0
    bias_variance: float = 5.0
    a: float = 3.0
    b: float = 2.0
    noise_var: float = 0.1  # fixed likelihood variance for the Gaussian baseline
    widths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    draws: int = 100
    data_noise: float = 0.1
    k: int = 8
    test_grid: int = 64
    w1_grid: int = 5
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self):
        # each field's default gives its type; a bool is never a number
        for f in dataclasses.fields(self):
            value, kind, what = getattr(self, f.name), type(f.default), f.name
            if kind is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"{f.name} must be a list")
                kind, what = type(f.default[0]), f"each entry of {f.name}"
            else:
                value = (value,)
            allowed, noun = FIELD_TYPES[kind]
            # abs(v) <= the largest float is false for nan, +-inf and ints
            # too large for a float
            if not all(isinstance(v, allowed) and not isinstance(v, bool)
                       and (kind is not float or abs(v) <= sys.float_info.max)
                       for v in value):
                raise ConfigError(f"{what} must be {noun}")
            if kind is float:
                # 3 and 3.0 then give one config, one hash and one .meta.json
                object.__setattr__(self, f.name, float(value[0]))
        widths = tuple(self.widths)
        if not widths or widths[0] < 1:
            raise ConfigError("widths must be a non-empty list of integers >= 1")
        if any(b <= a for a, b in zip(widths, widths[1:])):
            raise ConfigError("widths must be strictly increasing")
        object.__setattr__(self, "widths", widths)
        if not 2 <= self.draws <= ASSIGNMENT_CAP:
            raise ConfigError(f"draws must lie in [2, {ASSIGNMENT_CAP}] "
                              "(the exact-assignment cap of the W1)")
        if self.n_hidden_layers < 1:
            raise ConfigError("need at least one hidden layer")
        if self.k < 0 or self.test_grid < 0:
            raise ConfigError("k and test_grid must be >= 0")
        if self.w1_grid < 0 or self.w1_grid > self.test_grid:
            raise ConfigError("w1_grid must lie in [0, test_grid]")
        if not (self.a > 0 and self.b > 0 and self.noise_var > 0):
            raise ConfigError("a, b and noise_var must be > 0")
        if not (self.weight_variance > 0 and self.bias_variance > 0):
            raise ConfigError("weight_variance and bias_variance must be > 0")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.seed < 0:
            raise ConfigError("seed must be an integer >= 0")

    @property
    def kernel_method(self) -> str:
        """The activation's closed form, else the Hermite series."""
        return CLOSED_FORMS.get(self.activation, "hermite_series")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(str(e)) from e

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def architecture(self, width: int) -> Architecture:
        widths = (1,) + (int(width),) * self.n_hidden_layers + (1,)
        acts = ("identity",) + (self.activation,) * self.n_hidden_layers
        return Architecture(widths, acts)

    def variances(self) -> VarianceVector:
        n_layers = self.n_hidden_layers + 1
        return VarianceVector(
            (self.weight_variance,) * n_layers, (self.bias_variance,) * n_layers
        )

    def make_dataset(self) -> Dataset:
        x = np.linspace(*DOMAIN, self.k)
        noise = RngStream(self.seed, (100,)).gen.standard_normal(self.k)
        with np.errstate(over="ignore"):  # an overflow raises below
            y = np.sin(2.0 * math.pi * x) + self.data_noise * noise
        if not np.all(np.isfinite(y)):
            raise LinearAlgebraError(f"data_noise = {self.data_noise:.6g} overflows the data")
        return Dataset(x[None, :], y[None, :])

    def make_test_grid(self) -> np.ndarray:
        return np.linspace(*DOMAIN, self.test_grid)[None, :]

    def w1_subgrid_idx(self) -> np.ndarray:
        return np.unique(
            np.round(np.linspace(0, self.test_grid - 1, self.w1_grid)).astype(int)
        )


@dataclass(kw_only=True)
class Report:
    """What every report writes to its .meta.json: the config it ran (whose hash
    and seed go there too), its run time and the (a, b) check of its t limit, if any."""

    config: ExperimentConfig
    runtime_s: float
    constraint: ConstraintReport | None = None

    def table(self) -> tuple[str, str, list[tuple]]:
        """(file name without extension, CSV header, rows of numbers)."""
        raise NotImplementedError


@dataclass
class ConvergenceReport(Report):
    """Per-width W1 repetitions and mean sliced W1s, both at the W1 subgrid;
    each width's w1 (mean), w1_lo and w1_hi (min, max) and the log-log slope
    of w1 follow from them."""

    widths: list[int]
    w1_reps: list[list[float]]
    sliced: list[float]
    w1: list[float] = dataclasses.field(init=False)
    w1_lo: list[float] = dataclasses.field(init=False)
    w1_hi: list[float] = dataclasses.field(init=False)
    slope: float | None = dataclasses.field(init=False)

    def __post_init__(self):
        self.w1 = [float(np.mean(r)) for r in self.w1_reps]
        self.w1_lo = [float(np.min(r)) for r in self.w1_reps]
        self.w1_hi = [float(np.max(r)) for r in self.w1_reps]
        self.slope = fit_loglog_slope(self.widths, self.w1)

    def table(self):
        rows = [(w, v, lo, hi, self.config.seed)
                for w, v, lo, hi in zip(self.widths, self.w1, self.w1_lo, self.w1_hi)]
        return "w1_vs_width", "width,w1,w1_lo,w1_hi,seed", rows


def fit_loglog_slope(widths, w1) -> float | None:
    """Least-squares slope of log W1 against log width (needs >= 4 widths)."""
    w = np.asarray(widths, dtype=float)
    v = np.asarray(w1, dtype=float)
    keep = v > 0
    if keep.sum() < 4:
        return None
    coef = np.polyfit(np.log(w[keep]), np.log(v[keep]), 1)
    return float(coef[0])


def _limit_e(cfg: ExperimentConfig, data: Dataset, grid: np.ndarray) -> np.ndarray:
    """Last-layer E of the limit over the training inputs then the grid, which
    gives K' = E + 1 and K = s2_W E + s2_b. The limit reads no width, so width 1
    stands in for all; E's train block has the floats of a train-only recursion."""
    return kernels._recursion(cfg.architecture(1), cfg.variances(),
                              np.concatenate([data.x, grid], axis=1),
                              method=cfg.kernel_method)


def _t_limit(cfg: ExperimentConfig, data: Dataset, e: np.ndarray
             ) -> tuple[StudentTPosterior, ConstraintReport | None]:
    """Student-t posterior predictive of the hierarchical limit at the grid,
    and the (a, b) admissibility report on K' at the training inputs (None
    without training data), which it logs. `e` is read, not written."""
    constraint = None
    if data.k:
        kp = KernelMatrix(e[:data.k, :data.k] + 1.0, data.k)
        constraint = check_hyperparams(cfg.a, cfg.b, data.y, kp)
        log.info(constraint.summary())
    tp = tp_posterior_predict(KernelMatrix(e + 1.0, data.k), data.y, cfg.a, cfg.b)
    return tp, constraint


def _gp_limit(cfg: ExperimentConfig, data: Dataset, e: np.ndarray) -> GaussianPosterior:
    """GP posterior of the fixed-variance limit at the grid; K is built in
    `e`, which is overwritten."""
    k = KernelMatrix(kernels._affine(e, cfg.weight_variance, cfg.bias_variance), data.k)
    return gp_posterior(k.train, k.cross, k.test, data.y, cfg.noise_var)


def posterior_draws(cfg: ExperimentConfig, width: int, gaussian: bool = False
                    ) -> PosteriorSamples:
    """Draws of the width's network posterior at the test grid: the hierarchical
    slice, last-layer and sigma2 sweep (gibbs_run), or the NUTS chain at the fixed
    variance noise_var if `gaussian`. The chain is seeded per (experiment seed,
    width, model); every finite-width chain of a run is made here."""
    h = hashlib.sha256(f"{cfg.seed}:{width}:{3 if gaussian else 1}".encode()).digest()
    gcfg = GibbsConfig(n_samples=cfg.draws, burn_in=cfg.burn_in,
                       seed=int.from_bytes(h[:8], "little") >> 1)
    arch, data, grid = cfg.architecture(width), cfg.make_dataset(), cfg.make_test_grid()
    if gaussian:
        return gibbs_run_fixed_variance(arch, cfg.variances(), cfg.noise_var, data, grid, gcfg)
    return gibbs_run(arch, cfg.variances(), cfg.a, cfg.b, data, grid, gcfg)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _prior_threads() -> int:
    """Threads a prior width job runs its repetitions on: one per CPU, and
    none left without a repetition."""
    return min(W1_REPS, _cpu_count())


def _prior_block_draws(arch: Architecture, m: int, threads: int) -> int:
    """Draws per block: PRIOR_BLOCK_BYTES shared among the threads.

    A draw holds its parameters and its layer activations at the m points
    (the W1 subgrid's).
    """
    per_draw = 8 * (arch.n_params + m * sum(arch.widths[1:]))
    return max(1, PRIOR_BLOCK_BYTES // (threads * per_draw))


def _prior_width_job(cfg: ExperimentConfig, kernel: KernelMatrix,
                     width: int) -> tuple[list[float], list[float]]:
    """Per-width exact and sliced W1 between prior network draws and draws of
    the NNGP `kernel`, both at the W1 subgrid.

    The networks are evaluated at the subgrid points alone, the inputs of
    `kernel`. The repetitions run on _prior_threads() threads (numpy and
    scipy release the GIL), each on its own child stream, and are collected
    in order. Each thread draws and evaluates its prior parameters in blocks
    of whole draws (_prior_block_draws), so only the (draws, subgrid) outputs
    are kept; the draws are the same for any block size and thread count.
    """
    threads = _prior_threads()
    points = cfg.make_test_grid()[:, cfg.w1_subgrid_idx()]
    arch = cfg.architecture(width)
    variances = cfg.variances()
    block = _prior_block_draws(arch, points.shape[1], threads)
    sizes = [min(block, cfg.draws - start) for start in range(0, cfg.draws, block)]
    # build the shared prior scale once, not once per thread that misses the cache
    network._prior_scale(arch, variances)

    def repetition(rep_rng: RngStream) -> tuple[float, float]:
        r_bnn, r_gp = rep_rng.split(2)
        bnn = np.concatenate([
            forward_batch(arch, sample_prior_params(arch, variances, r_bnn, n_draws=n),
                          points)[:, 0, :]
            for n in sizes
        ])
        gp = sample_mvn(np.zeros(points.shape[1]), kernel.values, r_gp, size=cfg.draws)
        return w1_exact(bnn, gp), sliced_w1(bnn, gp, r_gp.child(1))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(repetition, RngStream(cfg.seed, (width,)).split(W1_REPS)))
    return [w1 for w1, _ in results], [sl for _, sl in results]


def _posterior_width_job(cfg: ExperimentConfig, limit: StudentTPosterior | GaussianPosterior,
                         width: int) -> tuple[list[float], list[float]]:
    """Per-width exact and sliced W1, at the W1 subgrid, between bootstrapped
    posterior draws and fresh draws of the `limit`; a GaussianPosterior means
    the fixed-variance model."""
    gaussian = isinstance(limit, GaussianPosterior)
    idx = cfg.w1_subgrid_idx()
    evals = posterior_draws(cfg, width, gaussian).evals[:, idx]
    n = len(evals)
    reps, sl = [], []
    for rep_rng in RngStream(cfg.seed, (width, 4 if gaussian else 2)).split(W1_REPS):
        r_boot, r_lim = rep_rng.split(2)
        bnn = evals[r_boot.gen.integers(0, n, size=n)]
        lim = (sample_mvn(limit.mean, limit.cov, r_lim, size=n) if gaussian
               else sample_mvt(limit.nu, limit.location, limit.scale, r_lim, size=n))[:, idx]
        reps.append(w1_exact(bnn, lim))
        sl.append(sliced_w1(bnn, lim, r_lim.child(0)))
    return reps, sl


def _sweep(cfg: ExperimentConfig, limit_of, job, jobs: int = 1) -> ConvergenceReport:
    """Run job(cfg, limit, width) -> (W1 repetitions, sliced W1s) at every width.

    limit_of() -> (limit, admissibility report or None) builds the
    width-independent limit once; the width jobs run serially or in a pool
    of up to `jobs` processes (one per width at most).
    """
    t0 = time.perf_counter()
    limit, constraint = limit_of()
    run = functools.partial(job, cfg, limit)
    processes = min(jobs, len(cfg.widths))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(run, cfg.widths))
    else:
        results = [run(w) for w in cfg.widths]
    return ConvergenceReport(
        widths=list(cfg.widths), w1_reps=[r for r, _ in results],
        sliced=[float(np.mean(sl)) for _, sl in results],
        config=cfg, runtime_s=time.perf_counter() - t0, constraint=constraint,
    )


def run_prior_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """W1 between prior network draws and NNGP draws, per width, at the W1 subgrid.

    The widths run in turn, each on its repetition threads (_prior_threads).
    The limit is the NNGP kernel over the subgrid points alone: no data, no
    (a, b) check, and no other grid point.
    """
    return _sweep(cfg, lambda: (kernel_recursion(cfg.architecture(1), cfg.variances(),
                                                 cfg.make_test_grid()[:, cfg.w1_subgrid_idx()],
                                                 method=cfg.kernel_method), None),
                  _prior_width_job)


def _posterior_limit(cfg: ExperimentConfig, gaussian: bool
                     ) -> tuple[StudentTPosterior | GaussianPosterior, ConstraintReport | None]:
    """An MCMC sweep's limit and (a, b) report: the GP limit if `gaussian`, else the
    Student-t limit, which warns when (a, b) lies outside the admissible region. The
    warning names the runner's caller: stack level 4, after this, _sweep and the runner."""
    data = cfg.make_dataset()
    e = _limit_e(cfg, data, cfg.make_test_grid())
    if gaussian:
        return _gp_limit(cfg, data, e), None
    tp, constraint = _t_limit(cfg, data, e)
    if constraint is not None and not constraint.ok:
        warnings.warn("hyperparameters outside the admissible region for the convergence"
                      f" guarantee; {constraint.summary()} (run proceeds)", stacklevel=4)
    return tp, constraint


def run_posterior_convergence(cfg: ExperimentConfig, jobs: int = 1) -> ConvergenceReport:
    """W1 between Gibbs posterior draws and Student-t limit draws, per width.

    Warns once per run when (a, b) lies outside the admissible region.
    """
    return _sweep(cfg, functools.partial(_posterior_limit, cfg, False), _posterior_width_job, jobs)


def run_gaussian_baseline(cfg: ExperimentConfig, jobs: int = 1) -> ConvergenceReport:
    """W1 between fixed-variance posterior draws and the GP limit, per width."""
    return _sweep(cfg, functools.partial(_posterior_limit, cfg, True), _posterior_width_job, jobs)


@dataclass
class ComparisonReport(Report):
    """Posterior-predictive quantile bands for the t and Gaussian limits."""

    grid: np.ndarray  # (m,)
    tp_bands: np.ndarray  # (m, 3): the 2.5%, 50% and 97.5% quantiles per point
    gp_bands: np.ndarray  # (m, 3)

    def table(self):
        rows = [(x, *tb, *gb) for x, tb, gb in zip(self.grid, self.tp_bands, self.gp_bands)]
        return "predictive_bands", "x,tp_lo,tp_med,tp_hi,gp_lo,gp_med,gp_hi", rows


def run_comparison(cfg: ExperimentConfig) -> ComparisonReport:
    """Paired 2.5/50/97.5% predictive bands for the Student-t and GP limits."""
    t0 = time.perf_counter()
    data = cfg.make_dataset()
    grid = cfg.make_test_grid()
    qs = (0.025, 0.5, 0.975)
    # one E for both limits: the t reads it, then the GP builds K in it. The
    # bands read only each scale's diagonal; the m x m arrays are freed before
    # the band arrays are allocated, so those do not pin the heap between them
    e = _limit_e(cfg, data, grid)
    tp, constraint = _t_limit(cfg, data, e)
    loc, nu, t_sd = tp.location, tp.nu, np.sqrt(np.clip(np.diag(tp.scale), 0.0, None))
    del tp
    tp_bands = loc[:, None] + t_sd[:, None] * special.stdtrit(nu, qs)
    gp = _gp_limit(cfg, data, e)
    mean, g_sd = gp.mean, np.sqrt(np.clip(np.diag(gp.cov), 0.0, None))
    del e, gp
    gp_bands = mean[:, None] + g_sd[:, None] * special.ndtri(qs)
    return ComparisonReport(
        grid[0], tp_bands, gp_bands, config=cfg,
        runtime_s=time.perf_counter() - t0, constraint=constraint,
    )


@dataclass
class BoundDiagnostics(Report):
    """Numerical verification of the likelihood sup and Lipschitz constants."""

    settings: list[tuple[float, int]]  # (sigma2, n_L * k)
    sup_numeric: list[float]
    lip_numeric: list[float]
    argmax_resid2: list[float]  # ||y - z||^2 at the gradient-norm maximizer

    def table(self):
        rows = [(float(s2), n, likelihood_sup(s2, n), sup, likelihood_lipschitz(s2, n), lip, r2)
                for (s2, n), sup, lip, r2 in zip(self.settings, self.sup_numeric,
                                                  self.lip_numeric, self.argmax_resid2)]
        return ("bound_diagnostics",
                "sigma2,n,sup_formula,sup_numeric,lip_formula,lip_numeric,argmax_resid2", rows)


def likelihood_sup(sigma2: float, n: int) -> float:
    return (2.0 * math.pi * sigma2) ** (-n / 2.0)


def likelihood_lipschitz(sigma2: float, n: int) -> float:
    return math.exp(-0.5) / math.sqrt(sigma2) * likelihood_sup(sigma2, n)


def run_bound_diagnostics(cfg: ExperimentConfig) -> BoundDiagnostics:
    """Maximize the Gaussian likelihood and its gradient norm numerically,
    at each of BOUND_SETTINGS.

    The density maximum over z is the sup constant; the maximum gradient
    norm is the Lipschitz constant, attained where ||y - z||^2 = sigma2.
    """
    import scipy.optimize  # a slow import, so only here

    t0 = time.perf_counter()
    rng = RngStream(cfg.seed, (7,))
    sup_n, lip_n, res2 = [], [], []
    for sigma2, n in BOUND_SETTINGS:
        y = rng.gen.standard_normal(n)

        def neg_density(z):
            return -likelihood_sup(sigma2, n) * math.exp(
                -float(np.sum((y - z) ** 2)) / (2.0 * sigma2)
            )

        def neg_grad_norm(z):
            # ||grad L|| = L(z) ||y - z|| / sigma2
            return neg_density(z) * math.sqrt(float(np.sum((y - z) ** 2))) / sigma2

        best_d, best_g, best_r = -np.inf, -np.inf, np.nan
        for _ in range(BOUND_RESTARTS):
            z0 = y + rng.gen.standard_normal(n) * math.sqrt(sigma2)
            rd = scipy.optimize.minimize(neg_density, z0, method="Nelder-Mead",
                                         options={"xatol": 1e-10, "fatol": 1e-14})
            rg = scipy.optimize.minimize(neg_grad_norm, z0, method="Nelder-Mead",
                                         options={"xatol": 1e-10, "fatol": 1e-14})
            best_d = max(best_d, -rd.fun)
            if -rg.fun > best_g:
                best_g = -rg.fun
                best_r = float(np.sum((y - rg.x) ** 2))
        sup_n.append(best_d)
        lip_n.append(best_g)
        res2.append(best_r)
    return BoundDiagnostics(list(BOUND_SETTINGS), sup_n, lip_n, res2, config=cfg,
                            runtime_s=time.perf_counter() - t0)


def _cell(v) -> str:
    """One CSV cell: the repr of v as a Python int or float."""
    return repr(int(v)) if isinstance(v, numbers.Integral) else repr(float(v))


def emit_figure_data(report: Report, out_dir) -> list[str]:
    """Write the report's plot-ready CSV and its .meta.json; returns both paths."""
    if not isinstance(report, Report):
        raise TypeError(f"unsupported report type {type(report).__name__}")
    name, header, rows = report.table()
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name + ext) for ext in (".csv", ".meta.json")]
    with open(paths[0], "w") as f:
        f.write(header + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
    meta = {
        "config_hash": report.config.hash(),
        "config": report.config.to_dict(),
        "seed": report.config.seed,
        "runtime_s": report.runtime_s,
        "constraint": (dataclasses.asdict(report.constraint)
                       if report.constraint is not None else None),
        "versions": {
            "bnnlimits": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if isinstance(report, ConvergenceReport):
        meta["slope"] = report.slope
    with open(paths[1], "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    return paths

