"""Tests for the experiment configs, runners, data export, and CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from bnnlimits import cli, experiments, gibbs, kernels
from bnnlimits.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from bnnlimits.experiments import (
    BoundDiagnostics,
    ComparisonReport,
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    emit_figure_data,
    fit_loglog_slope,
    likelihood_lipschitz,
    likelihood_sup,
    posterior_draws,
    run_bound_diagnostics,
    run_comparison,
    run_gaussian_baseline,
    run_posterior_convergence,
    run_prior_convergence,
)
from bnnlimits.gibbs import GibbsConfig, gibbs_run, gibbs_run_fixed_variance
from bnnlimits.kernels import check_hyperparams, kernel_recursion, rescaled_kernel
from bnnlimits.posteriors import gp_posterior, tp_posterior_predict
from oracles import read_figure_csv
from test_samplers import NeverAccepts

FAST = dict(
    widths=(1, 2),
    draws=20,
    k=3,
    test_grid=8,
    w1_grid=3,
    burn_in=10,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.widths == (1, 2, 4, 8, 16, 32, 64, 128)
        assert cfg.architecture(4).widths == (1, 4, 4, 1)
        assert cfg.variances().weight == (5.0, 5.0, 5.0)

    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig(**FAST)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict({"nonsense": 1})

    @pytest.mark.parametrize(
        "bad",
        [
            {"widths": (4, 2)},
            {"draws": 1},
            {"n_hidden_layers": 0},
            {"burn_in": 1.5},
            {"w1_grid": 9, "test_grid": 4},
            {"activation": "swish"},
            {"a": 0.0},
            {"b": 0.0},
            {"b": float("nan")},
            {"noise_var": 0.0},
            {"weight_variance": -1.0},
            {"bias_variance": 0.0},
            {"w1_grid": -1},
            {"burn_in": -1},
            {"k": 2.5},
            {"w1_grid": True},
            {"draws": 2049},
            {"widths": (0, 1)},
            {"widths": (1.5, 2)},
            {"widths": ()},
            {"widths": ["x"]},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
            {"k": True},
            {"noise_var": -1.0},
            {"test_grid": True},
            {"draws": 2.0},
            {"widths": [True, 2]},
            {"a": True},
            {"widths": 4},
            {"activation": ["erf"]},
            # non-finite and float-overflowing values
            {"data_noise": float("inf")},
            {"data_noise": float("nan")},
            {"a": float("inf")},
            {"b": float("inf")},
            {"weight_variance": float("inf")},
            {"noise_var": float("inf")},
            {"bias_variance": 10**400},
            # negative sizes, repeated widths and values of the wrong type
            {"k": -1},
            {"test_grid": -1},
            {"widths": (2, 2)},
            {"seed": "0"},
            {"activation": 1},
            {"n_hidden_layers": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "old",
        [
            # the kernel method follows from the activation, and the data
            # always come from sin(2 pi x) on [-1, 1]: older configs naming
            # any of these fields are refused, not read with the field ignored
            {"reference_fn": "cubic"},
            {"domain": [-1, 1]},
            {"activation": "relu", "kernel_method": "analytic_erf"},
            {"activation": "erf", "kernel_method": "analytic_relu"},
            {"kernel_method": "bogus"},
            {"kernel_method": "monte_carlo", "activation": "tanh"},
            # the MCMC schedule's thinning and steps per sigma2 draw are
            # GibbsConfig's defaults, and every width's W1 takes W1_REPS
            # repetitions
            {"thinning": 1},
            {"hmc_steps": 5},
            {"n_reps": 10},
        ],
    )
    def test_configs_naming_dropped_fields_rejected(self, old):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_dict(old)

    def test_hash_sensitive_to_every_field(self):
        base = ExperimentConfig()
        assert base.hash() == ExperimentConfig().hash()
        tweaked = [
            ExperimentConfig(seed=1),
            ExperimentConfig(a=3.5),
            ExperimentConfig(draws=101),
            ExperimentConfig(activation="tanh"),
        ]
        hashes = {base.hash()} | {c.hash() for c in tweaked}
        assert len(hashes) == 1 + len(tweaked)

    def test_equal_configs_hash_equally(self):
        # an integer given for a float field is stored as that float, so a
        # JSON 2 and 2.0 key the same outputs
        assert ExperimentConfig(a=3) == ExperimentConfig(a=3.0)
        assert ExperimentConfig(a=3).hash() == ExperimentConfig(a=3.0).hash()
        cfg = ExperimentConfig.from_dict({"weight_variance": 2})
        assert type(cfg.weight_variance) is float
        assert cfg.to_dict() == ExperimentConfig(weight_variance=2.0).to_dict()

    def test_dataset_shapes_and_determinism(self):
        cfg = ExperimentConfig(k=5, seed=3)
        d1, d2 = cfg.make_dataset(), cfg.make_dataset()
        assert d1.x.shape == (1, 5) and d1.y.shape == (1, 5)
        np.testing.assert_array_equal(d1.y, d2.y)
        assert ExperimentConfig(k=0).make_dataset().k == 0

    def test_subgrid_is_within_test_grid(self):
        cfg = ExperimentConfig(test_grid=64, w1_grid=5)
        idx = cfg.w1_subgrid_idx()
        assert len(idx) == 5
        assert idx[0] == 0 and idx[-1] == 63
        assert ExperimentConfig(w1_grid=0).w1_subgrid_idx().size == 0


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        w = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        assert math.isclose(fit_loglog_slope(w, w**-0.5), -0.5, abs_tol=1e-12)

    def test_needs_four_positive_points(self):
        assert fit_loglog_slope([1, 2, 4], [1.0, 0.5, 0.25]) is None
        assert fit_loglog_slope([1, 2, 4, 8], [1.0, 0.5, 0.0, 0.0]) is None


class TestRunners:
    def test_prior_convergence_report_fields(self):
        cfg = ExperimentConfig(**FAST)
        rep = run_prior_convergence(cfg)
        assert rep.widths == [1, 2]
        assert len(rep.w1) == 2 and len(rep.w1_reps[0]) == experiments.W1_REPS
        assert all(lo <= v <= hi for v, lo, hi in zip(rep.w1, rep.w1_lo, rep.w1_hi))
        assert all(v > 0 for v in rep.w1)
        assert rep.slope is None  # only two widths
        assert rep.config == cfg

    def test_prior_convergence_reads_only_the_w1_subgrid(self):
        # both subgrids are the points -1 and 1; the other 62 grid points
        # change neither the W1 nor the sliced W1
        on_grid, alone = (run_prior_convergence(ExperimentConfig(**{**FAST, "test_grid": m,
                                                                    "w1_grid": 2}))
                          for m in (64, 2))
        assert np.array_equal(on_grid.w1_reps, alone.w1_reps)
        assert np.array_equal(on_grid.sliced, alone.sliced)

    def test_prior_convergence_deterministic(self):
        cfg = ExperimentConfig(**FAST)
        assert run_prior_convergence(cfg).w1 == run_prior_convergence(cfg).w1

    def test_posterior_convergence_smoke(self):
        cfg = ExperimentConfig(**FAST)
        rep = run_posterior_convergence(cfg)
        assert len(rep.w1) == 2 and all(v > 0 for v in rep.w1)
        assert rep.constraint is not None

    def test_gaussian_baseline_smoke(self):
        cfg = ExperimentConfig(**FAST)
        rep = run_gaussian_baseline(cfg)
        assert len(rep.w1) == 2 and all(v > 0 for v in rep.w1)

    def test_comparison_bands_ordered_and_t_wider(self):
        cfg = ExperimentConfig(k=4, test_grid=16)
        rep = run_comparison(cfg)
        assert len(rep.grid) == 16
        for tb, gb in zip(rep.tp_bands, rep.gp_bands):
            assert tb[0] < tb[1] < tb[2]
            assert gb[0] < gb[1] < gb[2]

    def test_comparison_empty_grid(self):
        rep = run_comparison(ExperimentConfig(k=3, test_grid=0, w1_grid=0))
        assert rep.grid.shape == (0,) and rep.tp_bands.shape == (0, 3)
        assert rep.gp_bands.shape == (0, 3)

    @pytest.mark.parametrize(
        "runner", [run_prior_convergence, run_posterior_convergence, run_gaussian_baseline]
    )
    def test_report_derives_its_summaries_from_the_repetitions(self, runner):
        rep = runner(ExperimentConfig(**FAST))
        assert rep.w1 == [float(np.mean(r)) for r in rep.w1_reps]
        assert rep.w1_lo == [float(np.min(r)) for r in rep.w1_reps]
        assert rep.w1_hi == [float(np.max(r)) for r in rep.w1_reps]
        assert rep.slope == fit_loglog_slope(rep.widths, rep.w1)

    def test_report_takes_no_derived_values(self):
        meta = dict(config=ExperimentConfig(), runtime_s=0.0)
        reps = [[w**-0.5, 2 * w**-0.5] for w in (1, 2, 4, 8)]
        rep = ConvergenceReport(widths=[1, 2, 4, 8], w1_reps=reps, sliced=[0.0] * 4, **meta)
        assert rep.w1_lo == [r[0] for r in reps] and rep.w1_hi == [r[1] for r in reps]
        assert rep.slope == pytest.approx(-0.5, abs=1e-12)
        for derived in ("w1", "w1_lo", "w1_hi", "slope"):
            with pytest.raises(TypeError):
                ConvergenceReport(widths=[1], w1_reps=[[0.5]], sliced=[0.1],
                                  **{derived: [0.5]}, **meta)

    def test_width_jobs_in_a_process_pool_match_serial(self):
        cfg = ExperimentConfig(**FAST)
        for runner in (run_posterior_convergence, run_gaussian_baseline):
            pooled, serial = runner(cfg, jobs=2), runner(cfg, jobs=1)
            assert np.array_equal(pooled.w1_reps, serial.w1_reps)
            assert np.array_equal(pooled.sliced, serial.sliced)


class TestPosteriorDraws:
    """Every finite-width chain of a sweep is made by posterior_draws."""

    @pytest.mark.parametrize("runner, used, unused", [
        (run_posterior_convergence, "gibbs_run", "gibbs_run_fixed_variance"),
        (run_gaussian_baseline, "gibbs_run_fixed_variance", "gibbs_run"),
    ])
    def test_one_chain_per_width_through_the_module_attribute(self, monkeypatch, runner,
                                                              used, unused):
        # a benchmark captures each width's draws by patching these two attributes
        seen = {used: [], unused: []}
        for name, widths in seen.items():
            def counted(arch, *args, _real=getattr(experiments, name), _widths=widths):
                _widths.append(arch.widths[1])
                return _real(arch, *args)

            monkeypatch.setattr(experiments, name, counted)
        cfg = ExperimentConfig(**FAST)
        runner(cfg)
        assert seen == {used: list(cfg.widths), unused: []}

    @pytest.mark.parametrize("runner, used, unused", [
        (run_posterior_convergence, "sample_mvt", "sample_mvn"),
        (run_gaussian_baseline, "sample_mvn", "sample_mvt"),
    ])
    def test_limit_draws_follow_the_limit_through_the_module_attribute(
            self, monkeypatch, runner, used, unused):
        # the one width job reads the model from its limit; a benchmark times
        # the limit draws by patching these two attributes
        calls = {used: 0, unused: 0}
        for name in calls:
            def counted(*args, _real=getattr(experiments, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        cfg = ExperimentConfig(**FAST)
        runner(cfg)
        assert calls == {used: experiments.W1_REPS * len(cfg.widths), unused: 0}

    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("width", [1, 3])
    def test_draws_equal_the_chain_at_its_seed(self, gaussian, width):
        # the seed is sha256 of "seed:width:1" (hierarchical) or ":3" (Gaussian)
        cfg = ExperimentConfig(**FAST, seed=5)
        h = hashlib.sha256(f"5:{width}:{3 if gaussian else 1}".encode()).digest()
        gcfg = GibbsConfig(n_samples=cfg.draws, burn_in=cfg.burn_in,
                           seed=int.from_bytes(h[:8], "little") >> 1)
        args = (cfg.architecture(width), cfg.variances())
        data, grid = cfg.make_dataset(), cfg.make_test_grid()
        direct = (gibbs_run_fixed_variance(*args, cfg.noise_var, data, grid, gcfg) if gaussian
                  else gibbs_run(*args, cfg.a, cfg.b, data, grid, gcfg))
        got = posterior_draws(cfg, width, gaussian)
        assert np.array_equal(got.evals, direct.evals)
        assert np.array_equal(got.sigma2, direct.sigma2)


class TestPriorThreads:
    """The prior sweep runs its repetitions on threads."""

    def test_thread_count_does_not_change_the_draws(self, monkeypatch):
        # 10 repetitions on this host's threads, on 3 and on 1
        cfg = ExperimentConfig(**{**FAST, "widths": (8, 128), "draws": 40})
        reports = []
        for cpus in (None, 3, 1):  # None: this host's CPUs
            if cpus is not None:
                monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)
                assert experiments._prior_threads() == cpus
            reports.append(run_prior_convergence(cfg))
        for other in reports[1:]:
            assert np.array_equal(reports[0].w1, other.w1)
            assert np.array_equal(reports[0].w1_reps, other.w1_reps)
            assert np.array_equal(reports[0].sliced, other.sliced)

    def test_memory_does_not_grow_with_draws_times_params(self):
        # All 200 width-128 draws of the pinned config hold 51 MiB of parameters.
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "prior_convergence.json")
        with open(path) as f:
            cfg = ExperimentConfig.from_dict({**json.load(f), "widths": [128]})
        tracemalloc.start()
        try:
            run_prior_convergence(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _count_recursions(monkeypatch) -> list:
    """A list that gets one entry per kernels._recursion call from now on."""
    builds = []

    def counted(*args, _fn=kernels._recursion, **kwargs):
        builds.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(kernels, "_recursion", counted)
    return builds


class TestLimitBuiltOnce:
    """The limit does not depend on width, so each run makes one kernel
    recursion: its E feeds every limit kernel and the (a, b) check."""

    @pytest.mark.parametrize("runner, expected", [
        (run_prior_convergence, 1),  # through kernel_recursion over the grid
        (run_posterior_convergence, 1),
        (run_gaussian_baseline, 1),
        (run_comparison, 1),
        (run_bound_diagnostics, 0),
    ])
    def test_kernel_builds_per_run(self, monkeypatch, runner, expected):
        builds = _count_recursions(monkeypatch)
        runner(ExperimentConfig(**FAST))
        assert len(builds) == expected


class TestLimitKernelsFactor:
    """The stored limit kernels of the 1024-point band grid have a Cholesky factor."""

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_band_grid_kernels_factor(self, rescaled):
        cfg = _band_config(test_grid=1024)
        e = experiments._limit_e(cfg, cfg.make_dataset(), cfg.make_test_grid())
        k = kernels.KernelMatrix(e + 1.0 if rescaled else kernels._affine(
            e, cfg.weight_variance, cfg.bias_variance), cfg.k)
        assert k.values.shape[0] == 1032
        np.linalg.cholesky(k.values)


def _band_config(**overrides) -> ExperimentConfig:
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "posterior_convergence.json")
    with open(path) as f:
        return ExperimentConfig.from_dict({**json.load(f), **overrides})


class TestComparisonSharedBuild:
    """run_comparison builds K' and K from one recursion, with unchanged bands."""

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(**FAST),
        ExperimentConfig(**{**FAST, "k": 0}),
        _band_config(test_grid=1024),
    ], ids=["fast", "no-data", "band-grid"])
    def test_bands_match_separate_limits(self, cfg):
        # the public path perfbench checks against: each limit kernel from its
        # own recursion over train + grid, then each posterior
        from scipy import special

        data = cfg.make_dataset()
        x = np.concatenate([data.x, cfg.make_test_grid()], axis=1)
        args = (cfg.architecture(1), cfg.variances(), x)
        kw = dict(method=cfg.kernel_method, n_train=data.k)
        tp = tp_posterior_predict(rescaled_kernel(*args, **kw), data.y, cfg.a, cfg.b)
        k = kernel_recursion(*args, **kw)
        gp = gp_posterior(k.train, k.cross, k.test, data.y, cfg.noise_var)
        qs = (0.025, 0.5, 0.975)
        t_sd = np.sqrt(np.clip(np.diag(tp.scale), 0.0, None))
        g_sd = np.sqrt(np.clip(np.diag(gp.cov), 0.0, None))
        rep = run_comparison(cfg)
        assert np.array_equal(
            rep.tp_bands, tp.location[:, None] + t_sd[:, None] * special.stdtrit(tp.nu, qs))
        assert np.array_equal(
            rep.gp_bands, gp.mean[:, None] + g_sd[:, None] * special.ndtri(qs))

    def test_one_call_to_each_public_posterior(self, monkeypatch):
        calls = []
        for name in ("tp_posterior_predict", "gp_posterior"):
            def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        run_comparison(ExperimentConfig(**FAST))
        assert sorted(calls) == ["gp_posterior", "tp_posterior_predict"]

    def test_band_grid_memory_peak(self):
        # one 1032 x 1032 array is 8.1 MiB: at most five may be alive at once
        cfg = _band_config(test_grid=1024)
        tracemalloc.start()
        try:
            run_comparison(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20

    def test_band_pass_reads_only_the_scale_diagonals(self):
        # the recursion's array, K' and its certification copy and factor
        # (4 x 8.1 MiB); the t and GP scales are never copied or symmetrised
        cfg = _band_config(test_grid=1024)
        tracemalloc.start()
        try:
            run_comparison(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2**20

    @pytest.mark.parametrize("method, act", [("analytic_erf", "erf"),
                                             ("analytic_relu", "relu"),
                                             ("hermite_series", "tanh")])
    def test_recursion_memory_below_two_kernels(self, method, act):
        # the 1032 x 1032 result is 8.1 MiB; each layer's expectation runs over
        # blocks of rows written into it, not over whole-matrix temporaries
        cfg = _band_config(test_grid=1024, activation=act)
        x = np.concatenate([cfg.make_dataset().x, cfg.make_test_grid()], axis=1)
        tracemalloc.start()
        try:
            e = kernels._recursion(cfg.architecture(1), cfg.variances(), x, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * e.nbytes


class TestImportCost:
    def test_config_and_data_do_not_import_scipy_optimize(self):
        # what every CLI call runs before any experiment work starts
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from bnnlimits.cli import load_config; "
            "cfg = load_config(sys.argv[2], None); cfg.make_dataset(); cfg.make_test_grid(); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
        )
        path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "posterior_convergence.json")
        out = subprocess.run([sys.executable, "-c", code, src, path],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestBoundDiagnostics:
    def test_formulas_standard_normal_case(self):
        # sigma2 = 1, n = 1: sup = 1/sqrt(2 pi), Lipschitz = e^{-1/2}/sqrt(2 pi)
        assert math.isclose(likelihood_sup(1.0, 1), 0.3989422804014327, rel_tol=1e-12)
        assert math.isclose(
            likelihood_lipschitz(1.0, 1), 0.24197072451914337, rel_tol=1e-12
        )

    def test_numeric_maximization_matches_formulas(self):
        cfg = ExperimentConfig(k=2, test_grid=4, w1_grid=2)
        diag = run_bound_diagnostics(cfg)
        for sn, ln, (s2, n), r2 in zip(
            diag.sup_numeric,
            diag.lip_numeric,
            diag.settings,
            diag.argmax_resid2,
        ):
            sf, lf = likelihood_sup(s2, n), likelihood_lipschitz(s2, n)
            assert abs(sn - sf) <= 1e-5 * sf
            assert abs(ln - lf) <= 1e-5 * lf
            assert abs(r2 - s2) <= 1e-4


class TestDataExport:
    def test_convergence_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        rep = run_prior_convergence(cfg)
        paths = emit_figure_data(rep, str(tmp_path))
        cols = read_figure_csv(paths[0])
        assert cols["width"] == [1.0, 2.0]
        assert cols["w1"] == rep.w1
        assert cols["w1_lo"] == rep.w1_lo and cols["w1_hi"] == rep.w1_hi
        meta = json.load(open(paths[1]))
        assert meta["config_hash"] == cfg.hash()
        assert meta["config"] == cfg.to_dict() or meta["config"] == json.loads(
            json.dumps(cfg.to_dict())
        )

    def test_bands_csv_round_trip(self, tmp_path):
        rep = run_comparison(ExperimentConfig(k=3, test_grid=8))
        paths = emit_figure_data(rep, str(tmp_path))
        cols = read_figure_csv(paths[0])
        assert cols["x"] == rep.grid.tolist()
        assert cols["tp_med"] == rep.tp_bands[:, 1].tolist()

    def test_diagnostics_csv_round_trip(self, tmp_path):
        diag = run_bound_diagnostics(ExperimentConfig(k=2, test_grid=4, w1_grid=2))
        paths = emit_figure_data(diag, str(tmp_path))
        cols = read_figure_csv(paths[0])
        assert cols["sup_formula"] == [likelihood_sup(s2, n) for s2, n in diag.settings]

    def test_export_byte_identical_across_runs(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = []
        for sub in ("a", "b"):
            paths = emit_figure_data(run_prior_convergence(cfg), str(tmp_path / sub))
            out.append(open(paths[0], "rb").read())
        assert out[0] == out[1]

    def test_unsupported_report_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_figure_data({"not": "a report"}, str(tmp_path))


class TestWriter:
    """One writer: the exact CSV text of each report type, and its .meta.json."""

    META = dict(config=ExperimentConfig(seed=3), runtime_s=1.5)
    REPORTS = [
        (
            ConvergenceReport(
                widths=[1, 8], w1_reps=[[0.25, 0.75], [0.1, 0.4, 0.5]], sliced=[0.2, 0.1],
                **META,
            ),
            "w1_vs_width.csv",
            "width,w1,w1_lo,w1_hi,seed\n1,0.5,0.25,0.75,3\n8,0.3333333333333333,0.1,0.5,3\n",
        ),
        (
            ComparisonReport(
                grid=np.array([-1.0, 0.5]),
                tp_bands=np.array([(-2.0, -1.0, 0.0), (0.1, 0.2, 0.1 + 0.2)]),
                gp_bands=np.array([(-1.5, -1.0, -0.5), (0.0, 1e-300, 2.5e16)]), **META,
            ),
            "predictive_bands.csv",
            "x,tp_lo,tp_med,tp_hi,gp_lo,gp_med,gp_hi\n"
            "-1.0,-2.0,-1.0,0.0,-1.5,-1.0,-0.5\n"
            "0.5,0.1,0.2,0.30000000000000004,0.0,1e-300,2.5e+16\n",
        ),
        (
            BoundDiagnostics(
                settings=[(1.0, 1), (0.5, 3)], sup_numeric=[np.float64(0.39894228), 0.125],
                lip_numeric=[0.25, 2.0], argmax_resid2=[1.0000000001, 0.5], **META,
            ),
            "bound_diagnostics.csv",
            "sigma2,n,sup_formula,sup_numeric,lip_formula,lip_numeric,argmax_resid2\n"
            f"1.0,1,{likelihood_sup(1.0, 1)!r},0.39894228,{likelihood_lipschitz(1.0, 1)!r},"
            "0.25,1.0000000001\n"
            f"0.5,3,{likelihood_sup(0.5, 3)!r},0.125,{likelihood_lipschitz(0.5, 3)!r},2.0,0.5\n",
        ),
    ]

    @pytest.mark.parametrize("report, name, text", REPORTS)
    def test_csv_text(self, tmp_path, report, name, text):
        paths = emit_figure_data(report, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [name, name[:-4] + ".meta.json"]
        with open(paths[0]) as f:
            assert f.read() == text

    @pytest.mark.parametrize(
        "run",
        [run_prior_convergence, run_comparison, run_bound_diagnostics],
    )
    def test_meta_carries_hash_seed_and_constraint(self, tmp_path, run):
        cfg = ExperimentConfig(**{**FAST, "seed": 5})
        rep = run(cfg)
        meta = json.load(open(emit_figure_data(rep, str(tmp_path))[1]))
        assert meta["config_hash"] == cfg.hash() and meta["seed"] == 5
        if run is run_comparison:
            assert meta["constraint"] == dataclasses.asdict(rep.constraint)
            assert meta["constraint"]["op_norm"] > 0
        else:  # no Student-t limit, so no (a, b) check
            assert rep.constraint is None and meta["constraint"] is None

    @pytest.mark.parametrize(
        "run",
        [run_prior_convergence, run_comparison, run_bound_diagnostics],
    )
    def test_meta_carries_the_config_it_ran(self, tmp_path, run):
        # the report alone names its config: no caller passes it to the writer
        cfg = ExperimentConfig(**{**FAST, "seed": 7, "a": 2.5})
        rep = run(cfg)
        assert rep.config == cfg
        meta = json.load(open(emit_figure_data(rep, str(tmp_path))[1]))
        assert meta["config"] == json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(meta["config"]) == cfg
        assert meta["config_hash"] == cfg.hash() and meta["seed"] == cfg.seed


class TestCli:
    def _cfg_file(self, tmp_path, **extra):
        d = dict(FAST)
        d["widths"] = list(d["widths"])
        d.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        return str(path)

    def test_prior_convergence_exit_ok(self, tmp_path, capsys):
        rc = main(
            [
                "prior-convergence",
                "--config",
                self._cfg_file(tmp_path),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert all(os.path.exists(p) for p in printed)
        assert any(p.endswith("w1_vs_width.csv") for p in printed)

    def test_compare_and_diagnostics_exit_ok(self, tmp_path):
        cfgp = self._cfg_file(tmp_path)
        assert main(["compare", "--config", cfgp, "--out", str(tmp_path / "c")]) == EXIT_OK
        assert (
            main(["diagnostics", "--config", cfgp, "--out", str(tmp_path / "d")])
            == EXIT_OK
        )

    @pytest.mark.parametrize("command", ["compare", "gaussian-baseline"])
    def test_no_training_data_exit_ok(self, tmp_path, command):
        # with k = 0 the limit is the prior: the GP posterior has no train block
        cfgp = self._cfg_file(tmp_path, k=0, test_grid=16, w1_grid=2)
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize(
        "command",
        ["prior-convergence", "posterior-convergence", "gaussian-baseline", "compare"],
    )
    def test_empty_grid_exit_ok(self, tmp_path, command, capsys):
        # no test or W1 grid points: every limit draw has dimension zero
        cfgp = self._cfg_file(tmp_path, test_grid=0, w1_grid=0)
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == EXIT_OK
        written = capsys.readouterr().out.splitlines()
        assert written
        for path in written:
            assert "nan" not in open(path).read().lower()

    def test_seed_override(self, tmp_path):
        cfgp = self._cfg_file(tmp_path)
        for seed, sub in ((1, "s1"), (2, "s2")):
            assert (
                main(
                    [
                        "prior-convergence",
                        "--config",
                        cfgp,
                        "--seed",
                        str(seed),
                        "--out",
                        str(tmp_path / sub),
                    ]
                )
                == EXIT_OK
            )
        m1 = json.load(open(tmp_path / "s1" / "w1_vs_width.meta.json"))
        m2 = json.load(open(tmp_path / "s2" / "w1_vs_width.meta.json"))
        assert m1["seed"] == 1 and m2["seed"] == 2
        assert m1["config_hash"] != m2["config_hash"]

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"widths": [4, 2]}))
        assert main(["prior-convergence", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        path.write_text(json.dumps({"noise_var": 0}))
        assert main(["gaussian-baseline", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        path.write_text(json.dumps({"draws": 2049, "widths": [1, 2], "test_grid": 4,
                                    "w1_grid": 2, "k": 0}))
        assert main(["prior-convergence", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        path.write_text(json.dumps({"kernel_method": "bogus"}))
        assert main(["posterior-convergence", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["data_noise", "a", "b", "weight_variance"])
    def test_infinite_config_value_exit_2(self, tmp_path, capsys, field):
        # Python's json reads the non-standard literal Infinity as float("inf")
        path = tmp_path / "inf.json"
        path.write_text(f'{{"k": 3, "widths": [1], "draws": 4, "burn_in": 2, '
                        f'"test_grid": 4, "w1_grid": 2, "{field}": Infinity}}')
        argv = ["posterior-convergence", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, value", [
        ("posterior-convergence", "a", 1e-300),  # the Gamma draw underflows to 0
        ("posterior-convergence", "data_noise", 1e150),  # the sigma2 step's c'^2 overflows
        ("compare", "data_noise", 1e200),  # the t rate b + y^T (K' + I)^-1 y / 2 overflows
        # some observations are inf
        ("compare", "data_noise", 1.7e308),
        ("posterior-convergence", "data_noise", 1.7e308),
        ("gaussian-baseline", "data_noise", 1.7e308),
    ])
    def test_overflowing_config_exit_3(self, tmp_path, capsys, command, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"widths": [1, 2], "draws": 4, "burn_in": 2,
                                    "test_grid": 4, "w1_grid": 2, field: value}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # as under python -W error: an overflow is a typed failure, not a warning
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "hyperparameters", UserWarning)  # (a, b)
            rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()  # no file, so no non-finite cell

    @pytest.mark.parametrize("variances", [
        # the limit kernel is finite at these prior variances, but network
        # outputs this large overflow the chain's quadratic terms and, at
        # 3e153, the squared distances of the exact W1
        pytest.param({"weight_variance": 1e100, "bias_variance": 1e100}, id="1e+100"),
        pytest.param({"weight_variance": 3e153, "bias_variance": 3e153}, id="3e+153"),
        # at this noise the posterior is the prior; the baseline's psi is
        # divided by sqrt(noise_var) after it is formed, so a weight variance
        # whose ratio to it underflows changes nothing
        pytest.param({"noise_var": 1e308}, id="noise_var=1e+308"),
        pytest.param({"weight_variance": 1e-20, "noise_var": 1e308},
                     id="weight_variance=1e-20-noise_var=1e+308"),
        # psi / sqrt(noise_var) near 1e150: K'_D + I does not factor
        pytest.param({"noise_var": 1e-300}, id="noise_var=1e-300"),
    ])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize(
        "command",
        ["prior-convergence", "posterior-convergence", "gaussian-baseline", "compare"],
    )
    def test_extreme_finite_variances_exit_0_or_3(self, tmp_path, command, activation,
                                                  variances):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_hidden_layers": 1, "activation": activation,
                                    "widths": [1, 2], "draws": 4, "burn_in": 2,
                                    "test_grid": 4, "w1_grid": 2, **variances}))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # as under python -W error: an overflow is a typed failure, not a warning
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "hyperparameters", UserWarning)  # (a, b)
            rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_NUMERICAL)
        if rc == EXIT_NUMERICAL:
            assert not out.exists()
        else:
            rows = next(out.glob("*.csv")).read_text().splitlines()[1:]
            assert rows and all(math.isfinite(float(c)) for r in rows for c in r.split(","))

    def test_prior_convergence_reads_no_data(self, tmp_path):
        # the prior sweep neither fits nor checks the observations, so ones
        # too large for floating point change nothing it writes
        written = []
        for noise in (0.1, 1.7e308):
            out = tmp_path / f"o{noise}"
            argv = ["prior-convergence", "--config", self._cfg_file(tmp_path, data_noise=noise),
                    "--out", str(out)]
            assert main(argv) == EXIT_OK
            written.append((out / "w1_vs_width.csv").read_text())
        assert written[0] == written[1]

    def test_unreadable_and_malformed_config_exit_2(self, tmp_path):
        assert main(["compare", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
        path = tmp_path / "mal.json"
        path.write_text("{not json")
        assert main(["compare", "--config", str(path)]) == EXIT_CONFIG
        path2 = tmp_path / "list.json"
        path2.write_text("[1, 2]")
        assert main(["compare", "--config", str(path2)]) == EXIT_CONFIG
        path3 = tmp_path / "binary.json"
        path3.write_bytes(b"\xff")  # not UTF-8
        assert main(["compare", "--config", str(path3)]) == EXIT_CONFIG
        path4 = tmp_path / "deep.json"
        path4.write_text("[" * 100_000)  # nested beyond the decoder's recursion limit
        assert main(["compare", "--config", str(path4)]) == EXIT_CONFIG

    @pytest.mark.parametrize("activation, weight_variance, n_hidden_layers", [
        # each layer-1 kernel entry is finite and k11 k22 of the layer-2
        # step overflows; relu, positively homogeneous, would then scale each
        # later layer by about the weight variance
        ("relu", 1e200, 2),
        ("relu", 3e154, 2),
        ("relu", 3e154, 1),
        # erf's closed form would read the correlation as k12 / inf = 0
        ("erf", 1e200, 1),
    ])
    def test_degenerate_kernel_exit_3(self, tmp_path, capsys, activation,
                                      weight_variance, n_hidden_layers):
        cfg = self._cfg_file(
            tmp_path,
            activation=activation,
            weight_variance=weight_variance,
            n_hidden_layers=n_hidden_layers,
            test_grid=64,
            w1_grid=3,
            k=8,
        )
        for command in ("prior-convergence", "compare"):
            out = tmp_path / command
            with warnings.catch_warnings():
                # as under python -W error: an overflow is a typed failure, not a warning
                warnings.simplefilter("error")
                rc = main([command, "--config", cfg, "--out", str(out)])
            assert rc == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert "numerical failure: kernel matrix has non-finite entries at layer 2" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["prior-convergence", "posterior-convergence", "gaussian-baseline", "compare"],
    )
    def test_tanh_on_default_grid_exit_ok(self, tmp_path, command):
        # tanh has no closed form: its limit kernel over 8 training and 64
        # grid points at variances 5 is the Hermite series, which certifies
        cfgp = self._cfg_file(tmp_path, activation="tanh", k=8, test_grid=64)
        assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        argv = ["prior-convergence", "--config", self._cfg_file(tmp_path),
                "--seed", "-1", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_no_training_data_small_a_exit_ok(self, tmp_path, a):
        # k = 0 gives a' = a <= 1/2, where the sigma2 density in y has no mode
        cfgp = self._cfg_file(tmp_path, k=0, a=a, widths=[1], draws=2, burn_in=0,
                              test_grid=2, w1_grid=1)
        argv = ["posterior-convergence", "--config", cfgp, "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK

    def test_spent_rejection_budget_exit_3(self, tmp_path, monkeypatch, capsys):
        real = gibbs.sample_sigma2_conditional

        def never_accepts(p, rng, size=None):
            rng.gen = NeverAccepts(rng.gen)
            return real(p, rng, size)

        monkeypatch.setattr(gibbs, "sample_sigma2_conditional", never_accepts)
        argv = ["posterior-convergence", "--config", self._cfg_file(tmp_path),
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_NUMERICAL
        assert "rejection step accepted none" in capsys.readouterr().err

    @pytest.mark.parametrize("command, step", [
        ("gaussian-baseline", "last_layer_inputs"),
        ("posterior-convergence", "sample_sigma2_conditional"),
    ])
    def test_other_runtime_errors_propagate(self, tmp_path, monkeypatch, command, step):
        # only the typed numerical errors map to exit 3; anything else is a bug
        def broken(*args):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(gibbs, step, broken)
        argv = [command, "--config", self._cfg_file(tmp_path),
                "--out", str(tmp_path / "o")]
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            main(argv)

    def test_baseline_runs_no_nuts(self, tmp_path, monkeypatch):
        # both chains are slice sweeps: the two names the benchmark hooks on
        # gibbs are never called
        def broken(*args):
            raise AssertionError("NUTS ran")

        monkeypatch.setattr(gibbs, "nuts_transition", broken)
        monkeypatch.setattr(gibbs, "log_posterior_and_grad", broken)
        # one CPU: the widths run in this process, where the patches hold
        monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
        argv = ["gaussian-baseline", "--config", self._cfg_file(tmp_path),
                "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK

    def test_run_that_raises_leaves_no_out(self, tmp_path):
        # as under python -W error, the admissibility warning (b = 0.01) ends the
        # run: a run that does not finish, for any reason, removes the
        # directories it made
        out = tmp_path / "new" / "o"
        argv = ["posterior-convergence", "--config", self._cfg_file(tmp_path, b=0.01),
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="admissible"):
                main(argv)
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command, runner", [
        ("posterior-convergence", run_posterior_convergence),
        ("gaussian-baseline", run_gaussian_baseline),
    ])
    @pytest.mark.parametrize("cpus, pools", [(1, []), (2, [2]), (3, [2])])
    def test_mcmc_widths_run_in_one_process_per_cpu(self, tmp_path, monkeypatch, command,
                                                    runner, cpus, pools):
        # min(len(widths), CPUs) worker processes, and no pool on one CPU
        built = []

        class Recorded(experiments.ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiments, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorded)
        out = tmp_path / "o"
        argv = [command, "--config", self._cfg_file(tmp_path), "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert built == pools
        emit_figure_data(runner(ExperimentConfig(**FAST)), str(tmp_path / "serial"))
        csv = "w1_vs_width.csv"
        assert (out / csv).read_bytes() == (tmp_path / "serial" / csv).read_bytes()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exit_2_before_the_run(self, tmp_path, monkeypatch, capsys, out):
        # an existing file, or a path under one, cannot be the output directory
        (tmp_path / "file").write_text("")

        def never_runs(cfg):
            raise AssertionError("the runner ran")

        monkeypatch.setitem(cli.COMMANDS, "compare", (never_runs, False))
        argv = ["compare", "--config", self._cfg_file(tmp_path), "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_no_subcommand_takes_jobs(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2  # argparse's usage error
        assert "--jobs" in capsys.readouterr().err


class TestConstraintReporting:
    def test_constraint_logged_in_posterior_report(self):
        cfg = ExperimentConfig(**FAST)
        rep = run_posterior_convergence(cfg)
        c = rep.constraint
        assert c is not None
        assert c.op_norm > 0 and c.b_lower_bound > 0
        assert isinstance(c.ok, bool)

    def test_constraint_in_meta_json(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        rep = run_posterior_convergence(cfg)
        paths = emit_figure_data(rep, str(tmp_path))
        meta = json.load(open(paths[1]))
        assert "constraint" in meta
        assert set(meta["constraint"]) == {
            f.name for f in dataclasses.fields(type(rep.constraint))
        }

    @pytest.mark.parametrize("name, overrides", [
        ("posterior_convergence.json", {}),
        ("prior_convergence.json", {}),  # relu at depth 3
        ("gaussian_baseline.json", {}),
        ("posterior_convergence.json", {"activation": "tanh"}),
        ("posterior_convergence.json", {"activation": "relu", "n_hidden_layers": 1}),
    ], ids=["posterior", "prior", "baseline", "tanh", "relu-depth-1"])
    def test_report_from_e_equals_train_only_check(self, name, overrides):
        # E's train block has the floats of K' built on the training inputs alone
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as f:
            cfg = ExperimentConfig.from_dict({**json.load(f), **overrides})
        data = cfg.make_dataset()
        _, report = experiments._t_limit(
            cfg, data, experiments._limit_e(cfg, data, cfg.make_test_grid()))
        kp = rescaled_kernel(cfg.architecture(1), cfg.variances(), data.x,
                             method=cfg.kernel_method)
        assert report == check_hyperparams(cfg.a, cfg.b, data.y, kp)

    def test_no_report_without_training_data(self):
        cfg = ExperimentConfig(**{**FAST, "k": 0})
        data = cfg.make_dataset()
        _, report = experiments._t_limit(
            cfg, data, experiments._limit_e(cfg, data, cfg.make_test_grid()))
        assert report is None and run_comparison(cfg).constraint is None

    def test_constraint_violation_warns_but_runs(self, monkeypatch):
        # b = 0.01 is far below the admissible bound for this dataset: one
        # warning per run, and no kernel beyond the run's own one
        builds = _count_recursions(monkeypatch)
        cfg = ExperimentConfig(**{**FAST, "b": 0.01})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = run_posterior_convergence(cfg)
        user = [w for w in caught if issubclass(w.category, UserWarning)]
        assert len(user) == 1
        assert "admissible" in str(user[0].message)
        assert str(user[0].message).endswith("(run proceeds)")
        assert user[0].filename == __file__  # the runner's caller
        assert not rep.constraint.ok
        assert len(rep.w1) == 2
        # one E for the admissibility check and the Student-t limit
        assert len(builds) == 1
