"""Simulation engine: determinism, draw correctness, and aggregation."""

import dataclasses
import math

import numpy as np
import pytest

from meanerr import simulate
from meanerr.cli import simulation_table
from meanerr.estimators import (
    Estimator,
    EvaluationError,
    ExpBracket,
    PowerExpBracket,
    evaluate,
)
from meanerr.moments import PopulationParams
from meanerr.simulate import (
    AllReplicatesSkippedError,
    ConfigError,
    ErrorLaw,
    SimulationConfig,
    SimulationResult,
    _BLOCK,
    _aggregate_spec,
    _replicate_means,
    _seek_substream,
    _standardized_errors,
    _substream,
    draw_replicate,
    run_monte_carlo,
)
from meanerr.theory import theory_mse

SEED = 20260817
EXP_RATIO = Estimator(bracket=ExpBracket())


@pytest.fixture
def config(table_params):
    return SimulationConfig(params=table_params, replicates=100, seed=SEED)


def replay_truth(params, seed, index, n):
    """Independent reconstruction of the truth block of one substream."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=index << 128))
    z = rng.standard_normal(2 * n)
    y = params.mu_y + math.sqrt(params.sigma_y2) * z[:n]
    x = params.mu_x + math.sqrt(params.sigma_x2) * (
        params.rho * z[:n] + math.sqrt(1.0 - params.rho**2) * z[n:])
    return y, x


class TestConfigValidation:
    def test_accepts_valid(self, table_params):
        cfg = SimulationConfig(params=dataclasses.replace(table_params, n=2),
                               replicates=100, seed=2**64 - 1)
        assert cfg.params.n == 2

    @pytest.mark.parametrize("kwargs", [
        {"replicates": 99},
        {"replicates": 100.0},
        {"replicates": True},
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 1.5},
        {"error_law": "gaussian"},
        {"error_law": ErrorLaw.STUDENT_T},                    # df missing
        {"error_law": ErrorLaw.STUDENT_T, "error_df": 4},     # var of e^2 infinite
        {"error_law": ErrorLaw.STUDENT_T, "error_df": math.inf},
        {"error_law": ErrorLaw.STUDENT_T, "error_df": True},
        {"error_df": 6.0},                                    # df without the law
    ])
    def test_rejections(self, table_params, kwargs):
        base = dict(params=table_params, replicates=100, seed=SEED)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SimulationConfig(**base)

    def test_rejects_non_params(self):
        with pytest.raises(ConfigError):
            SimulationConfig(params={"n": 10}, replicates=100, seed=SEED)

    def test_student_t_accepts_valid_df(self, table_params):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=ErrorLaw.STUDENT_T, error_df=6.0)
        assert cfg.error_df == 6.0


class TestDrawReplicate:
    def test_deterministic_in_seed_and_index(self, config):
        a = draw_replicate(config, 5)
        b = draw_replicate(config, 5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)

    def test_distinct_indices_differ(self, config):
        a = draw_replicate(config, 0)
        b = draw_replicate(config, 1)
        assert not np.array_equal(a.y, b.y)

    def test_distinct_seeds_differ(self, config):
        other = dataclasses.replace(config, seed=SEED + 1)
        assert not np.array_equal(draw_replicate(config, 0).y,
                                  draw_replicate(other, 0).y)

    def test_sample_n_override(self, config):
        assert len(draw_replicate(config, 0)) == 10
        wide = dataclasses.replace(
            config, params=dataclasses.replace(config.params, n=37))
        assert len(draw_replicate(wide, 0)) == 37

    @pytest.mark.parametrize("index", [-1, 2**64, 3.0, True])
    def test_rejects_bad_index(self, config, index):
        with pytest.raises(ConfigError):
            draw_replicate(config, index)

    def test_zero_error_variances_reproduce_truth(self, table_params):
        params = dataclasses.replace(table_params, sigma_u2=0.0, sigma_v2=0.0)
        cfg = SimulationConfig(params=params, replicates=100, seed=SEED)
        sample = draw_replicate(cfg, 3)
        y_true, x_true = replay_truth(params, SEED, 3, params.n)
        assert np.array_equal(sample.y, y_true)
        assert np.array_equal(sample.x, x_true)

    def test_truth_block_invariant_to_error_law(self, table_params):
        # the error variates are drawn after the truth block, so at zero
        # error variance every law yields the identical sample
        params = dataclasses.replace(table_params, sigma_u2=0.0, sigma_v2=0.0)
        base = dict(params=params, replicates=100, seed=SEED)
        gauss = SimulationConfig(**base)
        unif = SimulationConfig(**base, error_law=ErrorLaw.UNIFORM)
        t = SimulationConfig(**base, error_law=ErrorLaw.STUDENT_T, error_df=8.0)
        for index in (0, 7):
            ref = draw_replicate(gauss, index)
            for cfg in (unif, t):
                got = draw_replicate(cfg, index)
                assert np.array_equal(got.y, ref.y)
                assert np.array_equal(got.x, ref.x)

    def test_pooled_moments_match_population(self, table_params):
        # law-of-large-numbers oracle over 10^6 pooled observations
        cfg = SimulationConfig(
            params=dataclasses.replace(table_params, n=200),
            replicates=5000, seed=SEED)
        ys, xs = [], []
        for i in range(cfg.replicates):
            sample = draw_replicate(cfg, i)
            ys.append(sample.y)
            xs.append(sample.x)
        y = np.concatenate(ys)
        x = np.concatenate(xs)
        p = table_params
        assert y.mean() == pytest.approx(p.mu_y, rel=0.01)
        assert x.mean() == pytest.approx(p.mu_x, rel=0.01)
        assert y.var() == pytest.approx(p.sigma_y2 + p.sigma_u2, rel=0.01)
        assert x.var() == pytest.approx(p.sigma_x2 + p.sigma_v2, rel=0.01)
        # errors are independent of the truth, so the observed covariance
        # still targets rho sigma_y sigma_x
        cov = np.mean((y - y.mean()) * (x - x.mean()))
        assert cov == pytest.approx(
            p.rho * math.sqrt(p.sigma_y2 * p.sigma_x2), rel=0.01)


def replay_observed(config, index):
    """Independent reconstruction of one replicate's observed sample: a
    fresh substream and the per-replicate arithmetic, one replicate at a
    time."""
    p = config.params
    n = p.n
    rng = np.random.Generator(
        np.random.Philox(key=config.seed, counter=index << 128))
    z = rng.standard_normal(2 * n)
    y_true = p.mu_y + math.sqrt(p.sigma_y2) * z[:n]
    x_true = p.mu_x + math.sqrt(p.sigma_x2) * (
        p.rho * z[:n] + math.sqrt(1.0 - p.rho * p.rho) * z[n:])
    if config.error_law is ErrorLaw.GAUSSIAN:
        e = rng.standard_normal(2 * n)
    elif config.error_law is ErrorLaw.UNIFORM:
        e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), 2 * n)
    else:
        df = config.error_df
        e = rng.standard_t(df, 2 * n) * math.sqrt((df - 2.0) / df)
    y = y_true + math.sqrt(p.sigma_u2) * e[:n]
    x = x_true + math.sqrt(p.sigma_v2) * e[n:]
    return y, x


# replicate counts around block boundaries; a config needs >= 100
_FULL_BLOCKS = -(-100 // _BLOCK)
KERNEL_REPLICATES = (100, _FULL_BLOCKS * _BLOCK - 1, _FULL_BLOCKS * _BLOCK,
                     _FULL_BLOCKS * _BLOCK + 1, 1001)
KERNEL_SEEDS = (0, 2**63 + 5, 2**64 - 1)
KERNEL_LAWS = (
    dict(error_law=ErrorLaw.GAUSSIAN),
    dict(error_law=ErrorLaw.UNIFORM),
    dict(error_law=ErrorLaw.STUDENT_T, error_df=6.0),
)


class TestBlockKernel:
    """The blocked engine against one-replicate-at-a-time references."""

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("index", [0, 1, _BLOCK - 1, _BLOCK, 2**64 - 1])
    def test_seek_matches_fresh_substream(self, seed, index):
        rng = _substream(seed, 12345)
        rng.standard_normal(7)  # leave the buffer and counter mid-stream
        _seek_substream(rng.bit_generator, seed, index)
        got = rng.bit_generator.state
        want = _substream(seed, index).bit_generator.state
        assert got.keys() == want.keys()
        for key in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert got[key] == want[key]
        assert np.array_equal(got["buffer"], want["buffer"])
        for key in ("counter", "key"):
            assert np.array_equal(got["state"][key], want["state"][key])
        assert np.array_equal(rng.standard_normal(9),
                              _substream(seed, index).standard_normal(9))

    @pytest.mark.parametrize(
        "law", KERNEL_LAWS, ids=[law["error_law"].value for law in KERNEL_LAWS])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("n", [2, 10, 200])
    def test_means_match_per_replicate_draws(self, table_params, n, seed,
                                             law):
        reps = max(KERNEL_REPLICATES)
        base = SimulationConfig(
            params=dataclasses.replace(table_params, n=n), replicates=reps,
            seed=seed, **law)
        samples = [draw_replicate(base, i) for i in range(reps)]
        ref_y = np.array([sample.y.mean() for sample in samples])
        ref_x = np.array([sample.x.mean() for sample in samples])
        replayed = [replay_observed(base, i) for i in range(reps)]
        for sample, (y, x) in zip(samples, replayed):
            assert np.array_equal(sample.y, y)
            assert np.array_equal(sample.x, x)
        for count in KERNEL_REPLICATES:
            cfg = dataclasses.replace(base, replicates=count)
            ybars, xbars = _replicate_means(cfg)
            assert np.array_equal(ybars, ref_y[:count])
            assert np.array_equal(xbars, ref_x[:count])

    def test_non_finite_sample_raises(self, config, monkeypatch):
        def poisoned(rng, cfg, size):
            e = rng.standard_normal(size)
            e[-1] = np.nan
            return e

        monkeypatch.setattr(simulate, "_standardized_errors", poisoned)
        message = "sample values must be finite"
        with pytest.raises(EvaluationError, match=message):
            run_monte_carlo(config, [Estimator()])
        with pytest.raises(EvaluationError, match=message):
            draw_replicate(config, 0)


class TestErrorLaws:
    @pytest.mark.parametrize("law,df", [
        (ErrorLaw.GAUSSIAN, None),
        (ErrorLaw.UNIFORM, None),
        (ErrorLaw.STUDENT_T, 6.0),
    ])
    def test_standardized_to_unit_variance(self, table_params, law, df):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=law, error_df=df)
        rng = _substream(SEED, 0)
        e = _standardized_errors(rng, cfg, 10**6)
        assert e.mean() == pytest.approx(0.0, abs=0.01)
        assert e.var() == pytest.approx(1.0, abs=0.02)

    def test_uniform_support_bound(self, table_params):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=ErrorLaw.UNIFORM)
        e = _standardized_errors(_substream(SEED, 0), cfg, 10**5)
        assert np.abs(e).max() <= math.sqrt(3.0)


class TestRunMonteCarlo:
    def test_deterministic(self, config):
        specs = [Estimator(), EXP_RATIO]
        assert run_monte_carlo(config, specs) == run_monte_carlo(config, specs)

    def test_weighted_identity_matches_mean_per_unit(self, config):
        # at weights (1, 0) the estimator is ybar itself
        (row,) = run_monte_carlo(config, [Estimator(1.0, 0.0)])
        ybars, _ = _replicate_means(config)
        deviations = (ybars - config.params.mu_y).tolist()
        assert row.empirical_bias == math.fsum(deviations) / ybars.size
        assert row.empirical_mse == math.fsum(
            d * d for d in deviations) / ybars.size
        assert row.replicates_used == ybars.size

    def test_engine_matches_scalar_evaluation(self, config):
        # the vectorized engine path and the strict scalar evaluator must
        # produce the same replicate values bit for bit
        cfg = dataclasses.replace(config, replicates=120)
        spec = EXP_RATIO
        (row,) = run_monte_carlo(cfg, [spec])
        values = [evaluate(spec, draw_replicate(cfg, i), cfg.params.mu_x)
                  for i in range(cfg.replicates)]
        deviations = [t - cfg.params.mu_y for t in values]
        assert row.replicates_used == cfg.replicates
        assert row.empirical_bias == math.fsum(deviations) / cfg.replicates
        assert row.empirical_mse == math.fsum(
            d * d for d in deviations) / cfg.replicates

    def test_no_skips_in_benchmark_scenario(self, config):
        cfg = dataclasses.replace(config, replicates=200)
        specs = [Estimator(), EXP_RATIO, Estimator(1.0, 0.6),
                 Estimator(bracket=PowerExpBracket(1.0, 1.0)),
                 Estimator(1.0, 0.2, PowerExpBracket(0.0, 1.0))]
        for row in run_monte_carlo(cfg, specs):
            assert row.replicates_skipped == 0
            assert row.replicates_used == cfg.replicates

    def test_skip_accounting_with_reachable_hazard(self):
        # n = 2 with sigma_x ~ 5 mu_x puts xbar <= 0 in play, which is a
        # hazard for a fractional power; the mean per unit sees every
        # replicate regardless
        params = PopulationParams(n=2, mu_y=1.0, mu_x=1.0, sigma_y2=1.0,
                                  sigma_x2=25.0, rho=0.0,
                                  sigma_u2=0.0, sigma_v2=0.0)
        cfg = SimulationConfig(params=params, replicates=400, seed=SEED)
        hazardous = Estimator(bracket=PowerExpBracket(0.5, 0.0))
        mean_row, hazard_row = run_monte_carlo(cfg, [Estimator(), hazardous])
        assert mean_row.replicates_skipped == 0
        assert 0 < hazard_row.replicates_skipped < cfg.replicates
        assert (hazard_row.replicates_used + hazard_row.replicates_skipped
                == cfg.replicates)
        assert math.isfinite(hazard_row.empirical_mse)

    def test_theory_column_uses_effective_sample_size(self, config):
        params = dataclasses.replace(config.params, n=50)
        cfg = dataclasses.replace(config, params=params)
        (row,) = run_monte_carlo(cfg, [EXP_RATIO])
        assert row.theory_mse == theory_mse(EXP_RATIO, params)

    def test_mean_per_unit_matches_exact_theory(self, table_params):
        # the variance formula is exact for ybar, so the empirical MSE is a
        # direct draw-quality check; 4 standard errors keeps noise failures
        # out of routine runs
        cfg = SimulationConfig(params=table_params, replicates=20_000,
                               seed=SEED)
        (row,) = run_monte_carlo(cfg, [Estimator()])
        assert row.replicates_skipped == 0
        assert abs(row.empirical_mse - row.theory_mse) <= 4.0 * row.mc_se_mse

    def test_empty_spec_list(self, config):
        assert run_monte_carlo(config, []) == []


class TestMseVarianceSum:
    """The vectorised sum of squared deviations of the squared errors in
    ``_aggregate_spec`` against the scalar form it replaced,
    ``math.fsum((s - mse) ** 2 for s in squares)``. A numpy float's scalar
    ``** 2`` squares through libm pow, as float_power does; the array
    ``** 2`` and np.square multiply, and differ in the last bit on about
    one element in 1300."""

    def test_float_power_matches_scalar_square(self):
        rng = np.random.default_rng(20261018)
        for trial in range(1000):
            size = int(rng.integers(2, 1002))
            deviations = rng.standard_normal(size) * rng.uniform(0.1, 100.0)
            squares = deviations * deviations
            mse = math.fsum(squares.tolist()) / size
            scalar = [(s - mse) ** 2 for s in squares]
            assert np.float_power(squares - mse, 2.0).tolist() == scalar, trial

    def test_aggregate_matches_scalar_reference(self):
        # short arrays, where one term off by an ulp often moves the sum
        rng = np.random.default_rng(20261019)
        mu_y = 127.0
        for trial in range(3000):
            size = int(rng.integers(2, 13))
            ybars = mu_y + rng.standard_normal(size) * rng.uniform(0.1, 100.0)
            result = _aggregate_spec(Estimator(), ybars, ybars, mu_y=mu_y,
                                     mu_x=170.0, theory=1.0)
            squares = (ybars - mu_y) * (ybars - mu_y)
            mse = math.fsum(squares) / size
            sq_var = math.fsum((s - mse) ** 2 for s in squares) / (size - 1)
            assert result.empirical_mse == mse, trial
            assert result.mc_se_mse == math.sqrt(sq_var / size), trial


class TestSimulationResult:
    def test_mc_se_bias_recovers_replicate_variance(self):
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=0.5, empirical_mse=1.0,
            mc_se_mse=0.1, replicates_used=100, replicates_skipped=0,
            theory_mse=1.0)
        var = (1.0 - 0.25) * 100 / 99
        assert result.mc_se_bias == pytest.approx(math.sqrt(var / 100))

    def test_mc_se_bias_undefined_for_single_replicate(self):
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=0.0, empirical_mse=0.0,
            mc_se_mse=math.nan, replicates_used=1, replicates_skipped=99,
            theory_mse=1.0)
        assert math.isnan(result.mc_se_bias)


class TestAllReplicatesSkipped:
    def test_raised_at_aggregation_seam(self):
        # unreachable through a valid config (the all-skip probability is
        # astronomically small at replicates >= 100), so the contract is
        # pinned directly at the aggregation step
        xbars = np.full(5, -170.0)
        ybars = np.ones(5)
        with pytest.raises(AllReplicatesSkippedError):
            _aggregate_spec(EXP_RATIO, ybars, xbars, mu_y=127.0, mu_x=170.0,
                            theory=1.0)


class TestConvergenceSweep:
    """The empirical-vs-theory gap across sample sizes, taken as
    ``meanerr simulate --n N`` takes it: one run per n, each on the
    scenario with ``params.n`` replaced."""

    @staticmethod
    def at_n(config, n):
        return dataclasses.replace(
            config, params=dataclasses.replace(config.params, n=n))

    def test_single_point_grid(self, config):
        table, _ = simulation_table(self.at_n(config, 10))
        row = next(r for r in table.rows if r["estimator"] == "exp_ratio")
        assert row["relative_gap"] == abs(
            row["empirical_mse"] - row["theory_mse"]) / row["theory_mse"]

    def test_exact_theory_gap_stays_small(self, table_params):
        # for the mean per unit the theory is exact at every n, so the gap
        # is pure Monte Carlo noise (about sqrt(2/replicates) relative)
        cfg = SimulationConfig(params=table_params, replicates=2000, seed=SEED)
        for n in (5, 20, 80):
            (row,) = run_monte_carlo(self.at_n(cfg, n), [Estimator()])
            gap = abs(row.empirical_mse - row.theory_mse) / row.theory_mse
            assert gap < 0.15, n

    def test_theory_column_decreases_in_n(self, config):
        theories = [run_monte_carlo(self.at_n(config, n), [EXP_RATIO])[0]
                    .theory_mse for n in (10, 40, 160)]
        assert all(a > b for a, b in zip(theories, theories[1:])), theories
