"""Simulation engine: determinism, draw correctness, and aggregation."""

import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from meanerr import simulate
from meanerr.cli import simulation_table
from meanerr.estimators import (
    Estimator,
    ExpBracket,
    PowerExpBracket,
    evaluate_at_means,
)
from meanerr.moments import PopulationParams, derive_moments
from meanerr.simulate import (
    ConfigError,
    ErrorLaw,
    SimulationConfig,
    SimulationResult,
    _aggregate,
    _block_rows,
    _replicate_means,
    _row_filler,
    _substream,
    _substream_state,
    draw_replicate,
    run_monte_carlo,
)
from meanerr.theory import mse_quadratic, row_plan

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
        {"replicates": 2**60},                    # means numpy cannot index
        {"replicates": 2**64},
    ])
    def test_rejections(self, table_params, kwargs):
        base = dict(params=table_params, replicates=100, seed=SEED)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SimulationConfig(**base)

    def test_replicate_bound_is_numpy_index_bound(self):
        # the bound is written without numpy, which the module does not
        # load at import; it must stay the numpy allocation bound
        assert simulate._MAX_REPLICATES == np.iinfo(np.intp).max // 8

    def test_n_bound_is_one_block_shape_bound(self, table_params):
        # one replicate's block is 4n float64 values, 32n bytes, and numpy
        # shapes no array of more than np.intp's max bytes
        limit = simulate._MAX_N
        assert limit == np.iinfo(np.intp).max // 32
        SimulationConfig(params=dataclasses.replace(table_params, n=limit),
                         replicates=100, seed=SEED)
        with pytest.raises(ConfigError) as excinfo:
            SimulationConfig(
                params=dataclasses.replace(table_params, n=limit + 1),
                replicates=100, seed=SEED)
        assert str(excinfo.value) == (
            f"n must be <= {limit} to draw one replicate's 4n values, got "
            f"{limit + 1}")

    def test_rejects_non_params(self):
        with pytest.raises(ConfigError):
            SimulationConfig(params={"n": 10}, replicates=100, seed=SEED)

    def test_student_t_accepts_valid_df(self, table_params):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=ErrorLaw.STUDENT_T, error_df=6.0)
        assert cfg.error_df == 6.0


class TestDrawReplicate:
    def test_deterministic_in_seed_and_index(self, config):
        a_y, a_x = draw_replicate(config, 5)
        b_y, b_x = draw_replicate(config, 5)
        assert np.array_equal(a_y, b_y)
        assert np.array_equal(a_x, b_x)

    def test_distinct_indices_differ(self, config):
        a_y, _ = draw_replicate(config, 0)
        b_y, _ = draw_replicate(config, 1)
        assert not np.array_equal(a_y, b_y)

    def test_distinct_seeds_differ(self, config):
        other = dataclasses.replace(config, seed=SEED + 1)
        assert not np.array_equal(draw_replicate(config, 0)[0],
                                  draw_replicate(other, 0)[0])

    def test_sample_n_override(self, config):
        y, x = draw_replicate(config, 0)
        assert y.shape == x.shape == (10,)
        wide = dataclasses.replace(
            config, params=dataclasses.replace(config.params, n=37))
        y, x = draw_replicate(wide, 0)
        assert y.shape == x.shape == (37,)

    @pytest.mark.parametrize("index", [-1, 2**64, 3.0, True])
    def test_rejects_bad_index(self, config, index):
        with pytest.raises(ConfigError):
            draw_replicate(config, index)

    def test_zero_error_variances_reproduce_truth(self, table_params):
        params = dataclasses.replace(table_params, sigma_u2=0.0, sigma_v2=0.0)
        cfg = SimulationConfig(params=params, replicates=100, seed=SEED)
        y, x = draw_replicate(cfg, 3)
        y_true, x_true = replay_truth(params, SEED, 3, params.n)
        assert np.array_equal(y, y_true)
        assert np.array_equal(x, x_true)

    def test_truth_block_invariant_to_error_law(self, table_params):
        # the error variates are drawn after the truth block, so at zero
        # error variance every law yields the identical sample
        params = dataclasses.replace(table_params, sigma_u2=0.0, sigma_v2=0.0)
        base = dict(params=params, replicates=100, seed=SEED)
        gauss = SimulationConfig(**base)
        unif = SimulationConfig(**base, error_law=ErrorLaw.UNIFORM)
        t = SimulationConfig(**base, error_law=ErrorLaw.STUDENT_T, error_df=8.0)
        for index in (0, 7):
            ref_y, ref_x = draw_replicate(gauss, index)
            for cfg in (unif, t):
                got_y, got_x = draw_replicate(cfg, index)
                assert np.array_equal(got_y, ref_y)
                assert np.array_equal(got_x, ref_x)

    def test_pooled_moments_match_population(self, table_params):
        # law-of-large-numbers oracle over 10^6 pooled observations
        cfg = SimulationConfig(
            params=dataclasses.replace(table_params, n=200),
            replicates=5000, seed=SEED)
        ys, xs = [], []
        for i in range(cfg.replicates):
            y, x = draw_replicate(cfg, i)
            ys.append(y)
            xs.append(x)
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


def kernel_replicates(n):
    """Replicate counts around a block boundary at sample size ``n``; a
    config needs >= 100."""
    rows = _block_rows(n)
    boundary = -(-100 // rows) * rows
    return (100, boundary - 1, boundary, boundary + 1, 1001)


# the first block boundaries at the benchmark's n = 200 and the paper's n = 10
SEEK_INDICES = (0, 1, _block_rows(200) - 1, _block_rows(200),
                _block_rows(10) - 1, _block_rows(10), 2**64 - 1)
KERNEL_SEEDS = (0, 2**63 + 5, 2**64 - 1)
KERNEL_LAWS = (
    dict(error_law=ErrorLaw.GAUSSIAN),
    dict(error_law=ErrorLaw.UNIFORM),
    dict(error_law=ErrorLaw.STUDENT_T, error_df=6.0),
)


def fresh_substream(seed, index):
    """Replicate ``index``'s substream, built from its key and counter."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=index << 128))


class TestBlockKernel:
    """The blocked engine against one-replicate-at-a-time references."""

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("index", SEEK_INDICES)
    def test_seek_matches_fresh_substream(self, seed, index):
        rng = fresh_substream(seed, 12345)
        rng.standard_normal(7)  # leave the buffer and counter mid-stream
        state = _substream_state(seed)
        state["state"]["counter"][2] = index
        rng.bit_generator.state = state
        got = rng.bit_generator.state
        want = fresh_substream(seed, index).bit_generator.state
        assert got.keys() == want.keys()
        for key in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert got[key] == want[key]
        assert np.array_equal(got["buffer"], want["buffer"])
        for key in ("counter", "key"):
            assert np.array_equal(got["state"][key], want["state"][key])
        assert np.array_equal(rng.standard_normal(9),
                              fresh_substream(seed, index).standard_normal(9))

    @pytest.mark.parametrize(
        "law", KERNEL_LAWS, ids=[law["error_law"].value for law in KERNEL_LAWS])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    @pytest.mark.parametrize("n", [2, 10, 200])
    def test_means_match_per_replicate_draws(self, table_params, n, seed,
                                             law):
        counts = kernel_replicates(n)
        reps = max(counts)
        base = SimulationConfig(
            params=dataclasses.replace(table_params, n=n), replicates=reps,
            seed=seed, **law)
        samples = [draw_replicate(base, i) for i in range(reps)]
        ref_y = np.array([y.mean() for y, _ in samples])
        ref_x = np.array([x.mean() for _, x in samples])
        replayed = [replay_observed(base, i) for i in range(reps)]
        for (y, x), (want_y, want_x) in zip(samples, replayed):
            assert np.array_equal(y, want_y)
            assert np.array_equal(x, want_x)
        for count in counts:
            cfg = dataclasses.replace(base, replicates=count)
            ybars, xbars = _replicate_means(cfg)
            assert np.array_equal(ybars, ref_y[:count])
            assert np.array_equal(xbars, ref_x[:count])

    def test_non_finite_sample_is_skipped(self, config, monkeypatch):
        # a nan in replicate 0's last auxiliary value makes every value of
        # that replicate nan: it is skipped, and the others are used
        def poisoned(cfg, rng):
            fill, error_scale = _row_filler(cfg, rng)

            def poisoned_fill(row):
                fill(row)
                if rng.bit_generator.state["state"]["counter"][2] == 0:
                    row[-1] = np.nan
            return poisoned_fill, error_scale

        monkeypatch.setattr(simulate, "_row_filler", poisoned)
        specs = [Estimator(), EXP_RATIO, Estimator(0.5, 0.5)]
        for law in KERNEL_LAWS:
            cfg = dataclasses.replace(config, **law)
            for result in run_monte_carlo(cfg, specs):
                assert (result.replicates_used,
                        result.replicates_skipped) == (99, 1)
                assert math.isfinite(result.empirical_mse)
            y, x = draw_replicate(cfg, 0)
            assert np.isfinite(y).all() and np.isnan(x[-1])


def fill_threads(monkeypatch):
    """The thread idents of ``_fill_means`` calls, in call order."""
    idents = []
    fill = simulate._fill_means

    def recorded(*args):
        idents.append(threading.get_ident())
        fill(*args)

    monkeypatch.setattr(simulate, "_fill_means", recorded)
    return idents


class TestTwoThreads:
    """From ``_THREADED_MIN_N`` up, the draw blocks are filled on two
    threads; the means are those of the serial path bit for bit."""

    @pytest.mark.parametrize(
        "law", KERNEL_LAWS, ids=[law["error_law"].value for law in KERNEL_LAWS])
    @pytest.mark.parametrize("n", [simulate._THREADED_MIN_N, 1000])
    def test_threaded_means_equal_serial(self, table_params, monkeypatch,
                                         n, law):
        idents = fill_threads(monkeypatch)
        for reps in (100, 127, 1001):
            cfg = SimulationConfig(
                params=dataclasses.replace(table_params, n=n),
                replicates=reps, seed=2**64 - 1, **law)
            with monkeypatch.context() as serial_only:
                serial_only.setattr(simulate, "_THREADED_MIN_N", n + 1)
                serial = _replicate_means(cfg)
            assert len(set(idents)) == 1
            idents.clear()
            threaded = _replicate_means(cfg)
            assert len(set(idents)) == 2
            idents.clear()
            for want, got in zip(serial, threaded):
                assert np.array_equal(want.view(np.int64),
                                      got.view(np.int64))

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_an_exception_in_either_half_reaches_the_caller(
            self, table_params, monkeypatch, half):
        cfg = SimulationConfig(
            params=dataclasses.replace(table_params, n=1000),
            replicates=100, seed=SEED)
        # 17 blocks of 6 replicates: the caller fills blocks 0 to 8, the
        # worker blocks 9 to 16
        failing = 0 if half == "first" else 9 * 6
        block = simulate._observed_block

        def observed(config, rng, start, stop):
            if start == failing:
                raise ZeroDivisionError(f"block at {start}")
            return block(config, rng, start, stop)

        monkeypatch.setattr(simulate, "_observed_block", observed)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"^block at {failing}$"):
            run_monte_carlo(cfg, [Estimator()])
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [
        simulate._THREADED_MIN_N, simulate._THREADED_MIN_N + 1, 6400, 6401,
        simulate._MAX_N])
    def test_both_halves_have_blocks(self, n):
        # the fewest replicates a config accepts fill at least two blocks
        # at every n from the threshold up, so the split needs no guard;
        # with these constants, test_threaded_means_equal_serial sees two
        # threads at R = 100 and test_no_thread_starts none below n = 200
        assert len(range(0, 100, _block_rows(n))) >= 2

    @pytest.mark.parametrize("n", [simulate._THREADED_MIN_N - 1],
                             ids=["below-threshold"])
    def test_no_thread_starts(self, table_params, monkeypatch, n):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        cfg = SimulationConfig(
            params=dataclasses.replace(table_params, n=n), replicates=100,
            seed=SEED)
        run_monte_carlo(cfg, [Estimator()])

    def test_estimators_evaluated_on_the_calling_thread(self, table_params,
                                                       monkeypatch):
        idents = fill_threads(monkeypatch)
        evaluated = []

        def evaluate(*args):
            evaluated.append(threading.get_ident())
            return evaluate_at_means(*args)

        monkeypatch.setattr(simulate, "evaluate_at_means", evaluate)
        cfg = SimulationConfig(
            params=dataclasses.replace(table_params, n=1000),
            replicates=100, seed=SEED)
        run_monte_carlo(cfg, [Estimator(), EXP_RATIO])
        assert len(set(idents)) == 2
        assert set(evaluated) == {threading.get_ident()}

    def test_concurrent_runs_under_fast_switching(self, table_params):
        # three runs at once on two threads each, more threads than CPUs,
        # switching every microsecond: each gets the serial path's means
        params = dataclasses.replace(table_params, n=simulate._THREADED_MIN_N)
        configs = [SimulationConfig(params=params, replicates=127, seed=seed,
                                    **law)
                   for seed, law in enumerate(KERNEL_LAWS)]
        want = [[draw_replicate(cfg, i)[0].mean() for i in range(127)]
                for cfg in configs]
        got = [None] * len(configs)

        def run(slot):
            got[slot] = _replicate_means(configs[slot])[0].tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(slot,))
                       for slot in range(len(configs))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert got == want


def standardized_errors(config, size):
    """``size`` error variates of substream 0, drawn by the engine's row
    filler and standardized as the engine standardizes them."""
    cfg = dataclasses.replace(
        config, params=dataclasses.replace(config.params, n=size // 2))
    fill, error_scale = _row_filler(cfg, _substream(cfg.seed))
    row = np.empty(2 * size)
    fill(row)
    return row[size:] * error_scale


class TestErrorLaws:
    @pytest.mark.parametrize("law,df", [
        (ErrorLaw.GAUSSIAN, None),
        (ErrorLaw.UNIFORM, None),
        (ErrorLaw.STUDENT_T, 6.0),
    ])
    def test_standardized_to_unit_variance(self, table_params, law, df):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=law, error_df=df)
        e = standardized_errors(cfg, 10**6)
        assert e.mean() == pytest.approx(0.0, abs=0.01)
        assert e.var() == pytest.approx(1.0, abs=0.02)

    def test_uniform_support_bound(self, table_params):
        cfg = SimulationConfig(params=table_params, replicates=100, seed=SEED,
                               error_law=ErrorLaw.UNIFORM)
        e = standardized_errors(cfg, 10**5)
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
        # the blocked engine and the kernel evaluated on the float means of
        # one replicate at a time must give the same values bit for bit
        cfg = dataclasses.replace(config, replicates=120)
        spec = EXP_RATIO
        (row,) = run_monte_carlo(cfg, [spec])
        values = []
        for i in range(cfg.replicates):
            y, x = draw_replicate(cfg, i)
            values.append(float(evaluate_at_means(
                spec, float(y.mean()), float(x.mean()), cfg.params.mu_x)))
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
        table, _ = simulation_table(cfg)
        row = next(r for r in table.rows if r["estimator"] == "exp_ratio")
        assert row["theory_mse"] == mse_quadratic(
            derive_moments(params), EXP_RATIO.bracket).mse(
                params.mu_y, 1.0, 0.0)

    def test_mean_per_unit_matches_exact_theory(self, table_params):
        # the variance formula is exact for ybar, so the empirical MSE is a
        # direct draw-quality check; 4 standard errors keeps noise failures
        # out of routine runs
        cfg = SimulationConfig(params=table_params, replicates=20_000,
                               seed=SEED)
        (row,) = run_monte_carlo(cfg, [Estimator()])
        assert row.replicates_skipped == 0
        exact = row_plan(table_params, ())[0].breakdown.total
        assert abs(row.empirical_mse - exact) <= 4.0 * row.mc_se_mse

    def test_empty_spec_list(self, config):
        assert run_monte_carlo(config, []) == []


class TestMseVarianceSum:
    """The vectorised sum of squared deviations of the squared errors in
    ``_aggregate`` against the scalar form it replaced,
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
            (result,) = _aggregate([Estimator()], ybars, ybars, mu_y=mu_y,
                                   mu_x=170.0)
            squares = (ybars - mu_y) * (ybars - mu_y)
            mse = math.fsum(squares) / size
            sq_var = math.fsum((s - mse) ** 2 for s in squares) / (size - 1)
            assert result.empirical_mse == mse, trial
            assert result.mc_se_mse == math.sqrt(sq_var / size), trial


class TestSimulationResult:
    def test_mc_se_bias_recovers_replicate_variance(self):
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=0.5, empirical_mse=1.0,
            mc_se_mse=0.1, replicates_used=100, replicates_skipped=0)
        var = (1.0 - 0.25) * 100 / 99
        assert result.mc_se_bias == pytest.approx(math.sqrt(var / 100))

    def test_mc_se_bias_undefined_for_single_replicate(self):
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=0.0, empirical_mse=0.0,
            mc_se_mse=math.nan, replicates_used=1, replicates_skipped=99)
        assert math.isnan(result.mc_se_bias)


class TestOneStandardErrorRule:
    """``mc_se_mse`` and ``mc_se_bias`` follow one rule: nan below two used
    replicates, inf where the MSE is inf, else a value; neither raises."""

    def test_inf_mse_gives_inf_standard_errors(self):
        # a finite bias of -1e200 whose square leaves the float range
        params = PopulationParams(n=10, mu_y=1e200, mu_x=1.0, sigma_y2=1e300,
                                  sigma_x2=1.0, rho=0.5, sigma_u2=0.0,
                                  sigma_v2=0.0)
        (result,) = run_monte_carlo(SimulationConfig(params, 200, 1),
                                    [Estimator(0.0, 0.0)])
        assert (result.empirical_bias, result.replicates_used) == (-1e200, 200)
        assert result.empirical_mse == math.inf
        assert result.mc_se_mse == math.inf
        assert result.mc_se_bias == math.inf

    @pytest.mark.parametrize("mse", [math.inf, math.nan])
    def test_one_replicate_gives_nan_whatever_the_mse(self, mse):
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=1e200, empirical_mse=mse,
            mc_se_mse=math.nan, replicates_used=1, replicates_skipped=99)
        assert math.isnan(result.mc_se_bias)

    def test_bias_squared_past_the_float_range_does_not_raise(self):
        # stored moments a library caller can build: bias**2 would raise
        result = SimulationResult(
            estimator=Estimator(), empirical_bias=1e200, empirical_mse=1e300,
            mc_se_mse=1.0, replicates_used=100, replicates_skipped=0)
        assert result.mc_se_bias == 0.0

    def test_both_standard_errors_at_aggregation(self):
        # one spec per branch of the rule, side by side: one replicate used
        # (a half power of a negative base is a hazard), an MSE beyond the
        # float range, and a finite MSE
        xbars = np.array([-1.0, -2.0, -3.0, 4.0])
        ybars = np.array([1e200, -1e200, 1.0, 2.0])
        single, inf_mse, plain = _aggregate(
            [Estimator(bracket=PowerExpBracket(0.5, 0.0)), Estimator(),
             Estimator(0.0, 1.0)], ybars, xbars, mu_y=0.0, mu_x=170.0)
        assert single.replicates_used == 1
        assert math.isnan(single.mc_se_mse) and math.isnan(single.mc_se_bias)
        assert inf_mse.mc_se_mse == inf_mse.mc_se_bias == math.inf
        assert math.isfinite(plain.mc_se_mse) and math.isfinite(
            plain.mc_se_bias)


class TestMomentsBeyondTheFloatRange:
    """Finite estimator values whose moments leave the float range give
    that spec's result with inf where a square or SE term overflows, and
    no numpy warning; each moment is checked against math.fsum."""

    @pytest.mark.parametrize("ybars, finite_mse, finite_se", [
        (np.array([1e154, 1e154, 1e154, 1e154]), True, True),  # fsum only
        (np.array([1e200, -1e200, 1.0, 2.0]), False, False),   # the squares
        (np.array([1e100, -1e100, 1e80, 2.0]), True, False),   # SE terms
    ], ids=["sum", "square", "se"])
    def test_moments_against_fsum(self, ybars, finite_mse, finite_se):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = _aggregate([Estimator()], ybars, np.full(4, 170.0),
                                   mu_y=0.0, mu_x=170.0)
        values = ybars.tolist()
        squares = [v * v for v in values]
        # the sum of the squares may leave the float range where their
        # mean does not: fsum a quarter of each, exactly
        mse = math.fsum(s / 4 for s in squares)
        se = math.inf
        if finite_se:
            se = math.sqrt(math.fsum((s - mse) ** 2 for s in squares) / 3 / 4)
        assert result.empirical_bias == math.fsum(values) / 4
        assert result.empirical_mse == mse
        assert math.isfinite(mse) == finite_mse
        assert result.mc_se_mse == se
        assert (result.replicates_used, result.replicates_skipped) == (4, 0)


class TestAllReplicatesSkipped:
    def test_nan_moments_beside_other_specs(self):
        # unreachable through a valid config (the all-skip probability is
        # astronomically small at replicates >= 100), so the rule is pinned
        # directly at the aggregation step: a spec with no replicate gets
        # nan moments, and the specs beside it their own results
        xbars = np.full(5, -170.0)
        ybars = np.arange(5.0)
        skipped, plain = _aggregate([EXP_RATIO, Estimator()], ybars, xbars,
                                    mu_y=2.0, mu_x=170.0)
        assert (skipped.replicates_used, skipped.replicates_skipped) == (0, 5)
        assert all(map(math.isnan, (skipped.empirical_bias,
                                    skipped.empirical_mse,
                                    skipped.mc_se_mse, skipped.mc_se_bias)))
        assert (plain.empirical_bias, plain.empirical_mse,
                plain.replicates_used) == (0.0, math.fsum([4, 1, 0, 1, 4]) / 5,
                                           5)


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
            at_n = self.at_n(cfg, n)
            (row,) = run_monte_carlo(at_n, [Estimator()])
            theory = row_plan(at_n.params, ())[0].breakdown.total
            gap = abs(row.empirical_mse - theory) / theory
            assert gap < 0.15, n

    def test_theory_column_decreases_in_n(self, config):
        theories = []
        for n in (10, 40, 160):
            table, _ = simulation_table(self.at_n(config, n))
            theories.append(next(r["theory_mse"] for r in table.rows
                                 if r["estimator"] == "exp_ratio"))
        assert all(a > b for a, b in zip(theories, theories[1:])), theories
