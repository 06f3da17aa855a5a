"""Moment derivation: frozen benchmark values, validation, and invariants."""

from __future__ import annotations

import dataclasses
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanerr.estimators import Estimator, EvaluationError, PowerExpBracket
from meanerr.ingest import preset
from meanerr.moments import ParameterError, PopulationParams, derive_moments
from meanerr.simulate import (
    _MAX_N,
    _MAX_REPLICATES,
    ConfigError,
    ErrorLaw,
    SimulationConfig,
    draw_replicate,
)

from conftest import population_params


class TestBenchmarkValues:
    """Hand-checked moments for the benchmark parameter set.

    var_ybar = (1278 + 36)/10 = 131.4, var_xbar = (3300 + 36)/10 = 333.6,
    cov_yxbar = 0.964 * sqrt(1278 * 3300)/10 = 197.970021730564...,
    ratio = 127/170.
    """

    def test_variances(self, table_params):
        m = derive_moments(table_params)
        assert m.var_ybar == pytest.approx(131.4, rel=1e-12)
        assert m.var_xbar == pytest.approx(333.6, rel=1e-12)

    def test_covariance(self, table_params):
        m = derive_moments(table_params)
        assert m.cov_yxbar == pytest.approx(197.970021730564045, rel=1e-12)

    def test_ratio(self, table_params):
        m = derive_moments(table_params)
        assert m.ratio == pytest.approx(127.0 / 170.0, rel=1e-15)

    def test_error_free_reduction(self, table_params):
        """Zero error variances: 127.8 and 330.0, covariance unchanged."""
        m0 = derive_moments(table_params, error_free=True)
        m = derive_moments(table_params)
        assert m0.var_ybar == pytest.approx(127.8, rel=1e-12)
        assert m0.var_xbar == pytest.approx(330.0, rel=1e-12)
        assert m0.cov_yxbar == m.cov_yxbar
        assert m0.ratio == m.ratio


class TestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            PopulationParams(1, 127.0, 170.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)

    def test_rejects_non_integer_n(self):
        with pytest.raises(ParameterError):
            PopulationParams(10.0, 127.0, 170.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)

    def test_rejects_zero_means(self):
        with pytest.raises(ParameterError):
            PopulationParams(10, 0.0, 170.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)
        with pytest.raises(ParameterError):
            PopulationParams(10, 127.0, 0.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)

    def test_rejects_nonpositive_variances(self):
        with pytest.raises(ParameterError):
            PopulationParams(10, 127.0, 170.0, 0.0, 3300.0, 0.9, 0.0, 0.0)
        with pytest.raises(ParameterError):
            PopulationParams(10, 127.0, 170.0, 1278.0, -1.0, 0.9, 0.0, 0.0)

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(ParameterError):
            PopulationParams(10, 127.0, 170.0, 1278.0, 3300.0, 1.01, 0.0, 0.0)

    def test_rejects_negative_error_variances(self):
        with pytest.raises(ParameterError):
            PopulationParams(10, 127.0, 170.0, 1278.0, 3300.0, 0.9, -1.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            PopulationParams(10, math.inf, 170.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)

    def test_frozen(self, table_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            table_params.mu_y = 1.0


class TestOneFinitenessRule:
    """Every validated real field reads one rule: an int or float whose
    float value is finite. An int past the float range is rejected with
    the type's own error, and the message names it without printing it
    (the repr of 10**5000 exceeds Python's int-to-string digit limit)."""

    PAST = "got an int past the float range"

    @pytest.mark.parametrize("big", [10**400, -10**400, 10**5000,
                                     2**1024 - 2**970],
                             ids=["1e400", "-1e400", "1e5000", "rounds-up"])
    @pytest.mark.parametrize("build, error, message", [
        (lambda v: Estimator(v), EvaluationError,
         "Estimator.mean_weight must be finite, " + PAST),
        (lambda v: PowerExpBracket(v, 0.0), EvaluationError,
         "PowerExpBracket.alpha must be finite, " + PAST),
        (lambda v: PopulationParams(10, v, 170.0, 1278.0, 3300.0, 0.9, 0.0,
                                    0.0),
         ParameterError, "all parameters must be finite"),
        (lambda v: SimulationConfig(preset(), 100, 1, ErrorLaw.STUDENT_T, v),
         ConfigError,
         "error_df must be a finite number > 4 for the Student-t law, " + PAST),
    ], ids=["Estimator", "PowerExpBracket", "PopulationParams",
            "SimulationConfig"])
    def test_int_past_the_float_range(self, build, error, message, big):
        with pytest.raises(error) as excinfo:
            build(big)
        assert str(excinfo.value) == message

    def test_int_that_rounds_to_the_largest_float_is_finite(self):
        big = 2**1024 - 2**971
        assert float(big) == sys.float_info.max
        assert Estimator(big).mean_weight == big
        assert PowerExpBracket(1, big).beta == big
        assert PopulationParams(10, big, 170.0, 1278.0, 3300.0, 0.9, 0.0,
                                0.0).mu_y == big
        assert SimulationConfig(preset(), 100, 1, ErrorLaw.STUDENT_T,
                                big).error_df == big

    @pytest.mark.parametrize("value", ["1", None, 1j])
    def test_params_reject_a_non_number(self, value):
        with pytest.raises(ParameterError, match="must be finite"):
            PopulationParams(10, value, 170.0, 1278.0, 3300.0, 0.9, 0.0, 0.0)

    def test_params_keep_accepting_bool(self):
        # bool is an int, as before; only error_df rejects it
        assert PopulationParams(10, True, 170.0, 1278.0, 3300.0, True, 0.0,
                                False).rho is True


class TestIntPastTheDigitLimit:
    """An int check names an int past Python's int-to-string digit limit
    without printing it, and so raises the type's own error, not the
    ValueError of ``str()``; shorter ints print in full."""

    PAST = "got an int past Python's digit limit"

    @pytest.mark.parametrize("build, error, message", [
        (lambda: SimulationConfig(preset(), -10**5000, 1), ConfigError,
         "replicates must be >= 100, " + PAST),
        (lambda: SimulationConfig(preset(), 10**5000, 1), ConfigError,
         f"replicates must be <= {_MAX_REPLICATES}, " + PAST),
        (lambda: SimulationConfig(preset(), 100, 10**5000), ConfigError,
         "seed must be below 2**64, " + PAST),
        (lambda: dataclasses.replace(preset(), n=-10**5000), ParameterError,
         "n must be at least 2, " + PAST),
        (lambda: SimulationConfig(dataclasses.replace(preset(), n=10**5000),
                                  100, 1), ConfigError,
         f"n must be <= {_MAX_N} to draw one replicate's 4n values, " + PAST),
        (lambda: draw_replicate(SimulationConfig(preset(), 100, 1),
                                10**5000), ConfigError,
         "replicate_index must be below 2**64, " + PAST),
        (lambda: SimulationConfig(preset(), 100, 10**399), ConfigError,
         f"seed must be below 2**64, got {10**399}"),
    ], ids=["replicates-low", "replicates-high", "seed", "n", "simulate-n",
            "replicate-index", "seed-400-digits"])
    def test_message(self, build, error, message):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message


class TestInvariants:
    @given(population_params())
    def test_cauchy_schwarz(self, params):
        """|cov| is bounded by the error-free geometric mean, hence by the
        full one: cov^2 <= (sigma_y2/n)(sigma_x2/n) <= var_ybar * var_xbar."""
        m = derive_moments(params)
        free = (params.sigma_y2 / params.n) * (params.sigma_x2 / params.n)
        assert m.cov_yxbar**2 <= free * (1 + 1e-12)
        assert free <= m.var_ybar * m.var_xbar * (1 + 1e-12)

    @given(population_params(), st.floats(min_value=0.0, max_value=100.0,
                                          allow_nan=False))
    def test_error_variance_scaling(self, params, scale):
        """Scaling sigma_u2 moves var_ybar linearly and nothing else."""
        scaled = dataclasses.replace(params, sigma_u2=params.sigma_u2 * scale)
        m, ms = derive_moments(params), derive_moments(scaled)
        expected = (params.sigma_y2 + params.sigma_u2 * scale) / params.n
        assert ms.var_ybar == pytest.approx(expected, rel=1e-12)
        assert ms.var_xbar == m.var_xbar
        assert ms.cov_yxbar == m.cov_yxbar
        assert ms.ratio == m.ratio

    @given(population_params())
    def test_determinism(self, params):
        assert derive_moments(params) == derive_moments(params)

    @given(population_params())
    def test_error_free_is_zeroed_error_variances(self, params):
        """The error-free moments equal, bit for bit, the moments of the
        same parameters with both error variances set to zero."""
        zeroed = dataclasses.replace(params, sigma_u2=0.0, sigma_v2=0.0)
        assert derive_moments(params, error_free=True) == \
            derive_moments(zeroed)
        assert derive_moments(params, error_free=True).var_ybar == \
            params.sigma_y2 / params.n
