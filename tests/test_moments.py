"""Moment derivation: frozen benchmark values, validation, and invariants."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanerr.moments import ParameterError, PopulationParams, derive_moments

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
