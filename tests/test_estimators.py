"""Estimator evaluation: exact reductions, hazards, and family nesting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanerr.estimators import (
    EvaluationError,
    ExpRatio,
    MeanPerUnit,
    ObservedSample,
    PowerExpRatio,
    WeightedDifference,
    WeightedPowerExpRatio,
    evaluate,
    evaluate_at_means,
    hazard_free,
)


@pytest.fixture
def small_sample():
    """ybar = 4 and xbar = 6 exactly."""
    return ObservedSample(y=np.array([2.0, 4.0, 6.0]),
                          x=np.array([4.0, 8.0, 6.0]))


def positive_samples():
    """Samples with strictly positive auxiliary values, clear of hazards."""
    values = st.floats(min_value=0.5, max_value=100.0,
                       allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(values, values), min_size=1, max_size=30).map(
        ObservedSample.from_pairs)


class TestObservedSample:
    def test_rejects_empty(self):
        with pytest.raises(EvaluationError):
            ObservedSample(y=np.array([]), x=np.array([]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(EvaluationError):
            ObservedSample(y=np.array([1.0, 2.0]), x=np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(EvaluationError):
            ObservedSample(y=np.array([1.0, np.nan]), x=np.array([1.0, 2.0]))

    def test_from_pairs_round_trip(self):
        s = ObservedSample.from_pairs([(2.0, 4.0), (4.0, 8.0)])
        assert s.pairs == [(2.0, 4.0), (4.0, 8.0)]
        assert len(s) == 2

    def test_columns_are_read_only(self, small_sample):
        with pytest.raises(ValueError):
            small_sample.y[0] = 99.0


class TestExactReductions:
    """Identities that must hold bit-for-bit, not approximately."""

    def test_mean_per_unit(self, small_sample):
        assert evaluate(MeanPerUnit(), small_sample, mu_x=12.0) == 4.0

    def test_exp_ratio_at_mu_x(self):
        """xbar = mu_x kills the exponent: the estimator is exactly ybar."""
        s = ObservedSample(y=np.array([3.0, 5.0]), x=np.array([10.0, 14.0]))
        assert evaluate(ExpRatio(), s, mu_x=12.0) == 4.0

    def test_weighted_identity_weights(self, small_sample):
        assert evaluate(WeightedDifference(1.0, 0.0), small_sample, 12.0) == 4.0

    def test_power_exp_zero_coefficients(self, small_sample):
        assert evaluate(PowerExpRatio(0.0, 0.0), small_sample, 12.0) == 4.0

    def test_power_exp_bracket_collapses_at_mu_x(self):
        """At xbar = mu_x the bracket is 2 - 1 = 1 for every (alpha, beta)."""
        s = ObservedSample(y=np.array([3.0, 5.0]), x=np.array([10.0, 14.0]))
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                            (2.5, -0.5)]:
            assert evaluate(PowerExpRatio(alpha, beta), s, mu_x=12.0) == 4.0

    def test_weighted_power_exp_identity(self, small_sample):
        assert evaluate(WeightedPowerExpRatio(1.0, 0.0, 0.0, 0.0),
                        small_sample, 12.0) == 4.0

    def test_weighted_power_exp_at_mu_x_scales_by_mean_weight(self):
        s = ObservedSample(y=np.array([3.0, 5.0]), x=np.array([10.0, 14.0]))
        got = evaluate(WeightedPowerExpRatio(0.75, 0.5, 1.0, 1.0), s, 12.0)
        assert got == 0.75 * 4.0


class TestReEvaluationOracles:
    """Recompute the defining expressions inline with math.* and compare."""

    def test_exp_ratio(self, small_sample):
        got = evaluate(ExpRatio(), small_sample, mu_x=12.0)
        assert got == pytest.approx(4.0 * math.exp((12.0 - 6.0) / (12.0 + 6.0)),
                                    rel=1e-15)

    def test_weighted_difference(self, small_sample):
        got = evaluate(WeightedDifference(0.9, 0.4), small_sample, mu_x=12.0)
        assert got == pytest.approx(0.9 * 4.0 + 0.4 * (12.0 - 6.0), rel=1e-15)

    def test_power_exp_ratio(self, small_sample):
        got = evaluate(PowerExpRatio(1.0, 1.0), small_sample, mu_x=12.0)
        bracket = 2.0 - (6.0 / 12.0) ** 1.0 * math.exp(1.0 * (6.0 - 12.0) / (6.0 + 12.0))
        assert got == pytest.approx(4.0 * bracket, rel=1e-15)

    def test_weighted_power_exp_ratio(self, small_sample):
        got = evaluate(WeightedPowerExpRatio(0.9, -0.2, 1.0, -1.0),
                       small_sample, mu_x=12.0)
        bracket = 2.0 - (0.5) ** 1.0 * math.exp(-1.0 * (-6.0) / 18.0)
        assert got == pytest.approx((0.9 * 4.0 - 0.2 * 6.0) * bracket, rel=1e-15)


class TestFamilyNesting:
    @given(positive_samples(),
           st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60)
    def test_unit_weights_reduce_to_power_exp(self, sample, alpha, beta):
        mu_x = 7.0
        nested = evaluate(WeightedPowerExpRatio(1.0, 0.0, alpha, beta), sample, mu_x)
        plain = evaluate(PowerExpRatio(alpha, beta), sample, mu_x)
        assert nested == plain

    @given(positive_samples(),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    @settings(max_examples=60)
    def test_zero_coefficients_reduce_to_weighted(self, sample, w1, w2):
        mu_x = 7.0
        nested = evaluate(WeightedPowerExpRatio(w1, w2, 0.0, 0.0), sample, mu_x)
        plain = evaluate(WeightedDifference(w1, w2), sample, mu_x)
        assert nested == plain

    @given(positive_samples())
    @settings(max_examples=60)
    def test_weighted_identity_matches_mean(self, sample):
        assert (evaluate(WeightedDifference(1.0, 0.0), sample, 7.0)
                == evaluate(MeanPerUnit(), sample, 7.0))


class TestContinuityProbe:
    def test_bracket_slope_is_stable_in_xbar(self):
        """Central finite-difference slope of the power-exp estimator in xbar
        settles as epsilon shrinks (no kinks or branch jumps nearby)."""
        spec = PowerExpRatio(1.0, 1.0)
        ybar, xbar, mu_x = 127.0, 165.0, 170.0
        slopes = []
        for eps in (1e-3, 1e-4, 1e-5):
            hi = evaluate_at_means(spec, ybar, xbar + eps, mu_x)
            lo = evaluate_at_means(spec, ybar, xbar - eps, mu_x)
            slopes.append((hi - lo) / (2 * eps))
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-5)
        assert slopes[1] == pytest.approx(slopes[2], rel=1e-5)


class TestHazards:
    def test_exp_ratio_singular_denominator(self):
        s = ObservedSample(y=np.array([1.0, 2.0]), x=np.array([-4.0, -8.0]))
        with pytest.raises(EvaluationError, match="hazard"):
            evaluate(ExpRatio(), s, mu_x=6.0)

    def test_power_exp_singular_denominator(self):
        s = ObservedSample(y=np.array([1.0, 2.0]), x=np.array([-4.0, -8.0]))
        with pytest.raises(EvaluationError, match="hazard"):
            evaluate(PowerExpRatio(1.0, 0.0), s, mu_x=6.0)

    def test_fractional_power_of_negative_base(self):
        s = ObservedSample(y=np.array([1.0, 2.0]), x=np.array([-2.0, -4.0]))
        with pytest.raises(EvaluationError, match="hazard"):
            evaluate(PowerExpRatio(0.5, 0.0), s, mu_x=6.0)

    def test_integral_power_of_negative_base_is_fine(self):
        s = ObservedSample(y=np.array([1.0, 2.0]), x=np.array([-2.0, -4.0]))
        got = evaluate(PowerExpRatio(2.0, 0.0), s, mu_x=6.0)
        assert got == pytest.approx(1.5 * (2.0 - 0.25), rel=1e-15)

    def test_weighted_difference_has_no_hazard_there(self):
        s = ObservedSample(y=np.array([1.0, 2.0]), x=np.array([-4.0, -8.0]))
        assert evaluate(WeightedDifference(1.0, 1.0), s, 6.0) == 1.5 + 12.0

    def test_overflow_to_non_finite(self):
        s = ObservedSample(y=np.array([1.0]), x=np.array([-5.999999999]))
        with pytest.raises(EvaluationError, match="non-finite"):
            evaluate(PowerExpRatio(0.0, -1000.0), s, mu_x=6.0)

    def test_non_finite_mu_x(self, small_sample):
        with pytest.raises(EvaluationError):
            evaluate(MeanPerUnit(), small_sample, mu_x=math.nan)

    def test_hazard_free_vectorizes(self):
        xbar = np.array([-6.0, -3.0, 3.0])
        mask = hazard_free(PowerExpRatio(0.5, 0.0), xbar, mu_x=6.0)
        assert mask.tolist() == [False, False, True]
        mask = hazard_free(ExpRatio(), xbar, mu_x=6.0)
        assert mask.tolist() == [False, True, True]
        assert hazard_free(MeanPerUnit(), xbar, mu_x=6.0).all()


class TestSpecValidationAndDescribe:
    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(EvaluationError):
            WeightedDifference(math.inf, 0.0)
        with pytest.raises(EvaluationError):
            PowerExpRatio(math.nan, 1.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        ybar = rng.uniform(100.0, 150.0, size=50)
        xbar = rng.uniform(150.0, 190.0, size=50)
        for spec in (MeanPerUnit(), ExpRatio(), WeightedDifference(0.99, 0.59),
                     PowerExpRatio(1.0, -1.0),
                     WeightedPowerExpRatio(0.99, -0.15, 1.0, 0.0)):
            vec = evaluate_at_means(spec, ybar, xbar, 170.0)
            for i in range(50):
                assert vec[i] == evaluate_at_means(spec, ybar[i], xbar[i], 170.0)
