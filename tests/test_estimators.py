"""Estimator evaluation: exact reductions, hazards, and family nesting."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanerr.estimators import (
    Estimator,
    EvaluationError,
    ExpBracket,
    PowerExpBracket,
    evaluate_at_means,
    hazard_free,
)
from meanerr.simulate import _aggregate

MEAN_PER_UNIT = Estimator()
EXP_RATIO = Estimator(bracket=ExpBracket())


def power_exp(alpha, beta):
    return Estimator(bracket=PowerExpBracket(alpha, beta))


def weighted_power_exp(mean_weight, aux_weight, alpha, beta):
    return Estimator(mean_weight, aux_weight, PowerExpBracket(alpha, beta))


@pytest.fixture
def small_means():
    """(ybar, xbar) = (4, 6), the means of y = (2, 4, 6), x = (4, 8, 6)."""
    return 4.0, 6.0


def positive_means():
    """(ybar, xbar) of samples with strictly positive auxiliary values,
    clear of hazards."""
    values = st.floats(min_value=0.5, max_value=100.0,
                       allow_nan=False, allow_infinity=False)
    return st.lists(st.tuples(values, values), min_size=1, max_size=30).map(
        lambda pairs: (float(np.mean([y for y, _ in pairs])),
                       float(np.mean([x for _, x in pairs]))))


class TestExactReductions:
    """Identities that must hold bit-for-bit, not approximately."""

    def test_mean_per_unit(self, small_means):
        assert evaluate_at_means(MEAN_PER_UNIT, *small_means, mu_x=12.0) == 4.0

    def test_exp_ratio_at_mu_x(self):
        """xbar = mu_x kills the exponent: the estimator is exactly ybar."""
        assert evaluate_at_means(EXP_RATIO, 4.0, 12.0, mu_x=12.0) == 4.0

    def test_weighted_identity_weights(self, small_means):
        assert evaluate_at_means(Estimator(1.0, 0.0), *small_means,
                                 12.0) == 4.0

    def test_power_exp_zero_coefficients(self, small_means):
        assert evaluate_at_means(power_exp(0.0, 0.0), *small_means,
                                 12.0) == 4.0

    def test_power_exp_bracket_collapses_at_mu_x(self):
        """At xbar = mu_x the bracket is 2 - 1 = 1 for every (alpha, beta)."""
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0),
                            (2.5, -0.5)]:
            assert evaluate_at_means(power_exp(alpha, beta), 4.0, 12.0,
                                     mu_x=12.0) == 4.0

    def test_weighted_power_exp_identity(self, small_means):
        assert evaluate_at_means(weighted_power_exp(1.0, 0.0, 0.0, 0.0),
                                 *small_means, 12.0) == 4.0

    def test_weighted_power_exp_at_mu_x_scales_by_mean_weight(self):
        got = evaluate_at_means(weighted_power_exp(0.75, 0.5, 1.0, 1.0),
                                4.0, 12.0, 12.0)
        assert got == 0.75 * 4.0


class TestReEvaluationOracles:
    """Recompute the defining expressions inline with math.* and compare."""

    def test_exp_ratio(self, small_means):
        got = evaluate_at_means(EXP_RATIO, *small_means, mu_x=12.0)
        assert got == pytest.approx(4.0 * math.exp((12.0 - 6.0) / (12.0 + 6.0)),
                                    rel=1e-15)

    def test_weighted_difference(self, small_means):
        got = evaluate_at_means(Estimator(0.9, 0.4), *small_means, mu_x=12.0)
        assert got == pytest.approx(0.9 * 4.0 + 0.4 * (12.0 - 6.0), rel=1e-15)

    def test_power_exp_ratio(self, small_means):
        got = evaluate_at_means(power_exp(1.0, 1.0), *small_means, mu_x=12.0)
        bracket = 2.0 - (6.0 / 12.0) ** 1.0 * math.exp(1.0 * (6.0 - 12.0) / (6.0 + 12.0))
        assert got == pytest.approx(4.0 * bracket, rel=1e-15)

    def test_weighted_power_exp_ratio(self, small_means):
        got = evaluate_at_means(weighted_power_exp(0.9, -0.2, 1.0, -1.0),
                                *small_means, mu_x=12.0)
        bracket = 2.0 - (0.5) ** 1.0 * math.exp(-1.0 * (-6.0) / 18.0)
        assert got == pytest.approx((0.9 * 4.0 - 0.2 * 6.0) * bracket, rel=1e-15)


class TestFamilyNesting:
    @given(positive_means(),
           st.floats(min_value=-3, max_value=3, allow_nan=False),
           st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60)
    def test_unit_weights_reduce_to_power_exp(self, means, alpha, beta):
        # at weights (1, 0) the linear head is ybar exactly
        mu_x = 7.0
        ybar, xbar = means
        plain = ybar * (2.0 - np.power(xbar / mu_x, alpha)
                        * np.exp(beta * (xbar - mu_x) / (xbar + mu_x)))
        assert evaluate_at_means(weighted_power_exp(1.0, 0.0, alpha, beta),
                                 ybar, xbar, mu_x) == plain

    @given(positive_means(),
           st.floats(min_value=-2, max_value=2, allow_nan=False),
           st.floats(min_value=-2, max_value=2, allow_nan=False))
    @settings(max_examples=60)
    def test_zero_coefficients_reduce_to_weighted(self, means, w1, w2):
        mu_x = 7.0
        nested = evaluate_at_means(weighted_power_exp(w1, w2, 0.0, 0.0),
                                   *means, mu_x)
        plain = evaluate_at_means(Estimator(w1, w2), *means, mu_x)
        assert nested == plain

    @given(positive_means())
    @settings(max_examples=60)
    def test_weighted_identity_matches_mean(self, means):
        assert evaluate_at_means(Estimator(1.0, 0.0), *means, 7.0) == means[0]


class TestContinuityProbe:
    def test_bracket_slope_is_stable_in_xbar(self):
        """Central finite-difference slope of the power-exp estimator in xbar
        settles as epsilon shrinks (no kinks or branch jumps nearby)."""
        spec = power_exp(1.0, 1.0)
        ybar, xbar, mu_x = 127.0, 165.0, 170.0
        slopes = []
        for eps in (1e-3, 1e-4, 1e-5):
            hi = evaluate_at_means(spec, ybar, xbar + eps, mu_x)
            lo = evaluate_at_means(spec, ybar, xbar - eps, mu_x)
            slopes.append((hi - lo) / (2 * eps))
        assert slopes[0] == pytest.approx(slopes[1], rel=1e-5)
        assert slopes[1] == pytest.approx(slopes[2], rel=1e-5)


def engine_skips(spec, ybar, xbar, mu_x):
    """Replicates the engine's aggregation skips out of two: one at
    (ybar, xbar) and one clean replicate at xbar = mu_x."""
    (result,) = _aggregate([spec], np.array([ybar, ybar]),
                           np.array([xbar, mu_x]), mu_y=ybar, mu_x=mu_x)
    assert result.replicates_used + result.replicates_skipped == 2
    return result.replicates_skipped


class TestHazards:
    """Each hazard as the engine meets it: ``hazard_free`` is False there and
    the aggregation counts the replicate in ``replicates_skipped``."""

    def test_exp_ratio_singular_denominator(self):
        assert not hazard_free(EXP_RATIO, -6.0, mu_x=6.0)
        assert engine_skips(EXP_RATIO, 1.5, -6.0, mu_x=6.0) == 1

    def test_power_exp_singular_denominator(self):
        assert not hazard_free(power_exp(1.0, 0.0), -6.0, mu_x=6.0)
        assert engine_skips(power_exp(1.0, 0.0), 1.5, -6.0, mu_x=6.0) == 1

    def test_fractional_power_of_negative_base(self):
        assert not hazard_free(power_exp(0.5, 0.0), -3.0, mu_x=6.0)
        assert engine_skips(power_exp(0.5, 0.0), 1.5, -3.0, mu_x=6.0) == 1

    def test_integral_power_of_negative_base_is_fine(self):
        assert hazard_free(power_exp(2.0, 0.0), -3.0, mu_x=6.0)
        got = evaluate_at_means(power_exp(2.0, 0.0), 1.5, -3.0, mu_x=6.0)
        assert got == pytest.approx(1.5 * (2.0 - 0.25), rel=1e-15)
        assert engine_skips(power_exp(2.0, 0.0), 1.5, -3.0, mu_x=6.0) == 0

    def test_weighted_difference_has_no_hazard_there(self):
        spec = Estimator(1.0, 1.0)
        assert hazard_free(spec, -6.0, mu_x=6.0)
        assert evaluate_at_means(spec, 1.5, -6.0, 6.0) == 1.5 + 12.0
        assert engine_skips(spec, 1.5, -6.0, mu_x=6.0) == 0

    def test_overflow_to_non_finite(self):
        # clear of every hazard, but the exponent overflows
        spec = power_exp(0.0, -1000.0)
        assert hazard_free(spec, -5.999999999, mu_x=6.0)
        with np.errstate(over="ignore"):
            value = evaluate_at_means(spec, 1.0, -5.999999999, mu_x=6.0)
        assert not math.isfinite(value)
        assert engine_skips(spec, 1.0, -5.999999999, mu_x=6.0) == 1

    def test_hazard_free_vectorizes(self):
        xbar = np.array([-6.0, -3.0, 3.0])
        mask = hazard_free(power_exp(0.5, 0.0), xbar, mu_x=6.0)
        assert mask.tolist() == [False, False, True]
        mask = hazard_free(EXP_RATIO, xbar, mu_x=6.0)
        assert mask.tolist() == [False, True, True]
        assert hazard_free(MEAN_PER_UNIT, xbar, mu_x=6.0).all()


class TestSpecValidationAndDescribe:
    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(EvaluationError):
            Estimator(math.inf, 0.0)
        with pytest.raises(EvaluationError):
            PowerExpBracket(math.nan, 1.0)

    @pytest.mark.parametrize("cls", [Estimator, PowerExpBracket])
    @pytest.mark.parametrize("first, second, bad", [
        (math.inf, 0.0, 0), (1.0, math.nan, 1), (-math.inf, math.nan, 0),
        ("1", math.nan, 0), (None, 1.0, 0), (1.0, Fraction(1, 2), 1),
        (np.int64(1), 1.0, 0), (1.0, np.float32(2.0), 1),
        (1.0, np.float64(np.inf), 1)])
    def test_names_the_first_bad_coefficient(self, cls, first, second, bad):
        # the first coefficient that is not a finite int or float is named
        name = dataclasses.fields(cls)[bad].name
        value = (first, second)[bad]
        with pytest.raises(EvaluationError) as excinfo:
            cls(first, second)
        assert str(excinfo.value) == (f"{cls.__name__}.{name} must be "
                                      f"finite, got {value!r}")

    @pytest.mark.parametrize("cls", [Estimator, PowerExpBracket])
    def test_accepts_finite_ints_and_floats(self, cls):
        for first, second in ((1, -2), (True, 0.5), (np.float64(0.25), 3),
                              (-1e308, 5e-324)):
            assert dataclasses.astuple(cls(first, second))[:2] == (first,
                                                                  second)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        ybar = rng.uniform(100.0, 150.0, size=50)
        xbar = rng.uniform(150.0, 190.0, size=50)
        for spec in (MEAN_PER_UNIT, EXP_RATIO, Estimator(0.99, 0.59),
                     power_exp(1.0, -1.0),
                     weighted_power_exp(0.99, -0.15, 1.0, 0.0)):
            vec = evaluate_at_means(spec, ybar, xbar, 170.0)
            for i in range(50):
                assert vec[i] == evaluate_at_means(spec, ybar[i], xbar[i], 170.0)


# The five defining expressions and hazard rules of the estimator family as
# separate formulas, the reference for the one kernel.

def _reference_bracket(xbar, mu_x, alpha, beta):
    return 2.0 - np.power(xbar / mu_x, alpha) * np.exp(
        beta * (xbar - mu_x) / (xbar + mu_x))


def _reference_value(family, w1, w2, alpha, beta, ybar, xbar, mu_x):
    if family == "mean_per_unit":
        return ybar
    if family == "exp_ratio":
        return ybar * np.exp((mu_x - xbar) / (mu_x + xbar))
    if family == "weighted_difference":
        return w1 * ybar + w2 * (mu_x - xbar)
    if family == "power_exp":
        return ybar * _reference_bracket(xbar, mu_x, alpha, beta)
    return ((w1 * ybar + w2 * (mu_x - xbar))
            * _reference_bracket(xbar, mu_x, alpha, beta))


def _reference_hazard_free(family, alpha, xbar, mu_x):
    if family in ("mean_per_unit", "weighted_difference"):
        return np.ones(np.shape(xbar), dtype=bool)
    ok = np.not_equal(xbar + mu_x, 0.0)
    if family == "exp_ratio":
        return ok
    if mu_x == 0:
        return np.zeros(np.shape(xbar), dtype=bool)
    if not float(alpha).is_integer():
        ok = ok & np.greater(np.asarray(xbar) / mu_x, 0.0)
    return ok


def _spec(family, w1, w2, alpha, beta):
    return {
        "mean_per_unit": MEAN_PER_UNIT,
        "exp_ratio": EXP_RATIO,
        "weighted_difference": Estimator(w1, w2),
        "power_exp": power_exp(alpha, beta),
        "weighted_power_exp": weighted_power_exp(w1, w2, alpha, beta),
    }[family]


FAMILIES = ("mean_per_unit", "exp_ratio", "weighted_difference", "power_exp",
            "weighted_power_exp")


class TestKernelEquivalence:
    """The one kernel against the five separate expressions, bit for bit."""

    def test_matches_reference_bitwise(self):
        rng = np.random.default_rng(20261018)
        trials = 1500
        for trial in range(trials):
            family = FAMILIES[trial % len(FAMILIES)]
            mu_x = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 200.0))
            # xbar straddles 0 on about half the arrays
            xbar = mu_x + abs(mu_x) * rng.uniform(0.05, 2.0) \
                * rng.standard_normal(64)
            xbar[:3] = (-mu_x, 0.0, -0.5 * mu_x)   # xbar + mu_x = 0, base <= 0
            ybar = rng.uniform(-300.0, 300.0, 64)
            w1, w2 = rng.uniform(-2.0, 2.0, 2)
            alpha = float(rng.integers(-3, 4) if trial % 2
                          else rng.uniform(-3.0, 3.0))
            beta = float(rng.uniform(-3.0, 3.0))
            spec = _spec(family, w1, w2, alpha, beta)
            with np.errstate(all="ignore"):
                got = evaluate_at_means(spec, ybar, xbar, mu_x)
                want = _reference_value(family, w1, w2, alpha, beta, ybar,
                                        xbar, mu_x)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64)), \
                (trial, spec)
            assert np.array_equal(hazard_free(spec, xbar, mu_x),
                                  _reference_hazard_free(family, alpha, xbar,
                                                         mu_x)), (trial, spec)

    def test_zero_mu_x_is_all_hazard_for_power_exp(self):
        xbar = np.array([-1.0, 0.5, 2.0])
        assert not hazard_free(power_exp(1.0, 0.0), xbar, 0.0).any()
        assert not hazard_free(power_exp(1.0, 0.0), 0.5, 0.0)
        assert hazard_free(MEAN_PER_UNIT, 0.5, 0.0)
