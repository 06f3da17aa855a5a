"""Theory-module tests.

The frozen constants were computed independently with 50-digit decimal
arithmetic (and cross-checked against numeric minimizers and a symbolic
series expansion) before this module was written; the tests pin the shipped
formulas to those values.
"""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.moments import MomentSet, derive_moments
from meanerr.theory import (
    MseQuadratic,
    SingularSystemError,
    first_order_bias,
    mse_exp_ratio,
    mse_power_exp_total,
    mse_quadratic,
    mse_weighted_diff,
    optimal_weighted_diff,
    pre,
    regression_slope,
    row_plan,
    theory_mse,
)

from conftest import moment_pair, population_params

PAIRS = [(1, 0), (0, 1), (1, 1), (1, -1)]
EXP_RATIO = Estimator(bracket=ExpBracket())


def power_exp(alpha, beta):
    return Estimator(bracket=PowerExpBracket(alpha, beta))


def plan_row(params, label, pair=None):
    """The ``label`` row of ``row_plan`` at ``params``; the power-exp rows
    are those of the one-pair grid ``pair``."""
    grid = () if pair is None else (pair,)
    return next(row for row in row_plan(params, grid) if row.label == label)


def mean_per_unit(params):
    return plan_row(params, "mean_per_unit").breakdown


def exp_ratio_moment_form(m):
    """First-order MSE of the exponential ratio estimator in moment form:
    var_ybar + ratio^2 var_xbar / 4 - ratio cov_yxbar."""
    return (m.var_ybar + 0.25 * m.ratio * m.ratio * m.var_xbar
            - m.ratio * m.cov_yxbar)


class TestMeanPerUnit:
    def test_benchmark_values(self, table_params):
        v = mean_per_unit(table_params)
        assert v.total == pytest.approx(131.4, rel=1e-12)
        assert v.without_me == pytest.approx(127.8, rel=1e-12)
        assert v.me_contribution == pytest.approx(3.6, rel=1e-12)

    @given(population_params())
    def test_decomposition_exact(self, params):
        v = mean_per_unit(params)
        assert v.without_me == moment_pair(params)[1].var_ybar
        assert v.total == v.without_me + v.me_contribution
        assert v.me_contribution >= 0.0


class TestExpRatio:
    def test_benchmark_bias(self, table_params):
        m = derive_moments(table_params)
        b = first_order_bias(EXP_RATIO, m, table_params.mu_x,
                             table_params.mu_y)
        assert b == pytest.approx(-0.032517364951486, rel=1e-12)

    def test_benchmark_mse(self, table_params):
        mse = mse_exp_ratio(table_params, derive_moments(table_params))
        assert mse.without_me == pytest.approx(25.947741551457518, rel=1e-12)
        assert mse.me_contribution == pytest.approx(4.102287197231834, rel=1e-12)
        assert mse.total == pytest.approx(30.050028748689352, rel=1e-12)

    @given(population_params())
    def test_cv_form_equals_moment_form(self, params):
        # two algebraically equal routes to the same total; the absolute
        # slack is the term-magnitude envelope, since both routes cancel
        # near-identical large terms when the total is close to zero
        m = derive_moments(params)
        decomposed = mse_exp_ratio(params, derive_moments(params))
        moment_form = exp_ratio_moment_form(m)
        envelope = (m.var_ybar + 0.25 * m.ratio**2 * m.var_xbar
                    + abs(m.ratio * m.cov_yxbar))
        assert decomposed.total == pytest.approx(moment_form, rel=1e-9,
                                                 abs=1e-9 * envelope)

    @given(population_params(), st.floats(0.1, 1e4), st.floats(0.1, 1e4))
    def test_monotone_in_error_variances(self, params, du, dv):
        def total(p):
            return mse_exp_ratio(p, derive_moments(p)).total

        base = total(params)
        more_u = total(dataclasses.replace(
            params, sigma_u2=params.sigma_u2 + du))
        more_v = total(dataclasses.replace(
            params, sigma_v2=params.sigma_v2 + dv))
        assert more_u >= base
        assert more_v >= base

    def test_dominance_report(self, table_params):
        # the exp ratio beats the mean per unit; with ratio * cov_yxbar > 0
        # that is ratio * var_xbar / cov_yxbar <= 4
        m = derive_moments(table_params)
        assert (mse_exp_ratio(table_params, derive_moments(table_params)).total
                <= mean_per_unit(table_params).total)
        assert m.ratio * m.var_xbar / m.cov_yxbar == pytest.approx(
            1.258871526864795, rel=1e-12)

    def test_dominance_ratio_none_when_uncorrelated(self, table_params):
        # with rho = 0 the correction only adds variance
        params = dataclasses.replace(table_params, rho=0.0)
        assert derive_moments(params).cov_yxbar == 0.0
        assert (mse_exp_ratio(params, derive_moments(params)).total
                > mean_per_unit(params).total)


class TestWeightedDifference:
    def test_regression_slope_values(self, table_params):
        slope = regression_slope(derive_moments(table_params))
        assert slope == pytest.approx(0.593435316938142, rel=1e-12)
        slope_free = regression_slope(
            derive_moments(table_params, error_free=True))
        assert slope_free == pytest.approx(0.599909156759285, rel=1e-12)

    def test_regression_row_values(self, table_params):
        m = derive_moments(table_params)
        total = mse_weighted_diff(m, table_params.mu_y, 1.0,
                                  regression_slope(m))
        assert total == pytest.approx(13.917597410071942, rel=1e-12)
        m0 = derive_moments(table_params, error_free=True)
        without = mse_weighted_diff(m0, table_params.mu_y, 1.0,
                                    regression_slope(m0))
        assert without == pytest.approx(9.035971200000000, rel=1e-12)

    def test_regression_breakdown_matches_composition(self, table_params):
        bd = plan_row(table_params, "regression_diff").breakdown
        assert bd.without_me == pytest.approx(9.035971200000000, rel=1e-12)
        assert bd.total == pytest.approx(13.917597410071942, rel=1e-12)
        assert bd.without_me + bd.me_contribution == bd.total

    def test_slope_minimizes_over_aux_weight(self, table_params):
        m = derive_moments(table_params)
        slope = regression_slope(m)
        at_slope = mse_weighted_diff(m, table_params.mu_y, 1.0, slope)
        for h in (1e-3, 1e-2, 0.1):
            assert mse_weighted_diff(m, table_params.mu_y, 1.0, slope + h) > at_slope
            assert mse_weighted_diff(m, table_params.mu_y, 1.0, slope - h) > at_slope

    def test_mean_weight_one_aux_zero_is_plain_variance(self, table_params):
        m = derive_moments(table_params)
        assert mse_weighted_diff(m, table_params.mu_y, 1.0, 0.0) == m.var_ybar

    def test_optimal_weights_benchmark(self, table_params):
        opt = optimal_weighted_diff(derive_moments(table_params),
                                    table_params.mu_y)
        assert opt.first == pytest.approx(0.999137851176772, rel=1e-9)
        assert opt.second == pytest.approx(0.592923687377982, rel=1e-9)
        assert opt.min_mse == pytest.approx(13.905598369842689, rel=1e-12)

    def test_min_mse_breakdown_benchmark(self, table_params):
        row = plan_row(table_params, "weighted_diff_optimal")
        bd = row.breakdown
        opt = optimal_weighted_diff(derive_moments(table_params),
                                    table_params.mu_y)
        assert (row.spec.mean_weight, row.spec.aux_weight) == (opt.first,
                                                               opt.second)
        assert opt.min_mse == bd.total
        assert bd.without_me == pytest.approx(9.030911800227132, rel=1e-12)
        assert bd.me_contribution == pytest.approx(4.874686569615558, rel=1e-12)

    @given(population_params())
    def test_plugging_back_reproduces_minimum(self, params):
        # mu_y^2 is the dominant magnitude inside the plugged expression,
        # so the float-error envelope scales with it
        m = derive_moments(params)
        opt = optimal_weighted_diff(m, params.mu_y)
        replug = mse_weighted_diff(m, params.mu_y, opt.first, opt.second)
        slack = 1e-9 * max(1.0, params.mu_y**2, abs(opt.min_mse))
        assert abs(replug - opt.min_mse) <= slack

    @given(population_params(),
           st.floats(-5.0, 5.0, allow_nan=False),
           st.floats(-5.0, 5.0, allow_nan=False))
    def test_optimum_beats_arbitrary_weights(self, params, w1, w2):
        m = derive_moments(params)
        opt = optimal_weighted_diff(m, params.mu_y)
        anywhere = mse_weighted_diff(m, params.mu_y, w1, w2)
        slack = 1e-9 * max(1.0, abs(anywhere), params.mu_y**2)
        assert opt.min_mse <= anywhere + slack

    def test_rejects_non_finite_weights(self, table_params):
        m = derive_moments(table_params)
        with pytest.raises(ValueError):
            mse_weighted_diff(m, table_params.mu_y, math.nan, 0.0)
        with pytest.raises(ValueError):
            mse_weighted_diff(m, table_params.mu_y, 1.0, math.inf)

    def test_singular_system_raises(self):
        # degenerate hand-built moments: mu_y = 0 with perfectly aligned
        # variances make the normal-equation determinant vanish
        m = MomentSet(var_ybar=1.0, var_xbar=1.0, cov_yxbar=1.0,
                      ratio=1.0, cv_y=1.0, cv_x=1.0)
        with pytest.raises(SingularSystemError):
            optimal_weighted_diff(m, 0.0)

    @pytest.mark.parametrize("var, cov, mu_y", [
        # b1 b3 and b2^2 both overflow: the determinant is inf - inf = NaN
        (1e200, 1e200, 1e100),
        # a finite determinant near 1e308, but cov_yxbar mu_y^2 overflows
        (1.0, 10.0, 1e154),
    ], ids=["nan-determinant", "overflowing-weight"])
    def test_non_finite_optimum_is_overflow(self, var, cov, mu_y):
        m = MomentSet(var_ybar=cov * cov / var, var_xbar=var, cov_yxbar=cov,
                      ratio=1.0, cv_y=1.0, cv_x=1.0)
        with pytest.raises(OverflowError, match="^optimal weights of the "
                           "weighted difference leave the float range$"):
            optimal_weighted_diff(m, mu_y)


class TestCorrectionCoefficients:
    @pytest.mark.parametrize("alpha,beta,linear,quadratic", [
        (0, 0, 0.0, 0.0),
        (1, 0, 1.0, 0.0),
        (0, 1, 0.5, -0.125),
        (1, 1, 1.5, 0.375),
        (1, -1, 0.5, -0.125),
    ])
    def test_exact_values(self, alpha, beta, linear, quadratic):
        c = PowerExpBracket(alpha, beta)
        assert c.linear == linear
        assert c.quadratic == quadratic

    def test_pair_equivalence(self):
        # (1, -1) and (0, 1) share both coefficients, so the whole family
        # of downstream results coincides for them
        a, b = PowerExpBracket(1, -1), PowerExpBracket(0, 1)
        assert (a.linear, a.quadratic) == (b.linear, b.quadratic)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PowerExpBracket(math.inf, 0.0)

    @pytest.mark.parametrize("bracket", [
        ExpBracket(), PowerExpBracket(0, 0), PowerExpBracket(1, 0),
        PowerExpBracket(0, 1), PowerExpBracket(1, 1), PowerExpBracket(1, -1),
    ], ids=repr)
    def test_coefficients_expand_the_bracket(self, bracket):
        # g(mu_x (1 + d)) - (1 - B d - A d^2) is O(d^3); at alpha in {0, 1}
        # the shipped A is the Taylor coefficient
        mu_x = 170.0
        for d in (1e-2, 1e-3):
            g = float(bracket(mu_x * (1.0 + d), mu_x))
            rest = g - (1.0 - bracket.linear * d - bracket.quadratic * d * d)
            assert abs(rest) <= 2.0 * d**3


POWER_EXP_BENCHMARK = {
    (1, 0): (21.790618051012, 16.181469262085, 5.609148788927,
             -1.164529539591553),
    (0, 1): (30.050028748689, 25.947741551458, 4.102287197232,
             -0.399015634847680),
    (1, 1): (106.621767906968, 98.501183131881, 8.120584775087,
             -2.296541714231620),
    (1, -1): (30.050028748689, 25.947741551458, 4.102287197232,
              -0.399015634847680),
}


class TestPowerExpRatio:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_benchmark_mse_and_bias(self, table_params, pair):
        total, without, me, bias = POWER_EXP_BENCHMARK[pair]
        bd = plan_row(table_params, "power_exp", pair).breakdown
        assert bd.total == pytest.approx(total, rel=1e-12)
        assert bd.without_me == pytest.approx(without, rel=1e-12)
        assert bd.me_contribution == pytest.approx(me, rel=1e-11)
        m = derive_moments(table_params)
        assert first_order_bias(power_exp(*pair), m, table_params.mu_x,
                                table_params.mu_y) == pytest.approx(
            bias, rel=1e-12)

    @given(population_params())
    def test_beta_one_alpha_zero_matches_exp_ratio(self, params):
        # B = 1/2 either way, so the first-order MSEs coincide
        m = derive_moments(params)
        assert mse_power_exp_total(m, PowerExpBracket(0.0, 1.0)) == \
            pytest.approx(exp_ratio_moment_form(m), rel=1e-12)

    def test_alpha_zero_beta_zero_is_plain_variance(self, table_params):
        m = derive_moments(table_params)
        assert mse_power_exp_total(m, PowerExpBracket(0.0, 0.0)) == m.var_ybar
        assert first_order_bias(power_exp(0.0, 0.0), m, table_params.mu_x,
                                table_params.mu_y) == 0.0


QUAD_BENCHMARK = {
    # mean_sq, aux_sq, cross, mean_lin, aux_lin
    (1, 0): (317.581121107266, 333.6, 300.467625328259,
             147.895251528127, 249.218823529412),
    (0, 1): (224.490560553633, 333.6, 51.248801798848,
             97.220265902472, 124.609411764706),
    (1, 1): (410.671681660900, 333.6, 549.686448857671,
             152.024956876966, 373.828235294118),
    (1, -1): (224.490560553633, 333.6, 51.248801798848,
              97.220265902472, 124.609411764706),
}

OPTIMA_BENCHMARK = {
    # first, second, min_mse, min_mse_free, me, bias at the optimum
    (1, 0): (0.992363543449, -0.146745485111, 12.974288999348,
             8.136087544482, 4.838201454867, -2.413433076621117),
    (0, 1): (0.991524320910, 0.221207968716, 12.743375059193,
             7.938669796830, 4.804705262363, -1.255000896822047),
    (1, 1): (1.001990676018, -0.530433037155, 13.855643410055,
             8.975608923503, 4.880034486552, -3.609642776265588),
    (1, -1): (0.991524320910, 0.221207968716, 12.743375059193,
              7.938669796830, 4.804705262363, -1.255000896822047),
}


class TestWeightedPowerExp:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_quadratic_coefficients(self, table_params, pair):
        quad = mse_quadratic(derive_moments(table_params),
                             PowerExpBracket(*pair))
        expect = QUAD_BENCHMARK[pair]
        got = (quad.mean_sq, quad.aux_sq, quad.cross, quad.mean_lin,
               quad.aux_lin)
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_optimum_benchmark(self, table_params, pair):
        first, second, min_mse, min_free, me, bias = OPTIMA_BENCHMARK[pair]
        bracket = PowerExpBracket(*pair)
        row = plan_row(table_params, "weighted_power_exp_optimal", pair)
        opt, bd = row.spec, row.breakdown
        assert opt.bracket == bracket
        assert opt.mean_weight == pytest.approx(first, rel=1e-9)
        assert opt.aux_weight == pytest.approx(second, rel=1e-9)
        assert bd.total == pytest.approx(min_mse, rel=1e-12)
        assert bd.without_me == pytest.approx(min_free, rel=1e-12)
        assert bd.me_contribution == pytest.approx(me, rel=1e-11)
        m = derive_moments(table_params)
        got_bias = first_order_bias(opt, m, table_params.mu_x,
                                    table_params.mu_y)
        assert got_bias == pytest.approx(bias, rel=1e-9)

    @given(population_params(),
           st.sampled_from(PAIRS),
           st.floats(-3.0, 3.0, allow_nan=False),
           st.floats(-3.0, 3.0, allow_nan=False))
    def test_optimum_beats_arbitrary_weights(self, params, pair, w1, w2):
        # only meaningful while the quadratic is positive definite; outside
        # that regime the stationary point is a saddle by design
        m = derive_moments(params)
        quad = mse_quadratic(m, PowerExpBracket(*pair))
        assume(quad.positive_definite(params.mu_y))
        opt = quad.minimize(params.mu_y)
        anywhere = quad.mse(params.mu_y, w1, w2)
        slack = 1e-9 * max(1.0, abs(anywhere), params.mu_y**2,
                           abs(quad.mean_sq), abs(quad.cross), quad.aux_sq)
        assert opt.min_mse <= anywhere + slack

    @given(population_params(), st.sampled_from(PAIRS))
    def test_nesting_weights_one_zero_gives_power_exp(self, params, pair):
        # w1 = 1, w2 = 0 collapses the quadratic onto the unweighted form
        m = derive_moments(params)
        bracket = PowerExpBracket(*pair)
        quad = mse_quadratic(m, bracket)
        B = bracket.linear
        envelope = (m.var_ybar + (B * m.ratio)**2 * m.var_xbar
                    + 2.0 * abs(B * m.ratio * m.cov_yxbar)
                    + abs(quad.mean_lin))
        assert quad.mse(params.mu_y, 1.0, 0.0) == pytest.approx(
            mse_power_exp_total(m, bracket), rel=1e-9, abs=1e-9 * envelope)

    @given(population_params(),
           st.floats(-3.0, 3.0, allow_nan=False),
           st.floats(-3.0, 3.0, allow_nan=False))
    def test_nesting_zero_coefficients_give_weighted_diff(self, params, w1, w2):
        # B = A = 0 collapses the quadratic onto the weighted difference
        m = derive_moments(params)
        quad = mse_quadratic(m, PowerExpBracket(0.0, 0.0))
        assert quad.mse(params.mu_y, w1, w2) == pytest.approx(
            mse_weighted_diff(m, params.mu_y, w1, w2), rel=1e-12, abs=1e-12)

    def test_stationarity_of_minimum(self, table_params):
        m = derive_moments(table_params)
        for pair in PAIRS:
            quad = mse_quadratic(m, PowerExpBracket(*pair))
            opt = quad.minimize(table_params.mu_y)
            for dw1, dw2 in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)):
                perturbed = quad.mse(table_params.mu_y,
                                     opt.first + dw1, opt.second + dw2)
                assert perturbed >= opt.min_mse - 1e-12 * opt.min_mse

    def test_dominance_over_mean_per_unit(self, table_params):
        plan = row_plan(table_params, PAIRS)
        reference = plan[0].breakdown.total
        optima = [row for row in plan
                  if row.label == "weighted_power_exp_optimal"]
        assert len(optima) == len(PAIRS)
        for row in optima:
            assert row.breakdown.total <= reference

    def test_singular_system_raises(self):
        quad = MseQuadratic(mean_sq=1.0, aux_sq=1.0, cross=1.0,
                            mean_lin=0.0, aux_lin=0.0)
        with pytest.raises(SingularSystemError):
            quad.minimize(0.0)

    @pytest.mark.parametrize("aux_lin", [1e308, 1e200],
                             ids=["overflowing-weight", "overflowing-minimum"])
    def test_non_finite_optimum_is_overflow(self, aux_lin):
        # the determinant is 2; the auxiliary weight is aux_lin, and at
        # 1e200 its square leaves the float range in the minimum
        quad = MseQuadratic(mean_sq=1.0, aux_sq=1.0, cross=0.0,
                            mean_lin=0.0, aux_lin=aux_lin)
        with pytest.raises(OverflowError, match="^optimal weights of the "
                           "weighted power-exp family leave the float range$"):
            quad.minimize(1.0)

    def test_mse_helper_matches_quadratic(self, table_params):
        m = derive_moments(table_params)
        for pair in PAIRS:
            bracket = PowerExpBracket(*pair)
            quad = mse_quadratic(m, bracket)
            assert theory_mse(Estimator(0.9, -0.3, bracket), table_params) \
                == quad.mse(table_params.mu_y, 0.9, -0.3)

    @given(population_params())
    def test_weighted_exp_ratio_nests_exp_ratio(self, params):
        # the exp bracket's coefficients in the weighted quadratic give the
        # exp-ratio MSE back at weights (1, 0)
        m = derive_moments(params)
        quad = mse_quadratic(m, ExpBracket())
        envelope = (m.var_ybar + 0.25 * m.ratio**2 * m.var_xbar
                    + abs(m.ratio * m.cov_yxbar) + abs(quad.mean_lin))
        assert quad.mse(params.mu_y, 1.0, 0.0) == pytest.approx(
            exp_ratio_moment_form(m), rel=1e-9, abs=1e-9 * envelope)


PRE_BENCHMARK = [
    # (alpha, beta) or None for coefficient-free rows; unweighted, weighted
    (None, 100.000000, None),
    ("exp_ratio", 437.270796, None),
    ("regression", 944.128474, None),
    ("weighted_min", 944.943155, None),
    ((1, 0), 603.011809, 1012.772261),
    ((0, 1), 437.270796, 1031.124011),
    ((1, 1), 123.239375, 948.350041),
    ((1, -1), 437.270796, 1031.124011),
]


class TestPre:
    def test_reference_is_exactly_100(self, table_params):
        ref = mean_per_unit(table_params).total
        assert pre(ref, ref) == 100.0

    def test_benchmark_values(self, table_params):
        m = derive_moments(table_params)
        ref = mean_per_unit(table_params).total
        assert pre(ref, mse_exp_ratio(table_params, m).total) == pytest.approx(
            437.270796, abs=1e-6)
        treg = mse_weighted_diff(m, table_params.mu_y, 1.0,
                                 regression_slope(m))
        assert pre(ref, treg) == pytest.approx(944.128474, abs=1e-6)
        opt = optimal_weighted_diff(m, table_params.mu_y)
        assert pre(ref, opt.min_mse) == pytest.approx(944.943155, abs=1e-6)
        for pair, unweighted, weighted in PRE_BENCHMARK[4:]:
            bracket = PowerExpBracket(*pair)
            assert pre(ref, mse_power_exp_total(m, bracket)
                       ) == pytest.approx(unweighted, abs=1e-6)
            opt = mse_quadratic(m, bracket).minimize(table_params.mu_y)
            assert pre(ref, opt.min_mse) == pytest.approx(weighted, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pre(0.0, 1.0)
        with pytest.raises(ValueError):
            pre(1.0, -2.0)
        with pytest.raises(ValueError):
            pre(1.0, math.nan)


class TestRescaledScenario:
    """Constants for the n = 200 scenario the simulation suite targets."""

    def test_moments(self, table_params):
        params = dataclasses.replace(table_params, n=200)
        m = derive_moments(params)
        assert m.var_ybar == pytest.approx(6.57, rel=1e-12)
        assert m.var_xbar == pytest.approx(16.68, rel=1e-12)
        assert m.cov_yxbar == pytest.approx(9.898501086528202, rel=1e-12)

    def test_optimal_weighted_diff(self, table_params):
        params = dataclasses.replace(table_params, n=200)
        opt = optimal_weighted_diff(derive_moments(params), params.mu_y)
        assert opt.first == pytest.approx(0.999956857223119, rel=1e-9)
        assert opt.second == pytest.approx(0.593409714490670, rel=1e-9)
        assert opt.min_mse == pytest.approx(0.695849848313608, rel=1e-12)

    @pytest.mark.parametrize("pair,total,bias", [
        ((1, 0), 1.089530902551, -0.058226476980),
        ((0, 1), 1.502501437434, -0.019950781742),
        ((1, 1), 5.331088395348, -0.114827085712),
        ((1, -1), 1.502501437434, -0.019950781742),
    ])
    def test_power_exp(self, table_params, pair, total, bias):
        params = dataclasses.replace(table_params, n=200)
        m = derive_moments(params)
        assert mse_power_exp_total(m, PowerExpBracket(*pair)) == \
            pytest.approx(total, rel=1e-12)
        assert first_order_bias(power_exp(*pair), m, params.mu_x,
                                params.mu_y) == pytest.approx(bias, rel=1e-9)

    @pytest.mark.parametrize("pair,first,second,min_mse,bias", [
        ((1, 0), 0.999617121331, -0.153278654539, 0.693515078229,
         -0.121869115255),
        ((0, 1), 0.999570812700, 0.219971838431, 0.692906885594,
         -0.063657446644),
        ((1, 1), 1.000096626970, -0.527312134591, 0.695729508836,
         -0.180174494792),
    ])
    def test_weighted_power_exp(self, table_params, pair, first, second,
                                min_mse, bias):
        params = dataclasses.replace(table_params, n=200)
        m = derive_moments(params)
        bracket = PowerExpBracket(*pair)
        opt = mse_quadratic(m, bracket).minimize(params.mu_y)
        assert opt.first == pytest.approx(first, rel=1e-9)
        assert opt.second == pytest.approx(second, rel=1e-9)
        assert opt.min_mse == pytest.approx(min_mse, rel=1e-12)
        got_bias = first_order_bias(Estimator(opt.first, opt.second, bracket),
                                    m, params.mu_x, params.mu_y)
        assert got_bias == pytest.approx(bias, rel=1e-9)


class TestDispatcher:
    def test_matches_per_estimator_functions(self, table_params):
        m = derive_moments(table_params)
        pe = PowerExpBracket(1.0, 1.0)
        cases = [
            (Estimator(), mean_per_unit(table_params).total),
            (EXP_RATIO, mse_exp_ratio(table_params, m).total),
            (Estimator(0.9, 0.4),
             mse_weighted_diff(m, table_params.mu_y, 0.9, 0.4)),
            (Estimator(bracket=pe),
             plan_row(table_params, "power_exp", (1, 1)).breakdown.total),
            (Estimator(0.9, -0.4, pe),
             mse_quadratic(m, pe).mse(table_params.mu_y, 0.9, -0.4)),
            (Estimator(0.9, -0.4, ExpBracket()),
             mse_quadratic(m, ExpBracket()).mse(table_params.mu_y, 0.9,
                                                -0.4)),
        ]
        for spec, expected in cases:
            assert theory_mse(spec, table_params) == expected

    def test_uncorrelated_regression_row_is_mean_per_unit(self, table_params):
        # at rho = 0 the regression slope is 0, so the regression_diff spec
        # is the mean per unit's and takes its re-summed total, which may
        # differ by one ulp from the weighted difference's formula when
        # sigma_u2 > sigma_y2
        params = dataclasses.replace(table_params, rho=0.0, sigma_y2=1.0,
                                     sigma_u2=3.7)
        plan = {row.label: row for row in row_plan(params, ())}
        spec = plan["regression_diff"].spec
        assert spec == plan["mean_per_unit"].spec == Estimator()
        total = theory_mse(spec, params)
        assert total == plan["mean_per_unit"].breakdown.total
        formula = mse_weighted_diff(derive_moments(params), params.mu_y,
                                    1.0, 0.0)
        assert total == 0.47 and formula == 0.47000000000000003
        assert abs(total - formula) == math.ulp(formula)

    @given(population_params(), st.sampled_from(PAIRS))
    @settings(max_examples=30)
    def test_totals_agree_with_breakdowns(self, params, pair):
        bracket = PowerExpBracket(*map(float, pair))
        bd = plan_row(params, "power_exp", pair).breakdown
        assert theory_mse(Estimator(bracket=bracket), params) == bd.total
