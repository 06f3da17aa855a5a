"""First-order bias and MSE theory for the estimator family.

All results are stated through the moment set of the observed means. For the
mean per unit and the weighted difference the MSE expressions are exact; for
the ratio-corrected estimators they are first-order (order 1/n)
approximations obtained by expanding the correction bracket around
xbar = mu_x.

Conventions
-----------
* Every MSE splits as ``without_me + me_contribution = total`` where
  ``without_me`` is the same formula evaluated at zero error variances. Rows
  built around optimal coefficients re-optimize at zero error variances for
  the without leg, so both legs describe the best attainable value in their
  own world.
* The correction bracket 2 - (xbar/mu_x)^alpha exp(beta (xbar-mu_x)/(xbar+mu_x))
  expands as 1 - B d - A d^2 with d = (xbar - mu_x)/mu_x, B = alpha + beta/2
  and, as shipped, A = alpha (alpha - 1) + beta (beta - 2)/8 + alpha beta / 2.
  For alpha in {0, 1} this A equals the exact second-order Taylor
  coefficient; for other alpha the first term of the Taylor coefficient is
  alpha (alpha - 1)/2 and the shipped convention intentionally differs. The
  benchmark grid and the simulation-verified bias results all live on
  alpha in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .estimators import (
    EstimatorSpec,
    ExpRatio,
    MeanPerUnit,
    PowerExpRatio,
    WeightedDifference,
    WeightedPowerExpRatio,
)
from .moments import MomentSet, PopulationParams, derive_moments, error_free

__all__ = [
    "SingularSystemError",
    "MseBreakdown",
    "CorrectionCoefficients",
    "OptimalWeights",
    "MseQuadratic",
    "DominanceReport",
    "var_mean_per_unit",
    "bias_exp_ratio",
    "mse_exp_ratio",
    "mse_exp_ratio_total",
    "regression_slope",
    "mse_regression_diff",
    "mse_weighted_diff",
    "optimal_weighted_diff",
    "min_mse_weighted_diff",
    "correction_coefficients",
    "mse_power_exp",
    "mse_power_exp_total",
    "bias_power_exp",
    "mse_quadratic",
    "mse_weighted_power_exp",
    "optimal_weighted_power_exp",
    "min_mse_weighted_power_exp",
    "bias_weighted_power_exp",
    "pre",
    "dominance_exp_ratio",
    "dominance_weighted_power_exp",
    "theory_mse",
]

# Relative threshold below which a normal-equation determinant counts as zero.
_SINGULAR_RTOL = 1e-12


class SingularSystemError(ArithmeticError):
    """Raised when the normal equations for optimal weights are singular."""


@dataclass(frozen=True)
class MseBreakdown:
    """An MSE split into its error-free part and the measurement-error part.

    ``total == without_me + me_contribution`` holds exactly: the contribution
    is defined as the difference of the two formula values and the total is
    re-formed from the sum.
    """

    without_me: float
    me_contribution: float
    total: float


def _breakdown(without_me: float, total: float) -> MseBreakdown:
    me = total - without_me
    return MseBreakdown(without_me=without_me, me_contribution=me,
                        total=without_me + me)


@dataclass(frozen=True)
class CorrectionCoefficients:
    """Expansion coefficients of the correction bracket, 1 - B d - A d^2."""

    linear: float      # B = alpha + beta/2
    quadratic: float   # A = alpha(alpha-1) + beta(beta-2)/8 + alpha*beta/2


def correction_coefficients(alpha: float, beta: float) -> CorrectionCoefficients:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    return CorrectionCoefficients(
        linear=alpha + beta / 2.0,
        quadratic=alpha * (alpha - 1.0) + beta * (beta - 2.0) / 8.0
        + alpha * beta / 2.0,
    )


@dataclass(frozen=True)
class OptimalWeights:
    """MSE-minimizing coefficient pair and the minimum it attains."""

    first: float     # weight on ybar
    second: float    # weight on (mu_x - xbar)
    min_mse: float


class DominanceReport(NamedTuple):
    """Outcome of an MSE dominance check plus its diagnostic ratio."""

    holds: bool
    ratio: Optional[float]


# --------------------------------------------------------------- mean per unit

def var_mean_per_unit(params: PopulationParams) -> MseBreakdown:
    """Variance of the observed study mean, split by error contribution.

    total = (sigma_y2 + sigma_u2)/n, the error-free leg drops sigma_u2. This
    is exact, and it is the reference MSE for every efficiency comparison.
    """
    return _breakdown(without_me=params.sigma_y2 / params.n,
                      total=(params.sigma_y2 + params.sigma_u2) / params.n)


# ------------------------------------------------------------------- exp ratio

def bias_exp_ratio(m: MomentSet, mu_x: float) -> float:
    """First-order bias of the exponential ratio estimator:
    ((3/8) ratio var_xbar - cov_yxbar / 2) / mu_x."""
    return (0.375 * m.ratio * m.var_xbar - 0.5 * m.cov_yxbar) / mu_x


def mse_exp_ratio_total(m: MomentSet) -> float:
    """First-order MSE of the exponential ratio estimator in moment form:
    var_ybar + ratio^2 var_xbar / 4 - ratio cov_yxbar."""
    return (m.var_ybar + 0.25 * m.ratio * m.ratio * m.var_xbar
            - m.ratio * m.cov_yxbar)


def mse_exp_ratio(params: PopulationParams) -> MseBreakdown:
    """First-order MSE of the exponential ratio estimator, decomposed.

    The error-free leg uses the coefficient-of-variation form
    (sigma_y2/n) [1 - (cv_x/cv_y)(rho - cv_x/(4 cv_y))]; the error
    contribution is ((mu_y^2/(4 mu_x^2)) sigma_v2 + sigma_u2)/n. Their sum
    equals the moment form of ``mse_exp_ratio_total`` identically.
    """
    m = derive_moments(params)
    without = (params.sigma_y2 / params.n) * (
        1.0 - (m.cv_x / m.cv_y) * (params.rho - m.cv_x / (4.0 * m.cv_y)))
    me = ((params.mu_y**2 / (4.0 * params.mu_x**2)) * params.sigma_v2
          + params.sigma_u2) / params.n
    return MseBreakdown(without_me=without, me_contribution=me,
                        total=without + me)


def dominance_exp_ratio(params: PopulationParams) -> DominanceReport:
    """Does the exponential ratio estimator beat the mean per unit?

    ``holds`` compares the two MSE totals directly. ``ratio`` is the
    diagnostic quantity ratio * var_xbar / cov_yxbar (None when the
    covariance is zero); when ratio * cov_yxbar > 0, as in the benchmark
    regime, ``ratio <= 4`` is equivalent to ``holds``.
    """
    m = derive_moments(params)
    holds = mse_exp_ratio(params).total <= var_mean_per_unit(params).total
    ratio = None
    if m.cov_yxbar != 0.0:
        ratio = m.ratio * m.var_xbar / m.cov_yxbar
    return DominanceReport(holds=holds, ratio=ratio)


# ----------------------------------------------------------- weighted difference

def _check_weights(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"weights must be finite, got {v!r}")


def mse_weighted_diff(m: MomentSet, mu_y: float,
                      mean_weight: float, aux_weight: float) -> float:
    """Exact MSE of w1 ybar + w2 (mu_x - xbar):
    (w1-1)^2 mu_y^2 + w1^2 var_ybar + w2^2 var_xbar - 2 w1 w2 cov_yxbar."""
    _check_weights(mean_weight, aux_weight)
    return ((mean_weight - 1.0) ** 2 * mu_y**2
            + mean_weight**2 * m.var_ybar
            + aux_weight**2 * m.var_xbar
            - 2.0 * mean_weight * aux_weight * m.cov_yxbar)


def regression_slope(m: MomentSet) -> float:
    """MSE-minimizing auxiliary weight at mean_weight = 1:
    cov_yxbar / var_xbar."""
    return m.cov_yxbar / m.var_xbar


def optimal_weighted_diff(m: MomentSet, mu_y: float) -> OptimalWeights:
    """Jointly optimal weights for the weighted difference estimator.

    Solving the normal equations with b1 = mu_y^2 + var_ybar,
    b2 = -cov_yxbar, b3 = var_xbar, b4 = mu_y^2 gives
    first = b3 b4 / (b1 b3 - b2^2), second = -b2 b4 / (b1 b3 - b2^2) and
    minimum mu_y^2 - b3 b4^2 / (b1 b3 - b2^2). The minimum is evaluated in
    the rearranged form mu_y^2 (var_ybar var_xbar - cov_yxbar^2) / (b1 b3 -
    b2^2), which is the same quantity without the cancellation of two
    mu_y^2-sized terms. By Cauchy-Schwarz the numerator is non-negative, so
    the minimum is too.
    """
    b1 = mu_y**2 + m.var_ybar
    b2 = -m.cov_yxbar
    b3 = m.var_xbar
    b4 = mu_y**2
    den = b1 * b3 - b2 * b2
    if abs(den) <= _SINGULAR_RTOL * max(abs(b1 * b3), b2 * b2):
        raise SingularSystemError(
            "normal equations for the weighted difference are singular")
    return OptimalWeights(
        first=b3 * b4 / den,
        second=-b2 * b4 / den,
        min_mse=b4 * (m.var_ybar * b3 - b2 * b2) / den)


def min_mse_weighted_diff(params: PopulationParams,
                          ) -> tuple[OptimalWeights, MseBreakdown]:
    """Optimal weighted difference with its decomposed minimum MSE.

    The error-free leg re-optimizes at sigma_u2 = sigma_v2 = 0; it is the
    best error-free value, not the with-error optimum evaluated there.
    """
    opt = optimal_weighted_diff(derive_moments(params), params.mu_y)
    opt_free = optimal_weighted_diff(derive_moments(error_free(params)),
                                     params.mu_y)
    return opt, _breakdown(opt_free.min_mse, opt.min_mse)


def mse_regression_diff(params: PopulationParams) -> MseBreakdown:
    """Decomposed MSE of the weighted difference at mean_weight = 1 and the
    regression slope.

    Each leg uses the slope of its own moment set, so the error-free leg is
    evaluated at the error-free slope (the best mean_weight = 1 choice for
    that leg), mirroring the re-optimization convention of the jointly
    optimal rows.
    """
    m = derive_moments(params)
    m_free = derive_moments(error_free(params))
    total = mse_weighted_diff(m, params.mu_y, 1.0, regression_slope(m))
    without = mse_weighted_diff(m_free, params.mu_y, 1.0,
                                regression_slope(m_free))
    return _breakdown(without, total)


# ------------------------------------------------------------ power-exp family

def mse_power_exp_total(m: MomentSet, alpha: float, beta: float) -> float:
    """First-order MSE of the power-exp corrected mean:
    var_ybar + var_xbar ratio^2 B^2 - 2 ratio B cov_yxbar."""
    B = correction_coefficients(alpha, beta).linear
    return (m.var_ybar + m.var_xbar * m.ratio**2 * B**2
            - 2.0 * m.ratio * B * m.cov_yxbar)


def mse_power_exp(params: PopulationParams, alpha: float, beta: float,
                  ) -> MseBreakdown:
    """Decomposed first-order MSE of the power-exp corrected mean."""
    total = mse_power_exp_total(derive_moments(params), alpha, beta)
    without = mse_power_exp_total(derive_moments(error_free(params)),
                                  alpha, beta)
    return _breakdown(without, total)


def bias_power_exp(m: MomentSet, mu_x: float, alpha: float, beta: float) -> float:
    """First-order bias of the power-exp corrected mean:
    -(B cov_yxbar + A ratio var_xbar) / mu_x."""
    c = correction_coefficients(alpha, beta)
    return -(c.linear * m.cov_yxbar
             + c.quadratic * m.ratio * m.var_xbar) / mu_x


# -------------------------------------------------- weighted power-exp family

@dataclass(frozen=True)
class MseQuadratic:
    """Coefficients of the first-order MSE of the weighted power-exp family.

    As a function of the weights (w1, w2) the MSE is the quadratic

        (w1 - 1)^2 mu_y^2 + w1^2 mean_sq + w2^2 aux_sq
        + 2 w1 w2 cross - 2 w1 mean_lin - 2 w2 aux_lin.
    """

    mean_sq: float    # var_ybar + B^2 ratio^2 var_xbar - 2 A ratio^2 var_xbar
    aux_sq: float     # var_xbar
    cross: float      # 2 B ratio var_xbar - cov_yxbar
    mean_lin: float   # B ratio cov_yxbar - A ratio^2 var_xbar
    aux_lin: float    # B ratio var_xbar

    def mse(self, mu_y: float, mean_weight: float, aux_weight: float) -> float:
        """Evaluate the quadratic at one weight pair."""
        _check_weights(mean_weight, aux_weight)
        w1, w2 = mean_weight, aux_weight
        return ((w1 - 1.0) ** 2 * mu_y**2 + w1 * w1 * self.mean_sq
                + w2 * w2 * self.aux_sq + 2.0 * w1 * w2 * self.cross
                - 2.0 * w1 * self.mean_lin - 2.0 * w2 * self.aux_lin)

    def positive_definite(self, mu_y: float) -> bool:
        """Whether the quadratic has a unique finite minimum.

        Fails only in regimes far outside the first-order theory's remit
        (auxiliary dispersion comparable to mu_x^2); there the stationary
        point is a saddle and ``minimize`` does not return a minimum.
        """
        den = (mu_y**2 + self.mean_sq) * self.aux_sq - self.cross**2
        return self.aux_sq > 0.0 and den > 0.0

    def minimize(self, mu_y: float) -> OptimalWeights:
        """Stationary point of the quadratic and its value.

        With c1 = mu_y^2 + mean_lin and c2 = mu_y^2 + mean_sq the normal
        equations give first = (c1 aux_sq - cross aux_lin) / (c2 aux_sq -
        cross^2) and second = (c2 aux_lin - c1 cross) / (same denominator).
        When ``positive_definite`` holds, as it does in every benchmark
        regime, this is the global minimum.
        """
        c1 = mu_y**2 + self.mean_lin
        c2 = mu_y**2 + self.mean_sq
        den = c2 * self.aux_sq - self.cross**2
        if abs(den) <= _SINGULAR_RTOL * max(abs(c2 * self.aux_sq),
                                            self.cross**2):
            raise SingularSystemError(
                "normal equations for the weighted power-exp family are "
                "singular")
        first = (c1 * self.aux_sq - self.cross * self.aux_lin) / den
        second = (c2 * self.aux_lin - c1 * self.cross) / den
        return OptimalWeights(first=first, second=second,
                              min_mse=self.mse(mu_y, first, second))


def mse_quadratic(m: MomentSet, coeffs: CorrectionCoefficients) -> MseQuadratic:
    """Assemble the MSE quadratic of the weighted power-exp family."""
    B, A = coeffs.linear, coeffs.quadratic
    r2_var = m.ratio**2 * m.var_xbar
    return MseQuadratic(
        mean_sq=m.var_ybar + B * B * r2_var - 2.0 * A * r2_var,
        aux_sq=m.var_xbar,
        cross=2.0 * B * m.ratio * m.var_xbar - m.cov_yxbar,
        mean_lin=B * m.ratio * m.cov_yxbar - A * r2_var,
        aux_lin=B * m.ratio * m.var_xbar,
    )


def mse_weighted_power_exp(m: MomentSet, mu_y: float, alpha: float, beta: float,
                           mean_weight: float, aux_weight: float) -> float:
    """First-order MSE of the weighted power-exp estimator at given weights."""
    quad = mse_quadratic(m, correction_coefficients(alpha, beta))
    return quad.mse(mu_y, mean_weight, aux_weight)


def optimal_weighted_power_exp(m: MomentSet, mu_y: float,
                               alpha: float, beta: float) -> OptimalWeights:
    """Optimal weights of the weighted power-exp family for one (alpha, beta)."""
    quad = mse_quadratic(m, correction_coefficients(alpha, beta))
    return quad.minimize(mu_y)


def min_mse_weighted_power_exp(params: PopulationParams, alpha: float,
                               beta: float) -> tuple[OptimalWeights, MseBreakdown]:
    """Optimal weighted power-exp estimator with its decomposed minimum.

    Like ``min_mse_weighted_diff``, the error-free leg re-optimizes at zero
    error variances.
    """
    opt = optimal_weighted_power_exp(derive_moments(params), params.mu_y,
                                     alpha, beta)
    opt_free = optimal_weighted_power_exp(derive_moments(error_free(params)),
                                          params.mu_y, alpha, beta)
    return opt, _breakdown(opt_free.min_mse, opt.min_mse)


def bias_weighted_power_exp(m: MomentSet, mu_x: float, mu_y: float,
                            alpha: float, beta: float,
                            mean_weight: float, aux_weight: float) -> float:
    """First-order bias of the weighted power-exp estimator:
    (w1-1) mu_y - w1 mu_y A var_xbar / mu_x^2 - w1 B cov_yxbar / mu_x
    + w2 B var_xbar / mu_x."""
    _check_weights(mean_weight, aux_weight)
    c = correction_coefficients(alpha, beta)
    return ((mean_weight - 1.0) * mu_y
            - mean_weight * mu_y * (m.var_xbar * c.quadratic / mu_x**2)
            - mean_weight * (c.linear / mu_x) * m.cov_yxbar
            + aux_weight * (c.linear / mu_x) * m.var_xbar)


def dominance_weighted_power_exp(params: PopulationParams,
                                 alpha: float, beta: float) -> bool:
    """Does the optimally weighted power-exp estimator beat the mean per unit?"""
    opt, _ = min_mse_weighted_power_exp(params, alpha, beta)
    return opt.min_mse <= var_mean_per_unit(params).total


# ------------------------------------------------------------------ efficiency

def pre(mse_reference: float, mse: float) -> float:
    """Percent relative efficiency, 100 * mse_reference / mse.

    Exactly 100 when ``mse`` equals the reference, which the rounding of
    100 * r / r misses for some r.
    """
    if not (math.isfinite(mse_reference) and mse_reference > 0):
        raise ValueError(f"reference MSE must be positive, got {mse_reference!r}")
    if not (math.isfinite(mse) and mse > 0):
        raise ValueError(f"MSE must be positive, got {mse!r}")
    if mse == mse_reference:
        return 100.0
    return 100.0 * mse_reference / mse


# ---------------------------------------------------------------------- bridge

def theory_mse(spec: EstimatorSpec, params: PopulationParams) -> float:
    """First-order MSE total predicted for ``spec`` under ``params``.

    This is the single source the simulation engine and the reports compare
    against; totals agree with the decomposed forms by construction.
    """
    if isinstance(spec, MeanPerUnit):
        return var_mean_per_unit(params).total
    if isinstance(spec, ExpRatio):
        return mse_exp_ratio(params).total
    if isinstance(spec, WeightedDifference):
        return mse_weighted_diff(derive_moments(params), params.mu_y,
                                 spec.mean_weight, spec.aux_weight)
    if isinstance(spec, PowerExpRatio):
        return mse_power_exp(params, spec.alpha, spec.beta).total
    if isinstance(spec, WeightedPowerExpRatio):
        return mse_weighted_power_exp(derive_moments(params), params.mu_y,
                                      spec.alpha, spec.beta,
                                      spec.mean_weight, spec.aux_weight)
    raise TypeError(f"unknown estimator spec: {spec!r}")
