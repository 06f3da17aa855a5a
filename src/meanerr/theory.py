"""First-order bias and MSE theory for the estimator family.

All results are stated through the moment set of the observed means. For the
mean per unit and the weighted difference the MSE expressions are exact; for
the ratio-corrected estimators they are first-order (order 1/n)
approximations obtained by expanding the correction bracket around
xbar = mu_x.

Conventions
-----------
* Every MSE splits as ``without_me + me_contribution = total`` where
  ``without_me`` is the same formula evaluated at zero error variances. The
  breakdowns take the moment pair ``m = derive_moments(params)`` and
  ``m_free = derive_moments(params, error_free=True)``, derived once by the
  caller. Rows built around optimal coefficients re-optimize at zero error
  variances for the without leg, so both legs describe the best attainable
  value in their own world.
* A correction bracket expands as 1 - B d - A d^2 with
  d = (xbar - mu_x)/mu_x; the bracket carries B as ``linear`` and A as
  ``quadratic``. The power-exp bracket
  2 - (xbar/mu_x)^alpha exp(beta (xbar-mu_x)/(xbar+mu_x)) has B = alpha +
  beta/2 and, as shipped, A = alpha (alpha - 1) + beta (beta - 2)/8 +
  alpha beta / 2. For alpha in {0, 1} this A equals the exact second-order
  Taylor coefficient; for other alpha the first term of the Taylor
  coefficient is alpha (alpha - 1)/2 and the shipped convention
  intentionally differs. The benchmark grid and the simulation-verified
  bias results all live on alpha in {0, 1}.
* The formulas stay per family: the general quadratic at weights (1, 0)
  or B = A = 0 is algebraically, but not bitwise, equal to the mean per
  unit, exp-ratio, power-exp and weighted-difference forms, and
  ``theory_mse`` picks the family form wherever one applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import Bracket, Estimator, ExpBracket, PowerExpBracket
from .moments import MomentSet, PopulationParams, derive_moments

__all__ = [
    "SingularSystemError",
    "MseBreakdown",
    "OptimalWeights",
    "MseQuadratic",
    "var_mean_per_unit",
    "mse_exp_ratio",
    "regression_slope",
    "mse_regression_diff",
    "mse_weighted_diff",
    "optimal_weighted_diff",
    "min_mse_weighted_diff",
    "mse_power_exp",
    "mse_power_exp_total",
    "mse_quadratic",
    "min_mse_weighted_power_exp",
    "first_order_bias",
    "pre",
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
class OptimalWeights:
    """MSE-minimizing coefficient pair and the minimum it attains."""

    first: float     # weight on ybar
    second: float    # weight on (mu_x - xbar)
    min_mse: float


# --------------------------------------------------------------- mean per unit

def var_mean_per_unit(m: MomentSet, m_free: MomentSet) -> MseBreakdown:
    """Variance of the observed study mean, split by error contribution.

    total = (sigma_y2 + sigma_u2)/n, the error-free leg drops sigma_u2. This
    is exact, and it is the reference MSE for every efficiency comparison.
    """
    return _breakdown(without_me=m_free.var_ybar, total=m.var_ybar)


# ------------------------------------------------------------------- exp ratio

def mse_exp_ratio(params: PopulationParams, m: MomentSet) -> MseBreakdown:
    """First-order MSE of the exponential ratio estimator, decomposed.

    The error-free leg uses the coefficient-of-variation form
    (sigma_y2/n) [1 - (cv_x/cv_y)(rho - cv_x/(4 cv_y))]; the error
    contribution is ((mu_y^2/(4 mu_x^2)) sigma_v2 + sigma_u2)/n. Their sum
    equals the moment form var_ybar + ratio^2 var_xbar / 4 - ratio cov_yxbar
    identically. ``m`` is ``derive_moments(params)``.
    """
    without = (params.sigma_y2 / params.n) * (
        1.0 - (m.cv_x / m.cv_y) * (params.rho - m.cv_x / (4.0 * m.cv_y)))
    me = ((params.mu_y**2 / (4.0 * params.mu_x**2)) * params.sigma_v2
          + params.sigma_u2) / params.n
    return MseBreakdown(without_me=without, me_contribution=me,
                        total=without + me)


# ----------------------------------------------------------- weighted difference

def _check_weights(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"weights must be finite, got {v!r}")


def _check_optimum(family: str, *values: float) -> None:
    """OverflowError unless every optimal weight and minimum is finite."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(
            f"optimal weights of the {family} leave the float range")


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
    the minimum is too. Raises OverflowError when a weight or the minimum
    leaves the float range.
    """
    b1 = mu_y**2 + m.var_ybar
    b2 = -m.cov_yxbar
    b3 = m.var_xbar
    b4 = mu_y**2
    den = b1 * b3 - b2 * b2
    if abs(den) <= _SINGULAR_RTOL * max(abs(b1 * b3), b2 * b2):
        raise SingularSystemError(
            "normal equations for the weighted difference are singular")
    opt = OptimalWeights(
        first=b3 * b4 / den,
        second=-b2 * b4 / den,
        min_mse=b4 * (m.var_ybar * b3 - b2 * b2) / den)
    _check_optimum("weighted difference", opt.first, opt.second, opt.min_mse)
    return opt


def min_mse_weighted_diff(m: MomentSet, m_free: MomentSet, mu_y: float,
                          ) -> tuple[OptimalWeights, MseBreakdown]:
    """Optimal weighted difference with its decomposed minimum MSE.

    The error-free leg re-optimizes at sigma_u2 = sigma_v2 = 0; it is the
    best error-free value, not the with-error optimum evaluated there.
    """
    opt = optimal_weighted_diff(m, mu_y)
    opt_free = optimal_weighted_diff(m_free, mu_y)
    return opt, _breakdown(opt_free.min_mse, opt.min_mse)


def mse_regression_diff(m: MomentSet, m_free: MomentSet, mu_y: float,
                        ) -> MseBreakdown:
    """Decomposed MSE of the weighted difference at mean_weight = 1 and the
    regression slope.

    Each leg uses the slope of its own moment set, so the error-free leg is
    evaluated at the error-free slope (the best mean_weight = 1 choice for
    that leg), mirroring the re-optimization convention of the jointly
    optimal rows.
    """
    total = mse_weighted_diff(m, mu_y, 1.0, regression_slope(m))
    without = mse_weighted_diff(m_free, mu_y, 1.0, regression_slope(m_free))
    return _breakdown(without, total)


# ------------------------------------------------------------ power-exp family

def mse_power_exp_total(m: MomentSet, bracket: PowerExpBracket) -> float:
    """First-order MSE of the power-exp corrected mean:
    var_ybar + var_xbar ratio^2 B^2 - 2 ratio B cov_yxbar."""
    B = bracket.linear
    return (m.var_ybar + m.var_xbar * m.ratio**2 * B**2
            - 2.0 * m.ratio * B * m.cov_yxbar)


def mse_power_exp(m: MomentSet, m_free: MomentSet, bracket: PowerExpBracket,
                  ) -> MseBreakdown:
    """Decomposed first-order MSE of the power-exp corrected mean."""
    return _breakdown(mse_power_exp_total(m_free, bracket),
                      mse_power_exp_total(m, bracket))


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
        regime, this is the global minimum. Raises OverflowError when a
        weight or the value leaves the float range.
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
        family = "weighted power-exp family"
        _check_optimum(family, first, second)
        min_mse = self.mse(mu_y, first, second)
        _check_optimum(family, min_mse)
        return OptimalWeights(first=first, second=second, min_mse=min_mse)


def mse_quadratic(m: MomentSet, bracket: Bracket) -> MseQuadratic:
    """Assemble the MSE quadratic of the weighted family with ``bracket``."""
    B, A = bracket.linear, bracket.quadratic
    r2_var = m.ratio**2 * m.var_xbar
    return MseQuadratic(
        mean_sq=m.var_ybar + B * B * r2_var - 2.0 * A * r2_var,
        aux_sq=m.var_xbar,
        cross=2.0 * B * m.ratio * m.var_xbar - m.cov_yxbar,
        mean_lin=B * m.ratio * m.cov_yxbar - A * r2_var,
        aux_lin=B * m.ratio * m.var_xbar,
    )


def min_mse_weighted_power_exp(m: MomentSet, m_free: MomentSet, mu_y: float,
                               bracket: PowerExpBracket,
                               ) -> tuple[OptimalWeights, MseBreakdown]:
    """Optimal weighted power-exp estimator with its decomposed minimum.

    Like ``min_mse_weighted_diff``, the error-free leg re-optimizes at zero
    error variances. Raises OverflowError, named for the family, when a
    weight, the minimum or a coefficient on the way leaves the float range.
    """
    try:
        opt = mse_quadratic(m, bracket).minimize(mu_y)
        opt_free = mse_quadratic(m_free, bracket).minimize(mu_y)
    except OverflowError:
        # float ** raises a bare (34, 'Numerical result out of range')
        raise OverflowError("optimal weights of the weighted power-exp "
                            "family leave the float range") from None
    return opt, _breakdown(opt_free.min_mse, opt.min_mse)


# ------------------------------------------------------------------------ bias

def first_order_bias(spec: Estimator, m: MomentSet, mu_x: float,
                     mu_y: float) -> float:
    """First-order bias of ``spec``:
    (w1 - 1) mu_y - w1 (B cov_yxbar + A ratio var_xbar) / mu_x
    + w2 B var_xbar / mu_x, with B = A = 0 when there is no bracket (the
    bias of the weighted difference is then exact)."""
    w1, w2 = spec.mean_weight, spec.aux_weight
    B = A = 0.0
    if spec.bracket is not None:
        B, A = spec.bracket.linear, spec.bracket.quadratic
    return ((w1 - 1.0) * mu_y
            - w1 * (B * m.cov_yxbar + A * m.ratio * m.var_xbar) / mu_x
            + w2 * B * m.var_xbar / mu_x)


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

def theory_mse(spec: Estimator, params: PopulationParams) -> float:
    """First-order MSE total predicted for ``spec`` under ``params``.

    This is the single source the simulation engine and the reports compare
    against. At weights (1, 0) it is the total of the mean per unit,
    exp-ratio or power-exp breakdown; otherwise the weighted difference's
    exact MSE without a bracket, and the weighted family's quadratic with
    one.
    """
    bracket = spec.bracket
    m = derive_moments(params)
    if (spec.mean_weight, spec.aux_weight) == (1.0, 0.0):
        if bracket == ExpBracket():
            return mse_exp_ratio(params, m).total
        # the breakdown re-sums its legs, so the total needs both
        m_free = derive_moments(params, error_free=True)
        if bracket is None:
            return var_mean_per_unit(m, m_free).total
        return mse_power_exp(m, m_free, bracket).total
    if bracket is None:
        return mse_weighted_diff(m, params.mu_y, spec.mean_weight,
                                 spec.aux_weight)
    return mse_quadratic(m, bracket).mse(params.mu_y, spec.mean_weight,
                                         spec.aux_weight)
