"""First-order bias and MSE theory for the estimator family.

Every estimator is T = (w1 ybar + w2 (mu_x - xbar)) g(xbar), with the
bracket g = 1 when there is none, and every result is stated through the
moment set of the observed means. One quadratic in the weights,
``mse_quadratic``, gives the MSE of each row; without a bracket it is exact,
with one it is a first-order (order 1/n) approximation obtained by expanding
the bracket around xbar = mu_x.

Conventions
-----------
* Every MSE splits as ``without_me + me_contribution = total`` where
  ``without_me`` is the same quadratic built at zero error variances.
  ``row_plan`` derives ``m = derive_moments(params)`` and
  ``m_free = derive_moments(params, error_free=True)`` once per table and
  evaluates each row's quadratic at both. Rows built around optimal
  coefficients re-optimize at zero error variances for the without leg, so
  both legs describe the best attainable value in their own world. The
  total is kept as computed and ``me_contribution`` is ``total -
  without_me``, so the legs re-sum to the total up to rounding.
* A correction bracket expands as 1 - B d - A d^2 with
  d = (xbar - mu_x)/mu_x; the bracket carries B as ``linear`` and A as
  ``quadratic``. The power-exp bracket
  2 - (xbar/mu_x)^alpha exp(beta (xbar-mu_x)/(xbar+mu_x)) has B = alpha +
  beta/2 and, as shipped, A = alpha (alpha - 1) + beta (beta - 2)/8 +
  alpha beta / 2. For alpha in {0, 1} this A equals the exact second-order
  Taylor coefficient; for other alpha the first term of the Taylor
  coefficient is alpha (alpha - 1)/2 and the shipped convention
  intentionally differs.
* The cross term follows the same shipped convention: ``mean_lin`` takes
  B ratio cov_yxbar once, where the first-order MSE of T takes it with
  weight 2 w1 - 1. The quadratic therefore exceeds the first-order MSE of T
  by exactly 4 w1 (w1 - 1) B ratio cov_yxbar, which vanishes at w1 in
  {0, 1} and enters the optimal rows, where w1 - 1 is O(1/n), only at
  order 1/n^2. The benchmark grid and the simulation-verified bias results
  all live on alpha in {0, 1}.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .estimators import Bracket, Estimator, ExpBracket, PowerExpBracket
from .moments import MomentSet, PopulationParams, derive_moments

__all__ = [
    "SingularSystemError",
    "MseBreakdown",
    "OptimalWeights",
    "MseQuadratic",
    "regression_slope",
    "mse_quadratic",
    "first_order_bias",
    "pre",
    "PlanRow",
    "row_plan",
]

# Relative threshold below which a normal-equation determinant counts as zero.
_SINGULAR_RTOL = 1e-12

# The specs every plan shares, built and validated once. Both are frozen.
_EXP_BRACKET = ExpBracket()
_MEAN_PER_UNIT = Estimator()
_EXP_RATIO = Estimator(bracket=_EXP_BRACKET)


class SingularSystemError(ArithmeticError):
    """Raised when the normal equations for optimal weights are singular."""


class MseBreakdown(NamedTuple):
    """An MSE split into its error-free part and the measurement-error part.

    ``total`` is the value at the moments with the errors, as computed, and
    ``me_contribution`` is ``total - without_me``; the legs re-sum to the
    total up to rounding.
    """

    without_me: float
    me_contribution: float
    total: float


def _breakdown(without_me: float, total: float) -> MseBreakdown:
    return MseBreakdown(without_me=without_me,
                        me_contribution=total - without_me, total=total)


class OptimalWeights(NamedTuple):
    """MSE-minimizing coefficient pair and the minimum it attains."""

    first: float     # weight on ybar
    second: float    # weight on (mu_x - xbar)
    min_mse: float


def regression_slope(m: MomentSet) -> float:
    """cov_yxbar / var_xbar, the MSE-minimizing auxiliary weight at
    mean_weight = 1; nan where var_xbar is 0, inf past the float range."""
    return m.cov_yxbar / m.var_xbar if m.var_xbar else math.nan


# ------------------------------------------------------------- the quadratic
# Integer literals keep the arithmetic exact when the moments are
# fractions.Fraction; on floats they give the same bits as float literals.

class MseQuadratic(NamedTuple):
    """Coefficients of the first-order MSE of the weighted family.

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
        """Evaluate the quadratic at one weight pair; a weight that is not
        finite gives a value that is not finite."""
        w1, w2 = mean_weight, aux_weight
        # w2**2 rounds through libm pow, which the golden bytes rest on;
        # w2 (w2 X) where the square is not a normal float: past the range
        # it raises, below it (a slope under 1.5e-154) it loses bits. The
        # other squares are products, which give inf where ** raises.
        aux = (w2**2 * self.aux_sq if 2.0**-511 <= abs(w2) < 2.0**512
               else w2 * (w2 * self.aux_sq))
        shift = (w1 - 1) * mu_y
        return (shift * shift + w1 * w1 * self.mean_sq
                + aux + 2 * w1 * w2 * self.cross
                - 2 * w1 * self.mean_lin - 2 * w2 * self.aux_lin)

    def positive_definite(self, mu_y: float) -> bool:
        """Whether the quadratic has a unique finite minimum.

        Fails only in regimes far outside the first-order theory's remit
        (auxiliary dispersion comparable to mu_x^2); there the stationary
        point is a saddle and ``minimize`` does not return a minimum.
        """
        den = ((mu_y * mu_y + self.mean_sq) * self.aux_sq
               - self.cross * self.cross)
        return self.aux_sq > 0.0 and den > 0.0

    def minimize(self, mu_y: float) -> OptimalWeights:
        """Stationary point of the quadratic and its value.

        Write S, X, C, L, M for mean_sq, aux_sq, cross, mean_lin, aux_lin.
        With c1 = mu_y^2 + L, c2 = mu_y^2 + S and den = c2 X - C C the
        normal equations give first = (c1 X - C M) / den and second =
        (c2 M - c1 C) / den. The value there, mu_y^2 - c1 first - M second,
        is taken as mu_y^2 (1 - first) - L first - M second with 1 - first
        = ((S - L) X - C C + C M) / den, which cancels no two mu_y^2-sized
        terms. That numerator is formed with X, C and M scaled by a power of
        two that brings X near 1, and mu_y^2 times it over den from the
        three significands, so no partial product leaves the float range
        where the term does not; on normal floats the scaling is exact.
        Without a bracket (L = M = 0) the value is mu_y^2 (S X - C C) / den,
        non-negative by Cauchy-Schwarz. When ``positive_definite`` holds, as
        it does in every benchmark regime, this is the global minimum. Raises
        SingularSystemError when den vanishes and OverflowError when mu_y^2,
        C C, a weight or the value leaves the float range.
        """
        S, X, C = self.mean_sq, self.aux_sq, self.cross
        L, M = self.mean_lin, self.aux_lin
        mu2 = mu_y**2
        c1 = mu2 + L
        c2 = mu2 + S
        CC = C * C
        if CC == math.inf:
            raise OverflowError("optimal weights leave the float range")
        den = c2 * X - CC
        if abs(den) <= _SINGULAR_RTOL * max(abs(c2 * X), CC):
            raise SingularSystemError("normal equations are singular")
        first = (c1 * X - C * M) / den
        # negated factors: without a bracket this is exactly -C c1 / den,
        # the sign of a zero weight included
        second = (c1 * -C - c2 * -M) / den
        frexp, ldexp = math.frexp, math.ldexp
        k = frexp(X)[1] // 2
        Xk, Ck, Mk = ldexp(X, -2 * k), ldexp(C, -k), ldexp(M, -k)
        m1, e1 = frexp(mu2)
        m2, e2 = frexp((S - L) * Xk - Ck * Ck + Ck * Mk)
        m3, e3 = frexp(den)
        min_mse = (ldexp(m1 * (m2 / m3), e1 + e2 + 2 * k - e3)
                   - L * first - M * second)
        if not all(map(math.isfinite, (first, second, min_mse))):
            raise OverflowError("optimal weights leave the float range")
        return OptimalWeights(first=first, second=second, min_mse=min_mse)


def mse_quadratic(m: MomentSet, bracket: Optional[Bracket]) -> MseQuadratic:
    """Assemble the MSE quadratic of the weighted family with ``bracket``.

    Without a bracket (B = A = 0) it is (var_ybar, var_xbar, -cov_yxbar,
    0, 0), formed without the ratio, and the MSE is exact.
    """
    if bracket is None:
        return MseQuadratic(mean_sq=m.var_ybar, aux_sq=m.var_xbar,
                            cross=-m.cov_yxbar, mean_lin=0, aux_lin=0)
    B, A = bracket.linear, bracket.quadratic
    # not the square times var_xbar: below |ratio| ~ 1.5e-154 the square
    # underflows to 0 where ratio^2 var_xbar need not
    r2_var = m.ratio * (m.ratio * m.var_xbar)
    return MseQuadratic(
        mean_sq=m.var_ybar + B * B * r2_var - 2 * A * r2_var,
        aux_sq=m.var_xbar,
        cross=2 * B * m.ratio * m.var_xbar - m.cov_yxbar,
        mean_lin=B * m.ratio * m.cov_yxbar - A * r2_var,
        aux_lin=B * m.ratio * m.var_xbar,
    )


# ------------------------------------------------------------------------ bias

def first_order_bias(spec: Estimator, m: MomentSet, mu_x: float,
                     mu_y: float) -> float:
    """First-order bias of ``spec``:
    (w1 - 1) mu_y - w1 (B cov_yxbar + A ratio var_xbar) / mu_x
    + w2 B var_xbar / mu_x, with B = A = 0 when there is no bracket (the
    bias of the weighted difference is then exact)."""
    w1, w2 = spec.mean_weight, spec.aux_weight
    B = A = 0
    if spec.bracket is not None:
        B, A = spec.bracket.linear, spec.bracket.quadratic
    return ((w1 - 1) * mu_y
            - w1 * (B * m.cov_yxbar + A * m.ratio * m.var_xbar) / mu_x
            + w2 * B * m.var_xbar / mu_x)


# ------------------------------------------------------------------ efficiency

def pre(mse_reference: float, mse: float) -> float:
    """Percent relative efficiency, 100 * mse_reference / mse, and nan
    unless both MSEs are positive finite floats; inf where the quotient
    leaves the float range.

    Exactly 100 when ``mse`` equals the reference, which the rounding of
    100 * r / r misses for some r.
    """
    if not (0 < mse_reference < math.inf and 0 < mse < math.inf):
        return math.nan
    if mse == mse_reference:
        return 100.0
    return 100.0 * mse_reference / mse


# -------------------------------------------------------------------- row plan

class PlanRow(NamedTuple):
    """One estimator row of the comparison, shared by the theory and Monte
    Carlo tables."""

    label: str
    cells: dict                          # the alpha/beta/weight cells that apply
    spec: Optional[Estimator]            # None without finite weights
    breakdown: Optional[MseBreakdown]
    note: str = ""


def _optimal_row(label: str, cells: dict, family: str, mu_y: float,
                 quad: MseQuadratic, quad_free: MseQuadratic,
                 bracket: Optional[PowerExpBracket] = None) -> PlanRow:
    """The row of the minimum of ``quad``, with the error-free leg the
    minimum of ``quad_free`` taken after it, or the note that says why it
    has none: a singular system, or weights beyond the float range."""
    try:
        opt = quad.minimize(mu_y)
        breakdown = _breakdown(quad_free.minimize(mu_y).min_mse, opt.min_mse)
    except SingularSystemError:
        return PlanRow(label, cells, None, None,
                       f"normal equations for the {family} are singular")
    except OverflowError:
        # float ** raises a bare (34, 'Numerical result out of range')
        return PlanRow(label, cells, None, None, f"optimal weights of the "
                       f"{family} leave the float range")
    return PlanRow(label,
                   {**cells, "mean_weight": opt.first,
                    "aux_weight": opt.second},
                   Estimator(opt.first, opt.second, bracket), breakdown)


def row_plan(params: PopulationParams,
             grid: Sequence[tuple[int, float]]) -> list[PlanRow]:
    """The comparison's rows in table order, at ``params`` as given.

    Rows: mean per unit, exp-ratio, regression-slope difference, optimal
    weighted difference, then the power-exp rows for every grid pair
    followed by the optimal weighted power-exp rows for every grid pair.
    Each breakdown is a row's quadratic at ``m`` and at ``m_free``, derived
    once for all rows, with the total taken first: at weights (1, 0) for the
    mean per unit (the reference of every PRE), the exp ratio and the
    power-exp rows, at each moment set's own regression slope for the
    difference, and minimized in each moment set for the optima. A power-exp
    row and its optimal row share their two quadratics. A leg that leaves
    the float range is inf or nan in its own row. A regression slope that
    is not finite yields spec None, and its legs are nan. A singular
    optimum, or one beyond the float range, yields spec and breakdown None
    with the reason in the note; the other rows are unaffected.
    """
    m = derive_moments(params)
    m_free = derive_moments(params, error_free=True)
    mu_y = params.mu_y

    def legs(quad, quad_free, aux_weight=0.0, aux_weight_free=0.0):
        return _breakdown(total=quad.mse(mu_y, 1.0, aux_weight),
                          without_me=quad_free.mse(mu_y, 1.0, aux_weight_free))

    plain = mse_quadratic(m, None), mse_quadratic(m_free, None)
    slope = regression_slope(m)
    plan = [
        PlanRow("mean_per_unit", {}, _MEAN_PER_UNIT, legs(*plain)),
        PlanRow("exp_ratio", {}, _EXP_RATIO,
                legs(mse_quadratic(m, _EXP_BRACKET),
                     mse_quadratic(m_free, _EXP_BRACKET))),
        PlanRow("regression_diff", {"mean_weight": 1.0, "aux_weight": slope},
                Estimator(1.0, slope) if math.isfinite(slope) else None,
                legs(*plain, slope, regression_slope(m_free))),
        _optimal_row("weighted_diff_optimal", {}, "weighted difference",
                     mu_y, *plain),
    ]
    brackets = [PowerExpBracket(float(alpha), float(beta))
                for alpha, beta in grid]
    quads = [(mse_quadratic(m, bracket), mse_quadratic(m_free, bracket))
             for bracket in brackets]
    for (alpha, beta), bracket, pair in zip(grid, brackets, quads):
        plan.append(PlanRow("power_exp", {"alpha": alpha, "beta": beta},
                            Estimator(bracket=bracket), legs(*pair)))
    for (alpha, beta), bracket, pair in zip(grid, brackets, quads):
        plan.append(_optimal_row(
            "weighted_power_exp_optimal", {"alpha": alpha, "beta": beta},
            "weighted power-exp family", mu_y, *pair, bracket))
    return plan
