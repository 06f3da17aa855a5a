"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from meanerr.estimators import Estimator, evaluate_at_means
from meanerr.ingest import DatasetError
from meanerr.moments import MomentSet, PopulationParams, derive_moments
from meanerr.simulate import SimulationResult


@pytest.fixture
def table_params() -> PopulationParams:
    """The benchmark parameter set used throughout the numeric tests.

    n=10, mu_y=127, mu_x=170, sigma_y2=1278, sigma_x2=3300, rho=0.964,
    error variances 36 on both sides.
    """
    return PopulationParams(
        n=10, mu_y=127.0, mu_x=170.0, sigma_y2=1278.0, sigma_x2=3300.0,
        rho=0.964, sigma_u2=36.0, sigma_v2=36.0,
    )


def moment_pair(params: PopulationParams) -> tuple[MomentSet, MomentSet]:
    """The moments of ``params`` with and without the error variances, the
    pair the theory breakdowns take."""
    return derive_moments(params), derive_moments(params, error_free=True)


def params_from_dict(mapping) -> PopulationParams:
    """Build PopulationParams from a plain mapping (e.g. parsed JSON).

    Keys must match the field names exactly; missing or extra keys are
    errors, so a typo cannot silently fall back to a default.
    """
    expected = {f.name for f in dataclasses.fields(PopulationParams)}
    got = set(mapping)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise DatasetError("parameter document: " + ", ".join(detail))
    return PopulationParams(**{k: mapping[k] for k in expected})


def _finite(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


@st.composite
def population_params(draw, min_n: int = 2, max_n: int = 500) -> PopulationParams:
    """Valid parameter sets over a numerically tame range.

    Means are bounded away from zero and variances span four orders of
    magnitude, enough to exercise the algebra without drifting into float
    pathology that would make 1e-9 relative comparisons meaningless.
    """
    sign_y = draw(st.sampled_from([-1.0, 1.0]))
    sign_x = draw(st.sampled_from([-1.0, 1.0]))
    return PopulationParams(
        n=draw(st.integers(min_value=min_n, max_value=max_n)),
        mu_y=sign_y * draw(_finite(0.5, 1e3)),
        mu_x=sign_x * draw(_finite(0.5, 1e3)),
        sigma_y2=draw(_finite(1e-2, 1e4)),
        sigma_x2=draw(_finite(1e-2, 1e4)),
        rho=draw(_finite(-1.0, 1.0)),
        sigma_u2=draw(_finite(0.0, 1e4)),
        sigma_v2=draw(_finite(0.0, 1e4)),
    )


# ------------------------------------------------------- rational first order
# T = (w1 ybar + w2 (mu_x - xbar)) (1 - B d - A d^2), d = (xbar - mu_x)/mu_x,
# is a polynomial in the deviations e = (ybar - mu_y, xbar - mu_x); only its
# terms up to degree 2 enter the first order. A polynomial is a dict from
# the exponent pair (i, j) of e_y^i e_x^j to its coefficient.

def _times(p, q):
    """The product of two polynomials, truncated after degree 2."""
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            if i + j + k + l <= 2:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return out


def rational_moments(m: MomentSet) -> MomentSet:
    """``m`` with every field the exact rational value of its float."""
    return MomentSet(**{name: Fraction(getattr(m, name))
                        for name in m._fields})


def first_order(m: MomentSet, mu_y, w1, w2, B=0, A=0) -> tuple:
    """(mse, bias) of T to first order, exact in rationals.

    The float inputs are taken at their exact values, and mu_x as
    mu_y / m.ratio, so the code's own ratio is used. With c0 = (w1 - 1)
    mu_y and L, Q the degree-1 and degree-2 parts of T - mu_y, the first
    order of E[(T - mu_y)^2] is c0^2 + E[L^2] + 2 c0 E[Q] and of the bias
    c0 + E[Q]; the rest is O(1/n^2), or odd moments that vanish for
    Gaussian means (Isserlis), so only the variances and the covariance of
    the observed means enter.
    """
    mu_y, w1, w2, B, A = map(Fraction, (mu_y, w1, w2, B, A))
    m = rational_moments(m)
    mu_x = mu_y / m.ratio
    front = {(0, 0): w1 * mu_y, (1, 0): w1, (0, 1): -w2}
    bracket = {(0, 0): 1, (0, 1): -B / mu_x, (0, 2): -A / mu_x**2}
    t = _times(front, bracket)
    c0 = t.get((0, 0), 0) - mu_y
    a, b = t.get((1, 0), 0), t.get((0, 1), 0)
    second = {(2, 0): m.var_ybar, (1, 1): m.cov_yxbar, (0, 2): m.var_xbar}
    e_l2 = a * a * m.var_ybar + 2 * a * b * m.cov_yxbar + b * b * m.var_xbar
    e_q = sum(t.get(key, 0) * value for key, value in second.items())
    return c0 * c0 + e_l2 + 2 * c0 * e_q, c0 + e_q


def shipped_first_order(m: MomentSet, mu_y, w1, w2, B=0, A=0):
    """The first-order MSE in the shipped cross-term convention, exact: the
    oracle's value plus 4 w1 (w1 - 1) B ratio cov_yxbar."""
    mse, _ = first_order(m, mu_y, w1, w2, B, A)
    w1 = Fraction(w1)
    return mse + (4 * w1 * (w1 - 1) * Fraction(B) * Fraction(m.ratio)
                  * Fraction(m.cov_yxbar))


def stationary_value(f):
    """The value of the quadratic ``f(w1, w2)`` at its stationary point,
    exact in rationals, from six of its values; None when the point is not
    unique."""
    c = f(0, 0)
    a11 = (f(1, 0) + f(-1, 0)) / 2 - c
    a22 = (f(0, 1) + f(0, -1)) / 2 - c
    b1 = (f(-1, 0) - f(1, 0)) / 4
    b2 = (f(0, -1) - f(0, 1)) / 4
    a12 = (f(1, 1) - c - a11 - a22 + 2 * b1 + 2 * b2) / 2
    det = a11 * a22 - a12 * a12
    if det == 0:
        return None
    w1 = (a22 * b1 - a12 * b2) / det
    w2 = (a11 * b2 - a12 * b1) / det
    return c - b1 * w1 - b2 * w2


# ------------------------------------------------- Monte Carlo reference

# A --data table of study values near 1e150 over an auxiliary mean near 0:
# the bracket rows' theory legs and several Monte Carlo moments leave the
# float range, while the other rows print.
WIDE_DATA = """Y,X,y,x
1e+150,-99999999999.0,1e+150,-99999999999.0
1.0000000000999999e+150,100000000001.0,1.0000000000999999e+150,100000000001.0
1.0000000002e+150,-199999999999.0,1.0000000002e+150,-199999999999.0
1.0000000003e+150,200000000001.0,1.0000000003e+150,200000000001.0
1.0000000004e+150,-299999999999.0,1.0000000004e+150,-299999999999.0
1.0000000005e+150,300000000001.0,1.0000000005e+150,300000000001.0
"""


def _reference_mean(values, count: int) -> float:
    """``math.fsum(values) / count``; where the sum leaves the float range,
    inf if a value is, else the exact sum scaled by 2**-64 and rounded
    once, over ``count``, scaled back: the mean of finite values is then
    finite."""
    try:
        return math.fsum(values) / count
    except OverflowError:
        if math.inf in values:
            return math.inf
        exact = sum(map(Fraction, values), Fraction(0))
        return float(exact / 2**64) / count * 2.0**64


def reference_result(spec: Estimator, ybars: np.ndarray, xbars: np.ndarray,
                     mu_y: float, mu_x: float) -> SimulationResult:
    """The engine's result for one spec, from ``math.fsum`` over all its
    used replicates at once: the aggregation of one spec as it was before
    the chunked pass over all specs, with the rule that no spec raises. A
    moment with no replicate is nan, one of an infinite square or SE term
    is inf."""
    reps = ybars.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = evaluate_at_means(spec, ybars, xbars, mu_x)
    ok = np.isfinite(values)
    used = int(np.count_nonzero(ok))
    bias = mse = se_mse = math.nan
    deviations = values[ok] - mu_y
    # finite values far from mu_y can square past the float range, and
    # numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        squares = deviations * deviations
        if used:
            bias = _reference_mean(deviations.tolist(), used)
            mse = _reference_mean(squares.tolist(), used)
        if used >= 2:
            se_mse = math.inf
            if mse < math.inf:
                # float_power squares through libm pow, as the scalar
                # ``** 2`` of a numpy float does; ``** 2`` on the array and
                # np.square multiply and can round the last bit differently
                sq_var = _reference_mean(
                    np.float_power(squares - mse, 2.0).tolist(), used - 1)
                se_mse = math.sqrt(sq_var / used)
    return SimulationResult(
        estimator=spec,
        empirical_bias=bias,
        empirical_mse=mse,
        mc_se_mse=se_mse,
        replicates_used=used,
        replicates_skipped=reps - used,
    )
