"""``theory.row_plan`` against the reference plan it replaced, and against
the rational first-order oracle.

The reference below is the earlier plan, with its per-family formulas: the
exp-ratio row in coefficient-of-variation form, the weighted difference
and its optimum in closed form, the power-exp total, and the weighted
power-exp optimum evaluated at its stationary point. The plan must give the
same rows (labels, cells, specs and notes) and fail on the same inputs with
the same error. Three deliberate differences:

* the weighted difference's optimum is blanked only when its weights are
  not finite: the earlier minimum, mu_y^2 (var_ybar var_xbar -
  cov_yxbar^2) / den, forms a product of three moments, which leaves the
  float range on data far past 1e100 where the weights and the minimum do
  not, and the plan's form forms no such product;
* the weighted power-exp determinant squares ``cross`` as ``cross *
  cross``, as the weighted difference's always did, where it took
  ``cross**2``; the two differ in the last bit for about one value in a
  thousand, and so may the optimal weights;
* ratio^2 var_xbar is formed as ratio (ratio var_xbar), where it was
  ratio**2 var_xbar; below |ratio| ~ 1.5e-154 the square underflows to 0
  and dropped the bracket's terms from the power-exp rows, and elsewhere
  the two differ in the last bit, and so may the optimal weights. The
  square is still taken, for its OverflowError.

The numbers are checked against ``conftest.first_order``, exact in
rationals, on every plan that does not abort: each total and error-free
leg lies within 16 rounding errors of the terms it is formed from, or is
the reference's own value.
"""

import dataclasses
import io
import math
import random
import struct
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import pytest

from meanerr import theory
from meanerr.cli import DEFAULT_GRID
from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.ingest import compute_params, load_dataset, preset
from meanerr.moments import MomentSet, PopulationParams, derive_moments

import test_cli
from conftest import (first_order, rational_moments, shipped_first_order,
                      stationary_value)

# ------------------------------------------------------------------ reference


def ref_exp_ratio(params: PopulationParams):
    cv_y = math.sqrt(params.sigma_y2) / params.mu_y
    cv_x = math.sqrt(params.sigma_x2) / params.mu_x
    without = (params.sigma_y2 / params.n) * (
        1.0 - (cv_x / cv_y) * (params.rho - cv_x / (4.0 * cv_y)))
    me = ((params.mu_y**2 / (4.0 * params.mu_x**2)) * params.sigma_v2
          + params.sigma_u2) / params.n
    return without, without + me


def ref_check(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise OverflowError("optimal weights leave the float range")


def ref_weighted_diff(m: MomentSet, mu_y, w1, w2) -> float:
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError("weights must be finite")
    return ((w1 - 1.0) ** 2 * mu_y**2 + w1**2 * m.var_ybar
            + w2**2 * m.var_xbar - 2.0 * w1 * w2 * m.cov_yxbar)


def ref_optimal_weighted_diff(m: MomentSet, mu_y):
    b1 = mu_y**2 + m.var_ybar
    b2 = -m.cov_yxbar
    b3 = m.var_xbar
    b4 = mu_y**2
    den = b1 * b3 - b2 * b2
    if abs(den) <= theory._SINGULAR_RTOL * max(abs(b1 * b3), b2 * b2):
        raise theory.SingularSystemError
    first, second = b3 * b4 / den, -b2 * b4 / den
    ref_check(first, second)
    return first, second, b4 * (m.var_ybar * b3 - b2 * b2) / den


def ref_r2_var(m: MomentSet) -> float:
    m.ratio**2  # OverflowError where the square leaves the float range
    return m.ratio * (m.ratio * m.var_xbar)


def ref_power_exp_total(m: MomentSet, bracket) -> float:
    B = bracket.linear
    return (m.var_ybar + ref_r2_var(m) * B**2
            - 2.0 * m.ratio * B * m.cov_yxbar)


def ref_optimal_power_exp(m: MomentSet, mu_y, bracket):
    B, A = bracket.linear, bracket.quadratic
    r2_var = ref_r2_var(m)
    mean_sq = m.var_ybar + B * B * r2_var - 2.0 * A * r2_var
    aux_sq = m.var_xbar
    cross = 2.0 * B * m.ratio * m.var_xbar - m.cov_yxbar
    mean_lin = B * m.ratio * m.cov_yxbar - A * r2_var
    aux_lin = B * m.ratio * m.var_xbar
    c1 = mu_y**2 + mean_lin
    c2 = mu_y**2 + mean_sq
    cross**2  # OverflowError where the square leaves the float range
    den = c2 * aux_sq - cross * cross
    if abs(den) <= theory._SINGULAR_RTOL * max(abs(c2 * aux_sq),
                                               cross * cross):
        raise theory.SingularSystemError
    first = (c1 * aux_sq - cross * aux_lin) / den
    second = (c2 * aux_lin - c1 * cross) / den
    ref_check(first, second)
    value = ((first - 1.0) ** 2 * mu_y**2 + first * first * mean_sq
             + second * second * aux_sq + 2.0 * first * second * cross
             - 2.0 * first * mean_lin - 2.0 * second * aux_lin)
    ref_check(value)
    return first, second, value


class RefPlanRow(NamedTuple):
    label: str
    cells: dict
    spec: Optional[Estimator]
    breakdown: Optional[tuple]    # (total, without_me), or None
    note: str = ""


def ref_optimal_row(label, cells, family, solve, m, m_free, bracket=None):
    try:
        first, second, total = solve(m)
        without = solve(m_free)[2]
    except theory.SingularSystemError:
        return RefPlanRow(label, cells, None, None,
                          f"normal equations for the {family} are singular")
    except OverflowError:
        return RefPlanRow(label, cells, None, None, f"optimal weights of the "
                          f"{family} leave the float range")
    return RefPlanRow(label, {**cells, "mean_weight": first,
                              "aux_weight": second},
                      Estimator(first, second, bracket), (total, without))


def ref_row_plan(params: PopulationParams,
                 grid: Sequence[tuple[int, float]]) -> list[RefPlanRow]:
    m = derive_moments(params)
    m_free = derive_moments(params, error_free=True)
    mu_y = params.mu_y
    slope = theory.regression_slope(m)
    plan = [RefPlanRow("mean_per_unit", {}, Estimator(),
                       (m.var_ybar, m_free.var_ybar))]
    without, total = ref_exp_ratio(params)
    plan.append(RefPlanRow("exp_ratio", {}, Estimator(bracket=ExpBracket()),
                           (total, without)))
    spec = Estimator(1.0, slope)
    plan.append(RefPlanRow(
        "regression_diff", {"mean_weight": 1.0, "aux_weight": slope}, spec,
        (ref_weighted_diff(m, mu_y, 1.0, slope),
         ref_weighted_diff(m_free, mu_y, 1.0,
                           theory.regression_slope(m_free)))))
    plan.append(ref_optimal_row(
        "weighted_diff_optimal", {}, "weighted difference",
        lambda mm: ref_optimal_weighted_diff(mm, mu_y), m, m_free))
    brackets = [PowerExpBracket(float(alpha), float(beta))
                for alpha, beta in grid]
    for (alpha, beta), bracket in zip(grid, brackets):
        plan.append(RefPlanRow("power_exp", {"alpha": alpha, "beta": beta},
                               Estimator(bracket=bracket),
                               (ref_power_exp_total(m, bracket),
                                ref_power_exp_total(m_free, bracket))))
    for (alpha, beta), bracket in zip(grid, brackets):
        plan.append(ref_optimal_row(
            "weighted_power_exp_optimal", {"alpha": alpha, "beta": beta},
            "weighted power-exp family",
            lambda mm: ref_optimal_power_exp(mm, mu_y, bracket), m, m_free,
            bracket))
    return plan


# ---------------------------------------------------------------------- cases

PRESET = preset("gujarati-table1")
SEED = 20261019


def from_csv(text: str) -> PopulationParams:
    dataset = load_dataset(io.StringIO(text))
    return compute_params(dataset, len(dataset))


def random_grid(rng: random.Random) -> tuple[tuple[int, float], ...]:
    return tuple((rng.randint(-3, 3), rng.uniform(-2.0, 2.0))
                 for _ in range(rng.randint(1, 4)))


def error_share(rng: random.Random) -> float:
    """An error variance over its true variance: none, or up to ten."""
    return rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 1.0)))


def random_params(rng: random.Random,
                  decades: float = 150.0) -> PopulationParams:
    """Parameters whose means and standard deviations lie anywhere from
    10**-decades to 10**decades, each scale drawn on its own."""
    def scale():
        return 10.0 ** rng.uniform(-decades, decades)

    sd_y, sd_x = scale(), scale()
    return PopulationParams(
        n=rng.randint(2, 2000),
        mu_y=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * scale(),
        mu_x=rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * scale(),
        sigma_y2=sd_y * sd_y,
        sigma_x2=sd_x * sd_x,
        rho=rng.choice((rng.uniform(-1.0, 1.0), 1.0, -1.0, 0.0)),
        sigma_u2=error_share(rng) * sd_y * sd_y,
        sigma_v2=error_share(rng) * sd_x * sd_x)


def singular(n: int, rho: float) -> PopulationParams:
    """Error-free, perfectly correlated columns with a study mean far below
    its spread: both normal-equation determinants vanish."""
    return PopulationParams(n=n, mu_y=1e-7, mu_x=2.0, sigma_y2=1.0,
                            sigma_x2=3.0, rho=rho, sigma_u2=0.0,
                            sigma_v2=0.0)


def cases() -> list[tuple[str, PopulationParams, tuple]]:
    rng = random.Random(SEED)
    found = []
    for n in [2, 3, 10, 23, 46, 200, 2000] + [rng.randint(2, 2000)
                                               for _ in range(13)]:
        found.append((f"preset-n{n}", dataclasses.replace(PRESET, n=n),
                      DEFAULT_GRID))
        found.append((f"preset-n{n}-grid", dataclasses.replace(PRESET, n=n),
                      random_grid(rng)))
    for i in range(300):
        found.append((f"random-{i}", random_params(rng), random_grid(rng)))
    for n in (2, 10, 2000):
        for rho in (1.0, -1.0):
            found.append((f"singular-n{n}-rho{rho:g}", singular(n, rho),
                          DEFAULT_GRID))
    overflow = test_cli.TestVarianceProductOutOfRange
    for label, text in (("huge", overflow.HUGE),
                        ("huge-cov", overflow.HUGE_COV),
                        ("large-means", test_cli.TestOverflowingData
                         .LARGE_MEANS)):
        found.append((label, from_csv(text), DEFAULT_GRID))
    # one mean's square leaves the float range, ratio**2 does not
    found.append(("large-mu-x", dataclasses.replace(PRESET, mu_x=-1e160),
                  DEFAULT_GRID))
    found.append(("large-mu-y", dataclasses.replace(
        PRESET, mu_y=1e160, mu_x=1e20), DEFAULT_GRID))
    # the mean per unit's re-summed legs are one ulp off sigma/n here
    found.append(("uncorrelated", dataclasses.replace(
        PRESET, rho=0.0, sigma_y2=1.0, sigma_u2=3.7), DEFAULT_GRID))
    found.append(("non-positive", PRESET,
                  ((3, 0.0), (2, 1.5), (-1, 0.5))))
    for i in range(100):
        found.append((f"moderate-{i}", random_params(rng, 30.0),
                      random_grid(rng)))
    return found


CASES = cases()


def plan_or_none(params, grid):
    try:
        return theory.row_plan(params, grid)
    except (ArithmeticError, ValueError):
        return None


# ----------------------------------------------------------------- comparison

def bits(value):
    """``value`` with every float replaced by its IEEE bytes and every
    container and dataclass by a tuple naming its fields."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, dict):
        return ("dict", tuple((key, bits(v)) for key, v in value.items()))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, bits(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    return (type(value).__name__, value)


def plan_shape(plan, params, grid):
    """Each row's label, cells, spec, whether it has numbers, and note; or
    the type and text of the plan's error."""
    try:
        rows = plan(params, grid)
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return [(row.label, bits(row.cells), bits(row.spec),
             row.breakdown is not None, row.note)
            for row in rows]


def test_plan_matches_reference():
    mismatched = [
        label for label, params, grid in CASES
        if plan_shape(theory.row_plan, params, grid)
        != plan_shape(ref_row_plan, params, grid)]
    assert mismatched == []


def test_cases_reach_every_kind_of_row():
    # the differential test means something only if the cases blank rows
    # for each reason, leave a total non-positive, and abort whole plans
    notes, aborted, non_positive, rows = set(), 0, 0, 0
    for _, params, grid in CASES:
        plan = plan_or_none(params, grid)
        if plan is None:
            aborted += 1
            continue
        for row in plan:
            rows += 1
            if row.breakdown is None:
                notes.add(row.note)
            elif row.breakdown.total <= 0:
                non_positive += 1
    assert {"normal equations for the weighted difference are singular",
            "normal equations for the weighted power-exp family are "
            "singular",
            "optimal weights of the weighted difference leave the float "
            "range",
            "optimal weights of the weighted power-exp family leave the "
            "float range"} <= notes
    assert aborted >= 3 and non_positive >= 3 and rows >= 1000


# ------------------------------------------------------- the rational oracle

def coefficients(spec):
    """(B, A) of a spec's bracket, or (0, 0) without one."""
    if spec.bracket is None:
        return 0, 0
    return spec.bracket.linear, spec.bracket.quadratic


def rational_bracket(spec):
    """A spec's bracket with exact coefficients, or None without one."""
    if spec.bracket is None:
        return None
    B, A = coefficients(spec)
    return SimpleNamespace(linear=Fraction(B), quadratic=Fraction(A))


def term_envelope(m: MomentSet, mu_y, w1, w2, B, A):
    """The sum of the magnitudes of the terms the shipped quadratic adds up
    at (w1, w2), exact: every rounding error of its evaluation is relative
    to this."""
    m = rational_moments(m)
    r, vx, cov = abs(m.ratio), m.var_xbar, abs(m.cov_yxbar)
    mu_y, B, A, w1, w2 = map(Fraction, (mu_y, B, A, w1, w2))
    B, A, w2 = abs(B), abs(A), abs(w2)
    return ((w1 - 1) ** 2 * mu_y**2
            + w1 * w1 * (m.var_ybar + (B * B + 2 * A) * r * r * vx)
            + w2 * w2 * vx + 2 * abs(w1) * w2 * (2 * B * r * vx + cov)
            + 2 * abs(w1) * (B * r * cov + A * r * r * vx)
            + 2 * w2 * B * r * vx)


# A total or leg may differ from its exact value by this many times
# DBL_EPSILON times its term envelope.
ULPS = 16
EPSILON = Fraction(2.0**-52)


def closed_form_envelope(quad, mu_y):
    """What ``MseQuadratic.minimize`` adds up beyond the quadratic's terms:
    mu_y^2 times 1 - first, whose numerator and determinant both cancel."""
    S, X, C = quad.mean_sq, quad.aux_sq, quad.cross
    L, M = quad.mean_lin, quad.aux_lin
    c2 = mu_y**2 + S
    den = abs(c2 * X - C * C)
    numerator = abs(S - L) * X + C * C + abs(C * M)
    rest = abs((S - L) * X - C * C + C * M) / den
    return mu_y**2 * (numerator + rest * (abs(c2) * X + C * C)) / den


def exact_legs(row, m, m_free, mu_y):
    """(exact value, envelope) for the total and the error-free leg of a
    row: the quadratic at the row's weights, or its exact minimum on the
    optimal rows, whose error-free weights are re-solved."""
    B, A = coefficients(row.spec)
    out = []
    for mm in (m, m_free):
        w1, w2 = row.spec.mean_weight, row.spec.aux_weight
        if row.label == "regression_diff":
            w2 = theory.regression_slope(mm)
        envelope = 0
        if row.label.endswith("_optimal"):
            opt = theory.mse_quadratic(mm, row.spec.bracket).minimize(mu_y)
            w1, w2 = opt.first, opt.second
            envelope = closed_form_envelope(
                theory.mse_quadratic(rational_moments(mm),
                                     rational_bracket(row.spec)),
                Fraction(mu_y))
            exact = stationary_value(
                lambda a, b: shipped_first_order(mm, mu_y, a, b, B, A))
        else:
            exact = shipped_first_order(mm, mu_y, w1, w2, B, A)
        envelope += term_envelope(mm, mu_y, w1, w2, B, A)
        out.append((exact, envelope))
    return out


def test_plan_numbers_match_oracle():
    # Every finite leg of every plan that does not abort lies within ULPS
    # rounding errors of its terms from the exact value; none may merely
    # equal the reference's leg, as the regression row did where its
    # squared slope underflowed. A leg is non-finite only where the exact
    # value is past the float range and the reference's leg is non-finite
    # too.
    checked, as_reference, far = 0, 0, []
    for label, params, grid in CASES:
        plan = plan_or_none(params, grid)
        if plan is None:
            continue
        m = derive_moments(params)
        m_free = derive_moments(params, error_free=True)
        for row, ref in zip(plan, ref_row_plan(params, grid)):
            if row.breakdown is None:
                continue
            values = (row.breakdown.total, row.breakdown.without_me)
            for value, ref_value, (exact, envelope) in zip(
                    values, ref.breakdown,
                    exact_legs(row, m, m_free, params.mu_y)):
                checked += 1
                if not math.isfinite(value):
                    if math.isfinite(ref_value):
                        far.append((label, row.label))
                    continue
                error = abs(Fraction(value) - exact)
                if error <= ULPS * EPSILON * envelope:
                    continue
                if value == ref_value:
                    as_reference += 1
                else:
                    far.append((label, row.label))
            assert bits(row.breakdown.me_contribution) == bits(
                row.breakdown.total - row.breakdown.without_me)
    assert far == []
    assert checked >= 6000 and as_reference == 0


def test_tiny_ratio_keeps_the_bracket_terms():
    # |ratio| ~ 1e-187: ratio**2 underflows to 0, ratio^2 var_xbar ~ 1e-80
    # does not, and it is most of every bracketed row's MSE
    params = PopulationParams(
        n=113, mu_y=1.5833132364728921e-121, mu_x=-1.3548179604225367e+66,
        sigma_y2=3.289749486226355e-140, sigma_x2=8.884428256134416e+295,
        rho=0.0, sigma_u2=2.3839665926944277e-140, sigma_v2=0.0)
    m = derive_moments(params)
    assert m.ratio**2 == 0.0
    rows = [row for row in theory.row_plan(params, DEFAULT_GRID)
            if row.label in ("exp_ratio", "power_exp")]
    assert len(rows) == 1 + len(DEFAULT_GRID)
    for row in rows:
        B, A = coefficients(row.spec)
        exact = shipped_first_order(m, params.mu_y, 1, 0, B, A)
        assert exact > 1e-82
        assert abs(Fraction(row.breakdown.total) - exact) <= ULPS * EPSILON \
            * term_envelope(m, params.mu_y, 1, 0, B, A)


def test_shipped_cross_term_convention():
    # the shipped quadratic, evaluated by the code in rationals, exceeds
    # the first-order MSE by exactly 4 w1 (w1 - 1) B ratio cov_yxbar on
    # every row of every plan, at both moment sets
    checked = 0
    for _, params, grid in CASES:
        plan = plan_or_none(params, grid)
        if plan is None:
            continue
        mu_y = Fraction(params.mu_y)
        for m in (derive_moments(params),
                  derive_moments(params, error_free=True)):
            exact_m = rational_moments(m)
            for row in plan:
                if row.spec is None:
                    continue
                B, A = coefficients(row.spec)
                bracket = None if row.spec.bracket is None else \
                    SimpleNamespace(linear=Fraction(B), quadratic=Fraction(A))
                w1 = Fraction(row.spec.mean_weight)
                w2 = Fraction(row.spec.aux_weight)
                shipped = theory.mse_quadratic(exact_m, bracket).mse(
                    mu_y, w1, w2)
                oracle, _ = first_order(m, mu_y, w1, w2, B, A)
                assert shipped - oracle == (4 * w1 * (w1 - 1) * Fraction(B)
                                            * exact_m.ratio
                                            * exact_m.cov_yxbar)
                checked += 1
    assert checked >= 4000


def test_first_order_bias_is_the_oracle_bias():
    checked = 0
    for _, params, grid in CASES:
        plan = plan_or_none(params, grid)
        if plan is None:
            continue
        m = derive_moments(params)
        exact_m = rational_moments(m)
        mu_y = Fraction(params.mu_y)
        for row in plan:
            if row.spec is None:
                continue
            B, A = coefficients(row.spec)
            spec = SimpleNamespace(
                mean_weight=Fraction(row.spec.mean_weight),
                aux_weight=Fraction(row.spec.aux_weight),
                bracket=None if row.spec.bracket is None else SimpleNamespace(
                    linear=Fraction(B), quadratic=Fraction(A)))
            bias = theory.first_order_bias(spec, exact_m,
                                           mu_y / exact_m.ratio, mu_y)
            assert bias == first_order(m, mu_y, spec.mean_weight,
                                       spec.aux_weight, B, A)[1]
            checked += 1
    assert checked >= 2000


# Over the golden grid pairs and the weighted difference, on the preset and
# the golden dataset, the optimal minima lie within this relative distance
# of the exact minimum of the shipped quadratic (the earlier evaluation at
# the stationary point reached 1.3e-13).
MINIMUM_RTOL = 1e-13
GOLDEN_PAIRS = ((1, 0), (0, 1), (1, 1), (1, -1), (-1, 0.5), (-3, 2),
                (2, -1.5), (0, 0))


def test_optimal_minima_are_precise():
    units = from_csv(
        (test_cli.Path(__file__).parent / "golden" / "units.csv").read_text())
    worst = Fraction(0)
    for base in (PRESET, units):
        for n in (2, 10, 200, 2000, 20000):
            params = dataclasses.replace(base, n=n)
            for m in (derive_moments(params),
                      derive_moments(params, error_free=True)):
                for pair in (None, *GOLDEN_PAIRS):
                    bracket = None if pair is None else PowerExpBracket(
                        *map(float, pair))
                    B, A = coefficients(Estimator(bracket=bracket))
                    got = theory.mse_quadratic(m, bracket).minimize(
                        params.mu_y).min_mse
                    exact = stationary_value(
                        lambda a, b: shipped_first_order(
                            m, params.mu_y, a, b, B, A))
                    worst = max(worst, abs(Fraction(got) - exact) / abs(exact))
    assert worst <= MINIMUM_RTOL


# ---------------------------------------------------------- orders that count

def spy_minimize(monkeypatch):
    """Record the var_xbar of every quadratic minimized, in order."""
    calls = []
    real = theory.MseQuadratic.minimize

    def record(self, mu_y):
        calls.append(self.aux_sq)
        return real(self, mu_y)

    monkeypatch.setattr(theory.MseQuadratic, "minimize", record)
    return calls


def test_overflow_aborts_before_any_optimum(monkeypatch):
    calls = spy_minimize(monkeypatch)
    params = from_csv(test_cli.TestOverflowingData.LARGE_MEANS)
    # the mean per unit's MSE is var_ybar however large mu_y is
    assert theory.theory_mse(Estimator(), params) \
        == derive_moments(params).var_ybar
    for plan in (theory.row_plan, ref_row_plan):
        with pytest.raises(OverflowError):
            plan(params, DEFAULT_GRID)
    assert calls == []
    assert theory.row_plan(PRESET, DEFAULT_GRID)
    assert len(calls) == 2 + 2 * len(DEFAULT_GRID)


def test_with_error_solve_runs_first(monkeypatch):
    calls = spy_minimize(monkeypatch)
    with_errors = derive_moments(PRESET).var_xbar
    without = derive_moments(PRESET, error_free=True).var_xbar
    assert with_errors != without
    theory.row_plan(PRESET, DEFAULT_GRID)
    assert calls == [with_errors, without] * (1 + len(DEFAULT_GRID))


def test_bare_overflow_is_named_for_the_family(monkeypatch):
    # float ** raises OverflowError(34, 'Numerical result out of range')
    def overflow(self, mu_y):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(theory.MseQuadratic, "minimize", overflow)
    rows = theory.row_plan(PRESET, DEFAULT_GRID)
    assert rows[3].note == ("optimal weights of the weighted difference "
                            "leave the float range")
    assert [row.note for row in rows[8:]] == [
        "optimal weights of the weighted power-exp family leave the "
        "float range"] * 4
    assert [row.breakdown for row in (rows[3], *rows[8:])] == [None] * 5
