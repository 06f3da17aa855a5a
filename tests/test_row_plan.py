"""``theory.row_plan`` against the reference plan it replaced.

The reference below is the earlier two-layer plan, kept as it was: a row
planner that picked the formula for each row, and five wrappers that
evaluated it at the moment sets with and without the errors and paired the
two legs. The plan and ``theory_mse`` must give the same rows, bit for bit
and note for note, and fail on the same inputs with the same error.
"""

import dataclasses
import io
import random
import struct
from typing import NamedTuple, Optional, Sequence

import pytest

from meanerr import theory
from meanerr.cli import DEFAULT_GRID
from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.ingest import compute_params, load_dataset, preset
from meanerr.moments import MomentSet, PopulationParams, derive_moments

import test_cli

# ------------------------------------------------------------------ reference
# Every formula is looked up on the theory module at call time, so a test
# that patches one patches it for the reference and the plan alike.


def ref_var_mean_per_unit(m: MomentSet, m_free: MomentSet):
    return theory._breakdown(without_me=m_free.var_ybar, total=m.var_ybar)


def ref_min_mse_weighted_diff(m, m_free, mu_y):
    opt = theory.optimal_weighted_diff(m, mu_y)
    opt_free = theory.optimal_weighted_diff(m_free, mu_y)
    return opt, theory._breakdown(opt_free.min_mse, opt.min_mse)


def ref_mse_regression_diff(m, m_free, mu_y):
    total = theory.mse_weighted_diff(m, mu_y, 1.0, theory.regression_slope(m))
    without = theory.mse_weighted_diff(m_free, mu_y, 1.0,
                                       theory.regression_slope(m_free))
    return theory._breakdown(without, total)


def ref_mse_power_exp(m, m_free, bracket):
    return theory._breakdown(theory.mse_power_exp_total(m_free, bracket),
                             theory.mse_power_exp_total(m, bracket))


def ref_min_mse_weighted_power_exp(m, m_free, mu_y, bracket):
    try:
        opt = theory.mse_quadratic(m, bracket).minimize(mu_y)
        opt_free = theory.mse_quadratic(m_free, bracket).minimize(mu_y)
    except OverflowError:
        raise OverflowError("optimal weights of the weighted power-exp "
                            "family leave the float range") from None
    return opt, theory._breakdown(opt_free.min_mse, opt.min_mse)


class RefPlanRow(NamedTuple):
    label: str
    cells: dict
    spec: Optional[Estimator]
    breakdown: Optional[theory.MseBreakdown]
    note: str = ""


def ref_optimal_row(label, cells, solve, bracket=None):
    try:
        opt, breakdown = solve()
    except (theory.SingularSystemError, OverflowError) as exc:
        return RefPlanRow(label, cells, None, None, str(exc))
    return RefPlanRow(label,
                      {**cells, "mean_weight": opt.first,
                       "aux_weight": opt.second},
                      Estimator(opt.first, opt.second, bracket), breakdown)


def ref_row_plan(params: PopulationParams,
                 grid: Sequence[tuple[int, float]]) -> list[RefPlanRow]:
    m = derive_moments(params)
    m_free = derive_moments(params, error_free=True)
    mu_y = params.mu_y
    slope = theory.regression_slope(m)
    plan = [
        RefPlanRow("mean_per_unit", {}, Estimator(),
                   ref_var_mean_per_unit(m, m_free)),
        RefPlanRow("exp_ratio", {}, Estimator(bracket=ExpBracket()),
                   theory.mse_exp_ratio(params, m)),
        RefPlanRow("regression_diff",
                   {"mean_weight": 1.0, "aux_weight": slope},
                   Estimator(1.0, slope),
                   ref_mse_regression_diff(m, m_free, mu_y)),
        ref_optimal_row("weighted_diff_optimal", {},
                        lambda: ref_min_mse_weighted_diff(m, m_free, mu_y)),
    ]
    brackets = [PowerExpBracket(float(alpha), float(beta))
                for alpha, beta in grid]
    for (alpha, beta), bracket in zip(grid, brackets):
        plan.append(RefPlanRow("power_exp", {"alpha": alpha, "beta": beta},
                               Estimator(bracket=bracket),
                               ref_mse_power_exp(m, m_free, bracket)))
    for (alpha, beta), bracket in zip(grid, brackets):
        plan.append(ref_optimal_row(
            "weighted_power_exp_optimal", {"alpha": alpha, "beta": beta},
            lambda: ref_min_mse_weighted_power_exp(m, m_free, mu_y, bracket),
            bracket))
    return plan


def ref_theory_mse(spec: Estimator, params: PopulationParams) -> float:
    bracket = spec.bracket
    m = derive_moments(params)
    if (spec.mean_weight, spec.aux_weight) == (1.0, 0.0):
        if bracket == ExpBracket():
            return theory.mse_exp_ratio(params, m).total
        m_free = derive_moments(params, error_free=True)
        if bracket is None:
            return ref_var_mean_per_unit(m, m_free).total
        return ref_mse_power_exp(m, m_free, bracket).total
    if bracket is None:
        return theory.mse_weighted_diff(m, params.mu_y, spec.mean_weight,
                                        spec.aux_weight)
    return theory.mse_quadratic(m, bracket).mse(params.mu_y, spec.mean_weight,
                                                spec.aux_weight)


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


def random_params(rng: random.Random) -> PopulationParams:
    """Parameters whose means and standard deviations lie anywhere from
    1e-150 to 1e150, each scale drawn on its own."""
    def scale():
        return 10.0 ** rng.uniform(-150.0, 150.0)

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
    # the mean per unit's re-summed total is one ulp off sigma/n here
    found.append(("uncorrelated", dataclasses.replace(
        PRESET, rho=0.0, sigma_y2=1.0, sigma_u2=3.7), DEFAULT_GRID))
    found.append(("non-positive", PRESET,
                  ((3, 0.0), (2, 1.5), (-1, 0.5))))
    return found


CASES = cases()


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
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return ("row", value._fields, tuple(bits(v) for v in value))
    return (type(value).__name__, value)


def outcome(call, *args):
    """The bits of ``call(*args)``, or the type and text of the error it
    raises."""
    try:
        return ("value", bits(call(*args)))
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def plan_outcome(plan, mse, params, grid):
    """The plan's rows and each spec's ``theory_mse``, or the plan's error."""
    try:
        rows = plan(params, grid)
    except (ArithmeticError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ([("row", row._fields, tuple(bits(v) for v in row))
             for row in rows],
            [outcome(mse, row.spec, params)
             for row in rows if row.spec is not None])


def test_plan_matches_reference():
    mismatched = [
        label for label, params, grid in CASES
        if plan_outcome(theory.row_plan, theory.theory_mse, params, grid)
        != plan_outcome(ref_row_plan, ref_theory_mse, params, grid)]
    assert mismatched == []


def test_cases_reach_every_kind_of_row():
    # the differential test means something only if the cases blank rows
    # for each reason, leave a total non-positive, and abort whole plans
    notes, aborted, non_positive, rows = set(), 0, 0, 0
    for _, params, grid in CASES:
        try:
            plan = ref_row_plan(params, grid)
        except (ArithmeticError, ValueError):
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


# ---------------------------------------------------------- orders that count

def test_exp_ratio_overflow_aborts_before_any_optimum(monkeypatch):
    solved = []

    def spy(name):
        real = getattr(theory, name)

        def record(*args):
            solved.append(name)
            return real(*args)
        return record

    for name in ("optimal_weighted_diff", "mse_quadratic"):
        monkeypatch.setattr(theory, name, spy(name))
    params = from_csv(test_cli.TestOverflowingData.LARGE_MEANS)
    with pytest.raises(OverflowError):
        theory.mse_exp_ratio(params, derive_moments(params))
    with pytest.raises(OverflowError):
        theory.row_plan(params, DEFAULT_GRID)
    assert solved == []
    assert theory.row_plan(PRESET, DEFAULT_GRID)
    assert solved == ["optimal_weighted_diff"] * 2 + ["mse_quadratic"] * 8


@pytest.mark.parametrize("name, label", [
    ("optimal_weighted_diff", "weighted_diff_optimal"),
    ("mse_quadratic", "weighted_power_exp_optimal"),
])
def test_with_error_solve_runs_first(monkeypatch, name, label):
    # each solve fails with a note naming its moment set, so a row's note
    # tells which of the two was solved first
    def fail(m, *args):
        raise theory.SingularSystemError(f"var_ybar {m.var_ybar!r}")

    monkeypatch.setattr(theory, name, fail)
    expected = f"var_ybar {derive_moments(PRESET).var_ybar!r}"
    assert expected != f"var_ybar " \
        f"{derive_moments(PRESET, error_free=True).var_ybar!r}"
    for plan in (theory.row_plan, ref_row_plan):
        notes = [row.note for row in plan(PRESET, DEFAULT_GRID)
                 if row.label == label]
        assert notes and set(notes) == {expected}


def test_bare_power_exp_overflow_is_named_for_the_family(monkeypatch):
    # float ** raises OverflowError(34, 'Numerical result out of range')
    def overflow(self, mu_y):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(theory.MseQuadratic, "minimize", overflow)
    for plan in (theory.row_plan, ref_row_plan):
        rows = plan(PRESET, DEFAULT_GRID)
        assert [row.note for row in rows[8:]] == [
            "optimal weights of the weighted power-exp family leave the "
            "float range"] * 4
        assert [row.breakdown for row in rows[8:]] == [None] * 4
