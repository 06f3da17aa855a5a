"""Acceptance suite: one test, and one pass/fail line, per criterion.

The seven criteria cover preset fidelity, the first-order MSE comparison
table, the efficiency column, closed-form optimality, Monte Carlo
verification of MSE and bias, and the cross-cutting invariants.  Benchmark
numbers appear at the tolerance each criterion states; the heavy
million-replicate sweep is a session fixture shared by the two simulation
criteria.

Criterion 5 checks the MSE column against an independent oracle, the exact
Gaussian MSE.  Under the Gaussian law the observed means are exactly
bivariate normal, so a tensor Gauss-Hermite rule over (ybar, xbar) gives the
MSE each estimator actually has.  The criterion checks two things:

(a) the engine reproduces the MSE: on every row of the n = 200 sweep the
    empirical MSE lies within 5% of the exact value;
(b) the theory is right to first order: its relative gap to the exact MSE
    is zero (to rounding) on the rows linear in the means, whose MSE is
    exact in closed form, and shrinks at least fivefold from n = 200 to
    n = 2000 on every other row.

First-order MSEs are promised to order 1/n, not to within 5% at a given n:
on the jointly optimized power-exp row at (alpha, beta) = (1, 1) the exact
MSE sits 15.4% above the first-order value at n = 200 and 1.5% above it at
n = 2000.  A wrong first-order coefficient would leave the gap roughly
constant in n, which (b) detects and a fixed bound at one n could not.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from meanerr.cli import main, theory_table
from meanerr.estimators import (
    Estimator,
    ExpBracket,
    PowerExpBracket,
    evaluate_at_means,
)
from meanerr.ingest import preset
from meanerr.moments import derive_moments
from meanerr.simulate import ErrorLaw, SimulationConfig, run_monte_carlo
from meanerr.theory import (
    first_order_bias,
    mse_exp_ratio,
    mse_power_exp_total,
    mse_quadratic,
    mse_weighted_diff,
    optimal_weighted_diff,
    regression_slope,
    row_plan,
    theory_mse,
)

PRESET = "gujarati-table1"
GRID = ((1, 0.0), (0, 1.0), (1, 1.0), (1, -1.0))
SWEEP_SEED = 20260817
ORACLE_NODES = 60          # Gauss-Hermite nodes per axis
POLE_CLEARANCE_SD = 20.0   # least distance of a pole from mu_x, in SDs

# Reference values the table criteria must reproduce, keyed the way the
# rendered table is laid out.  MSE cells are (without, contribution, total);
# power-exp families pin totals only.
BENCHMARK_TRIPLES = {
    "mean_per_unit": (127.800, 3.600, 131.400),
    "exp_ratio": (25.925, 4.102, 30.028),
    "regression_diff": (9.000, 4.896, 13.882),
    "weighted_diff_optimal": (8.995, 4.910, 13.905),
}
BENCHMARK_POWER_EXP_TOTALS = {
    (1, 0.0): 21.790, (0, 1.0): 30.050, (1, 1.0): 106.621, (1, -1.0): 30.050,
}
BENCHMARK_WEIGHTED_POWER_TOTALS = {
    (1, 0.0): 12.974, (0, 1.0): 12.743, (1, 1.0): 13.855, (1, -1.0): 12.742,
}
BENCHMARK_PRE = {
    ("mean_per_unit", None, None): 100.00,
    ("exp_ratio", None, None): 437.59,
    ("regression_diff", None, None): 946.54,
    ("weighted_diff_optimal", None, None): 944.94,
    ("power_exp", 1, 0.0): 603.01,
    ("power_exp", 0, 1.0): 437.27,
    ("power_exp", 1, 1.0): 123.23,
    ("power_exp", 1, -1.0): 437.27,
    ("weighted_power_exp_optimal", 1, 0.0): 1012.77,
    ("weighted_power_exp_optimal", 0, 1.0): 1031.13,
    ("weighted_power_exp_optimal", 1, 1.0): 948.35,
    ("weighted_power_exp_optimal", 1, -1.0): 1031.11,
}


def mse_cell_close(value: float, target: float) -> bool:
    """Table tolerance: the larger of 0.5% relative or 0.05 absolute."""
    return abs(value - target) <= max(0.005 * abs(target), 0.05)


def _benchmark_plan(params):
    """(label, estimator spec, first-order bias or None) in table order.

    Coefficient-bearing estimators get their optimal (or slope) coefficients
    at the given parameters, mirroring the theory table rows.
    """
    m = derive_moments(params)
    mu_x, mu_y = params.mu_x, params.mu_y

    def biased(label, spec):
        return label, spec, first_order_bias(spec, m, mu_x, mu_y)

    plan = [
        ("mean_per_unit", Estimator(), None),
        biased("exp_ratio", Estimator(bracket=ExpBracket())),
        ("regression_diff", Estimator(1.0, regression_slope(m)), None),
    ]
    opt = optimal_weighted_diff(m, mu_y)
    plan.append(("weighted_diff_optimal", Estimator(opt.first, opt.second),
                 None))
    for alpha, beta in GRID:
        plan.append(biased(f"power_exp({alpha},{beta:g})",
                           Estimator(bracket=PowerExpBracket(alpha, beta))))
    for alpha, beta in GRID:
        bracket = PowerExpBracket(alpha, beta)
        opt = mse_quadratic(m, bracket).minimize(mu_y)
        plan.append(biased(f"weighted_power_exp_optimal({alpha},{beta:g})",
                           Estimator(opt.first, opt.second, bracket)))
    return plan


def exact_gaussian_mse(spec, params, nodes=ORACLE_NODES):
    """Exact MSE of ``spec`` when (ybar, xbar) is bivariate normal.

    The means are whitened with the Cholesky factor of the moment set and
    the estimator is integrated over a tensor Gauss-Hermite grid.  The true
    integrand has poles at xbar = 0 and xbar = -mu_x for some estimators, so
    the oracle refuses to run when either lies within POLE_CLEARANCE_SD
    standard deviations of mu_x, where a fixed-order rule would return a
    finite number that means nothing.
    """
    m = derive_moments(params)
    mu_x, mu_y = params.mu_x, params.mu_y
    sd_x = math.sqrt(m.var_xbar)
    for pole in (0.0, -mu_x):
        if abs(mu_x - pole) < POLE_CLEARANCE_SD * sd_x:
            raise ValueError(
                f"pole at xbar = {pole:g} lies {abs(mu_x - pole) / sd_x:.1f} "
                f"SD from mu_x, within {POLE_CLEARANCE_SD:g}")
    chol = np.linalg.cholesky([[m.var_ybar, m.cov_yxbar],
                               [m.cov_yxbar, m.var_xbar]])
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    ybar = mu_y + chol[0, 0] * z1
    xbar = mu_x + chol[1, 0] * z1 + chol[1, 1] * z2
    err = evaluate_at_means(spec, ybar, xbar, mu_x) - mu_y
    return float(w @ (err * err) @ w)


def closed_form(spec) -> bool:
    """Estimators linear in the means, whose first-order MSE is exact."""
    return spec.bracket is None


def first_order_gaps(n):
    """{label: (exact - first_order) / first_order} at sample size n, with
    the plan's coefficients re-derived at n."""
    params = replace(preset(PRESET), n=n)
    gaps = {}
    for label, spec, _ in _benchmark_plan(params):
        first = theory_mse(spec, params)
        gaps[label] = (exact_gaussian_mse(spec, params) - first) / first
    return gaps


@pytest.fixture(scope="session")
def benchmark_sweep():
    """One Gaussian million-replicate sweep at n = 200 over all 12 rows."""
    params = replace(preset(PRESET), n=200)
    plan = _benchmark_plan(params)
    config = SimulationConfig(params=params, replicates=1_000_000,
                              seed=SWEEP_SEED)
    results = run_monte_carlo(config, [spec for _, spec, _ in plan])
    return config, plan, results


def test_criterion_1_preset_parameter_fidelity(capsys):
    code = main(["params", "--preset", "gujarati-table1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {
        "mu_y": 127.0, "mu_x": 170.0, "sigma_y2": 1278.0,
        "sigma_x2": 3300.0, "rho": 0.964, "sigma_u2": 36.0,
        "sigma_v2": 36.0, "n": 10,
    }


def test_criterion_2_mse_table_reproduction():
    start = time.monotonic()
    table = theory_table(preset(PRESET), GRID)
    assert len(table.rows) == 12
    rows = {(r["estimator"], r["alpha"], r["beta"]): r for r in table.rows}
    for label, (without, contribution, total) in BENCHMARK_TRIPLES.items():
        row = rows[(label, None, None)]
        assert mse_cell_close(row["without_me"], without), label
        assert mse_cell_close(row["me_contribution"], contribution), label
        assert mse_cell_close(row["total"], total), label
    for (alpha, beta), total in BENCHMARK_POWER_EXP_TOTALS.items():
        row = rows[("power_exp", alpha, beta)]
        assert mse_cell_close(row["total"], total), (alpha, beta)
    for (alpha, beta), total in BENCHMARK_WEIGHTED_POWER_TOTALS.items():
        row = rows[("weighted_power_exp_optimal", alpha, beta)]
        assert mse_cell_close(row["total"], total), (alpha, beta)
    assert time.monotonic() - start < 1.0


def test_criterion_3_efficiency_table_reproduction():
    start = time.monotonic()
    table = theory_table(preset(PRESET), GRID)
    rows = {(r["estimator"], r["alpha"], r["beta"]): r for r in table.rows}
    for key, target in BENCHMARK_PRE.items():
        assert rows[key]["pre"] == pytest.approx(target, rel=0.005), key
    assert time.monotonic() - start < 1.0


def test_criterion_4_closed_form_optima_beat_grid_and_random_search():
    start = time.monotonic()
    params = preset(PRESET)
    m = derive_moments(params)
    mu_y = params.mu_y
    offsets = [i * 0.001 for i in range(-50, 51)]
    assert offsets[50] == 0.0
    rng = np.random.default_rng(SWEEP_SEED)

    surfaces = []
    opt = optimal_weighted_diff(m, mu_y)
    surfaces.append((opt, lambda w1, w2: mse_weighted_diff(m, mu_y, w1, w2)))
    for alpha, beta in GRID:
        quad = mse_quadratic(m, PowerExpBracket(alpha, beta))
        assert quad.positive_definite(mu_y)
        surfaces.append((quad.minimize(mu_y),
                         lambda w1, w2, q=quad: q.mse(mu_y, w1, w2)))

    for opt_point, evaluate in surfaces:
        center = evaluate(opt_point.first, opt_point.second)
        assert center == pytest.approx(opt_point.min_mse, rel=1e-12)
        for i, dx in enumerate(offsets):
            for j, dy in enumerate(offsets):
                if i == 50 and j == 50:
                    continue
                cell = evaluate(opt_point.first + dx, opt_point.second + dy)
                assert cell > center
        draws = rng.uniform(-0.5, 0.5, size=(1000, 2))
        floor = opt_point.min_mse - 1e-9 * abs(opt_point.min_mse)
        for dx, dy in draws:
            assert evaluate(opt_point.first + dx,
                            opt_point.second + dy) >= floor
    assert time.monotonic() - start < 5.0


def test_criterion_5_monte_carlo_mse_verification(benchmark_sweep):
    config, plan, results = benchmark_sweep
    assert config.replicates >= 200_000
    assert config.error_law is ErrorLaw.GAUSSIAN
    assert config.params.n == 200

    # (a) The engine reproduces the exact MSE on every row.
    violations = []
    for (label, spec, _), result in zip(plan, results):
        exact = exact_gaussian_mse(spec, config.params)
        gap = abs(result.empirical_mse - exact) / exact
        if gap > 0.05:
            violations.append(
                f"{label}: empirical {result.empirical_mse:.6f} vs "
                f"exact {exact:.6f} (gap {gap:.2%})")
    assert not violations, "; ".join(violations)

    # (b) The first-order theory is right to order 1/n.
    gaps_200, gaps_2000 = first_order_gaps(200), first_order_gaps(2000)
    for label, spec, _ in plan:
        gap_200, gap_2000 = gaps_200[label], gaps_2000[label]
        if closed_form(spec):
            assert abs(gap_200) <= 1e-9 and abs(gap_2000) <= 1e-9, \
                (label, gap_200, gap_2000)
        else:
            assert abs(gap_2000) <= abs(gap_200) / 5, \
                (label, gap_200, gap_2000)

    small = run_monte_carlo(
        SimulationConfig(params=preset(PRESET), replicates=200_000,
                         seed=SWEEP_SEED + 1),
        [Estimator()])[0]
    exact = theory_mse(Estimator(), preset(PRESET))
    assert abs(small.empirical_mse - exact) <= 3.0 * small.mc_se_mse


@pytest.mark.parametrize("n", [200, 2000])
def test_oracle_matches_closed_form_mse(n):
    params = replace(preset(PRESET), n=n)
    checked = 0
    for label, spec, _ in _benchmark_plan(params):
        if closed_form(spec):
            assert exact_gaussian_mse(spec, params) == pytest.approx(
                theory_mse(spec, params), rel=1e-10), label
            checked += 1
    assert checked == 3


def test_oracle_node_counts_agree():
    params = replace(preset(PRESET), n=200)
    for label, spec, _ in _benchmark_plan(params):
        assert exact_gaussian_mse(spec, params, nodes=60) == pytest.approx(
            exact_gaussian_mse(spec, params, nodes=100), rel=1e-10), label


def test_oracle_refuses_near_pole():
    params = preset(PRESET)   # n = 10: xbar = -mu_x is 18.6 SD from mu_x
    sd_x = math.sqrt(derive_moments(params).var_xbar)
    assert 2 * abs(params.mu_x) < POLE_CLEARANCE_SD * sd_x
    with pytest.raises(ValueError, match="pole"):
        exact_gaussian_mse(Estimator(), params)


def test_criterion_6_first_order_bias_verification(benchmark_sweep):
    config, plan, results = benchmark_sweep
    assert config.replicates >= 1_000_000
    checked = 0
    for (label, _, bias_theory), result in zip(plan, results):
        if bias_theory is None:
            continue
        shift = abs(result.empirical_bias - bias_theory)
        assert shift <= 3.0 * result.mc_se_bias, (label, shift)
        checked += 1
    assert checked == 9  # exp-ratio + four power-exp + four weighted rows


def test_criterion_7_invariant_suite():
    start = time.monotonic()
    base = preset(PRESET)
    rescaled = replace(base, n=200)

    for params in (base, rescaled):
        m = derive_moments(params)
        mu_x, mu_y = params.mu_x, params.mu_y

        # Decomposition identity, exact, for every row of the plan.
        breakdowns = [row.breakdown for row in row_plan(params, GRID)]
        assert len(breakdowns) == 4 + 2 * len(GRID)
        for breakdown in breakdowns:
            assert breakdown.without_me + breakdown.me_contribution \
                == breakdown.total

        # Cauchy-Schwarz bound on the derived moments.
        assert m.cov_yxbar**2 <= m.var_ybar * m.var_xbar

        # Nesting: the weighted family at weights (1, 0) is the power-exp
        # estimator, both as an estimator and in first-order MSE.
        ybars = np.array([mu_y, mu_y - 7.0, mu_y + 7.0])
        xbars = np.array([mu_x, mu_x + 9.0, mu_x - 9.0])
        for alpha, beta in GRID:
            bracket = PowerExpBracket(alpha, beta)
            nested = evaluate_at_means(Estimator(1.0, 0.0, bracket),
                                       ybars, xbars, mu_x)
            assert np.array_equal(nested, ybars * bracket(xbars, mu_x))
            assert mse_quadratic(m, bracket).mse(mu_y, 1.0, 0.0) \
                == pytest.approx(mse_power_exp_total(m, bracket), rel=1e-12)

        # Nesting: zero correction coefficients reduce the weighted family's
        # MSE to the weighted difference's MSE.
        zero = mse_quadratic(m, PowerExpBracket(0, 0.0))
        for w1, w2 in ((1.0, 0.5), (0.9, -0.3), (1.1, 0.0)):
            assert zero.mse(mu_y, w1, w2) \
                == pytest.approx(mse_weighted_diff(m, mu_y, w1, w2),
                                 rel=1e-12, abs=1e-12)

    # Monotonicity of the exp-ratio MSE in each error variance.
    for field in ("sigma_u2", "sigma_v2"):
        varied = [replace(base, **{field: value})
                  for value in (0.0, 9.0, 36.0, 100.0, 400.0)]
        totals = [mse_exp_ratio(p, derive_moments(p)).total for p in varied]
        assert all(a < b for a, b in zip(totals, totals[1:])), field

    # Error-law invariance: theory_mse takes no error law, so one
    # first-order value serves every law, and the empirical MSE stays within
    # its 5% band under every law.
    exp_ratio = Estimator(bracket=ExpBracket())
    predicted = theory_mse(exp_ratio, rescaled)
    for law, df in ((ErrorLaw.GAUSSIAN, None), (ErrorLaw.UNIFORM, None),
                    (ErrorLaw.STUDENT_T, 9.0)):
        result = run_monte_carlo(
            SimulationConfig(params=rescaled, replicates=50_000,
                             seed=SWEEP_SEED + 2, error_law=law,
                             error_df=df),
            [exp_ratio])[0]
        gap = abs(result.empirical_mse - predicted) / predicted
        assert gap <= 0.05, law

    assert time.monotonic() - start < 60.0
