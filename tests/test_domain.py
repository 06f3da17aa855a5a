"""The whole accepted domain as a contract of ``cli.main``.

One derandomized hypothesis test draws command lines from everything the
CLI accepts: ``params``, ``theory``, and ``simulate`` at 100 to 300
replicates under every error law; the preset, or a generated ``--data``
file whose columns lie at scales from 1e-150 to 1e150; n in [2, 2000];
grid pairs with alpha in [-3, 3] and beta in [-2, 2], spelled every way
the CLI reads them; every format. Whatever it draws, ``check`` holds:

* the exit code is 0, 2 or 3, and exit 2 prints exactly one ``error:``
  line and no table;
* no warning escapes;
* the table parses in its format, with the rows of the row plan, and no
  cell is nan or inf;
* every blank number of a row (a leg, total or PRE of theory; a moment,
  theory value or gap of simulate) comes with a note, and a note that
  names blank cells names only blank ones;
* every theory row with all three legs sums them to its total within 1e-9
  relative (plus the rounding of three decimals in md), and the
  mean-per-unit PRE is exactly 100;
* every row with a non-positive first-order total carries the note that
  says so, in both tables, unless blank cells take its place.
"""

import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanerr import cli
from meanerr.moments import ParameterError, PopulationParams
from meanerr.simulate import SimulationConfig

import test_cli
from conftest import WIDE_DATA

PRESET = "gujarati-table1"
GRID_SPELLINGS = ("--grid=", "--grid", "--gri")
LAWS = {"gaussian": [], "uniform": ["--error-law", "uniform"],
        "student-t": ["--error-law", "student-t", "--error-df", "6"]}
PLAN_HEAD = ("mean_per_unit", "exp_ratio", "regression_diff",
             "weighted_diff_optimal")
# md rounds each leg and the total to three decimals
MD_SLACK = 1.5e-3
# the note on a row with blank cells, which it names after the colon
NOT_FINITE = "not a finite float: "
THEORY_NUMBERS = ("without_me", "me_contribution", "total", "pre")
SIMULATE_NUMBERS = ("empirical_bias", "empirical_mse", "mc_se_mse",
                    "theory_mse", "relative_gap")
# study values near 1e150 over auxiliary values near 1e-150: the squared
# ratio of the means leaves the float range, but no leg squares it, so
# theory and simulate print every row and exit 0
OVERFLOWING_DATA = """Y,X,y,x
1e150,1e-150,1e150,1e-150
3e150,2e-150,3e150,2e-150
2e150,4e-150,2e150,4e-150
"""


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("domain") / "units.csv"


@st.composite
def data_text(draw) -> str:
    """A --data table of 2 to 30 units: true columns at scales 10^a and
    10^b for a, b in [-150, 150], observed columns with their errors."""
    rows = draw(st.integers(2, 30))
    scale_y = 10.0 ** draw(st.integers(-150, 150))
    scale_x = 10.0 ** draw(st.integers(-150, 150))
    mean_y = draw(st.floats(-5.0, 5.0))
    mean_x = draw(st.floats(-5.0, 5.0))
    rho = draw(st.floats(-1.0, 1.0))
    error_y = draw(st.sampled_from((0.0, 0.1, 1.0)))
    error_x = draw(st.sampled_from((0.0, 0.1, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lift = math.sqrt(1.0 - rho * rho)
    lines = ["Y,X,y,x"]
    for _ in range(rows):
        z1, z2 = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        true_y = mean_y + z1
        true_x = mean_x + rho * z1 + lift * z2
        cells = (true_y, true_x, true_y + error_y * rng.gauss(0.0, 1.0),
                 true_x + error_x * rng.gauss(0.0, 1.0))
        lines.append(",".join(repr(value * scale) for value, scale
                              in zip(cells, (scale_y, scale_x) * 2)))
    return "\n".join(lines) + "\n"


@st.composite
def command_lines(draw):
    """(argv without the --data path, the --data text or None, the grid
    pairs, the format, R)."""
    command = draw(st.sampled_from(("params", "theory", "simulate")))
    text = draw(st.none() | data_text())
    argv = [command, *(["--data"] if text else ["--preset", PRESET])]
    n = draw(st.none() | st.integers(2, 2000))
    if n is not None:
        argv += ["--n", str(n)]
    pairs = []
    if command != "params":
        for _ in range(draw(st.integers(0, 2))):
            alpha = draw(st.integers(-3, 3))
            beta = draw(st.floats(-2.0, 2.0))
            pairs.append((alpha, beta))
            spelling = draw(st.sampled_from(GRID_SPELLINGS))
            value = f"{alpha},{beta!r}"
            argv += ([spelling + value] if spelling.endswith("=")
                     else [spelling, value])
    replicates = 0
    if command == "simulate":
        replicates = draw(st.integers(100, 300))
        argv += ["--replicates", str(replicates),
                 "--seed", str(draw(st.integers(0, 2**32 - 1))),
                 *LAWS[draw(st.sampled_from(sorted(LAWS)))]]
        tolerance = draw(st.none() | st.sampled_from(("0", "0.5", "10")))
        if tolerance is not None:
            argv += ["--tolerance", tolerance]
    fmt = draw(st.sampled_from(("md", "csv", "json")))
    argv += ["--format", fmt]
    return argv, text, tuple(pairs) or cli.DEFAULT_GRID, fmt, replicates


def no_constant(name):
    raise AssertionError(f"json holds {name}")


def parse_table(fmt: str, out: str) -> list[dict]:
    """Rows of a printed table, every cell a string, None or a number."""
    if fmt == "json":
        return json.loads(out, parse_constant=no_constant)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    lines = [line for line in out.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    return [dict(zip(header, (cell.strip()
                              for cell in line.strip("|").split("|"))))
            for line in lines[2:]]


def number(cell):
    """A cell as a float, or None when it is empty; never nan or inf."""
    if cell in (None, ""):
        return None
    value = float(cell)
    assert math.isfinite(value), cell
    return value


def blanks(row: dict, columns: tuple) -> list:
    """The numbers of ``columns`` that ``row`` leaves blank, each checked
    to have a note; a note that names blank cells names only blank ones,
    among them an aux_weight, the regression slope, that is not finite."""
    blank = [column for column in columns if number(row[column]) is None]
    assert row["note"] or not blank, row
    if row["note"].startswith(NOT_FINITE):
        weight = ["aux_weight"] if number(row["aux_weight"]) is None else []
        assert set(row["note"][len(NOT_FINITE):].split(", ")) <= set(
            blank + weight), row
    return blank


def check_theory_row(row: dict, fmt: str) -> None:
    blank = blanks(row, THEORY_NUMBERS)
    if "total" in blank:
        # an optimum with no row, or a total that is not a float
        assert number(row["pre"]) is None
        return
    total = number(row["total"])
    if not {"without_me", "me_contribution"} & set(blank):
        legs = number(row["without_me"]) + number(row["me_contribution"])
        slack = MD_SLACK if fmt == "md" else 0.0
        assert abs(total - legs) <= 1e-9 * abs(total) + slack, row
    non_positive = (str(row["total"]).startswith("-") if fmt == "md"
                    else total <= 0)
    if row["note"].startswith(NOT_FINITE):
        # the blank note takes the place of the non-positive one
        return
    if non_positive:
        assert row["note"] == cli._NON_POSITIVE_NOTE, row
        assert number(row["pre"]) is None, row
    elif fmt != "md" or total > 0:
        pre = number(row["pre"])
        # md rounds a PRE below 0.005 to 0.00
        assert (pre >= 0 if fmt == "md" else pre > 0) and not row["note"], row


def check_simulate_row(row: dict, replicates: int) -> None:
    blank = blanks(row, SIMULATE_NUMBERS)
    if number(row["replicates_used"]) is None:
        # an optimum with no row: nothing was simulated for it
        assert row["note"] and blank == list(SIMULATE_NUMBERS), row
        return
    assert (int(number(row["replicates_used"]))
            + int(number(row["replicates_skipped"]))) == replicates
    if row["note"].startswith(NOT_FINITE):
        # the blank note takes the place of the non-positive one
        return
    theory_mse = number(row["theory_mse"])
    if str(row["theory_mse"]).startswith("-") or theory_mse <= 0:
        assert row["note"] == cli._NON_POSITIVE_GAP_NOTE, row
        assert number(row["relative_gap"]) is None, row
    else:
        assert number(row["relative_gap"]) >= 0 and not row["note"], row


def check(command, grid, fmt, replicates, code, out, err) -> None:
    assert code in (cli.EXIT_SUCCESS, cli.EXIT_DATA, cli.EXIT_TOLERANCE), err
    if code == cli.EXIT_DATA:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    if code == cli.EXIT_TOLERANCE:
        assert err.startswith("tolerance exceeded: ") and err.count("\n") == 1
    else:
        assert err == ""
    rows = parse_table(fmt, out)
    if command == "params":
        assert len(rows) == 1
        return
    assert [row["estimator"] for row in rows] == [
        *PLAN_HEAD, *["power_exp"] * len(grid),
        *["weighted_power_exp_optimal"] * len(grid)]
    for row in rows:
        if command == "theory":
            check_theory_row(row, fmt)
        else:
            check_simulate_row(row, replicates)
    if command == "theory":
        assert str(rows[0]["pre"]) == ("100.00" if fmt == "md" else "100.0")


def run_main(argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)``, with every
    warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_accepted_command_line_keeps_the_contract(data_path):
    reached = collections.Counter()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(drawn=command_lines())
    @example(drawn=(["theory", "--data", "--format", "csv"],
                    OVERFLOWING_DATA, cli.DEFAULT_GRID, "csv", 0))
    @example(drawn=(["simulate", "--data", "--replicates", "100",
                     "--format", "json"], OVERFLOWING_DATA, cli.DEFAULT_GRID,
                    "json", 100))
    @example(drawn=(["theory", "--data", "--format", "json"],
                    WIDE_DATA, cli.DEFAULT_GRID, "json", 0))
    # exit 2: a variance past the float range, and an n past it
    @example(drawn=(["theory", "--data", "--format", "md"],
                    test_cli.TestOverflowingData.LARGE_SPREAD,
                    cli.DEFAULT_GRID, "md", 0))
    @example(drawn=(["simulate", "--preset", PRESET, "--n", "9" * 400,
                     "--replicates", "100", "--format", "csv"], None,
                    cli.DEFAULT_GRID, "csv", 100))
    @example(drawn=(["simulate", "--data", "--replicates", "200",
                     "--format", "md"], WIDE_DATA, cli.DEFAULT_GRID, "md",
                    200))
    def run(drawn):
        argv, text, grid, fmt, replicates = drawn
        if text is not None:
            data_path.write_text(text, encoding="utf-8")
            argv = [*argv[:2], str(data_path), *argv[2:]]
        code, out, err = run_main(argv)
        check(argv[0], grid, fmt, replicates, code, out, err)
        reached[argv[0], code] += 1
        reached[argv[0], "non-positive"] += "is not positive" in out
        reached[argv[0], "blank"] += ("singular" in out
                                      or "float range" in out)
        reached[argv[0], "not finite"] += NOT_FINITE in out

    run()
    # the contract means something only if the draws reach every outcome
    missed = [key for key in (
        ("params", 0), ("theory", 0), ("theory", 2), ("simulate", 0),
        ("simulate", 2), ("simulate", 3), ("theory", "non-positive"),
        ("simulate", "non-positive"), ("theory", "blank"),
        ("simulate", "blank"), ("theory", "not finite"),
        ("simulate", "not finite")) if not reached[key]]
    assert missed == []


# ------------------------------------------------------------- extreme scales
# Parameter sets from across the float range: |mu| log-uniform in
# [1e-320, 1e308], variances in [1e-323, 1e308], each error variance 0 or
# log-uniform, rho uniform and n from N_CHOICES. Every set that
# PopulationParams accepts must print both tables, failing only rows.
EXTREME_SETS = 2000
# every SIMULATE_EVERY-th set also runs simulate, at n = 2 or 3
SIMULATE_EVERY = 40
N_CHOICES = (2, 3, 10, 200, 10**6, 10**12)
# two auxiliary values 2^-537 either side of their mean: var_x is 2^-1074,
# so var_xbar at n = 2 is 0 and the regression slope is undefined
ZERO_AUX_VARIANCE = f"""Y,X,y,x
1.0,{2.0**-537!r},1.0,{2.0**-537!r}
3.0,{3 * 2.0**-537!r},3.0,{3 * 2.0**-537!r}
"""


def log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high))


def extreme_params(rng: random.Random) -> PopulationParams:
    """The next parameter set of ``rng`` that PopulationParams accepts (a
    variance that rounds to 0 is drawn again)."""
    while True:
        try:
            return PopulationParams(
                n=rng.choice(N_CHOICES),
                mu_y=rng.choice((-1, 1)) * log_uniform(rng, 1e-320, 1e308),
                mu_x=rng.choice((-1, 1)) * log_uniform(rng, 1e-320, 1e308),
                sigma_y2=log_uniform(rng, 1e-323, 1e308),
                sigma_x2=log_uniform(rng, 1e-323, 1e308),
                rho=rng.uniform(-1.0, 1.0),
                sigma_u2=rng.choice((0.0, log_uniform(rng, 1e-323, 1e308))),
                sigma_v2=rng.choice((0.0, log_uniform(rng, 1e-323, 1e308))))
        except ParameterError:
            continue


def assert_blanks_named(row: dict, numbers: tuple, total: str,
                        non_positive_note: str, undefined: str) -> None:
    """Every blank number of ``row`` is named in its note, in the list of
    the not-finite note. The cell ``undefined`` (PRE, or the relative gap)
    is blank where the ``total`` it is taken from is blank, or where it is
    not positive: the non-positive note says so, unless the not-finite note
    takes its place. A row with any other note (an optimum the plan has no
    row for) forms no number at all."""
    blank = blanks(row, numbers)
    note = row["note"]
    if note.startswith(NOT_FINITE):
        named = note[len(NOT_FINITE):].split(", ")
    elif note and note != non_positive_note:
        assert blank == list(numbers), row
        return
    else:
        named = []
    value = number(row[total])
    if value is None or value <= 0:
        assert note.startswith(NOT_FINITE) or note == non_positive_note, row
        named.append(undefined)
    assert set(blank) <= set(named), row


def check_extreme_theory(rows: list) -> None:
    for row in rows:
        assert number(row["total"]) is not None or row["note"], row
        assert_blanks_named(row, THEORY_NUMBERS, "total",
                            cli._NON_POSITIVE_NOTE, "pre")
    assert rows[0]["pre"] in (100.0, None)


def check_extreme_simulate(rows: list) -> None:
    for row in rows:
        assert number(row["theory_mse"]) is not None or row["note"], row
        if row["replicates_used"] is None:
            # no spec: nothing was simulated for the row
            assert row["note"] and blanks(row, SIMULATE_NUMBERS) == list(
                SIMULATE_NUMBERS), row
        else:
            assert_blanks_named(row, SIMULATE_NUMBERS, "theory_mse",
                                cli._NON_POSITIVE_GAP_NOTE, "relative_gap")


def rendered_rows(table: cli.ReportTable) -> list:
    """The rows of ``table`` as its json prints them."""
    return json.loads(cli.render_table(table, "json"),
                      parse_constant=no_constant)["rows"]


def test_extreme_scales_fail_only_rows():
    rng = random.Random(28)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in range(EXTREME_SETS):
            params = extreme_params(rng)
            check_extreme_theory(rendered_rows(cli.theory_table(params)))
            if index % SIMULATE_EVERY == 0:
                config = SimulationConfig(
                    params=dataclasses.replace(
                        params, n=2 + index // SIMULATE_EVERY % 2),
                    replicates=100, seed=index)
                check_extreme_simulate(
                    rendered_rows(cli.simulation_table(config)[0]))


@pytest.mark.parametrize("argv, text", [
    (["theory", "--n", "100000000000000000000"],
     test_cli.TestCellsItCannotForm.UNDERFLOWING_REFERENCE),
    (["simulate", "--replicates", "100"], ZERO_AUX_VARIANCE),
], ids=["theory-underflowing-reference", "simulate-zero-aux-variance"])
def test_extreme_data_prints_its_table(data_path, argv, text):
    data_path.write_text(text, encoding="utf-8")
    code, out, err = run_main([argv[0], "--data", str(data_path), *argv[1:],
                               "--format", "json"])
    assert (code, err) == (cli.EXIT_SUCCESS, "")
    rows = parse_table("json", out)
    (check_extreme_theory if argv[0] == "theory"
     else check_extreme_simulate)(rows)
