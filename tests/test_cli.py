"""Command-line interface: commands, exit codes, formats, determinism."""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from meanerr import cli, theory
from meanerr.cli import DEFAULT_GRID, main
from meanerr.estimators import ExpBracket, PowerExpBracket
from meanerr.ingest import ColumnMap, compute_params, load_dataset, preset
from meanerr.moments import PopulationParams, derive_moments
from meanerr.simulate import _MAX_N, SimulationConfig, _replicate_means
from meanerr.theory import MseBreakdown, SingularSystemError

from conftest import WIDE_DATA, params_from_dict, reference_result

PRESET = "gujarati-table1"

# Four units with hand-checkable divisor-N moments: true study mean 127,
# variance 4; true aux mean 171, variance 3; covariance 2; study error
# variance 1; aux error variance 1.
CSV_TEXT = """Y,X,y,x
125,168,127,171
129,172,129,173
125,172,127,175
129,172,129,173
"""

EXPECTED_DATA_PARAMS = {
    "mu_y": 127.0,
    "mu_x": 171.0,
    "sigma_y2": 4.0,
    "sigma_x2": 3.0,
    "rho": 2.0 / (4.0 * 3.0) ** 0.5,
    "sigma_u2": 1.0,
    "sigma_v2": 1.0,
    "n": 4,
}

THEORY_ROW_ORDER = (
    ["mean_per_unit", "exp_ratio", "regression_diff", "weighted_diff_optimal"]
    + ["power_exp"] * 4
    + ["weighted_power_exp_optimal"] * 4
)

# Markdown rounding policy under test: 3-decimal MSE cells, 2-decimal PRE,
# 5-decimal weights, 6 significant digits elsewhere.
MD_FORMATS = {
    "without_me": "{:.3f}",
    "me_contribution": "{:.3f}",
    "total": "{:.3f}",
    "pre": "{:.2f}",
    "mean_weight": "{:.5f}",
    "aux_weight": "{:.5f}",
    "alpha": "{:g}",
    "beta": "{:g}",
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out):
    payload = json.loads(out)
    return payload["rows"]


def csv_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def md_rows(out):
    lines = [line for line in out.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    rows = []
    for line in lines[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append(dict(zip(header, cells)))
    return rows


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    return str(path)


class TestParamsCommand:
    def test_preset_json_values_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, ["params", "--preset", PRESET, "--format", "json"])
        assert code == 0
        rows = json_rows(out)
        assert rows == [{
            "mu_y": 127.0, "mu_x": 170.0, "sigma_y2": 1278.0,
            "sigma_x2": 3300.0, "rho": 0.964, "sigma_u2": 36.0,
            "sigma_v2": 36.0, "n": 10,
        }]

    def test_json_round_trips_into_params(self, capsys):
        _, out, _ = run_cli(
            capsys, ["params", "--preset", PRESET, "--format", "json"])
        assert params_from_dict(json_rows(out)[0]) == preset(PRESET)

    def test_markdown_shows_values(self, capsys):
        code, out, _ = run_cli(capsys, ["params", "--preset", PRESET])
        assert code == 0
        row = md_rows(out)[0]
        assert row["mu_y"] == "127"
        assert row["rho"] == "0.964"
        assert row["n"] == "10"

    def test_csv_full_precision(self, capsys):
        _, out, _ = run_cli(
            capsys, ["params", "--preset", PRESET, "--format", "csv"])
        row = csv_rows(out)[0]
        assert float(row["sigma_y2"]) == 1278.0
        assert float(row["rho"]) == 0.964
        assert int(row["n"]) == 10

    def test_data_source(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, ["params", "--data", data_file, "--format", "json"])
        assert code == 0
        row = json_rows(out)[0]
        assert row == pytest.approx(EXPECTED_DATA_PARAMS)

    def test_perfectly_correlated_data(self, capsys, tmp_path):
        # X = 2Y + 1 exactly; the divisor-N moments put the correlation at
        # 1.0000000000000002 before rounding excess is clipped
        path = tmp_path / "line.csv"
        path.write_text(
            "Y,X,y,x\n" + "".join(
                f"{y},{x},{y},{x}\n" for y, x in (
                    (91.98, 184.96), (-10.87, -20.74), (1.26, 3.52),
                    (-14.67, -28.34), (66.45, 133.9), (95.4, 191.8),
                    (26.15, 53.3))),
            encoding="utf-8")
        code, out, err = run_cli(
            capsys, ["params", "--data", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        assert json_rows(out)[0]["rho"] == 1.0

    def test_data_n_override(self, capsys, data_file):
        _, out, _ = run_cli(
            capsys,
            ["params", "--data", data_file, "--n", "7", "--format", "json"])
        assert json_rows(out)[0]["n"] == 7

    def test_preset_n_override(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["params", "--preset", PRESET, "--n", "200", "--format", "json"])
        row = json_rows(out)[0]
        assert row["n"] == 200
        assert row["mu_y"] == 127.0

    def test_custom_columns_and_tab(self, capsys, tmp_path):
        text = CSV_TEXT.replace(",", "\t")
        header_renamed = text.replace("Y\tX\ty\tx", "TS\tTA\tOS\tOA")
        path = tmp_path / "units.tsv"
        path.write_text(header_renamed, encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "params", "--data", str(path), "--tab",
            "--col-Y", "TS", "--col-X", "TA",
            "--col-y", "OS", "--col-x", "OA",
            "--format", "json"])
        assert code == 0
        assert json_rows(out)[0] == pytest.approx(EXPECTED_DATA_PARAMS)

    def test_both_sources_is_usage_error(self, capsys, data_file):
        code, _, err = run_cli(
            capsys, ["params", "--preset", PRESET, "--data", data_file])
        assert code == 1
        assert "exactly one" in err

    def test_no_source_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["params"])
        assert code == 1
        assert "exactly one" in err

    def test_unknown_preset_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, ["params", "--preset", "nope"])
        assert code == 2
        assert PRESET in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["params", "--data", str(tmp_path / "absent.csv")])
        assert code == 2
        assert err.startswith("error:")

    def test_bad_cell_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Y,X,y,x\n125,168,127,171\n129,oops,129,173\n",
                        encoding="utf-8")
        code, _, err = run_cli(capsys, ["params", "--data", str(path)])
        assert code == 2
        assert "row 2" in err and "'X'" in err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(
            capsys, ["params", "--preset", PRESET, "--format", "csv"])
        out_path = tmp_path / "params.csv"
        code, out, _ = run_cli(capsys, [
            "params", "--preset", PRESET, "--format", "csv",
            "--out", str(out_path)])
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == stdout_text


class TestOverflowingData:
    """Finite data whose moments or theory leave the float range."""

    # Means near 1e160 with spreads near 1e150: every parameter is finite,
    # but mu_y**2 is not.
    LARGE_MEANS = "Y,X,y,x\n" + "".join(
        f"{1e160 + a * 1e150!r},{1e160 + b * 1e150!r},"
        f"{1e160 + (a + 0.1) * 1e150!r},{1e160 + (b - 0.1) * 1e150!r}\n"
        for a, b in ((1, 2), (-1, 0), (2, 3), (-2, -1)))
    # A true column of +-1e160: its variance overflows.
    LARGE_SPREAD = "Y,X,y,x\n1e160,1,1e160,2\n-1e160,3,-1e160,5\n"

    @pytest.mark.parametrize("command", [
        ["theory"], ["simulate", "--replicates", "100"]])
    def test_large_means_blank_only_their_rows(self, capsys, tmp_path,
                                               command):
        # mu_y**2 leaves the float range only inside the five optima, which
        # print their note and no number; every blank cell is named
        path = tmp_path / "large.csv"
        path.write_text(self.LARGE_MEANS, encoding="utf-8")
        params = compute_params(load_dataset(str(path), ColumnMap()), 4)
        plan = theory.row_plan(params, DEFAULT_GRID)
        assert sum(entry.spec is None for entry in plan) == 5
        numbers = ((*THEORY_LEGS, "pre") if command == ["theory"]
                   else SIMULATE_CHECKED)
        outs = outputs(capsys, [*command, "--data", str(path)])
        for fmt, parse in (("md", md_rows), ("csv", csv_rows),
                           ("json", json_rows)):
            rows = parse(outs[fmt])
            assert [row["estimator"] for row in rows] == THEORY_ROW_ORDER
            for row, entry in zip(rows, plan):
                blank = [column for column in numbers
                         if row[column] in ("", None)]
                if entry.spec is None:
                    assert (row["note"], blank) == (entry.note, list(numbers))
                else:
                    assert row["note"] == (
                        NOT_FINITE + ", ".join(blank) if blank else ""), row

    def test_overflowing_variance_warns_nothing(self, capsys, tmp_path):
        path = tmp_path / "spread.csv"
        path.write_text(self.LARGE_SPREAD, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["theory", "--data", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: all parameters must be finite\n"


class TestVarianceProductOutOfRange:
    """Perfectly correlated columns whose variances are finite but whose
    product overflows (HUGE) or underflows (TINY)."""

    HUGE = "Y,X,y,x\n1e100,1e100,1e100,1e100\n3e100,3e100,3e100,3e100\n"
    # A finite normal-equation determinant, but cov_yxbar * mu_y**2, and so
    # the optimal auxiliary weight, leaves the float range.
    HUGE_COV = ("Y,X,y,x\n"
                "9.9999999999999e+153,0.0,9.9999999999999e+153,0.0\n"
                "1.00000000000001e+154,2.0,1.00000000000001e+154,2.0\n"
                "1e+154,1.1,1e+154,1.1\n")
    TINY = ("Y,X,y,x\n1e-150,1e-150,1e-150,1e-150\n"
            "2e-150,3e-150,2e-150,3e-150\n")
    COMMANDS = [["theory"], ["simulate", "--replicates", "100"]]

    @staticmethod
    def write(tmp_path, text):
        path = tmp_path / "line.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("text", [HUGE, TINY], ids=["huge", "tiny"])
    def test_rho_is_one(self, capsys, tmp_path, text):
        code, out, err = run_cli(
            capsys,
            ["params", "--data", self.write(tmp_path, text), "--format",
             "json"])
        assert (code, err) == (0, "")
        assert json_rows(out)[0]["rho"] == 1.0

    def test_non_finite_optimal_weights_blank_their_rows(self, capsys,
                                                         tmp_path):
        # an optimum beyond the float range blanks its row, as a singular
        # one does; the other rows keep their finite totals
        notes = {"weighted_diff_optimal": "weighted difference",
                 "weighted_power_exp_optimal": "weighted power-exp family"}
        blanked = ("mean_weight", "aux_weight", "without_me",
                   "me_contribution", "total", "pre")
        for text in (self.HUGE, self.HUGE_COV):
            code, out, err = run_cli(
                capsys, ["theory", "--data", self.write(tmp_path, text),
                         "--format", "json"])
            assert (code, err) == (0, "")
            rows = json_rows(out)
            assert len(rows) == 4 + 2 * len(DEFAULT_GRID)
            for row in rows:
                if row["estimator"] in notes:
                    assert row["note"] == (
                        f"optimal weights of the {notes[row['estimator']]} "
                        f"leave the float range")
                    assert [row[c] for c in blanked] == [None] * len(blanked)
                else:
                    assert row["note"] == ""
                    assert 0.0 < row["total"] < float("inf")
        code, out, _ = run_cli(
            capsys, ["theory", "--data", self.write(tmp_path, self.HUGE),
                     "--format", "csv"])
        assert csv_rows(out)[0]["total"] == "4.999999999999999e+199"

    def test_simulate_blanks_what_leaves_the_float_range(self, capsys,
                                                         tmp_path):
        # the squared deviations from the SE's MSE (every row) or the
        # squares themselves (HUGE_COV's bracket rows) overflow: those
        # cells are blank and named, and every other row prints
        for text, blanked_mse in ((self.HUGE, 0), (self.HUGE_COV, 4)):
            path = self.write(tmp_path, text)
            outs = outputs(capsys, ["simulate", "--replicates", "100",
                                    "--data", path])
            params = compute_params(load_dataset(path, ColumnMap()),
                                    text.count("\n") - 1)
            expected = reference_simulate_rows(params, DEFAULT_GRID, 100)
            assert_simulate_rows(outs, expected)
            assert sum(cells["empirical_mse"] == "" != cells["theory_mse"]
                       for cells, _ in expected) == blanked_mse

    @pytest.mark.parametrize("command", COMMANDS)
    def test_underflowing_product_runs(self, capsys, tmp_path, command):
        code, out, err = run_cli(
            capsys, [*command, "--data", self.write(tmp_path, self.TINY)])
        assert (code, err) == (0, "")
        assert out


class TestUnevaluableInput:
    """Input the program cannot evaluate exits 2 with one ``error:`` line,
    whichever module or library raised; a bug still propagates."""

    @staticmethod
    def assert_data_error(capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"Y,X,y,x\n1,2,3,4\n\xff\xfe,2,3,4\n")
        self.assert_data_error(capsys, ["theory", "--data", str(path)])

    # csv.reader refuses a cell longer than its field limit of 131 072
    # characters; a data cell of that length reaches csv only after
    # np.loadtxt reads it as inf
    @pytest.mark.parametrize("text, message", [
        ("Y,X,y,x\n1,2,3,1" + "0" * 140_000 + "\n5,6,7,9\n",
         "error: row 1: field larger than field limit (131072)\n"),
        ("Y,X,y,x," + "h" * 140_000 + "\n1,2,3,1,0\n5,6,7,9,0\n",
         "error: header row: field larger than field limit (131072)\n"),
    ], ids=["data-cell", "header-cell"])
    def test_cell_beyond_csv_field_limit(self, capsys, tmp_path, text,
                                         message):
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        self.assert_data_error(capsys, ["params", "--data", str(path)])
        code, _, err = run_cli(capsys, ["theory", "--data", str(path)])
        assert (code, err) == (2, message)

    def test_block_too_big_to_index(self, capsys):
        # a block holds at least one replicate's 4n doubles, 256 PiB at this
        # n, which cannot be allocated, so nothing is drawn
        self.assert_data_error(
            capsys, ["simulate", "--preset", PRESET,
                     "--n", "9007199254740993", "--replicates", "100"])

    @pytest.mark.parametrize("bug", [TypeError, KeyError, IndexError,
                                     AttributeError])
    def test_bug_propagates(self, monkeypatch, bug):
        def broken(*args):
            raise bug("bug")
        monkeypatch.setattr(cli, "theory_table", broken)
        with pytest.raises(bug):
            main(["theory", "--preset", PRESET])


NOT_FINITE = "not a finite float: "
SIMULATE_CHECKED = ("empirical_bias", "empirical_mse", "mc_se_mse",
                    "theory_mse", "relative_gap")
THEORY_LEGS = ("without_me", "me_contribution", "total")


def no_constant(name):
    raise AssertionError(f"json holds {name}")


def assert_all_finite(fmt, out):
    """No cell of a printed table is nan or inf."""
    if fmt == "json":
        rows = json.loads(out, parse_constant=no_constant)["rows"]
    else:
        rows = (csv_rows if fmt == "csv" else md_rows)(out)
    for row in rows:
        for cell in row.values():
            assert str(cell).lower().lstrip("+-") not in ("nan", "inf"), row


def outputs(capsys, argv, code=0, err=""):
    """The output of ``argv`` in each format, each checked for its exit
    code, its stderr, no warning, and no nan or inf cell."""
    outs = {}
    for fmt in ("md", "csv", "json"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_cli(capsys, [*argv, "--format", fmt])
        assert got[0::2] == (code, err)
        assert_all_finite(fmt, got[1])
        outs[fmt] = got[1]
    return outs


def reference_simulate_rows(params, grid, replicates):
    """Each plan row's checked simulate cells as csv prints them, and its
    note, from the fsum reference over the engine's replicate means (seed
    0): a cell that is not finite is blank, and the note names it in place
    of the non-positive one."""
    config = SimulationConfig(params=params, replicates=replicates, seed=0)
    ybars, xbars = _replicate_means(config)
    rows = []
    for entry in theory.row_plan(params, grid):
        if entry.spec is None:
            rows.append((dict.fromkeys(SIMULATE_CHECKED, ""), entry.note))
            continue
        ref = reference_result(entry.spec, ybars, xbars, params.mu_y,
                               params.mu_x)
        total = entry.breakdown.total
        gap = (abs(ref.empirical_mse - total) / total
               if 0 < total < math.inf else None)
        values = dict(zip(SIMULATE_CHECKED, (
            ref.empirical_bias, ref.empirical_mse, ref.mc_se_mse, total,
            gap)))
        blank = [column for column, value in values.items()
                 if value is not None and not math.isfinite(value)]
        note = cli._NON_POSITIVE_GAP_NOTE if total <= 0 else ""
        if blank:
            note = NOT_FINITE + ", ".join(blank)
        rows.append(({column: "" if value is None or column in blank
                      else repr(value) for column, value in values.items()},
                     note))
    return rows


def assert_simulate_rows(outs, expected):
    """csv prints the reference cells and notes; md and json blank the same
    cells and print the same notes."""
    assert [({column: row[column] for column in SIMULATE_CHECKED},
             row["note"]) for row in csv_rows(outs["csv"])] == expected
    blanks = [([cells[column] == "" for column in SIMULATE_CHECKED], note)
              for cells, note in expected]
    for rows in (md_rows(outs["md"]), json_rows(outs["json"])):
        assert [([row[column] in ("", None) for column in SIMULATE_CHECKED],
                 row["note"]) for row in rows] == blanks


class TestCellsItCannotForm:
    """A number one row cannot form fails that row alone: the cell is blank
    in every format, the row's note names it, and the command exits 0 (or 3
    past --tolerance). Simulate cells are checked against the fsum
    reference of ``conftest.reference_result``."""

    SMALL_N = ["simulate", "--preset", PRESET, "--n", "2",
               "--replicates", "1000"]
    # at --n 1e20 the mean-per-unit total, the PRE reference, underflows to
    # 0 while other rows stay positive
    UNDERFLOWING_REFERENCE = ("Y,X,y,x\n9.9999e-151,-1.0,9.9999e-151,-1.0\n"
                              "1.00001e-150,1.0000000002,1.00001e-150,"
                              "1.0000000002\n")

    # at n = 2 the power-exp bracket exp(beta (mu_x - xbar) / ...) reaches
    # finite values whose squares (grid 1,1400) or whose squared deviations
    # from the MSE (grid 1,700, the SE sum alone) leave the float range
    @pytest.mark.parametrize("beta, blanked", [
        (1400, ["empirical_mse", "mc_se_mse", "relative_gap"]),
        (700, ["mc_se_mse"])], ids=["grid-1,1400", "grid-1,700"])
    def test_monte_carlo_overflow(self, capsys, beta, blanked):
        outs = outputs(capsys, [*self.SMALL_N, f"--grid=1,{beta}"])
        params = replace(preset(PRESET), n=2)
        expected = reference_simulate_rows(params, ((1, float(beta)),), 1000)
        assert_simulate_rows(outs, expected)
        assert [note for _, note in expected] == (
            [""] * 4 + [NOT_FINITE + ", ".join(blanked)] * 2)

    def test_unbounded_gap_exceeds_any_tolerance(self, capsys):
        # an infinite empirical MSE against a finite positive theory value
        outputs(capsys, [*self.SMALL_N, "--grid=1,1400", "--tolerance", "0.5"],
                code=3, err="tolerance exceeded: worst relative gap inf > "
                            "0.5\n")
        # an SE beyond the float range alone keeps its gap in the gate
        code, out, err = run_cli(
            capsys, [*self.SMALL_N, "--grid=1,700", "--tolerance", "1e200",
                     "--format", "csv"])
        assert (code, err) == (0, "")
        assert csv_rows(out)[-1]["relative_gap"] != ""

    def test_wide_data(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(WIDE_DATA, encoding="utf-8")
        params = compute_params(load_dataset(str(path), ColumnMap()), 6)
        plan = theory.row_plan(params, DEFAULT_GRID)
        theory_outs = outputs(capsys, ["theory", "--data", str(path)])
        rows = csv_rows(theory_outs["csv"])
        for row, entry in zip(rows, plan):
            legs = entry.breakdown
            if legs is None or math.isfinite(legs.me_contribution):
                continue
            blank = [leg for leg in THEORY_LEGS
                     if not math.isfinite(getattr(legs, leg))]
            assert row["note"] == NOT_FINITE + ", ".join(blank)
            assert [row[leg] for leg in blank] == [""] * len(blank)
        assert sum(row["note"].startswith(NOT_FINITE) for row in rows) == 5
        for fmt, parse in (("md", md_rows), ("json", json_rows)):
            assert [row["note"] for row in parse(theory_outs[fmt])] == [
                row["note"] for row in rows]
        simulate_outs = outputs(
            capsys, ["simulate", "--data", str(path), "--replicates", "200"])
        expected = reference_simulate_rows(params, DEFAULT_GRID, 200)
        assert_simulate_rows(simulate_outs, expected)
        # every row with a spec blanks at least its mc_se_mse
        assert sum(note.startswith(NOT_FINITE) for _, note in expected) == 7

    def test_infinite_total_reaches_no_pre(self):
        # theory.pre of an inf total is nan: the row blanks and names it
        # with the legs
        params = PopulationParams(n=2, mu_y=1e150, mu_x=1.0, sigma_y2=1.0,
                                  sigma_x2=2e8, rho=0.5, sigma_u2=0.0,
                                  sigma_v2=0.0)
        assert math.isnan(theory.pre(0.5, theory.row_plan(
            params, ((1, 1.0),))[4].breakdown.total))
        row = cli.theory_table(params, ((1, 1.0),)).rows[4]
        assert row["note"] == NOT_FINITE + ", ".join((*THEORY_LEGS, "pre"))
        assert [row[c] for c in (*THEORY_LEGS, "pre")] == [None] * 4

    @staticmethod
    def patch_plan(monkeypatch, breakdowns):
        """Give the plan rows at the keys of ``breakdowns`` those legs."""
        real = theory.row_plan

        def plan(params, grid):
            rows = real(params, grid)
            for index, legs in breakdowns.items():
                rows[index] = rows[index]._replace(
                    breakdown=MseBreakdown(*legs))
            return rows

        monkeypatch.setattr(theory, "row_plan", plan)

    def test_reference_mse_underflows(self, capsys, tmp_path):
        # the reference row carries the non-positive note, and every
        # positive row blanks and names its PRE
        path = tmp_path / "tiny.csv"
        path.write_text(self.UNDERFLOWING_REFERENCE, encoding="utf-8")
        outs = outputs(capsys, ["theory", "--data", str(path),
                                "--n", "100000000000000000000"])
        rows = csv_rows(outs["csv"])
        assert (rows[0]["total"], rows[0]["pre"], rows[0]["note"]) == (
            "0.0", "", cli._NON_POSITIVE_NOTE)
        positive = [row for row in rows if row["total"]
                    and float(row["total"]) > 0]
        assert len(positive) == 7
        assert {(row["pre"], row["note"]) for row in positive} == {
            ("", NOT_FINITE + "pre")}
        for fmt, parse in (("md", md_rows), ("json", json_rows)):
            assert [(row["pre"] in ("", None), row["note"])
                    for row in parse(outs[fmt])] == [
                (row["pre"] == "", row["note"]) for row in rows]

    def test_simulate_names_an_n_past_one_block(self, capsys, tmp_path):
        # theory runs at this n; one replicate's 4n values would not fit
        # in one numpy array, and simulate says so before drawing
        path = tmp_path / "tiny.csv"
        path.write_text(self.UNDERFLOWING_REFERENCE, encoding="utf-8")
        assert run_cli(capsys, [
            "simulate", "--data", str(path), "--n", "100000000000000000000",
            "--replicates", "300"]) == (
            2, "", f"error: n must be <= {_MAX_N} to draw one replicate's "
                   f"4n values, got 100000000000000000000\n")

    def test_pre_beyond_the_float_range(self, monkeypatch, table_params):
        # a finite positive total so small that 100 * reference / total
        # overflows: PRE is blank and named, the legs print
        self.patch_plan(monkeypatch, {2: (1e-308, 0.0, 1e-308)})
        row = cli.theory_table(table_params).rows[2]
        assert (row["total"], row["pre"], row["note"]) == (
            1e-308, None, NOT_FINITE + "pre")

    def test_every_float_cell_is_checked(self, capsys, monkeypatch):
        # a nan in a cell that no row of the real plan leaves non-finite
        # (beta) is blank and named in both tables and every format
        real = theory.row_plan

        def plan(params, grid):
            rows = real(params, grid)
            rows.insert(1, theory.PlanRow(
                "power_exp", {"alpha": 1, "beta": math.nan}, None, None))
            return rows

        monkeypatch.setattr(theory, "row_plan", plan)
        for argv in (["theory", "--preset", PRESET],
                     ["simulate", "--preset", PRESET, "--replicates", "100"]):
            outs = outputs(capsys, argv)
            for fmt, parse in (("md", md_rows), ("csv", csv_rows),
                               ("json", json_rows)):
                assert "nan" not in outs[fmt]
                row = parse(outs[fmt])[1]
                assert (row["estimator"], row["beta"], row["note"]) == (
                    "power_exp", None if fmt == "json" else "",
                    NOT_FINITE + "beta")

    def test_blank_note_takes_precedence(self, monkeypatch, table_params):
        # a row both non-positive and blanked carries the blank note alone
        # (legs: without_me, me_contribution, total)
        self.patch_plan(monkeypatch, {1: (math.inf, -math.inf, -5.0),
                                      2: (1.0, -math.inf, -math.inf)})
        rows = cli.theory_table(table_params).rows
        assert [(row["total"], row["pre"], row["note"]) for row in rows[1:3]
                ] == [(-5.0, None, NOT_FINITE + "without_me, me_contribution"),
                      (None, None, NOT_FINITE + "me_contribution, total")]
        config = SimulationConfig(params=table_params, replicates=100, seed=0)
        rows = cli.simulation_table(config)[0].rows
        assert [(row["theory_mse"], row["relative_gap"], row["note"])
                for row in rows[1:3]] == [
            (-5.0, None, cli._NON_POSITIVE_GAP_NOTE),
            (None, None, NOT_FINITE + "theory_mse")]


class TestUsageAndHelp:
    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["params", "--preset", PRESET, "--bogus"])
        assert code == 1

    def test_bad_int_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["simulate", "--preset", PRESET, "--replicates", "many"])
        assert code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_low_n_is_data_error(self, capsys):
        code, _, _ = run_cli(
            capsys, ["params", "--preset", PRESET, "--n", "1"])
        assert code == 2

    def test_render_table_rejects_unknown_format(self):
        # argparse keeps the CLI from this path; a library caller gets the
        # ValueError it can catch
        table = cli.scenario_table(preset(PRESET), PRESET)
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            cli.render_table(table, "xml")


def test_csv_cell_rule():
    # csv.writer's own rule: None is an empty field and a float its repr,
    # so every float keeps its full precision
    columns = tuple("abcdefg")
    row = dict(zip(columns, [None, 0.1, 1e300, -0.0, 3, "a, b", 1e-320]))
    table = cli.ReportTable("cells", columns, [row])
    assert cli.render_table(table, "csv") == (
        'a,b,c,d,e,f,g\n,0.1,1e+300,-0.0,3,"a, b",1e-320\n')


class TestSharedParser:
    def test_parser_holds_no_state_between_calls(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        default = ["theory", "--preset", PRESET]
        code, first, _ = run_cli(capsys, default)
        assert code == 0
        code, out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, "--grid=1,1",
                     "--grid", "-1,0.5"])
        assert code == 0
        assert [(r["alpha"], r["beta"]) for r in md_rows(out)[4:]] == [
            ("1", "1"), ("-1", "0.5")] * 2
        # fails inside parse_args, after --preset has been stored
        code, out, err = run_cli(capsys, ["theory", "--preset", PRESET,
                                          "--grid"])
        assert code == 1
        assert out == ""
        assert err.startswith("usage: meanerr theory")
        code, _, _ = run_cli(capsys, ["simulate", "--preset", PRESET,
                                      "--replicates", "100", "--seed", "5"])
        assert code == 0
        code, _, _ = run_cli(capsys, ["params", "--preset", PRESET,
                                      "--n", "50"])
        assert code == 0
        code, last, _ = run_cli(capsys, default)
        assert code == 0
        assert last == first


class TestTheoryCommand:
    def theory_json(self, capsys, *extra):
        code, out, err = run_cli(
            capsys,
            ["theory", "--preset", PRESET, "--format", "json", *extra])
        assert code == 0, err
        return json_rows(out)

    def test_row_order_fixed(self, capsys):
        rows = self.theory_json(capsys)
        assert [row["estimator"] for row in rows] == THEORY_ROW_ORDER
        pairs = [(row["alpha"], row["beta"]) for row in rows[4:8]]
        assert pairs == [[1, 0.0], [0, 1.0], [1, 1.0], [1, -1.0]] or \
            pairs == [(1, 0.0), (0, 1.0), (1, 1.0), (1, -1.0)]

    def test_mean_row_pre_is_exactly_100(self, capsys):
        rows = self.theory_json(capsys)
        assert rows[0]["pre"] == 100.0

    @pytest.mark.parametrize("n", [23, 27, 46])
    def test_mean_row_pre_is_exactly_100_where_the_ratio_rounds(
            self, capsys, n):
        # 100 * r / r rounds to 99.99999999999999 or 100.00000000000001
        # at these n
        rows = self.theory_json(capsys, "--n", str(n))
        assert rows[0]["pre"] == 100.0
        code, out, _ = run_cli(capsys, ["theory", "--preset", PRESET,
                                        "--n", str(n), "--format", "csv"])
        assert code == 0
        assert csv_rows(out)[0]["pre"] == "100.0"

    @pytest.mark.parametrize("pair", ["3,0", "2,1.5", "-1,0.5"])
    def test_non_positive_first_order_total_leaves_pre_empty(
            self, capsys, pair):
        rows = self.theory_json(capsys, f"--grid={pair}")
        optimal = rows[-1]
        assert optimal["estimator"] == "weighted_power_exp_optimal"
        assert optimal["total"] <= 0
        assert optimal["total"] == pytest.approx(
            optimal["without_me"] + optimal["me_contribution"], rel=1e-9)
        assert optimal["pre"] is None
        assert optimal["note"] and "|" not in optimal["note"]
        code, out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, f"--grid={pair}"])
        assert code == 0
        assert md_rows(out)[-1]["pre"] == ""

    def test_decomposition_identity_every_row(self, capsys):
        for row in self.theory_json(capsys):
            total = row["without_me"] + row["me_contribution"]
            assert total == pytest.approx(row["total"], rel=1e-9)

    def test_totals_match_library(self, capsys):
        params = preset(PRESET)
        m = derive_moments(params)
        rows = self.theory_json(capsys)
        plan = theory.row_plan(params, DEFAULT_GRID)
        assert len(rows) == len(plan)
        for row, entry in zip(rows, plan):
            assert row["estimator"] == entry.label
            assert [row["without_me"], row["me_contribution"],
                    row["total"]] == [entry.breakdown.without_me,
                                      entry.breakdown.me_contribution,
                                      entry.breakdown.total]
        assert rows[1]["total"] == theory.mse_quadratic(
            m, ExpBracket()).mse(params.mu_y, 1.0, 0.0)
        opt = theory.mse_quadratic(m, None).minimize(params.mu_y)
        assert rows[3]["mean_weight"] == opt.first
        assert rows[3]["aux_weight"] == opt.second
        for row, (alpha, beta) in zip(rows[8:12], DEFAULT_GRID):
            opt = theory.mse_quadratic(
                m, PowerExpBracket(alpha, beta)).minimize(params.mu_y)
            assert row["mean_weight"] == opt.first
            assert row["aux_weight"] == opt.second

    def test_pre_column_matches_direct_ratio(self, capsys):
        rows = self.theory_json(capsys)
        reference = rows[0]["total"]
        for row in rows:
            assert row["pre"] == pytest.approx(
                100.0 * reference / row["total"], rel=1e-12)

    def test_regression_row_coefficients(self, capsys):
        rows = self.theory_json(capsys)
        slope = theory.regression_slope(derive_moments(preset(PRESET)))
        assert rows[2]["mean_weight"] == 1.0
        assert rows[2]["aux_weight"] == slope

    def test_nesting_identities_on_zero_grid(self, capsys):
        rows = self.theory_json(capsys, "--grid", "0,0")
        assert len(rows) == 6
        by_name = {row["estimator"]: row for row in rows}
        assert by_name["power_exp"]["total"] == \
            by_name["mean_per_unit"]["total"]
        assert by_name["weighted_power_exp_optimal"]["total"] == \
            pytest.approx(by_name["weighted_diff_optimal"]["total"], rel=1e-9)
        assert by_name["weighted_power_exp_optimal"]["mean_weight"] == \
            pytest.approx(by_name["weighted_diff_optimal"]["mean_weight"],
                          rel=1e-9)

    def test_repeatable_grid_flag(self, capsys):
        rows = self.theory_json(capsys, "--grid", "1,0", "--grid", "0,1")
        assert len(rows) == 8
        assert [r["estimator"] for r in rows[4:]] == \
            ["power_exp", "power_exp",
             "weighted_power_exp_optimal", "weighted_power_exp_optimal"]

    @pytest.mark.parametrize("bad", ["1.5,0", "1", "9,0", "1,nan", "1,0,2"])
    def test_malformed_grid_is_usage_error(self, capsys, bad):
        code, _, err = run_cli(
            capsys, ["theory", "--preset", PRESET, "--grid", bad])
        assert code == 1
        assert "--grid" in err

    @pytest.mark.parametrize("command", ["theory", "simulate"])
    def test_negative_alpha_grid_spelled_either_way(self, capsys, command):
        base = [command, "--preset", PRESET, "--format", "csv"]
        if command == "simulate":
            base += ["--replicates", "100"]
        code, spaced, err = run_cli(capsys, [*base, "--grid", "-1,0.5"])
        assert code == 0, err
        code, joined, err = run_cli(capsys, [*base, "--grid=-1,0.5"])
        assert code == 0, err
        assert spaced == joined

    @pytest.mark.parametrize("command", ["theory", "simulate"])
    @pytest.mark.parametrize("flag", ["--gri", "--gr", "--g"])
    def test_negative_alpha_grid_after_abbreviated_flag(self, capsys, command,
                                                         flag):
        base = [command, "--preset", PRESET, "--format", "csv"]
        if command == "simulate":
            base += ["--replicates", "100"]
        code, joined, err = run_cli(capsys, [*base, "--grid=-1,0"])
        assert code == 0, err
        code, spaced, err = run_cli(capsys, [*base, flag, "-1,0"])
        assert code == 0, err
        assert spaced == joined

    def test_abbreviation_of_no_grid_flag_is_not_joined(self, capsys):
        code, out, err = run_cli(
            capsys, ["params", "--preset", PRESET, "--gri", "-1,0"])
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --gri -1,0\n")

    def test_negative_alpha_grid_repeated_and_validated(self, capsys):
        rows = self.theory_json(capsys, "--grid", "-1,0.5", "--grid", "-3,-2")
        assert [(r["alpha"], r["beta"]) for r in rows[4:6]] == \
            [(-1, 0.5), (-3, -2.0)]
        code, _, err = run_cli(
            capsys, ["theory", "--preset", PRESET, "--grid", "-1.5,0"])
        assert code == 1
        assert "--grid" in err

    def test_from_dataset_runs(self, capsys, data_file):
        code, out, _ = run_cli(
            capsys, ["theory", "--data", data_file, "--format", "json"])
        assert code == 0
        assert len(json_rows(out)) == 12

    def test_singular_optimum_is_per_row(self, capsys, monkeypatch):
        # every quadratic with a bracket is made singular; the plan names
        # the family in the note
        class Singular(theory.MseQuadratic):
            def minimize(self, mu_y):
                raise SingularSystemError("synthetic singularity")

        real = theory.mse_quadratic

        def quadratic(m, bracket):
            quad = real(m, bracket)
            return quad if bracket is None else Singular(*quad)

        monkeypatch.setattr(theory, "mse_quadratic", quadratic)
        code, out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, "--format", "json"])
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 12
        for row in rows[8:]:
            assert row["note"] == ("normal equations for the weighted "
                                   "power-exp family are singular")
            assert row["total"] is None
        assert rows[3]["total"] is not None

    def test_markdown_rounding_policy(self, capsys):
        code, out, _ = run_cli(capsys, ["theory", "--preset", PRESET])
        assert code == 0
        text_rows = md_rows(out)
        assert text_rows[0]["total"] == "131.400"
        assert text_rows[0]["pre"] == "100.00"
        assert text_rows[3]["mean_weight"] == "0.99914"

    def test_csv_json_identical_values(self, capsys):
        _, json_out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, "--format", "json"])
        _, csv_out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, "--format", "csv"])
        for json_row, csv_row in zip(json_rows(json_out), csv_rows(csv_out)):
            for column, value in json_row.items():
                cell = csv_row[column]
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert float(cell) == value
                elif isinstance(value, int):
                    assert int(cell) == value
                else:
                    assert cell == str(value)

    def test_markdown_cells_are_rounded_json_values(self, capsys):
        _, json_out, _ = run_cli(
            capsys, ["theory", "--preset", PRESET, "--format", "json"])
        _, md_out, _ = run_cli(capsys, ["theory", "--preset", PRESET])
        for json_row, md_row in zip(json_rows(json_out), md_rows(md_out)):
            for column, value in json_row.items():
                cell = md_row[column]
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    expected = MD_FORMATS.get(column, "{:.6g}").format(value)
                    assert cell == expected
                else:
                    assert cell == str(value)


SMALL_RUN = ["simulate", "--preset", PRESET,
             "--replicates", "100", "--seed", "5"]


class TestSimulateCommand:
    def test_rows_and_accounting(self, capsys):
        code, out, _ = run_cli(capsys, [*SMALL_RUN, "--format", "json"])
        assert code == 0
        rows = json_rows(out)
        assert [row["estimator"] for row in rows] == THEORY_ROW_ORDER
        for row in rows:
            assert row["empirical_mse"] > 0.0
            assert row["replicates_used"] + row["replicates_skipped"] == 100

    def test_same_seed_identical_bytes(self, capsys):
        _, first, _ = run_cli(capsys, [*SMALL_RUN, "--format", "json"])
        _, second, _ = run_cli(capsys, [*SMALL_RUN, "--format", "json"])
        assert first == second

    def test_gap_is_relative_distance(self, capsys):
        _, out, _ = run_cli(capsys, [*SMALL_RUN, "--format", "json"])
        for row in json_rows(out):
            expected = abs(row["empirical_mse"] - row["theory_mse"]) \
                / row["theory_mse"]
            assert row["relative_gap"] == pytest.approx(expected, rel=1e-12)

    def test_theory_column_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, [*SMALL_RUN, "--format", "json"])
        assert json_rows(out)[0]["theory_mse"] == \
            theory.row_plan(preset(PRESET), ())[0].breakdown.total

    def test_n_override_rescales_theory_and_weights(self, capsys):
        _, out, _ = run_cli(
            capsys, [*SMALL_RUN, "--n", "50", "--format", "json"])
        rows = json_rows(out)
        rescaled = replace(preset(PRESET), n=50)
        assert rows[0]["theory_mse"] == \
            theory.row_plan(rescaled, ())[0].breakdown.total
        opt = theory.mse_quadratic(derive_moments(rescaled),
                                   None).minimize(rescaled.mu_y)
        assert rows[3]["mean_weight"] == opt.first
        assert rows[3]["aux_weight"] == opt.second

    def test_small_n_exceeds_tight_tolerance(self, capsys):
        code, out, err = run_cli(
            capsys, [*SMALL_RUN, "--tolerance", "0.0001", "--format", "json"])
        assert code == 3
        assert "tolerance exceeded" in err
        assert len(json_rows(out)) == 12

    def test_loose_tolerance_passes(self, capsys):
        code, _, _ = run_cli(capsys, [*SMALL_RUN, "--tolerance", "10"])
        assert code == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_unusable_tolerance_is_usage_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, [*SMALL_RUN, "--tolerance", tolerance])
        assert (code, out) == (1, "")
        assert err.startswith("error: --tolerance must be a finite number >= 0")

    def test_student_t_needs_df(self, capsys):
        code, _, err = run_cli(
            capsys, [*SMALL_RUN, "--error-law", "student-t"])
        assert code == 2
        assert "error_df" in err

    def test_student_t_with_df_runs(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [*SMALL_RUN, "--error-law", "student-t", "--error-df", "6"])
        assert code == 0

    def test_df_rejected_for_gaussian(self, capsys):
        code, _, _ = run_cli(capsys, [*SMALL_RUN, "--error-df", "8"])
        assert code == 2

    def test_unknown_error_law_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [*SMALL_RUN, "--error-law", "cauchy"])
        assert code == 1

    def test_too_few_replicates_is_data_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["simulate", "--preset", PRESET, "--replicates", "50"])
        assert code == 2

    def test_unallocatable_run_is_data_error(self, capsys):
        # 2**59 replicate means take 4 EiB, more than any 64-bit machine
        # can map, so the first allocation fails at once
        code, out, err = run_cli(
            capsys,
            ["simulate", "--preset", PRESET, "--replicates", str(2**59)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("replicates", [2**60, 2**64])
    def test_unindexable_run_is_config_error(self, capsys, replicates):
        # past 2**60 - 1 numpy cannot index the replicate means at all;
        # the bound is checked before any array is made
        code, out, err = run_cli(
            capsys,
            ["simulate", "--preset", PRESET, "--replicates", str(replicates)])
        assert code == 2
        assert out == ""
        assert err == (f"error: replicates must be <= {2**60 - 1}, "
                       f"got {replicates}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_positive_theory_mse_leaves_gap_empty(self, capsys, fmt):
        # at n = 10 the optimal weighted power-exp (3, 0) row has a
        # first-order mse of about -322; its gap against that would be 4.6
        code, out, err = run_cli(
            capsys, ["simulate", "--preset", PRESET, "--grid=3,0",
                     "--replicates", "2000", "--tolerance", "1",
                     "--format", fmt])
        assert code == 0, err
        rows = json_rows(out) if fmt == "json" else csv_rows(out)
        optimal = rows[-1]
        assert optimal["estimator"] == "weighted_power_exp_optimal"
        assert float(optimal["theory_mse"]) < 0
        assert optimal["relative_gap"] in (None, "")
        # simulate has no pre column; what is undefined is the gap
        assert optimal["note"] == (
            "first-order mse is not positive: outside the expansion's "
            "range, relative_gap undefined")
        assert float(optimal["empirical_mse"]) > 0
        for row in rows[:-1]:
            assert float(row["theory_mse"]) > 0
            assert float(row["relative_gap"]) < 1
            assert row["note"] in (None, "")

    def test_markdown_output(self, capsys):
        code, out, _ = run_cli(capsys, SMALL_RUN)
        assert code == 0
        assert out.startswith("## monte carlo")
        assert len(md_rows(out)) == 12

    @pytest.mark.parametrize("source", [
        ["--preset", PRESET, "--n", "10"],
        ["--data", str(Path(__file__).parent / "golden" / "units.csv"),
         "--n", "200", "--grid=1,1", "--grid=-1,0.5"],
        ["--preset", PRESET, "--n", "2000"],
    ], ids=["preset-n10", "units-n200", "preset-n2000"])
    def test_theory_column_is_the_theory_total(self, capsys, source):
        # both tables print one first-order value per row, bit for bit
        code, theory_out, _ = run_cli(
            capsys, ["theory", *source, "--format", "csv"])
        assert code == 0
        code, simulate_out, _ = run_cli(
            capsys, ["simulate", *source, "--replicates", "100", "--seed",
                     "5", "--format", "csv"])
        assert code == 0
        totals = [row["total"] for row in csv_rows(theory_out)]
        assert [row["theory_mse"] for row in csv_rows(simulate_out)] \
            == totals
        assert all(totals)


class TestConsoleEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "meanerr.cli",
             "params", "--preset", PRESET, "--format", "csv"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("mu_y,")

    def test_script_entry_point_wiring(self):
        # What the installed console script would run, checked from source.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["meanerr"] == "meanerr.cli:main"
        module, func = scripts["meanerr"].split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'meanerr'; sys.exit({func}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "params", "--preset", PRESET],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "127" in proc.stdout

    @pytest.mark.skipif(shutil.which("meanerr") is None,
                        reason="meanerr console script is not on PATH "
                               "(package not installed)")
    def test_installed_script(self):
        script = shutil.which("meanerr")
        assert script is not None
        proc = subprocess.run(
            [script, "params", "--preset", PRESET],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "127" in proc.stdout
