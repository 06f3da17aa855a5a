"""Command-line front door for the estimator laboratory.

Three subcommands share one source-resolution and rendering pipeline:

``params``
    Resolve a population scenario (named preset or measured dataset) and
    print its eight parameters as a single-row table.
``theory``
    Print the first-order MSE comparison: mean per unit, exp-ratio,
    regression-slope difference, jointly optimal weighted difference, then
    one power-exp row and one optimal weighted power-exp row per
    (alpha, beta) grid pair — twelve rows on the default grid.  Each row
    carries the error-free/measurement-error decomposition and the percent
    relative efficiency against the mean per unit.
``simulate``
    Run the Monte Carlo engine over the same estimator set and print
    empirical bias and MSE next to the first-order theory value with the
    relative gap per row.

Exit codes: 0 success, 1 usage error, 2 input where no row survives (bad
data or configuration, a file that is not UTF-8, a run too large to
allocate), 3 tolerance failure (``simulate --tolerance`` exceeded).  A
cell that is not a finite float is blank, named in its row's note in place
of any other note; an optimum that is singular or beyond the float range
blanks its whole row.
Output is a pure function of the flag set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
from typing import NamedTuple, Optional, Sequence

from .ingest import (ColumnMap, compute_params, load_dataset, preset,
                     preset_names)
from .moments import PopulationParams
from .simulate import ErrorLaw, SimulationConfig, run_monte_carlo
from . import theory

__all__ = [
    "EXIT_SUCCESS",
    "EXIT_USAGE",
    "EXIT_DATA",
    "EXIT_TOLERANCE",
    "DEFAULT_GRID",
    "ReportTable",
    "scenario_table",
    "theory_table",
    "simulation_table",
    "render_table",
    "build_parser",
    "main",
]

EXIT_SUCCESS = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TOLERANCE = 3

# Default (alpha, beta) grid for the power-exp families.
DEFAULT_GRID: tuple[tuple[int, float], ...] = (
    (1, 0.0), (0, 1.0), (1, 1.0), (1, -1.0))

_PARAMS_COLUMNS = ("mu_y", "mu_x", "sigma_y2", "sigma_x2",
                   "rho", "sigma_u2", "sigma_v2", "n")
_THEORY_COLUMNS = ("estimator", "alpha", "beta", "mean_weight", "aux_weight",
                   "without_me", "me_contribution", "total", "pre", "note")
_SIMULATE_COLUMNS = ("estimator", "alpha", "beta", "mean_weight",
                     "aux_weight", "empirical_bias", "empirical_mse",
                     "mc_se_mse", "theory_mse", "relative_gap",
                     "replicates_used", "replicates_skipped", "note")

# Markdown rounding policy: 3 decimals for MSE cells, 2 for PRE, 5 for
# weights; everything else at 6 significant digits.  CSV and JSON always
# carry full precision.
_MD_FORMATS = {
    "without_me": "{:.3f}",
    "me_contribution": "{:.3f}",
    "total": "{:.3f}",
    "pre": "{:.2f}",
    "mean_weight": "{:.5f}",
    "aux_weight": "{:.5f}",
    "alpha": "{:g}",
    "beta": "{:g}",
}


# Notes on a row whose first-order total is zero or negative (the expansion
# has left its range of validity there, and PRE or the relative gap is
# undefined), and on a row whose float cells named after the colon are blank.
_NON_POSITIVE_NOTE = ("first-order mse is not positive: outside the "
                      "expansion's range, pre undefined")
_NON_POSITIVE_GAP_NOTE = ("first-order mse is not positive: outside the "
                          "expansion's range, relative_gap undefined")
_NOT_FINITE_NOTE = "not a finite float: "


class _UsageError(Exception):
    """Bad flag combination or malformed flag value (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures raise instead of exiting.

    argparse exits with status 2 on usage errors; the exit-code contract
    reserves 2 for data errors, so usage problems are funneled through
    ``_UsageError`` and mapped to exit code 1 in ``main``. A token that
    starts with ``-`` and a digit, or ``-.`` and a digit, such as
    ``--grid -1,0``'s, is a value, not a flag; argparse's own pattern takes
    only a plain negative number such as ``-1`` for one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class ReportTable(NamedTuple):
    """One renderable table: a title, ordered columns, and record rows.

    Rows are mappings from column name to value (float, int, str, or None
    for a cell that does not apply to the row).  Invariants: no float cell
    is nan or inf (``_table``, which makes every table, holds this one);
    every theory row with all three legs satisfies total = without_me +
    me_contribution within 1e-9 relative; the mean-per-unit PRE is exactly
    100.0 wherever it prints.
    """

    title: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]


# --------------------------------------------------------------- table builders

def _table(title: str, columns: tuple[str, ...],
           rows: Sequence[dict]) -> ReportTable:
    """The table of ``rows``, each with its nan and inf float cells blank
    and its note naming them in column order, in place of any other note."""
    for row in rows:
        blank = [column for column in columns
                 if isinstance(row[column], float)
                 and not math.isfinite(row[column])]
        if blank:
            row.update(dict.fromkeys(blank),
                       note=_NOT_FINITE_NOTE + ", ".join(blank))
    return ReportTable(title, columns, tuple(rows))


def scenario_table(params: PopulationParams, source: str) -> ReportTable:
    """Single-row table of the eight population parameters."""
    return _table(f"population parameters ({source})", _PARAMS_COLUMNS,
                  (dataclasses.asdict(params),))


def theory_table(params: PopulationParams,
                 grid: Sequence[tuple[int, float]] = DEFAULT_GRID,
                 ) -> ReportTable:
    """First-order MSE comparison table in ``theory.row_plan`` order.

    PRE is taken against the mean-per-unit row. A row whose first-order
    total is not positive keeps its legs and total, but its PRE is left
    empty and the note says why; a blank nan or inf cell is named instead,
    PRE included where the reference is not a positive float.
    """
    plan = theory.row_plan(params, tuple(grid))
    reference = plan[0].breakdown.total
    rows = []
    for entry in plan:
        row = dict.fromkeys(_THEORY_COLUMNS)
        row.update(entry.cells, estimator=entry.label, note=entry.note)
        legs = entry.breakdown
        if legs is not None:
            row.update(legs._asdict())
            if legs.total > 0:
                row["pre"] = theory.pre(reference, legs.total)
            elif legs.total <= 0:
                row["note"] = _NON_POSITIVE_NOTE
        rows.append(row)
    return _table(f"first-order mse comparison (n={params.n})",
                  _THEORY_COLUMNS, rows)


def simulation_table(config: SimulationConfig,
                     grid: Sequence[tuple[int, float]] = DEFAULT_GRID,
                     ) -> tuple[ReportTable, float]:
    """Monte Carlo comparison table plus the worst relative gap.

    Optimal coefficients and theory values are both taken at
    ``config.params``, the scenario the replicates are drawn from. A row
    whose first-order MSE is not a positive float gets no relative gap and
    stays out of the worst gap, with a note where it is not positive. Else
    a gap that is not finite is unbounded; a blank nan or inf cell is named.
    A row without a spec is not simulated.
    """
    plan = theory.row_plan(config.params, tuple(grid))
    specs = [entry.spec for entry in plan if entry.spec is not None]
    results = iter(run_monte_carlo(config, specs))
    rows = []
    worst_gap = 0.0
    for entry in plan:
        row = dict.fromkeys(_SIMULATE_COLUMNS)
        row.update(entry.cells, estimator=entry.label, note=entry.note)
        if entry.spec is not None:
            result = next(results)
            # the row's plan total, the value the theory table prints
            theory_mse = entry.breakdown.total
            gap = None
            if 0 < theory_mse < math.inf:
                gap = abs(result.empirical_mse - theory_mse) / theory_mse
                worst_gap = max(worst_gap, gap if gap < math.inf else math.inf)
            elif theory_mse <= 0:
                row["note"] = _NON_POSITIVE_GAP_NOTE
            # the empirical columns carry the result's field names; its
            # estimator field gives way to the row label
            row.update(result._asdict(), estimator=entry.label,
                       theory_mse=theory_mse, relative_gap=gap)
        rows.append(row)
    title = (f"monte carlo (n={config.params.n}, "
             f"replicates={config.replicates}, seed={config.seed}, "
             f"law={config.error_law.value})")
    return _table(title, _SIMULATE_COLUMNS, rows), worst_gap


# ------------------------------------------------------------------- rendering

def _render_csv(table: ReportTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    # csv.writer writes None as an empty field and a float by its repr
    writer.writerow(table.columns)
    writer.writerows([row[c] for c in table.columns] for row in table.rows)
    return buffer.getvalue()


def _render_json(table: ReportTable) -> str:
    payload = {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [{c: row[c] for c in table.columns} for row in table.rows],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _markdown_cell(column: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _MD_FORMATS.get(column, "{:.6g}").format(value)
    return str(value)


def _render_markdown(table: ReportTable) -> str:
    lines = [f"## {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join(" --- " for _ in table.columns) + "|")
    for row in table.rows:
        cells = [_markdown_cell(c, row[c]) for c in table.columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": _render_csv, "json": _render_json, "md": _render_markdown}


def render_table(table: ReportTable, fmt: str) -> str:
    """Render a table as 'csv', 'json', or 'md' text; ValueError on any
    other format."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    return renderer(table)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# ------------------------------------------------------------ argument parsing

def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", metavar="NAME",
        help=f"named scenario: {', '.join(preset_names())}")
    parser.add_argument(
        "--data", metavar="PATH",
        help="delimited text file with true and observed columns")
    parser.add_argument("--col-Y", dest="col_true_study", default="Y",
                        metavar="NAME", help="true study-variable column")
    parser.add_argument("--col-X", dest="col_true_aux", default="X",
                        metavar="NAME", help="true auxiliary-variable column")
    parser.add_argument("--col-y", dest="col_observed_study", default="y",
                        metavar="NAME", help="observed study-variable column")
    parser.add_argument("--col-x", dest="col_observed_aux", default="x",
                        metavar="NAME",
                        help="observed auxiliary-variable column")
    parser.add_argument("--tab", action="store_true",
                        help="read --data as tab-delimited instead of comma")
    parser.add_argument("--n", dest="sample_n", type=int, metavar="N",
                        help="sample size (defaults to the preset's n, or "
                             "the dataset row count)")
    parser.add_argument("--format", choices=("csv", "json", "md"),
                        default="md", help="output format (default: md)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")


def _add_grid_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid", action="append", metavar="ALPHA,BETA",
        help="power-exp (alpha, beta) pair; repeatable; alpha must be an "
             "integer in [-3, 3]; default grid: 1,0 0,1 1,1 1,-1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """CLI parser: params/theory/simulate with shared source flags.

    Built on the first call and shared by every later call in the process,
    ``main`` included, so callers must not change it. Reuse holds no state
    between parses: every default is rebuilt per parse (``--grid`` appends
    to a fresh list), and usage errors go to the ``sys.stderr`` of the call.

    Each subcommand's parser is in the returned parser's ``commands``, by
    name. ``main`` reads a command line that starts with a subcommand name
    with that parser alone; the top-level parser reads every other command
    line and reports the tokens a subcommand's parser leaves over.
    """
    parser = _Parser(
        prog="meanerr",
        description="Finite-population mean estimation under additive "
                    "measurement errors: population parameters, first-order "
                    "MSE theory tables, and Monte Carlo verification.")
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="{params,theory,simulate}")

    params_cmd = subparsers.add_parser(
        "params", help="print the eight population parameters")
    _add_source_flags(params_cmd)
    params_cmd.set_defaults(handler=_cmd_params)

    theory_cmd = subparsers.add_parser(
        "theory", help="print the first-order MSE comparison table")
    _add_source_flags(theory_cmd)
    _add_grid_flag(theory_cmd)
    theory_cmd.set_defaults(handler=_cmd_theory)

    simulate_cmd = subparsers.add_parser(
        "simulate", help="run the Monte Carlo engine against the theory")
    _add_source_flags(simulate_cmd)
    _add_grid_flag(simulate_cmd)
    simulate_cmd.add_argument("--replicates", type=int, default=10_000,
                              metavar="R",
                              help="Monte Carlo replicates (default: 10000)")
    simulate_cmd.add_argument("--seed", type=int, default=0, metavar="S",
                              help="root RNG seed (default: 0)")
    simulate_cmd.add_argument("--error-law", dest="error_law",
                              choices=tuple(law.value for law in ErrorLaw),
                              default=ErrorLaw.GAUSSIAN.value,
                              help="measurement-error law (default: gaussian)")
    simulate_cmd.add_argument("--error-df", dest="error_df", type=float,
                              metavar="DF",
                              help="Student-t degrees of freedom (> 4; "
                                   "required for --error-law student-t)")
    simulate_cmd.add_argument("--tolerance", type=float, metavar="GAP",
                              help="exit with status 3 if any relative gap "
                                   "between empirical and theory MSE "
                                   "exceeds GAP")
    simulate_cmd.set_defaults(handler=_cmd_simulate)
    parser.commands = subparsers.choices
    return parser


def _parse_grid(raw: Optional[list[str]]) -> tuple[tuple[int, float], ...]:
    if not raw:
        return DEFAULT_GRID
    pairs = []
    for item in raw:
        parts = item.split(",")
        if len(parts) != 2:
            raise _UsageError(f"--grid expects ALPHA,BETA, got {item!r}")
        try:
            alpha = int(parts[0])
            beta = float(parts[1])
        except ValueError:
            raise _UsageError(
                f"--grid expects an integer alpha and a real beta, got "
                f"{item!r}") from None
        if not -3 <= alpha <= 3:
            raise _UsageError(
                f"--grid alpha must be an integer in [-3, 3], got {alpha}")
        if not math.isfinite(beta):
            raise _UsageError(f"--grid beta must be finite, got {parts[1]!r}")
        pairs.append((alpha, beta))
    return tuple(pairs)


def _resolve_params(args) -> tuple[PopulationParams, str]:
    """Resolve the scenario from exactly one of --preset / --data.

    Returns the parameters (with any --n override applied) and a short
    source label for table titles.
    """
    if (args.preset is None) == (args.data is None):
        raise _UsageError("exactly one of --preset or --data is required")
    if args.data is not None:
        columns = ColumnMap(true_study=args.col_true_study,
                            true_aux=args.col_true_aux,
                            observed_study=args.col_observed_study,
                            observed_aux=args.col_observed_aux)
        delimiter = "\t" if args.tab else ","
        dataset = load_dataset(args.data, columns, delimiter=delimiter)
        n = args.sample_n if args.sample_n is not None else len(dataset)
        return compute_params(dataset, n), dataset.name
    params = preset(args.preset)
    if args.sample_n is not None:
        params = dataclasses.replace(params, n=args.sample_n)
    return params, args.preset


# ------------------------------------------------------------------- commands

def _cmd_params(args) -> int:
    params, source = _resolve_params(args)
    _emit(render_table(scenario_table(params, source), args.format), args.out)
    return EXIT_SUCCESS


def _cmd_theory(args) -> int:
    params, _ = _resolve_params(args)
    table = theory_table(params, _parse_grid(args.grid))
    _emit(render_table(table, args.format), args.out)
    return EXIT_SUCCESS


def _cmd_simulate(args) -> int:
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise _UsageError(
            f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    params, _ = _resolve_params(args)
    config = SimulationConfig(params=params,
                              replicates=args.replicates,
                              seed=args.seed,
                              error_law=ErrorLaw(args.error_law),
                              error_df=args.error_df)
    table, worst_gap = simulation_table(config, _parse_grid(args.grid))
    _emit(render_table(table, args.format), args.out)
    if args.tolerance is not None and worst_gap > args.tolerance:
        print(f"tolerance exceeded: worst relative gap "
              f"{worst_gap:.6g} > {args.tolerance:.6g}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_SUCCESS


def _parse(parser: argparse.ArgumentParser,
           argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)`` in one argparse pass (see ``main``)."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    A command line that starts with a subcommand name is parsed once, by
    that subcommand's parser from ``build_parser().commands``, into a
    namespace that already holds ``command``; the top-level parser reports
    any tokens left over, as ``parse_args`` does. Every other command line
    (no arguments, ``-h``, an unknown or abbreviated command) goes through
    the top-level ``parse_args``.

    Exit 2 follows the exception family, not the raising module:
    ValueError, ArithmeticError, MemoryError and OSError mark input the
    program cannot evaluate. TypeError, KeyError, IndexError and
    AttributeError signal a bug and propagate.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(parser, argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
