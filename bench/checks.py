"""Output checks run on every benchmark operation.

The checks read the rendered table (md, csv or json) back, so they hold for
any engine that keeps the documented meaning of each row; they compare no
bytes and survive an intentional change of the random stream.

simulate
    12 rows in plan order; ``replicates_used + replicates_skipped == R``;
    every cell finite; and on the rows whose MSE formula is exact, the
    empirical MSE within ``MC_SE_LIMIT`` Monte Carlo standard errors of the
    theory value.
theory
    ``4 + 2 * pairs`` rows in plan order; ``total == without_me +
    me_contribution`` within ``REL_TOL`` relative (plus the rounding of
    three printed decimals in md); mean-per-unit PRE exactly 100.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Op

DEFAULT_GRID = ((1, 0.0), (0, 1.0), (1, 1.0), (1, -1.0))
EXACT_MSE_ROWS = ("mean_per_unit", "regression_diff", "weighted_diff_optimal")
MC_SE_LIMIT = 5.0
REL_TOL = 1e-9
MD_ROUNDING = 1.5e-3   # three cells, each rounded to 3 decimals
_TEXT_COLUMNS = ("estimator", "note")


class CheckError(Exception):
    """An operation's output does not hold what it must."""


def _number(raw):
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise CheckError(f"cell {raw!r} is not a number") from None


def _typed(row: dict) -> dict:
    return {key: (value if key in _TEXT_COLUMNS else _number(value))
            for key, value in row.items()}


def _markdown_rows(text: str) -> list[dict]:
    table = [line.strip() for line in text.splitlines()
             if line.startswith("|")]
    if len(table) < 2:
        raise CheckError("no markdown table")
    header = [cell.strip() for cell in table[0][1:-1].split("|")]
    rows = []
    for line in table[2:]:
        cells = [cell.strip() for cell in line[1:-1].split("|")]
        if len(cells) != len(header):
            raise CheckError(f"markdown row has {len(cells)} cells, "
                             f"header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def read_rows(text: str, fmt: str) -> list[dict]:
    """Rows of a rendered table, numbers as floats and empty cells as None."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
    elif fmt == "csv":
        lines = [line for line in text.splitlines(keepends=True)
                 if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("".join(lines))))
    else:
        rows = _markdown_rows(text)
    return [_typed(row) for row in rows]


def _plan(grid) -> list[tuple[str, tuple | None]]:
    head = [("mean_per_unit", None), ("exp_ratio", None),
            ("regression_diff", None), ("weighted_diff_optimal", None)]
    return (head + [("power_exp", pair) for pair in grid]
            + [("weighted_power_exp_optimal", pair) for pair in grid])


def _check_plan(rows: list[dict], grid) -> None:
    plan = _plan(grid)
    if len(rows) != len(plan):
        raise CheckError(f"{len(rows)} rows, expected {len(plan)}")
    for index, (row, (label, pair)) in enumerate(zip(rows, plan)):
        if row.get("estimator") != label:
            raise CheckError(f"row {index} is {row.get('estimator')!r}, "
                             f"expected {label!r}")
        if pair is not None and (row.get("alpha"), row.get("beta")) != (
                float(pair[0]), float(pair[1])):
            raise CheckError(f"row {index} has grid pair "
                             f"({row.get('alpha')}, {row.get('beta')}), "
                             f"expected {pair}")
    for index, row in enumerate(rows):
        for column, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CheckError(f"row {index} {column} is {value}")


def _require(row: dict, columns) -> list[float]:
    values = [row.get(column) for column in columns]
    if any(value is None for value in values):
        raise CheckError(f"{row['estimator']} row lacks one of {columns}")
    return values


def check_simulate(op: Op, rows: list[dict]) -> tuple[int, int]:
    """Check one simulate table; returns (replicates used, attempted)."""
    _check_plan(rows, DEFAULT_GRID)
    used_total = attempted = 0
    for row in rows:
        if row.get("note"):
            continue   # a singular optimum has no spec to simulate
        used, skipped, mse, se, theory = _require(
            row, ("replicates_used", "replicates_skipped", "empirical_mse",
                  "mc_se_mse", "theory_mse"))
        if used + skipped != op.replicates:
            raise CheckError(f"{row['estimator']}: used {used} + skipped "
                             f"{skipped} != {op.replicates}")
        if row["estimator"] in EXACT_MSE_ROWS and (
                abs(mse - theory) > MC_SE_LIMIT * se):
            raise CheckError(f"{row['estimator']}: empirical mse {mse} is "
                             f"more than {MC_SE_LIMIT} se ({se}) from "
                             f"theory {theory}")
        used_total += int(used)
        attempted += op.replicates
    return used_total, attempted


def check_theory(op: Op, rows: list[dict]) -> tuple[int, int]:
    """Check one theory table; returns (0, 0): nothing is simulated."""
    _check_plan(rows, op.grid)
    slack = MD_ROUNDING if op.fmt == "md" else 0.0
    for row in rows:
        if row.get("total") is None:
            if not row.get("note"):
                raise CheckError(f"{row['estimator']} row has no total "
                                 f"and no note")
            continue
        without, me, total = _require(
            row, ("without_me", "me_contribution", "total"))
        scale = max(abs(total), abs(without) + abs(me))
        if abs(total - (without + me)) > REL_TOL * scale + slack:
            raise CheckError(f"{row['estimator']}: total {total} != "
                             f"{without} + {me}")
    if rows[0].get("pre") != 100.0:
        raise CheckError(f"mean_per_unit pre is {rows[0].get('pre')}, not 100")
    return 0, 0


def check(op: Op, text: str) -> tuple[int, int]:
    """Check an operation's stdout; raises CheckError if it is wrong."""
    try:
        rows = read_rows(text, op.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"unreadable {op.fmt} output: {exc}") from None
    if op.kind == "simulate":
        return check_simulate(op, rows)
    return check_theory(op, rows)
