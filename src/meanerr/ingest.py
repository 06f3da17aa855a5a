"""Dataset loading and parameter estimation.

Users bring a delimited text file holding both true and observed
measurements of the study and auxiliary variables; this module turns it
into the PopulationParams the theory and simulation layers consume. A
built-in preset carries the benchmark parameter set (consumption
expenditure vs measured income microdata statistics), so the full pipeline
runs without any file.

Moment convention: every variance, covariance, and correlation here uses
divisor N (the population convention), including the error variances, which
are divisor-N variances of the observed-minus-true differences. Only one
divisor convention can be consistent with the benchmark tables; this one is
pinned by the test fixtures.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

import numpy as np

from .moments import PopulationParams

__all__ = [
    "DatasetError",
    "ColumnMap",
    "MeasuredDataset",
    "load_dataset",
    "compute_params",
    "preset",
    "preset_names",
]


class DatasetError(ValueError):
    """Raised for malformed data files and degenerate datasets."""


@dataclass(frozen=True)
class ColumnMap:
    """Header names of the four required columns."""

    true_study: str = "Y"
    true_aux: str = "X"
    observed_study: str = "y"
    observed_aux: str = "x"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str) or not value:
                raise DatasetError(
                    f"column name {f.name} must be a non-empty string, "
                    f"got {value!r}")


@dataclass(frozen=True)
class MeasuredDataset:
    """Paired true and observed measurements, one row per unit."""

    true_study: np.ndarray
    true_aux: np.ndarray
    observed_study: np.ndarray
    observed_aux: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        arrays = {}
        length = None
        for f in fields(self):
            if f.name == "name":
                continue
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            if arr.ndim != 1:
                raise DatasetError(f"{f.name} must be one-dimensional")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise DatasetError(
                    f"column lengths differ: {f.name} has {arr.size}, "
                    f"expected {length}")
            if not np.isfinite(arr).all():
                raise DatasetError(f"{f.name} contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            arrays[f.name] = arr
        if length < 2:
            raise DatasetError(f"dataset needs at least 2 rows, got {length}")
        for key, arr in arrays.items():
            object.__setattr__(self, key, arr)

    def __len__(self) -> int:
        return int(self.true_study.size)


def _parse_cell(raw, row_number: int, column: str) -> float:
    if raw is None or raw == "":
        raise DatasetError(f"row {row_number}, column {column!r}: missing value")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DatasetError(
            f"row {row_number}, column {column!r}: {raw!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(
            f"row {row_number}, column {column!r}: {raw!r} is not finite")
    return value


def load_dataset(source: Union[str, os.PathLike, Iterable[str]],
                 columns: Optional[ColumnMap] = None,
                 *, delimiter: str = ",",
                 name: Optional[str] = None) -> MeasuredDataset:
    """Read a delimited text file with a header row into a MeasuredDataset.

    ``source`` is a path or an open text stream. Row numbers in error
    messages are 1-based data rows (the header is row 0). Columns beyond the
    mapped four are ignored.
    """
    columns = columns or ColumnMap()
    if isinstance(source, (str, os.PathLike)):
        inferred = os.path.basename(os.fspath(source))
        with open(source, newline="", encoding="utf-8") as stream:
            return _read_stream(stream, columns, delimiter, name or inferred)
    return _read_stream(source, columns, delimiter, name or "dataset")


def _read_stream(stream: Iterable[str], columns: ColumnMap, delimiter: str,
                 name: str) -> MeasuredDataset:
    reader = csv.reader(stream, delimiter=delimiter)
    header = next(reader, None)
    if header is None:
        raise DatasetError("input is empty; a header row is required")
    wanted = (columns.true_study, columns.true_aux,
              columns.observed_study, columns.observed_aux)
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DatasetError(
            f"missing column(s) {missing} in header {header}")
    # a repeated header name reads its last column
    position = {column: i for i, column in enumerate(header)}
    indices = [position[column] for column in wanted]

    # blank lines are skipped and do not count as rows
    records = list(filter(None, reader))
    try:
        cells = itertools.chain.from_iterable(
            map(operator.itemgetter(*indices), records))
        values = np.fromiter(map(float, cells), dtype=np.float64,
                             count=4 * len(records)).reshape(-1, 4)
        valid = bool(np.isfinite(values).all())
    except (IndexError, ValueError):
        valid = False
    if not valid:
        # re-read row by row, which names the first bad row and cell
        values = np.array(
            [[_parse_cell(record[i] if i < len(record) else None,
                          row_number, column)
              for i, column in zip(indices, wanted)]
             for row_number, record in enumerate(records, start=1)],
            dtype=np.float64).reshape(-1, 4)
    return MeasuredDataset(*values.T, name=name)


def _var_n(values: np.ndarray) -> float:
    # divisor-N variance, the convention used throughout this module
    return float(np.var(values))


def compute_params(ds: MeasuredDataset, n_for_theory: int) -> PopulationParams:
    """Population parameters of a dataset, with divisor-N moments.

    The correlation is between the true columns (the theory's rho is the
    true-score correlation), and the error variances are divisor-N variances
    of the observed-minus-true differences. ``n_for_theory`` is the sample
    size the theory should be evaluated at; it is independent of the number
    of dataset rows.
    """
    # a moment beyond the float range comes out infinite, which
    # PopulationParams rejects; numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        mu_y = float(ds.true_study.mean())
        mu_x = float(ds.true_aux.mean())
        var_y = _var_n(ds.true_study)
        var_x = _var_n(ds.true_aux)
        cov = float(np.mean((ds.true_study - mu_y) * (ds.true_aux - mu_x)))
        var_u = _var_n(ds.observed_study - ds.true_study)
        var_v = _var_n(ds.observed_aux - ds.true_aux)
    if var_y == 0.0 or var_x == 0.0:
        raise DatasetError(
            "a true column is constant; correlation is undefined")
    product = var_y * var_x
    if sys.float_info.min <= product <= sys.float_info.max:
        scale = math.sqrt(product)
    else:
        # the product overflowed, or lost precision below the normal range
        scale = math.sqrt(var_y) * math.sqrt(var_x)
    # |rho| <= 1 by Cauchy-Schwarz; the clip removes only rounding excess,
    # such as 1.0000000000000002 on perfectly correlated columns
    rho = float(np.clip(cov / scale, -1.0, 1.0))
    return PopulationParams(
        n=n_for_theory,
        mu_y=mu_y,
        mu_x=mu_x,
        sigma_y2=var_y,
        sigma_x2=var_x,
        rho=rho,
        sigma_u2=var_u,
        sigma_v2=var_v,
    )


# Benchmark parameter set: consumption expenditure (study) against measured
# income (auxiliary), ten units, with equal error variances on both sides.
_PRESETS = {
    "gujarati-table1": PopulationParams(
        n=10, mu_y=127.0, mu_x=170.0, sigma_y2=1278.0, sigma_x2=3300.0,
        rho=0.964, sigma_u2=36.0, sigma_v2=36.0),
}

DEFAULT_PRESET = "gujarati-table1"


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str = DEFAULT_PRESET) -> PopulationParams:
    """A named built-in parameter set."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise DatasetError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None

