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

numpy is imported inside the functions that read or reduce a dataset, not
at module load, so that a preset run, which needs neither, never loads it.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

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
        import numpy as np
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

    ``source`` is a path, read as UTF-8 after an optional byte order mark,
    or an open text stream. Row numbers in error messages are 1-based data
    rows (the header is row 0). Columns beyond the mapped four are ignored.
    The data lines are parsed in one C pass (``np.loadtxt``) where it reads
    them as the csv module does, and otherwise cell by cell with the csv
    module (see ``_load_numbers``).
    """
    columns = columns or ColumnMap()
    if isinstance(source, (str, os.PathLike)):
        inferred = os.path.basename(os.fspath(source))
        with open(source, newline="", encoding="utf-8-sig") as stream:
            return _read_stream(stream, columns, delimiter, name or inferred)
    return _read_stream(source, columns, delimiter, name or "dataset")


def _read_stream(stream: Iterable[str], columns: ColumnMap, delimiter: str,
                 name: str) -> MeasuredDataset:
    """Read the header with csv.reader, then the four wanted columns: in
    one C pass (``_load_numbers``) where it can, else by the per-cell csv
    re-read, the one path that names the first bad row and cell."""
    import numpy as np
    lines = iter(stream)
    try:
        header = next(csv.reader(lines, delimiter=delimiter), None)
    except csv.Error as exc:
        # such as a cell beyond csv's field limit
        raise DatasetError(f"header row: {exc}") from None
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

    body = list(lines)
    values = _load_numbers(body, indices, delimiter)
    if values is None:
        # blank lines are skipped and do not count as rows
        records = filter(None, csv.reader(body, delimiter=delimiter))
        rows: list[list[float]] = []
        try:
            for record in records:
                rows.append([
                    _parse_cell(record[i] if i < len(record) else None,
                                len(rows) + 1, column)
                    for i, column in zip(indices, wanted)])
        except csv.Error as exc:
            raise DatasetError(f"row {len(rows) + 1}: {exc}") from None
        values = np.array(rows, dtype=np.float64).reshape(-1, 4)
    return MeasuredDataset(*values.T, name=name)


# Characters on which np.loadtxt reads a line differently from csv.reader:
# a quote, which csv uses to join a cell across delimiters, and the
# separators \x1c-\x1f, which loadtxt strips from around a number and
# float() does not.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'


def _load_numbers(body: list[str], indices: list[int],
                  delimiter: str) -> Optional[np.ndarray]:
    """The (rows, 4) columns ``indices`` of the data lines ``body`` from one
    ``np.loadtxt`` pass, or None where only the csv re-read can read them.

    Without a ``_CSV_ONLY`` character, loadtxt splits each line into the
    cells csv.reader does, skips the same (empty) lines and parses a cell
    to the float that float() does, or fails. None is returned on failure,
    on a non-finite value, and on a body with no non-empty line, on which
    loadtxt would warn.
    """
    import numpy as np
    text = "".join(body)
    if any(char in text for char in _CSV_ONLY) or not text.strip("\r\n"):
        return None
    try:
        values = np.loadtxt(body, delimiter=delimiter, usecols=indices,
                            comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def compute_params(ds: MeasuredDataset, n_for_theory: int) -> PopulationParams:
    """Population parameters of a dataset, with divisor-N moments.

    The correlation is between the true columns (the theory's rho is the
    true-score correlation), and the error variances are divisor-N variances
    of the observed-minus-true differences. ``n_for_theory`` is the sample
    size the theory should be evaluated at; it is independent of the number
    of dataset rows.
    """
    import numpy as np
    # one contiguous row per column: an axis-1 reduction sums each row
    # pairwise, as np.mean and np.var sum a 1-D array, so every moment has
    # the bits of the per-column calls. A moment beyond the float range
    # comes out infinite, which PopulationParams rejects; numpy need not
    # warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.stack([ds.true_study, ds.true_aux,
                          ds.observed_study - ds.true_study,
                          ds.observed_aux - ds.true_aux])
        means = table.mean(axis=1, keepdims=True)
        deviations = table - means
        var_y, var_x, var_u, var_v = (
            (deviations * deviations).mean(axis=1).tolist())
        cov = float((deviations[0] * deviations[1]).mean())
    mu_y, mu_x = means[:2, 0].tolist()
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
    rho = min(max(cov / scale, -1.0), 1.0)
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

