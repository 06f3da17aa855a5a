"""Dataset ingestion: parsing errors, moment conventions, recovery oracle."""

import csv
import io
import math
import random
import sys
import warnings

import numpy as np
import pytest

from meanerr import ingest
from meanerr.ingest import (
    ColumnMap,
    DatasetError,
    MeasuredDataset,
    _parse_cell,
    compute_params,
    load_dataset,
    preset,
    preset_names,
)
from meanerr.moments import ParameterError, PopulationParams, derive_moments

from conftest import params_from_dict

# Hand-computable fixture. True study column: mean 127, divisor-4 variance 4.
# True aux: mean 171, variance 3, covariance with study 2, so rho = 1/sqrt(3).
# Study errors [2, 0, 2, 0]: mean 1, variance 1 (variance, not mean square).
# Aux errors [3, 1, 3, 1]: mean 2, variance 1.
HAND_ROWS = [
    # (true_study, true_aux, observed_study, observed_aux)
    (125.0, 168.0, 127.0, 171.0),
    (129.0, 172.0, 129.0, 173.0),
    (125.0, 172.0, 127.0, 175.0),
    (129.0, 172.0, 129.0, 173.0),
]


def dataset(rows, name="dataset"):
    return MeasuredDataset(*np.asarray(rows, dtype=np.float64).T, name=name)


def hand_dataset():
    return dataset(HAND_ROWS, name="hand")


def columns(ds):
    """The four columns of ``ds`` as arrays, in row-tuple order."""
    return np.stack([ds.true_study, ds.true_aux, ds.observed_study,
                     ds.observed_aux])


def assert_rows(ds, rows):
    """``ds`` holds exactly ``rows``, column by column."""
    assert np.array_equal(columns(ds), np.asarray(rows, dtype=np.float64).T)


def as_csv(rows, header="Y,X,y,x"):
    lines = [header]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


class TestMeasuredDataset:
    def test_round_trips_rows(self):
        ds = hand_dataset()
        assert len(ds) == 4
        assert ds.name == "hand"
        assert_rows(ds, HAND_ROWS)

    def test_rejects_single_row(self):
        with pytest.raises(DatasetError, match="at least 2 rows, got 1"):
            dataset(HAND_ROWS[:1])

    def test_rejects_non_finite(self):
        rows = [HAND_ROWS[0], (math.nan, 1.0, 1.0, 1.0)]
        with pytest.raises(DatasetError):
            dataset(rows)

    def test_rejects_ragged_columns(self):
        with pytest.raises(DatasetError):
            MeasuredDataset(true_study=[1.0, 2.0], true_aux=[1.0, 2.0, 3.0],
                            observed_study=[1.0, 2.0], observed_aux=[1.0, 2.0])

    def test_arrays_are_read_only(self):
        ds = hand_dataset()
        with pytest.raises(ValueError):
            ds.true_study[0] = 0.0


class TestLoadDataset:
    def test_loads_default_headers(self):
        ds = load_dataset(as_csv(HAND_ROWS))
        assert_rows(ds, HAND_ROWS)

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "measured.csv"
        path.write_text(as_csv(HAND_ROWS).getvalue())
        ds = load_dataset(path)
        assert_rows(ds, HAND_ROWS)
        assert ds.name == "measured.csv"

    def test_name_override(self):
        ds = load_dataset(as_csv(HAND_ROWS), name="study-a")
        assert ds.name == "study-a"

    def test_custom_column_map_and_extra_columns(self):
        stream = io.StringIO(
            "id,true_c,true_i,obs_c,obs_i\n"
            "1,125,168,127,171\n"
            "2,129,172,129,173\n")
        ds = load_dataset(stream, ColumnMap("true_c", "true_i",
                                            "obs_c", "obs_i"))
        assert_rows(ds, [(125.0, 168.0, 127.0, 171.0),
                         (129.0, 172.0, 129.0, 173.0)])

    def test_tab_delimiter(self):
        stream = io.StringIO("Y\tX\ty\tx\n1\t2\t3\t4\n5\t6\t7\t8\n")
        ds = load_dataset(stream, delimiter="\t")
        assert_rows(ds, [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])

    def test_missing_column_named(self):
        stream = io.StringIO("Y,X,y\n1,2,3\n4,5,6\n")
        with pytest.raises(DatasetError, match=r"missing column.*'x'"):
            load_dataset(stream)

    def test_bad_cell_reports_row_and_column(self):
        rows = [list(r) for r in HAND_ROWS]
        rows[2][1] = "oops"
        lines = ["Y,X,y,x"] + [",".join(str(v) for v in r) for r in rows]
        with pytest.raises(DatasetError, match=r"row 3, column 'X'"):
            load_dataset(io.StringIO("\n".join(lines)))

    def test_missing_cell_reports_location(self):
        stream = io.StringIO("Y,X,y,x\n1,2,3,4\n5,6,7\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'x'"):
            load_dataset(stream)

    def test_non_finite_cell_rejected(self):
        stream = io.StringIO("Y,X,y,x\n1,2,3,4\n5,inf,7,8\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'X'"):
            load_dataset(stream)

    def test_cell_beyond_csv_field_limit_names_its_row(self):
        # blank lines do not count as rows; the quote sends the whole body
        # through the csv re-read
        long_cell = "1" + "0" * 140_000
        stream = io.StringIO(f'Y,X,y,x\n\n"1",2,3,4\n\n5,{long_cell},7,8\n')
        with pytest.raises(DatasetError, match="^row 2: field larger than "
                                               "field limit"):
            load_dataset(stream)
        with pytest.raises(DatasetError, match="^header row: field larger "
                                               "than field limit"):
            load_dataset(io.StringIO(f"Y,X,y,x,{long_cell}\n1,2,3,4,5\n"))

    def test_too_few_rows(self):
        for text, rows in (("Y,X,y,x\n1,2,3,4\n", 1), ("Y,X,y,x\n", 0)):
            with pytest.raises(DatasetError,
                               match=f"^dataset needs at least 2 rows, "
                                     f"got {rows}$"):
                load_dataset(io.StringIO(text))

    def test_empty_input(self):
        with pytest.raises(DatasetError, match="header"):
            load_dataset(io.StringIO(""))

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = [tuple(map(float, rng.normal(100.0, 17.0, 4)))
                for _ in range(20)]
        path = tmp_path / "synthetic.csv"
        path.write_text(as_csv(rows).getvalue())
        ds = load_dataset(path)
        # repr round-trips floats exactly
        assert_rows(ds, rows)

    def test_rejects_empty_column_name(self):
        with pytest.raises(DatasetError):
            ColumnMap(true_study="")


def dict_reader_rows(stream, columns, delimiter):
    """Rows as the ``csv.DictReader`` loop the loader once used reads them."""
    reader = csv.DictReader(stream, delimiter=delimiter, restval=None)
    header = reader.fieldnames
    if header is None:
        raise DatasetError("input is empty; a header row is required")
    wanted = (columns.true_study, columns.true_aux,
              columns.observed_study, columns.observed_aux)
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DatasetError(
            f"missing column(s) {missing} in header {header}")
    rows = []
    for row_number, record in enumerate(reader, start=1):
        rows.append(tuple(_parse_cell(record[c], row_number, c)
                          for c in wanted))
    if len(rows) < 2:
        raise DatasetError(f"dataset needs at least 2 rows, got {len(rows)}")
    return rows


_GOOD_CELLS = ("1", "-2.5", "127", "3e2", " 4 ", "0", "-0.0", "1_0", '"7"',
               "1e308")
_BAD_CELLS = ("", " ", "abc", "nan", "inf", "-inf", "1e999", '"1,5"')


def random_table(rng):
    """Delimited text with a header naming Y, X, y, x among extra names."""
    delimiter = rng.choice(",\t")
    names = ["Y", "X", "y", "x"]
    if rng.random() < 0.05:
        names.remove(rng.choice(names))
    names += rng.choices(["Y", "X", "y", "x", "id", "w"], k=rng.randint(0, 3))
    rng.shuffle(names)
    lines = [delimiter.join(names)]
    for _ in range(rng.randint(0, 7)):
        if rng.random() < 0.15:
            lines.append("")
        width = len(names) + (rng.choice((-2, -1, 1, 2))
                              if rng.random() < 0.08 else 0)
        cells = [rng.choice(_BAD_CELLS) if rng.random() < 0.02
                 else rng.choice(_GOOD_CELLS) for _ in range(width)]
        lines.append(delimiter.join(cells))
    end = rng.choice(("\n", "\r\n"))
    return end.join(lines) + end, delimiter


def load_outcome(read, text, delimiter):
    try:
        return "rows", [tuple(map(repr, row))
                        for row in read(text, delimiter)]
    except DatasetError as exc:
        return "error", str(exc)


def clean_table(rng):
    """Delimited text of numbers only that the one-pass reader must take:
    LF, CRLF or CR endings, blank lines, extra and repeated columns, a comma
    or tab delimiter and whitespace around cells."""
    delimiter = rng.choice(",\t")
    names = ["Y", "X", "y", "x"]
    names += rng.choices(["Y", "X", "y", "x", "id", "w"], k=rng.randint(0, 3))
    rng.shuffle(names)
    pads = (" ", "\t") if delimiter == "," else (" ",)
    lines = [delimiter.join(names)]
    for _ in range(rng.randint(2, 9)):
        if rng.random() < 0.15:
            lines.append("")
        cells = []
        for _ in names:
            cell = rng.choice((
                repr(rng.uniform(-1e3, 1e3)), str(rng.randint(-999, 999)),
                f"{rng.gauss(0.0, 1.0):.6e}",
                repr(rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300))))
            if rng.random() < 0.1:
                cell = rng.choice(pads) + cell + rng.choice(pads)
            cells.append(cell)
        lines.append(delimiter.join(cells))
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + rng.choice((end, "")), delimiter


class TestReaderMatchesDictReader:
    """The reader, given a stream, against the old ``csv.DictReader``
    loop."""

    @staticmethod
    def loader(text, delimiter):
        ds = load_dataset(io.StringIO(text, newline=""), delimiter=delimiter)
        return list(zip(*columns(ds).tolist()))

    @staticmethod
    def reference(text, delimiter):
        return dict_reader_rows(io.StringIO(text, newline=""), ColumnMap(),
                                delimiter)

    def test_random_tables(self):
        rng = random.Random(20261018)
        kinds = []
        for _ in range(3000):
            text, delimiter = random_table(rng)
            got = load_outcome(self.loader, text, delimiter)
            assert got == load_outcome(self.reference, text, delimiter), text
            kinds.append(got[0])
        # both outcomes are exercised, so neither path is compared vacuously
        assert 0.2 < kinds.count("rows") / len(kinds) < 0.8

    def test_clean_tables_take_the_one_pass_reader(self, monkeypatch):
        # with the per-cell re-read disabled, every clean table still loads
        def no_cell_reads(*args):
            raise AssertionError("the per-cell csv re-read ran")

        monkeypatch.setattr(ingest, "_parse_cell", no_cell_reads)
        rng = random.Random(20261020)
        for _ in range(1000):
            text, delimiter = clean_table(rng)
            got = load_outcome(self.loader, text, delimiter)
            assert got[0] == "rows", text
            assert got == load_outcome(self.reference, text, delimiter), text

    @pytest.mark.parametrize("text", [
        "Y,X,y,x\n1e308,1e308,1e308,1e308\n1,2,3,4\n",
        "Y,X,Y,y,x\n1,2,3,4,5\n6,7\n",
        "\nY,X,y,x\n1,2,3,4\n5,6,7,8\n",
        "Y,X,y,x\r\n\r\n1,2,3,4\r\n\r\n5,6,7,8,9\r\n",
        "Y,X,y,x\n1,2,3,4\n5,6,nan,1e999\n",
        # the first bad row is named, whatever kind of fault a later row has
        "Y,X,y,x\n1,2,3,4\n5,6\n7,abc,8,9\n",
        "Y,X,y,x\n1,nan,3,4\n5,6,abc,8\n",
        # within a row, the first bad cell is named
        "Y,X,y,x\n1,2,3,4\n5,inf,abc,8\n",
        "Y,X,y,x\n1,2,3,4\n \n5,6,7,8\n",
        # loadtxt strips the separators \x1c-\x1f from a number, float()
        # does not
        "Y,X,y,x\n1,2,3,4\x1f\n5,6,7,8\n",
        "Y,X,y,x\n1,2,3,4\n\x1c5,6,7,8\n",
        # a line of whitespace is a row, not a blank line
        "Y,X,y,x\n1,2,3,4\n\x0c\n5,6,7,8\n",
        "Y,X,y,x\n1,2,3,4\r5,6,7,8\r\r",
        "Y,X,y,x\n1,2,3,4\n1_0,2,3,4\n",
        "Y,X,y,x\n\n\r\n",
        "Y,X,y,x\n1,2,3,4\n\n",
    ])
    def test_edge_cases(self, text):
        assert (load_outcome(self.loader, text, ",")
                == load_outcome(self.reference, text, ","))

    def test_overflowing_row_sum_still_loads(self):
        text = "Y,X,y,x\n1e308,1e308,1e308,1e308\n1,2,3,4\n"
        assert self.loader(text, ",") == [(1e308,) * 4, (1.0, 2.0, 3.0, 4.0)]

    def test_quoted_cell_is_read_by_csv(self):
        # loadtxt without quote handling splits "1,5" in two and shifts the
        # later cells one column left
        text = 'Y,id,w,X,y,x\n1,"1,5",7,2,3,4\n5,6,7,8,9,10\n'
        body = text.splitlines(keepends=True)[1:]
        shifted = np.loadtxt(body, delimiter=",", usecols=[0, 3, 4, 5],
                             comments=None, quotechar=None, ndmin=2)
        assert shifted[0].tolist() == [1.0, 7.0, 2.0, 3.0]
        assert self.loader(text, ",") == [(1.0, 2.0, 3.0, 4.0),
                                          (5.0, 8.0, 9.0, 10.0)]

    @pytest.mark.parametrize("text,rows", [
        ("Y,X,y,x\n", 0), ("Y,X,y,x", 0), ("Y,X,y,x\r\n\r\n\r\n", 0),
        ("Y,X,y,x\n1,2,3,4\n", 1), ("Y,X,y,x\n\n1,2,3,4", 1),
    ])
    def test_too_few_rows_warn_nothing(self, text, rows):
        # loadtxt warns "input contained no data" on an empty body
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError,
                               match=f"^dataset needs at least 2 rows, "
                                     f"got {rows}$"):
                self.loader(text, ",")

    def test_tab_file_with_an_empty_cell(self):
        with pytest.raises(DatasetError,
                           match=r"^row 1, column 'X': missing value$"):
            self.loader("Y\tX\ty\tx\n1\t\t3\t4\n5\t6\t7\t8\n", "\t")


class TestPathReaderMatchesDictReader(TestReaderMatchesDictReader):
    """The same cases, with the text written to a file and read by path."""

    @pytest.fixture(autouse=True)
    def _path(self, tmp_path):
        self.path = tmp_path / "table.csv"

    def loader(self, text, delimiter):
        self.path.write_text(text, encoding="utf-8", newline="")
        ds = load_dataset(self.path, delimiter=delimiter)
        return list(zip(*columns(ds).tolist()))


def per_column_params(ds, n_for_theory):
    """``compute_params`` as once written, one numpy call per moment."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu_y = float(ds.true_study.mean())
        mu_x = float(ds.true_aux.mean())
        var_y = float(np.var(ds.true_study))
        var_x = float(np.var(ds.true_aux))
        cov = float(np.mean((ds.true_study - mu_y) * (ds.true_aux - mu_x)))
        var_u = float(np.var(ds.observed_study - ds.true_study))
        var_v = float(np.var(ds.observed_aux - ds.true_aux))
    if var_y == 0.0 or var_x == 0.0:
        raise DatasetError(
            "a true column is constant; correlation is undefined")
    product = var_y * var_x
    if sys.float_info.min <= product <= sys.float_info.max:
        scale = math.sqrt(product)
    else:
        scale = math.sqrt(var_y) * math.sqrt(var_x)
    rho = float(np.clip(cov / scale, -1.0, 1.0))
    return PopulationParams(n=n_for_theory, mu_y=mu_y, mu_x=mu_x,
                            sigma_y2=var_y, sigma_x2=var_x, rho=rho,
                            sigma_u2=var_u, sigma_v2=var_v)


def params_outcome(compute, ds):
    try:
        return "params", tuple(map(repr, vars(compute(ds, 10)).values()))
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)


class TestComputeParams:
    def test_matches_the_per_column_moments(self):
        # the same bits or the same error, from 1e-150 to 1e150 and past
        # the range where a variance overflows
        rng = np.random.default_rng(20261021)
        kinds = []
        for trial in range(1500):
            size = int(rng.integers(2, 400)) if trial % 50 else 9000
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            if trial % 10 == 0:
                scale = 10.0 ** rng.uniform(150.0, 160.0)
            spread = 10.0 ** rng.uniform(-3.0, 3.0)
            y = rng.normal(scale, scale * spread, size)
            x = 0.7 * y + rng.normal(0.0, scale * spread, size)
            errors = rng.normal(0.0, scale * spread * 0.1, (2, size))
            ds = dataset(np.column_stack([y, x, y + errors[0],
                                          x + errors[1]]))
            got = params_outcome(compute_params, ds)
            assert got == params_outcome(per_column_params, ds), trial
            kinds.append(got[0])
        assert 0 < kinds.count("error") < len(kinds) / 5

    def test_hand_fixture_moments(self):
        p = compute_params(hand_dataset(), n_for_theory=4)
        assert p.mu_y == 127.0
        assert p.mu_x == 171.0
        assert p.sigma_y2 == 4.0
        assert p.sigma_x2 == 3.0
        assert p.rho == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        # variances of the differences, not their mean squares: the error
        # columns have means 1 and 2 but both have variance 1
        assert p.sigma_u2 == 1.0
        assert p.sigma_v2 == 1.0
        assert p.n == 4

    def test_divisor_convention_is_n(self):
        # a divisor-(N-1) reading would give 16/3 here
        p = compute_params(hand_dataset(), n_for_theory=4)
        assert p.sigma_y2 == 4.0

    def test_exact_observation_gives_zero_error_variance(self):
        rows = [(y, x, y, x) for y, x, _, _ in HAND_ROWS]
        p = compute_params(dataset(rows), n_for_theory=4)
        assert p.sigma_u2 == 0.0
        assert p.sigma_v2 == 0.0

    def test_constant_true_column_rejected(self):
        rows = [(1.0, x, y, x) for _, x, y, _ in HAND_ROWS]
        with pytest.raises(DatasetError, match="constant"):
            compute_params(dataset(rows), n_for_theory=4)

    def test_perfect_correlation_is_clipped_to_one(self):
        # X = a Y + b exactly; unclipped, rounding put |rho| above 1 on about
        # a quarter of these datasets
        rng = np.random.default_rng(20261018)
        for slope in (3.7, -3.7):
            for trial in range(1000):
                size = int(rng.integers(2, 40))
                y = np.round(rng.normal(30.0, 40.0, size), 2)
                x = slope * y + 1.3
                rows = np.column_stack([y, x, y, x])
                p = compute_params(dataset(rows), n_for_theory=4)
                assert p.rho == pytest.approx(math.copysign(1.0, slope),
                                              abs=1e-12), trial

    def test_rho_in_range_keeps_its_bytes(self):
        # inside the normal float range rho is cov / sqrt(var_y * var_x);
        # sqrt(var_y) * sqrt(var_x) differs in the last bit on about a
        # third of these datasets
        rng = np.random.default_rng(20261019)
        for trial in range(300):
            y = rng.normal(100.0, 17.0, 20)
            x = 0.5 * y + rng.normal(0.0, 9.0, 20)
            var_y, var_x = float(np.var(y)), float(np.var(x))
            cov = float(np.mean((y - float(y.mean())) * (x - float(x.mean()))))
            p = compute_params(dataset(np.column_stack([y, x, y, x])),
                               n_for_theory=4)
            assert p.rho == cov / math.sqrt(var_y * var_x), trial

    def test_n_for_theory_validated(self):
        with pytest.raises(ParameterError):
            compute_params(hand_dataset(), n_for_theory=1)

    def test_recovers_known_parameters(self, table_params):
        # synthesize a large dataset from the benchmark parameters and
        # recover them within sampling tolerance
        rng = np.random.default_rng(123)
        n_units = 200_000
        p = table_params
        z1 = rng.standard_normal(n_units)
        z2 = rng.standard_normal(n_units)
        y_true = p.mu_y + math.sqrt(p.sigma_y2) * z1
        x_true = p.mu_x + math.sqrt(p.sigma_x2) * (
            p.rho * z1 + math.sqrt(1 - p.rho**2) * z2)
        y_obs = y_true + math.sqrt(p.sigma_u2) * rng.standard_normal(n_units)
        x_obs = x_true + math.sqrt(p.sigma_v2) * rng.standard_normal(n_units)
        ds = MeasuredDataset(true_study=y_true, true_aux=x_true,
                             observed_study=y_obs, observed_aux=x_obs)
        got = compute_params(ds, n_for_theory=10)
        assert got.mu_y == pytest.approx(p.mu_y, rel=0.005)
        assert got.mu_x == pytest.approx(p.mu_x, rel=0.005)
        assert got.sigma_y2 == pytest.approx(p.sigma_y2, rel=0.02)
        assert got.sigma_x2 == pytest.approx(p.sigma_x2, rel=0.02)
        assert got.rho == pytest.approx(p.rho, abs=0.01)
        assert got.sigma_u2 == pytest.approx(p.sigma_u2, rel=0.02)
        assert got.sigma_v2 == pytest.approx(p.sigma_v2, rel=0.02)


class TestPreset:
    def test_exact_values(self, table_params):
        assert preset() == table_params
        assert preset("gujarati-table1") == table_params

    def test_moments_flow_through(self):
        m = derive_moments(preset())
        assert m.var_ybar == pytest.approx(131.4, rel=1e-12)

    def test_unknown_name(self):
        with pytest.raises(DatasetError, match="gujarati-table1"):
            preset("nope")

    def test_names_listing(self):
        assert preset_names() == ("gujarati-table1",)


class TestParamsFromDict:
    def test_round_trip(self, table_params):
        import dataclasses
        doc = dataclasses.asdict(table_params)
        assert params_from_dict(doc) == table_params

    def test_missing_key(self, table_params):
        import dataclasses
        doc = dataclasses.asdict(table_params)
        del doc["rho"]
        with pytest.raises(DatasetError, match="missing.*rho"):
            params_from_dict(doc)

    def test_extra_key(self, table_params):
        import dataclasses
        doc = dataclasses.asdict(table_params)
        doc["sigma"] = 1.0
        with pytest.raises(DatasetError, match="unexpected.*sigma"):
            params_from_dict(doc)

    def test_field_validation_still_applies(self, table_params):
        import dataclasses
        doc = dataclasses.asdict(table_params)
        doc["rho"] = 2.0
        with pytest.raises(ParameterError):
            params_from_dict(doc)
