"""Golden outputs: the CLI must print these files byte for byte.

Each case is one command line run in every output format (a case of
``CSV_CASES`` in csv only); its expected stdout lives in
``tests/golden/<case>.<format>``. A change that moves any byte fails here;
if the move is intended, write the new output over the file (the command
line plus ``--format`` and ``--out``) and say in the change log which bytes
moved and why.
"""

from pathlib import Path

import pytest

from meanerr.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("md", "csv", "json")

_PRESET = ["--preset", "gujarati-table1"]
# The four-unit dataset of test_cli.py, rescaled, with a negative alpha.
_DATA = ["--data", str(GOLDEN / "units.csv"), "--n", "200",
         "--grid=1,1", "--grid=-1,0.5"]
_MONTE_CARLO = ["--replicates", "200", "--seed", "7"]
# The ends of the n range the benchmark draws from, on a grid with a
# negative alpha, alpha = 2 and the B = 0 bracket.
_UNITS = ["--data", str(GOLDEN / "units.csv")]
_EDGE_GRID = ["--grid=-3,2", "--grid=2,-1.5", "--grid=0,0", "--grid=1,-1"]

CASES = {
    "params-preset": ["params", *_PRESET],
    "theory-preset": ["theory", *_PRESET],
    "simulate-preset": ["simulate", *_PRESET, *_MONTE_CARLO],
    "theory-data": ["theory", *_DATA],
    "simulate-data": ["simulate", *_DATA, *_MONTE_CARLO],
}
# Enough replicates at n = 10 for two full engine blocks and one row more.
_BLOCKS = ["--n", "10", "--replicates", "1281", "--seed", "7"]
# Enough replicates for two full aggregation chunks of 4096 and one more.
_CHUNKS = ["--n", "2", "--replicates", "8193", "--seed", "7"]
_LAWS = {"gaussian": [], "uniform": ["--error-law", "uniform"],
         "student-t": ["--error-law", "student-t", "--error-df", "6"]}
# Cases kept in csv only, whose full precision carries every number the
# other formats print: the non-Gaussian error laws, and a grid with a
# negative alpha, a non-positive row and the B = 0 bracket; theory at
# n = 2 and n = 2000 from the preset and from the dataset; each error law
# over replicates that cross engine block boundaries; the Gaussian and
# Student-t laws over replicates that cross aggregation chunk boundaries;
# and one table written three ways, with CRLF endings, a blank line, an
# extra column and a repeated header name (the last X is read):
# units-crlf.csv holds numbers only, units-quoted.csv puts the quoted
# cell "a,b" in the unused id column, and units-bom.csv is units-crlf.csv
# after a UTF-8 byte order mark, as spreadsheet "CSV UTF-8" exports begin.
# All three must print the same bytes.
CSV_CASES = {
    "simulate-preset-uniform": ["simulate", *_PRESET, *_MONTE_CARLO,
                                "--error-law", "uniform"],
    "simulate-preset-student-t": ["simulate", *_PRESET, *_MONTE_CARLO,
                                  "--error-law", "student-t",
                                  "--error-df", "5"],
    "theory-preset-grid": ["theory", *_PRESET, "--grid=-3,2",
                           "--grid=2,-1.5", "--grid=0,0"],
    **{f"theory-{label}-n{n}": ["theory", *source, "--n", str(n),
                                *_EDGE_GRID]
       for label, source in (("preset", _PRESET), ("data", _UNITS))
       for n in (2, 2000)},
    **{f"simulate-blocks-{law}": ["simulate", *_PRESET, *_BLOCKS, *flags]
       for law, flags in _LAWS.items()},
    **{f"simulate-chunks-{law}": ["simulate", *_PRESET, *_CHUNKS, *_LAWS[law]]
       for law in ("gaussian", "student-t")},
    **{f"theory-data-{label}": ["theory", "--data",
                                str(GOLDEN / f"units-{label}.csv"),
                                "--n", "200", *_EDGE_GRID]
       for label in ("crlf", "quoted", "bom")},
}
RUNS = ([(case, fmt) for case in sorted(CASES) for fmt in FORMATS]
        + [(case, "csv") for case in sorted(CSV_CASES)])


@pytest.mark.parametrize("case,fmt", RUNS)
def test_output_matches_golden_file(case, fmt, capsys):
    code = main([*{**CASES, **CSV_CASES}[case], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_both_spellings_print_the_same_table():
    crlf = (GOLDEN / "theory-data-crlf.csv").read_bytes()
    for label in ("quoted", "bom"):
        assert (GOLDEN / f"theory-data-{label}.csv").read_bytes() == crlf
