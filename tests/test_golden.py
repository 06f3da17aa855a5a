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

CASES = {
    "params-preset": ["params", *_PRESET],
    "theory-preset": ["theory", *_PRESET],
    "simulate-preset": ["simulate", *_PRESET, *_MONTE_CARLO],
    "theory-data": ["theory", *_DATA],
    "simulate-data": ["simulate", *_DATA, *_MONTE_CARLO],
}
# Cases kept in csv only, whose full precision carries every number the
# other formats print: the non-Gaussian error laws, and a grid with a
# negative alpha, a non-positive row and the B = 0 bracket.
CSV_CASES = {
    "simulate-preset-uniform": ["simulate", *_PRESET, *_MONTE_CARLO,
                                "--error-law", "uniform"],
    "simulate-preset-student-t": ["simulate", *_PRESET, *_MONTE_CARLO,
                                  "--error-law", "student-t",
                                  "--error-df", "5"],
    "theory-preset-grid": ["theory", *_PRESET, "--grid=-3,2",
                           "--grid=2,-1.5", "--grid=0,0"],
}
RUNS = ([(case, fmt) for case in sorted(CASES) for fmt in FORMATS]
        + [(case, "csv") for case in sorted(CSV_CASES)])


@pytest.mark.parametrize("case,fmt", RUNS)
def test_output_matches_golden_file(case, fmt, capsys):
    code = main([*{**CASES, **CSV_CASES}[case], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()

