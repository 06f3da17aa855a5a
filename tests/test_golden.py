"""Golden outputs: the CLI must print these files byte for byte.

Each case is one command line run in every output format; its expected
stdout lives in ``tests/golden/<case>.<format>``. A change that moves any
byte fails here; if the move is intended, write the new output over the
file (the command line plus ``--format`` and ``--out``) and say in the
change log which bytes moved and why.
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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_file(case, fmt, capsys):
    code = main([*CASES[case], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()

