"""Record the behaviour corpus that ``tests/test_corpus.py`` replays.

Run from the repository root:

    PYTHONPATH=src python tests/record_corpus.py

It writes the data files and ``tests/corpus/manifest.jsonl`` from the
current tree, running every command line in a temporary working directory,
and prints each command line whose row moved from the manifest it replaces
("moved"), is new ("new") or is no longer recorded ("gone"). A change that
moves output bytes on purpose rewrites the manifest in a commit that says
so, and lists the moved command lines in the change log, as it does for
golden files.

The command lines are:

* the corpus of ``tests/test_parse.py``, with its ``--data`` files;
* every command line of ``tests/test_golden.py``, in every format, with
  copies of its ``--data`` files;
* ``SIMULATE``: small ``simulate`` runs over every error law and format;
* ``EDGES``: ``theory`` and ``simulate`` over two range-edge tables of
  ``tests/conftest.py`` and ``tests/test_cli.py``, which between them
  print every note a row can carry;
* ``BENCH``: the benchmark's two ``simulate`` operations at full size;
* ``LAWS``: ``simulate`` under the uniform and Student-t laws at the
  benchmark's n = 200 and at n = 1000, over replicate counts whose draw
  blocks do not split evenly, at the largest seed;
* ``DATA_EDGES``: ``theory`` and ``simulate`` over the tables of
  ``tests/test_cli.py`` and ``tests/test_domain.py`` whose moments or
  theory reach the edge of the float range, a table on which the Monte
  Carlo engine skips replicates, and a 400-digit ``--seed``.
"""

import json
import os
import random
import shlex
import shutil
import tempfile

import conftest
import test_cli
import test_domain
import test_golden
import test_parse
from test_corpus import CORPUS, MANIFEST, PLACEHOLDER, read_manifest, replay

_PRESET = ["--preset", test_parse.PRESET]
_SOURCES = (_PRESET, [*_PRESET, "--n", "2"],
            ["--data", f"{PLACEHOLDER}/units-40.csv", "--n", "25"])
# Every source, error law and format, at 100 to 300 replicates; then a grid
# with a negative alpha, a non-positive row and the B = 0 bracket, a
# Student-t df near 4, a larger n, the golden dataset, and a --tolerance
# that passes and one that fails (exit 3).
SIMULATE = [
    ["simulate", *source, "--replicates", str(100 * (1 + seed % 3)),
     "--seed", str(seed), *flags, "--format", fmt]
    for seed, (source, flags, fmt) in enumerate(
        (source, flags, fmt) for source in _SOURCES
        for flags in test_golden._LAWS.values()
        for fmt in test_golden.FORMATS)
] + [
    ["simulate", *_PRESET, "--replicates", "300", "--seed", "27",
     "--grid=-3,2", "--grid=2,-1.5", "--grid=0,0", "--grid=1,-1",
     "--format", fmt] for fmt in test_golden.FORMATS
] + [
    ["simulate", *_PRESET, "--replicates", "300", "--seed", "28",
     "--error-law", "student-t", "--error-df", "4.5", "--format", "csv"],
    ["simulate", *_PRESET, "--n", "1000", "--replicates", "100",
     "--seed", "29", "--format", "csv"],
    ["simulate", "--data", f"{PLACEHOLDER}/units.csv", "--n", "200",
     "--replicates", "200", "--seed", "30", "--grid=-1,0.5",
     "--error-law", "uniform", "--format", "csv"],
    ["simulate", *_PRESET, "--replicates", "300", "--seed", "31",
     "--tolerance", "10"],
    ["simulate", *_PRESET, "--replicates", "300", "--seed", "31",
     "--tolerance", "0.001"],
]
# Study values near 1e150 over an auxiliary mean near 0, and a perfectly
# correlated table near 1e-150: blank cells, weights beyond the float
# range, singular normal equations and a non-positive total. At n = 2 the
# --grid=1,1400 bracket squares past the float range in the Monte Carlo.
_EDGE_TABLES = {"wide.csv": conftest.WIDE_DATA,
                "tiny.csv": test_cli.TestVarianceProductOutOfRange.TINY}
EDGES = [
    [*command, "--data", f"{PLACEHOLDER}/{name}", "--format", fmt]
    for name in _EDGE_TABLES
    for command in (["theory"], ["simulate", "--replicates", "300"])
    for fmt in test_golden.FORMATS
] + [
    ["simulate", *_PRESET, "--n", "2", "--replicates", "300",
     "--grid=1,1400", "--format", fmt] for fmt in test_golden.FORMATS
]

# The benchmark's desk check (n = 200, json) and Student-t run (the
# preset's n = 10, csv), each at five seeds.
_BENCH_SEEDS = (1, 2, 3, 3002524089, 2**32 - 1)
BENCH = [
    ["simulate", *_PRESET, "--n", "200", "--replicates", "1000",
     "--seed", str(seed), "--format", "json"] for seed in _BENCH_SEEDS
] + [
    ["simulate", *_PRESET, "--replicates", "1500", "--seed", str(seed),
     "--error-law", "student-t", "--error-df", "6", "--format", "csv"]
    for seed in _BENCH_SEEDS
]
# The uniform and Student-t laws at n = 200 (32 replicates per draw block)
# and n = 1000 (6 per block): 100, 127 and 1001 replicates make 4, 4 and 32
# blocks at n = 200 and 17, 22 and 167 at n = 1000, the last one short.
LAWS = [
    ["simulate", *_PRESET, "--n", str(n), "--replicates", str(reps),
     "--seed", str(2**64 - 1), *flags, "--format", fmt]
    for flags in (test_golden._LAWS["uniform"], test_golden._LAWS["student-t"])
    for n in (200, 1000) for reps in (100, 127, 1001)
    for fmt in test_golden.FORMATS
]
# Means near 1e160, a variance past the float range, perfectly correlated
# columns near 1e100 and 1e154, a reference MSE that underflows in theory
# at --n 1e20, a ratio of means past the float range, and an auxiliary
# variance of 0 at n = 2. Each table's list holds its theory flags.
_HUGE_N = ["--n", "100000000000000000000"]
_DATA_TABLES = {
    "large-means.csv": (test_cli.TestOverflowingData.LARGE_MEANS, []),
    "large-spread.csv": (test_cli.TestOverflowingData.LARGE_SPREAD, []),
    "huge.csv": (test_cli.TestVarianceProductOutOfRange.HUGE, []),
    "huge-cov.csv": (test_cli.TestVarianceProductOutOfRange.HUGE_COV, []),
    "underflowing-reference.csv": (
        test_cli.TestCellsItCannotForm.UNDERFLOWING_REFERENCE, _HUGE_N),
    "overflowing.csv": (test_domain.OVERFLOWING_DATA, []),
    "zero-aux-variance.csv": (test_domain.ZERO_AUX_VARIANCE, []),
    # an auxiliary mean near 0 beside a spread near 1: at n = 2 the
    # --grid=1,30 bracket overflows on two replicates, which are skipped
    "skipping.csv": ("Y,X,y,x\n1,-1,1.1,-1.2\n2,1.3,2.2,1.1\n3,0.2,2.9,0.3\n",
                     []),
}
DATA_EDGES = [
    [*command, "--data", f"{PLACEHOLDER}/{name}", "--format", fmt]
    for name, (_, flags) in _DATA_TABLES.items()
    for command in (["theory", *flags], ["simulate", "--replicates", "300"])
    for fmt in test_golden.FORMATS
] + [
    ["simulate", "--data", f"{PLACEHOLDER}/skipping.csv", "--n", "2",
     "--replicates", "300", "--grid=1,30", "--format", fmt]
    for fmt in test_golden.FORMATS
] + [
    ["simulate", *_PRESET, "--replicates", "300", "--seed", "9" * 400],
]


def parse_lines() -> list[list[str]]:
    """``tests/test_parse.py``'s corpus, writing its data files here."""
    rng = random.Random(test_parse.SEED)
    paths = [test_parse.write_data(CORPUS, rows, rng)
             for rows in test_parse.DATA_ROWS]
    timed = [test_parse.theory_op(rng, paths, (0, 1),
                                  {0: (-0.5, 2.0), 1: (-2.0, 1.25)}, ("md",))
             for _ in range(300)]
    betas = {alpha: (-2.0, 2.0) for alpha in range(-3, 4)}
    sweep = [test_parse.theory_op(rng, paths, tuple(betas), betas,
                                  ("md", "csv", "json"))
             for _ in range(400)]
    return timed + sweep + test_parse.edge_cases(paths[0])


def golden_lines() -> list[list[str]]:
    """Every golden command line in every format, copying its data files."""
    for path in test_golden.GOLDEN.glob("units*.csv"):
        shutil.copyfile(path, CORPUS / path.name)
    cases = {**test_golden.CASES, **test_golden.CSV_CASES}
    return [[*argv, "--format", fmt] for argv in cases.values()
            for fmt in test_golden.FORMATS]


def command_lines() -> list[list[str]]:
    tables = {**_EDGE_TABLES,
              **{name: text for name, (text, _) in _DATA_TABLES.items()}}
    for name, text in tables.items():
        (CORPUS / name).write_text(text, encoding="utf-8")
    lines = [[arg.replace(str(test_golden.GOLDEN), str(CORPUS))
              .replace(str(CORPUS), PLACEHOLDER) for arg in argv]
             for argv in parse_lines() + golden_lines() + SIMULATE + EDGES
             + BENCH + LAWS + DATA_EDGES]
    return [list(argv) for argv in dict.fromkeys(map(tuple, lines))]


def main() -> None:
    old = ({tuple(row["argv"]): row for row in read_manifest()}
           if MANIFEST.exists() else {})
    CORPUS.mkdir(exist_ok=True)
    lines = command_lines()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        rows = [replay(argv) for argv in lines]
    for row in rows:
        before = old.pop(tuple(row["argv"]), None)
        if before != row:
            print("new" if before is None else "moved",
                  shlex.join(row["argv"]))
    for argv in old:
        print("gone", shlex.join(argv))
    with open(MANIFEST, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(json.dumps(row) + "\n" for row in rows)


if __name__ == "__main__":
    main()
