"""``cli.main``'s one-pass parse against the two-pass parse it replaced.

The reference below is the parse ``main`` made before: the top-level
parser's ``parse_args`` over the whole command line, which runs the
subcommand's parser over the same tokens a second time. Both see the same
negative ``--grid`` values joined to their flag. On every command line of
the corpus ``main`` must give the same exit code (or ``SystemExit`` code),
stdout and stderr with either parse.
"""

import argparse
import contextlib
import io
import random

import pytest

from meanerr import cli

PRESET = "gujarati-table1"
SEED = 20261019
DATA_ROWS = (3, 8, 40)


def reference_parse(parser, argv):
    command = parser.commands.get(argv[0], parser) if argv else parser
    return parser.parse_args(
        cli._join_grid_values(argv, cli._grid_spellings(command)))


def run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; a ``SystemExit``
    (help) gives ("SystemExit", its code) as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------- corpus

def write_data(directory, rows: int, rng: random.Random) -> str:
    """A --data file of ``rows`` units drawn around the preset's means."""
    path = directory / f"units-{rows}.csv"
    lines = ["Y,X,y,x"]
    for _ in range(rows):
        true_y = 127.0 + 35.7 * rng.gauss(0.0, 1.0)
        true_x = 170.0 + 57.4 * rng.gauss(0.0, 1.0)
        lines.append(f"{true_y:.6f},{true_x:.6f},"
                     f"{true_y + rng.gauss(0.0, 6.0):.6f},"
                     f"{true_x + rng.gauss(0.0, 6.0):.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def grid_flag(rng: random.Random, alpha: int, beta: float) -> list[str]:
    value = f"{alpha},{beta:.3f}"
    spelling = rng.choice(("--grid=", "--grid", "--gri", "--g"))
    if spelling.endswith("="):
        return [spelling + value]
    return [spelling, value]


def theory_op(rng: random.Random, paths, alphas, betas, formats):
    # every value is drawn on every call, as the benchmark's streams do
    alpha = rng.choice(alphas)
    beta = rng.uniform(*betas[alpha])
    n = rng.randint(2, 2000)
    fmt = rng.choice(formats)
    use_data = rng.random() < 0.25
    path = rng.choice(paths)
    source = ["--data", path] if use_data else ["--preset", PRESET]
    return ["theory", *source, "--n", str(n), *grid_flag(rng, alpha, beta),
            "--format", fmt]


def edge_cases(path: str) -> list[list[str]]:
    preset = ["--preset", PRESET]
    theory = ["theory", *preset]
    simulate = ["simulate", *preset, "--replicates", "100", "--seed", "4"]
    return [
        [], ["-h"], ["--help"], ["--he"], ["-h", "theory"],
        ["theory", "-h"], ["params", "-h"], ["simulate", "--help"],
        ["theory", *preset, "--he"], ["frobnicate"], ["theor", *preset],
        ["Theory", *preset], ["--", "theory", *preset], ["-x"],
        ["--format", "csv", "theory", *preset],
        ["theory"], ["theory", "--preset"], ["theory", "--pre", PRESET],
        ["theory", f"--preset={PRESET}"], ["theory", "--pre=" + PRESET],
        ["theory", *preset, "--data", path],
        ["theory", "--data", path, "--tab"],
        [*theory, "--"], [*theory, "--", "--grid=1,0"],
        [*theory, "--grid", "--", "-1,0"],
        [*theory, "--grid", "-1,0"], [*theory, "--grid=-1,0"],
        [*theory, "--grid", "-1,0", "--grid", "-3,-2", "--format", "csv"],
        [*theory, "--gri", "-1,0"], [*theory, "--gr", "-.5,0"],
        [*theory, "--g", "-2,1"], [*theory, "--grid", "-1.5,0"],
        [*theory, "--grid"], [*theory, "--grid", "1"],
        [*theory, "--grid", "9,0"],
        [*theory, "--grid", "1,nan"], [*theory, "--grid", "-1,0", "--grid"],
        [*theory, "--grid", "--grid", "-1,0"],
        [*theory, "junk"], [*theory, "--bogus"],
        [*theory, "--bogus", "x", "y"],
        [*theory, "-1,0"], [*theory, "--format", "xml"],
        [*theory, "--format", "json", "--format", "csv"],
        [*theory, "--n", "many"], [*theory, "--n", "1"],
        [*theory, "--n", "-5"],
        [*theory, "--n", "2.5"], [*theory, "--n=2000", "--grid=1,0"],
        [*theory, "--col-Y", "A"], [*theory, "--col", "A"],
        ["params", *preset], ["params", *preset, "--format", "json"],
        ["params", *preset, "--grid=1,0"],
        ["params", *preset, "--grid", "-1,0"],
        ["params", *preset, "--gri", "-1,0"],
        ["params", *preset, "--g", "1,0"],
        ["params", "--data", path, "--n", "3", "--format", "csv"],
        ["params", *preset, "extra", "--more"], ["params", "--preset"],
        ["params", *preset, "--n", "x"], ["params", *preset, "--tab=1"],
        [*simulate, "--format", "csv"], [*simulate, "--grid", "-1,0"],
        [*simulate, "--gri", "-1,0", "--format", "json"],
        [*simulate, "--error-law", "student-t"],
        [*simulate, "--error-law", "student-t", "--error-df", "6"],
        [*simulate, "--error-law", "uniform", "--format", "csv"],
        [*simulate, "--error-law", "cauchy"], [*simulate, "--error"],
        [*simulate, "--error-d", "6"], [*simulate, "--tolerance", "0"],
        [*simulate, "--tolerance", "-1"], [*simulate, "--tolerance", "nan"],
        ["simulate", *preset, "--replicates", "many"],
        ["simulate", *preset, "--replicates", "1"],
        [*simulate, "--seed", "-1"], [*simulate, "stray"],
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = random.Random(SEED)
    directory = tmp_path_factory.mktemp("parse-corpus")
    paths = [write_data(directory, rows, rng) for rows in DATA_ROWS]
    # the benchmark's timed theory calls: grid pairs whose first-order MSE
    # stays positive, md only
    timed = [theory_op(rng, paths, (0, 1), {0: (-0.5, 2.0), 1: (-2.0, 1.25)},
                       ("md",)) for _ in range(300)]
    # its domain sweep: the whole accepted grid and every format
    betas = {alpha: (-2.0, 2.0) for alpha in range(-3, 4)}
    sweep = [theory_op(rng, paths, tuple(betas), betas, ("md", "csv", "json"))
             for _ in range(400)]
    return timed + sweep + edge_cases(paths[0])


def test_one_pass_matches_two_pass_reference(corpus, monkeypatch):
    mismatched = []
    for argv in corpus:
        got = run_main(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse", reference_parse)
            expected = run_main(argv)
        if got != expected:
            mismatched.append((argv, got, expected))
    assert mismatched == []


def test_corpus_reaches_every_outcome(corpus):
    # the comparison means something only if the corpus hits each exit
    # path: success, usage errors of either parser, data errors, a failed
    # tolerance and help
    codes, usages = set(), set()
    for argv in corpus:
        code, _, err = run_main(argv)
        codes.add(code)
        if err.startswith("usage: "):
            usages.add(err.split("[", 1)[0])
    assert codes == {0, 1, 2, 3, ("SystemExit", 0)}
    assert usages == {"usage: meanerr ", "usage: meanerr params ",
                      "usage: meanerr theory ", "usage: meanerr simulate "}


# ------------------------------------------------------------------ one pass

@pytest.mark.parametrize("argv", [
    ["theory", "--preset", PRESET, "--grid", "-1,0"],
    ["simulate", "--preset", PRESET, "--replicates", "100", "--gri", "-1,0"],
    ["params", "--preset", PRESET, "--n", "50"],
])
def test_one_parse_per_command_line(monkeypatch, capsys, argv):
    parsed = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert cli.main(argv) == 0
    assert parsed == [f"meanerr {argv[0]}"]

