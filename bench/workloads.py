"""The benchmark's workloads: argv streams for ``meanerr.cli.main``.

Every input comes from the workload seed. A workload turns a
``random.Random`` into an endless stream of operations; each operation is
one CLI argv plus what its output check needs to know. The program sees
only the argv and, for ``--data`` calls, the CSV files written here.

Why these three:

* ``desk`` is the north-star desk check (n = 200, Gaussian errors). It draws
  800 variates per replicate, so generation and sample construction
  dominate. It exercises engine work such as blocking and a Gaussian fast
  path.
* ``small-n-t`` runs the preset's n = 10 under Student-t errors. At 40
  variates per replicate the fixed per-replicate costs (substream setup, the
  Python loop, 12-spec aggregation) take a larger share, and the Student-t
  law bypasses any Gaussian-only fast path.
* ``theory-domain`` streams ``theory`` calls over the accepted range of n,
  a quarter of them reading a generated CSV, with grid pairs drawn from the
  part of the grid where the first-order MSE is positive at every n. No
  Monte Carlo runs, so argparse, theory, ingest and rendering do all the
  work and every engine change is bypassed.

Outside that part of the grid, and in csv and json output, the program at
the commit that added the benchmark fails on some inputs (see
``sweep_stream``). The timed workloads keep to inputs on which it succeeds,
so that their figures measure work done; the domain sweep, run with every
traced run, counts those failures over the whole accepted domain.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

PRESET = "gujarati-table1"
# The preset's population, used to generate the --data files.
_MU_Y, _MU_X, _SIGMA_Y2, _SIGMA_X2, _RHO, _SIGMA_E2 = (
    127.0, 170.0, 1278.0, 3300.0, 0.964, 36.0)

DESK_REPLICATES = 1000
SMALL_N_T_REPLICATES = 1500
# Row counts are fixed so that only the values, not the work, vary by seed.
DATA_ROWS = (200, 250, 300, 350, 400, 450, 500, 550)
DATA_SHARE = 0.25
ALPHAS = (-3, 3)
BETAS = (-2.0, 2.0)
THEORY_NS = (2, 2000)
FORMATS = ("md", "csv", "json")
# beta ranges, per alpha, on which both power-exp rows keep a positive
# first-order MSE for every n in THEORY_NS, for the preset and for data
# drawn from its population; checked on a 0.25 beta grid with a margin.
VALID_BETAS = {0: (-0.5, 2.0), 1: (-2.0, 1.25)}
# md rounds the PRE column; csv and json print mean-per-unit PRE as
# 100 * ref / ref, one ulp off 100 for some n.
TIMED_THEORY_FORMAT = "md"
SWEEP_OPS = 400


@dataclass(frozen=True)
class Op:
    """One call of ``meanerr.cli.main`` and what its check needs."""

    kind: str                # "simulate" or "theory"
    argv: tuple[str, ...]
    fmt: str
    replicates: int = 0      # simulate: the requested R
    grid: tuple[tuple[int, float], ...] = ()   # theory: the --grid pairs


@dataclass(frozen=True)
class Workload:
    name: str
    sample_n: int            # n of simulate ops; 0 for theory-domain
    make_op: Callable[[random.Random, Sequence[str]], Op]


def _desk(rng: random.Random, data: Sequence[str]) -> Op:
    seed = rng.randrange(2**32)
    argv = ("simulate", "--preset", PRESET, "--n", "200",
            "--replicates", str(DESK_REPLICATES), "--seed", str(seed),
            "--format", "json")
    return Op("simulate", argv, "json", replicates=DESK_REPLICATES)


def _small_n_t(rng: random.Random, data: Sequence[str]) -> Op:
    seed = rng.randrange(2**32)
    argv = ("simulate", "--preset", PRESET,
            "--replicates", str(SMALL_N_T_REPLICATES), "--seed", str(seed),
            "--error-law", "student-t", "--error-df", "6", "--format", "csv")
    return Op("simulate", argv, "csv", replicates=SMALL_N_T_REPLICATES)


def _theory_op(alpha: int, beta: float, n: int, fmt: str, path: str | None
               ) -> Op:
    source = ("--data", path) if path else ("--preset", PRESET)
    # the = form: argparse reads "--grid -1,0" as an unknown flag
    argv = ("theory", *source, "--n", str(n), f"--grid={alpha},{beta:.3f}",
            "--format", fmt)
    return Op("theory", argv, fmt, grid=((alpha, beta),))


def _theory_domain(rng: random.Random, data: Sequence[str]) -> Op:
    # draw every value on every call, so the stream never depends on branches
    alpha = rng.choice(sorted(VALID_BETAS))
    beta = float(f"{rng.uniform(*VALID_BETAS[alpha]):.3f}")
    n = rng.randint(*THEORY_NS)
    use_data = rng.random() < DATA_SHARE
    path = rng.choice(data)
    return _theory_op(alpha, beta, n, TIMED_THEORY_FORMAT,
                      path if use_data else None)


def _theory_sweep(rng: random.Random, data: Sequence[str]) -> Op:
    alpha = rng.randint(*ALPHAS)
    beta = float(f"{rng.uniform(*BETAS):.3f}")
    n = rng.randint(*THEORY_NS)
    fmt = rng.choice(FORMATS)
    use_data = rng.random() < DATA_SHARE
    path = rng.choice(data)
    return _theory_op(alpha, beta, n, fmt, path if use_data else None)


WORKLOADS = {
    "desk": Workload("desk", 200, _desk),
    "small-n-t": Workload("small-n-t", 10, _small_n_t),
    "theory-domain": Workload("theory-domain", 0, _theory_domain),
}


def op_stream(workload: Workload, seed: int, stream: str,
              data: Sequence[str]) -> Iterator[Op]:
    """Endless, seed-determined operations of one workload.

    ``stream`` separates independent sequences of the same seed (timed ops,
    warm-up, diagnostics); the same (workload, seed, stream) always gives
    the same operations.
    """
    rng = random.Random(f"{workload.name}/{seed}/{stream}")
    while True:
        yield workload.make_op(rng, data)


def sweep_stream(seed: int, data: Sequence[str]) -> list[Op]:
    """SWEEP_OPS ``theory`` calls over the whole accepted domain: any
    integer alpha in ALPHAS, beta in BETAS, n in THEORY_NS, every format.

    At the commit that added the benchmark, ``theory.pre`` raises on a
    negative first-order total (some grid pairs, mostly at small n), and
    csv and json print the mean-per-unit PRE one ulp off 100 for some n.
    """
    rng = random.Random(f"sweep/{seed}")
    return [_theory_sweep(rng, data) for _ in range(SWEEP_OPS)]


def write_data_files(directory: str, seed: int) -> list[str]:
    """Write the --data CSVs (true and observed columns) for one seed.

    Rows are drawn from the preset's population: a bivariate normal truth
    and independent N(0, 36) errors on both observed columns.
    """
    rng = random.Random(f"data/{seed}")
    paths = []
    lift = math.sqrt(1.0 - _RHO * _RHO)
    for rows in DATA_ROWS:
        path = os.path.join(directory, f"data-{rows}.csv")
        lines = ["Y,X,y,x"]
        for _ in range(rows):
            z1, z2 = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
            true_y = _MU_Y + math.sqrt(_SIGMA_Y2) * z1
            true_x = _MU_X + math.sqrt(_SIGMA_X2) * (_RHO * z1 + lift * z2)
            obs_y = true_y + rng.gauss(0.0, math.sqrt(_SIGMA_E2))
            obs_x = true_x + rng.gauss(0.0, math.sqrt(_SIGMA_E2))
            lines.append(f"{true_y:.6f},{true_x:.6f},{obs_y:.6f},{obs_x:.6f}")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths
