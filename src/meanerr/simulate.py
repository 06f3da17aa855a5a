"""Monte Carlo engine: empirical bias and MSE of each estimator.

Each replicate draws a fresh bivariate-normal truth sample, contaminates it
with independent mean-zero errors, and evaluates every requested estimator
on the observed means; the first-order theory is left to the caller.
Replicate i draws from its own counter-based Philox substream: key = seed,
with i in the high counter words (``_substream_state``).

The engine makes one generator per worker and resets it to the start of
each replicate's substream by setting the counter word of one reused state;
Philox output depends only on (key, counter), so the variates are exactly
those of a fresh substream. Replicates are drawn in blocks of about
``_BLOCK_VALUES`` doubles (32 rows at n = 200, 640 at n = 10), and the
observed values and their means are computed in place over the whole block
in the per-replicate operation order, so the means equal those of drawing
one replicate at a time bit for bit: ``draw_replicate`` is a one-row call
of the same kernel and returns that replicate's observed ``(y, x)`` arrays.

From ``_THREADED_MIN_N`` up, and on n alone, a run splits its blocks into
two contiguous halves: the calling thread fills and averages the first, a
one-thread ``ThreadPoolExecutor`` the second, each with its own generator,
and the worker writes only its own slices of the means. numpy's Philox
fills release the GIL, so the halves overlap. Each replicate's variates
depend on (seed, index) alone and every mean is taken over one replicate's
row, so the means, and every output byte, are the same whichever path runs
and on any host. From the threshold up a block holds at most 32 replicates
and a run at least 100, so both halves have blocks. The worker calls no
public function and is joined before the means are read, its exception is
raised in the caller, and aggregation stays on the calling thread. Below
the threshold the per-row work that holds the GIL outweighs the overlap
(see ``_THREADED_MIN_N``).

The means are aggregated over every spec at once, ``_CHUNK`` replicates at
a time. Each chunk's deviations, squares and SE terms are split into a few
exact parts by error-free extraction (``_exact_parts``), and parts from
different chunks merge by list concatenation, so the working arrays stay
of chunk size for any number of replicates. Each moment is ``math.fsum``
of its parts: the exactly rounded sum of its terms, and so the same bits
for any order of the replicates and any chunking.

A replicate where an estimator's value is not finite (nan where the
estimator is undefined, or a value past the float range) is excluded from
that estimator's averages and surfaced through ``replicates_skipped``; for
every benchmark scenario the undefined region is tens of standard
deviations away and the counter stays at zero.

numpy is imported inside the functions that draw or reduce arrays, once per
block or chunk, and the executor only past the n test, not at module load:
the CLI imports this module for every command, and only ``simulate`` needs
the engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .estimators import Estimator, evaluate_at_means
from .moments import PopulationParams, _digits, _finite, _shown

__all__ = [
    "ConfigError",
    "ErrorLaw",
    "SimulationConfig",
    "SimulationResult",
    "draw_replicate",
    "run_monte_carlo",
]

_MAX_SEED = 2**64
# Largest run whose two float64 arrays of replicate means numpy can index:
# sys.maxsize is the largest np.intp, and numpy is not loaded at import.
_MAX_REPLICATES = sys.maxsize // 8
# Largest n whose one-replicate block of 4n float64 values numpy can shape.
_MAX_N = sys.maxsize // 32
# Doubles drawn per block, 4n per replicate: 32 replicates at n = 200, 640
# at n = 10, and one at any n above 6400. Up to n = 6400 the block, its
# contiguous copy and one temporary take about 0.5 MiB; the traced peak of
# a 1500-replicate run is 0.66 MiB at n = 10 and at n = 200 (0.05 and 0.51
# MiB with blocks of 32 rows). Blocks of 8 * 800 and 128 * 800 doubles were
# no faster at n = 10 (Student-t) or at n = 200 (Gaussian).
_BLOCK_VALUES = 32 * 800
# Sample size from which _replicate_means fills its draw blocks on two
# threads. Sustained runs of 60 calls (R = 1000, one process per run, two
# CPUs) read, serial -> threaded, in ms: Gaussian 8.6-8.7 -> 11.9-13.0 at
# n = 100 and 15.8-18.3 -> 11.0-15.1 at n = 200; Student-t (df 6)
# 23.2-24.5 -> 23.8-31.2 at n = 150 and 30.0-46.1 -> 26.2-30.7 at n = 200.
# Below it the per-replicate seek and call overhead, which hold the GIL,
# outweigh the overlap of the fills, which release it. n alone picks the
# path: pinned to one CPU at n = 200 and R = 1000, serial -> threaded read
# (medians of 64 calls, ms) Gaussian 16.9 -> 18.2 and 22.3 -> 23.2,
# Student-t 39.9 -> 36.4 and 29.4 -> 30.2: too close to pay for a CPU probe.
_THREADED_MIN_N = 200
# Replicates per aggregation chunk. A run of at most this many evaluates
# each spec once; a longer one evaluates every chunk but the last again
# for the SE terms. Each working array is (specs, _CHUNK) doubles: 384 KiB
# for the 12 specs of the default grid.
_CHUNK = 4096


class ConfigError(ValueError):
    """Raised for invalid simulation configuration."""


class ErrorLaw(Enum):
    """Distribution of the measurement errors (always mean zero, and scaled
    to the exact target variances)."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"         # on +-(sigma sqrt(3))
    STUDENT_T = "student-t"     # scaled by sigma sqrt((df-2)/df), df > 4


def _check_int(value, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {_digits(value)}")


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation scenario; each replicate draws ``params.n`` units.

    ``error_df`` is the Student-t degrees of freedom; it is required for
    (and only accepted with) the Student-t law, and must exceed 4 so the
    variance of the squared errors is finite.
    """

    params: PopulationParams
    replicates: int
    seed: int
    error_law: ErrorLaw = ErrorLaw.GAUSSIAN
    error_df: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, PopulationParams):
            raise ConfigError(
                f"params must be PopulationParams, got {type(self.params).__name__}")
        if self.params.n > _MAX_N:
            raise ConfigError(
                f"n must be <= {_MAX_N} to draw one replicate's 4n values, "
                f"got {_digits(self.params.n)}")
        _check_int(self.replicates, "replicates", 100)
        if self.replicates > _MAX_REPLICATES:
            raise ConfigError(
                f"replicates must be <= {_MAX_REPLICATES}, got "
                f"{_digits(self.replicates)}")
        _check_int(self.seed, "seed", 0)
        if self.seed >= _MAX_SEED:
            raise ConfigError(
                f"seed must be below 2**64, got {_digits(self.seed)}")
        if not isinstance(self.error_law, ErrorLaw):
            raise ConfigError(f"error_law must be an ErrorLaw, got {self.error_law!r}")
        if self.error_law is ErrorLaw.STUDENT_T:
            df = self.error_df
            if isinstance(df, bool) or not (_finite(df) and df > 4):
                raise ConfigError(
                    f"error_df must be a finite number > 4 for the Student-t "
                    f"law, got {_shown(df)}")
        elif self.error_df is not None:
            raise ConfigError(
                f"error_df only applies to the Student-t law, got "
                f"{self.error_df!r} with {self.error_law.value}")


class SimulationResult(NamedTuple):
    """Empirical moments of one estimator across the used replicates; no
    theory value rides along. A moment is nan when no replicate was used
    and inf when a square or SE term leaves the float range. Both standard
    errors follow one rule: nan below two used replicates, else inf where
    the MSE is inf. The CLI's tables blank a nan or inf and name it."""

    estimator: Estimator
    empirical_bias: float
    empirical_mse: float
    mc_se_mse: float
    replicates_used: int
    replicates_skipped: int

    @property
    def mc_se_bias(self) -> float:
        """Monte Carlo standard error of the bias estimate.

        Recovered from the stored moments: the replicate variance of the
        estimator is mse - bias^2 up to the ddof correction.
        """
        used, mse, bias = (self.replicates_used, self.empirical_mse,
                           self.empirical_bias)
        return (math.nan if used < 2 else math.inf if mse == math.inf
                else math.sqrt(max(mse - bias * bias, 0.0) / (used - 1)))


def _substream(seed: int) -> np.random.Generator:
    # counter-based substreams: a replicate index occupies the high counter
    # words (see _substream_state), leaving 2**128 draws of headroom inside
    # each replicate; this generator starts at replicate 0
    import numpy as np
    return np.random.Generator(np.random.Philox(key=seed))


def _substream_state(seed: int) -> dict:
    """The state ``_substream(seed)`` starts from: key = seed, counter 0
    and an empty output buffer. Set ``["state"]["counter"][2]`` to a
    replicate index and assign the dict to a Philox bit generator's
    ``state`` to reset it to that replicate's substream; Philox is
    counter-based, so the variates that follow are exactly those of a
    fresh ``Philox(key=seed, counter=index << 128)``."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _row_filler(config: SimulationConfig, rng: np.random.Generator):
    """The error-law dispatch: ``(fill, error_scale)``.

    ``fill(row)`` draws one replicate's 4n variates from ``rng`` into
    ``row``: 2n standard normals for the truth pair, then 2n error-law
    variates, study block first. Multiplying the error columns by
    ``error_scale`` gives them unit variance.
    """
    half = 2 * config.params.n
    normal = rng.standard_normal
    if config.error_law is ErrorLaw.GAUSSIAN:
        # the error normals are the next 2n draws of the same substream
        def fill(row):
            normal(out=row)
        return fill, 1.0
    if config.error_law is ErrorLaw.UNIFORM:
        bound = math.sqrt(3.0)

        def fill(row):
            normal(out=row[:half])
            row[half:] = rng.uniform(-bound, bound, half)
        return fill, 1.0
    df = float(config.error_df)

    def fill(row):
        normal(out=row[:half])
        row[half:] = rng.standard_t(df, half)
    return fill, math.sqrt((df - 2.0) / df)


def _block_rows(n: int) -> int:
    """Replicates per block at sample size ``n``."""
    return max(1, _BLOCK_VALUES // (4 * n))


def _observed_block(config: SimulationConfig, rng: np.random.Generator,
                    start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed (y, x) of replicates ``start`` to ``stop - 1``, one row each.

    Each row is drawn from its replicate's substream (``rng`` is reset
    there first) by ``_row_filler``. The arithmetic then runs in place over
    the whole block in the per-replicate operation order (IEEE ``+`` and
    ``*`` commute, so ``z * s + mu`` is ``mu + s * z``), and every value
    equals the one a single-replicate draw gives.
    """
    import numpy as np
    p = config.params
    n = p.n
    fill, error_scale = _row_filler(config, rng)
    state = _substream_state(config.seed)
    counter = state["state"]["counter"]
    bit_generator = rng.bit_generator
    block = np.empty((stop - start, 4 * n))
    for row, index in zip(block, range(start, stop)):
        counter[2] = index
        bit_generator.state = state
        fill(row)

    # the four column groups z1, z2, u, v, each made contiguous, so that
    # the arithmetic below runs in place without strided passes
    groups = np.ascontiguousarray(block.reshape(-1, 4, n).transpose(1, 0, 2))
    y, x, u, v = groups
    groups[2:] *= error_scale
    u *= math.sqrt(p.sigma_u2)
    v *= math.sqrt(p.sigma_v2)
    # x = mu_x + sigma_x (rho z1 + sqrt(1 - rho^2) z2) + sigma_v v, from
    # z2 in x's place; z1 is read before y's place is overwritten
    x *= math.sqrt(1.0 - p.rho * p.rho)
    x += p.rho * y
    x *= math.sqrt(p.sigma_x2)
    x += p.mu_x
    x += v
    # y = mu_y + sigma_y z1 + sigma_u u
    y *= math.sqrt(p.sigma_y2)
    y += p.mu_y
    y += u
    return y, x


def draw_replicate(config: SimulationConfig,
                   replicate_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(y, x)`` arrays of one observed sample, fixed by (seed, index).

    Draw order is fixed: 2n standard normals for the truth pair, then 2n
    error-law variates (study block first). The error variates are drawn
    even at zero error variance, so the same (seed, index) yields the same
    truth values whatever the error setting; with both error variances zero
    the observed values equal the true values exactly. This is a one-row
    call of the engine's block kernel, so the engine sees the same values.
    """
    _check_int(replicate_index, "replicate_index", 0)
    if replicate_index >= _MAX_SEED:
        raise ConfigError(
            f"replicate_index must be below 2**64, got "
            f"{_digits(replicate_index)}")
    y, x = _observed_block(config, _substream(config.seed), replicate_index,
                           replicate_index + 1)
    return y[0], x[0]


def _fill_means(config: SimulationConfig, starts: range, ybars: np.ndarray,
                xbars: np.ndarray) -> None:
    """Write the means of the blocks at ``starts`` into their slices of
    ``ybars`` and ``xbars``, from one generator that ``_observed_block``
    seeks per replicate."""
    rng = _substream(config.seed)
    for start in starts:
        stop = min(start + starts.step, config.replicates)
        y, x = _observed_block(config, rng, start, stop)
        y.mean(axis=1, out=ybars[start:stop])
        x.mean(axis=1, out=xbars[start:stop])


def _replicate_means(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    reps = config.replicates
    ybars = np.empty(reps)
    xbars = np.empty(reps)
    starts = range(0, reps, _block_rows(config.params.n))
    if config.params.n < _THREADED_MIN_N:
        _fill_means(config, starts, ybars, xbars)
        return ybars, xbars
    from concurrent.futures import ThreadPoolExecutor
    half = (len(starts) + 1) // 2
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(_fill_means, config, starts[half:], ybars, xbars)
        _fill_means(config, starts[:half], ybars, xbars)
        second.result()
    return ybars, xbars


def _exact_parts(block: np.ndarray, parts: list[list]) -> None:
    """Append to ``parts[i]`` floats whose exact sum is that of ``block[i]``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 2008): over rows of m values r, take
    sigma a power of two with sigma >= 2**(ceil(log2(m + 2)) + 1) * max|r|.
    Then q = (r + sigma) - sigma and r - q are exact, every q is a multiple
    of ulp(sigma) / 2 and each row's total of q stays below sigma, so
    ``q.sum(axis=1)`` is exact in any order. Repeating on r - q until it is
    zero splits each row into a few exact level sums (two or three for the
    engine's moments), and ``math.fsum`` over a row's parts is then its
    correctly rounded sum: the bits of ``math.fsum`` over the row itself.
    One sigma serves the whole block, a scalar that numpy adds faster than
    a column, so its rows should be of one scale. A row whose own sigma
    would leave the float range, or that holds an inf, appends its values
    themselves. Parts of several blocks merge by list concatenation.
    """
    import numpy as np
    shift = (block.shape[1] + 1).bit_length() + 1
    peaks = np.maximum(block.max(axis=1), -block.min(axis=1))
    raw = ~(peaks < 2.0 ** (1023 - shift))
    for i in np.flatnonzero(raw):
        parts[i].extend(block[i])
    rows = np.flatnonzero(~raw)
    residual = block[rows]
    q = np.empty_like(residual)
    peak = peaks[rows].max(initial=0.0)
    while peak > 0.0:
        sigma = math.ldexp(1.0, math.frexp(peak)[1] + shift)
        np.add(residual, sigma, out=q)
        q -= sigma
        residual -= q
        for i, level in zip(rows, q.sum(axis=1)):
            parts[i].append(level)
        peak = max(residual.max(), -residual.min())


def _moment_block(specs: Sequence[Estimator], ybars: np.ndarray,
                  xbars: np.ndarray, mu_y: float, mu_x: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over one chunk of replicates, each spec's deviations from ``mu_y``
    and their squares, two ``(k, width)`` arrays with 0.0 where a replicate
    is skipped, and the ``(k, width)`` mask of the replicates used: those
    where the spec's value is finite."""
    import numpy as np
    shape = (len(specs), ybars.size)
    deviations = np.zeros(shape)
    mask = np.empty(shape, dtype=bool)
    # a finite value far from mu_y can square past the float range: the
    # spec's MSE is then inf, and numpy stays silent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for spec, row, ok in zip(specs, deviations, mask):
            values = evaluate_at_means(spec, ybars, xbars, mu_x)
            np.isfinite(values, out=ok)
            np.subtract(values, mu_y, out=row, where=ok)
        squares = deviations * deviations
    return deviations, squares, mask


def _mean(parts: list, count: int) -> float:
    """The exactly rounded sum of ``parts`` over ``count``: nan for no
    part, inf only where a part is. Where math.fsum overflows (or raises
    "intermediate overflow" on a finite sum of mixed signs), it sums the
    parts scaled by 2**-64, which fewer than 2**64 floats cannot overflow."""
    if not count:
        return math.nan
    try:
        return math.fsum(parts) / count
    except OverflowError:
        return math.fsum(part * 2.0**-64 for part in parts) / count * 2.0**64


def _aggregate(specs: Sequence[Estimator], ybars: np.ndarray,
               xbars: np.ndarray, mu_y: float,
               mu_x: float) -> list[SimulationResult]:
    """Empirical bias, MSE and MSE standard error of every spec.

    The replicates are taken ``_CHUNK`` at a time. A first pass sums each
    spec's deviations and squares exactly; a second, which needs the MSE,
    sums every spec's SE terms (s - mse)**2 under the same mask,
    re-evaluating every chunk but the last, whose block is still at hand.
    Every spec gets its result, as ``SimulationResult`` says.
    """
    import numpy as np
    reps = ybars.size
    chunks = [(start, min(start + _CHUNK, reps))
              for start in range(0, reps, _CHUNK)]
    deviation_sums = [[] for _ in specs]
    square_sums = [[] for _ in specs]
    used = np.zeros(len(specs), dtype=np.int64)
    for start, stop in chunks:
        deviations, squares, ok = _moment_block(
            specs, ybars[start:stop], xbars[start:stop], mu_y, mu_x)
        used += np.count_nonzero(ok, axis=1)
        _exact_parts(deviations, deviation_sums)
        _exact_parts(squares, square_sums)
    last = squares, ok
    counts = [int(count) for count in used]
    bias = [_mean(parts, n) for parts, n in zip(deviation_sums, counts)]
    mse = [_mean(parts, n) for parts, n in zip(square_sums, counts)]

    column = np.array(mse)[:, np.newaxis]
    se_sums = [[] for _ in specs]
    for start, stop in chunks:
        squares, ok = last if stop == reps else _moment_block(
            specs, ybars[start:stop], xbars[start:stop], mu_y, mu_x)[1:]
        # float_power squares through libm pow, as the scalar ``** 2`` of a
        # numpy float does; ``** 2`` on the array and np.square multiply
        # instead and can round the last bit differently
        terms = np.zeros(squares.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.float_power(squares - column, 2.0, out=terms, where=ok)
        _exact_parts(terms, se_sums)
    # the SE of an MSE beyond the float range is beyond it too
    se_mse = [math.nan if count < 2 else math.inf if value == math.inf
              else math.sqrt(_mean(parts, count - 1) / count)
              for parts, count, value in zip(se_sums, counts, mse)]
    return [SimulationResult(estimator=spec, empirical_bias=bias[i],
                             empirical_mse=mse[i], mc_se_mse=se_mse[i],
                             replicates_used=counts[i],
                             replicates_skipped=reps - counts[i])
            for i, spec in enumerate(specs)]


def run_monte_carlo(config: SimulationConfig,
                    specs: Sequence[Estimator]) -> list[SimulationResult]:
    """Estimate bias and MSE for each spec over shared replicate draws.

    Every estimator sees the same replicate means, so cross-estimator
    comparisons are paired. The results carry empirical moments only, one
    per spec; ``cli.simulation_table`` sets the plan totals beside them.
    """
    ybars, xbars = _replicate_means(config)
    return _aggregate(specs, ybars, xbars, config.params.mu_y,
                      config.params.mu_x)
