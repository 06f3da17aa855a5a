"""Monte Carlo engine verifying the first-order theory.

Each replicate draws a fresh bivariate-normal truth sample, contaminates it
with independent mean-zero errors, and evaluates every requested estimator
on the observed means. Replicate i draws from its own counter-based Philox
substream: key = seed, with i in the high counter words (``_substream``).

The engine makes one generator per run and resets it to the start of each
replicate's substream; Philox output depends only on (key, counter), so the
variates are exactly those of a fresh substream. Replicates are drawn in
blocks of ``_BLOCK`` rows, and the observed values and their means are
computed over the whole block in the per-replicate operation order, so the
means equal those of drawing one replicate at a time (``draw_replicate`` is
a one-row call of the same kernel) bit for bit. All aggregation uses exact
summation, so results are bit-identical for any order of the replicates.

Replicates where an estimator lands in its domain hazard (or overflows) are
excluded from that estimator's averages and surfaced through
``replicates_skipped``; for every benchmark scenario the hazard region is
tens of standard deviations away and the counter stays at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .estimators import (
    NON_FINITE_SAMPLE,
    Estimator,
    EvaluationError,
    ObservedSample,
    evaluate_at_means,
    hazard_free,
)
from .moments import PopulationParams
from .theory import theory_mse

__all__ = [
    "ConfigError",
    "AllReplicatesSkippedError",
    "ErrorLaw",
    "SimulationConfig",
    "SimulationResult",
    "draw_replicate",
    "run_monte_carlo",
]

_MAX_SEED = 2**64
# Replicates drawn per block. A block holds 4n doubles per replicate, and
# its temporaries as much again: at n = 200, peak memory rose 0.5 MiB at 64
# and 3.6 MiB at 256 over 32, with no speed-up beyond run-to-run noise.
_BLOCK = 32


class ConfigError(ValueError):
    """Raised for invalid simulation configuration."""


class AllReplicatesSkippedError(RuntimeError):
    """Raised when every replicate hit an estimator's domain hazard."""


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
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


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
        _check_int(self.replicates, "replicates", 100)
        _check_int(self.seed, "seed", 0)
        if self.seed >= _MAX_SEED:
            raise ConfigError(f"seed must be below 2**64, got {self.seed}")
        if not isinstance(self.error_law, ErrorLaw):
            raise ConfigError(f"error_law must be an ErrorLaw, got {self.error_law!r}")
        if self.error_law is ErrorLaw.STUDENT_T:
            df = self.error_df
            if not (isinstance(df, (int, float)) and not isinstance(df, bool)
                    and math.isfinite(df) and df > 4):
                raise ConfigError(
                    f"error_df must be a finite number > 4 for the Student-t "
                    f"law, got {df!r}")
        elif self.error_df is not None:
            raise ConfigError(
                f"error_df only applies to the Student-t law, got "
                f"{self.error_df!r} with {self.error_law.value}")


@dataclass(frozen=True)
class SimulationResult:
    """Empirical moments of one estimator across the used replicates."""

    estimator: Estimator
    empirical_bias: float
    empirical_mse: float
    mc_se_mse: float
    replicates_used: int
    replicates_skipped: int
    theory_mse: float

    @property
    def mc_se_bias(self) -> float:
        """Monte Carlo standard error of the bias estimate.

        Recovered from the stored moments: the replicate variance of the
        estimator is mse - bias^2 up to the ddof correction.
        """
        used = self.replicates_used
        if used < 2:
            return math.nan
        var = (self.empirical_mse - self.empirical_bias**2) * used / (used - 1)
        return math.sqrt(max(var, 0.0) / used)


def _substream(seed: int, replicate_index: int) -> np.random.Generator:
    # counter-based substream: the replicate index occupies the high counter
    # words, leaving 2**128 draws of headroom inside each replicate
    return np.random.Generator(
        np.random.Philox(key=seed, counter=replicate_index << 128))


def _standardized_errors(rng: np.random.Generator, config: SimulationConfig,
                         size: int) -> np.ndarray:
    if config.error_law is ErrorLaw.GAUSSIAN:
        return rng.standard_normal(size)
    if config.error_law is ErrorLaw.UNIFORM:
        bound = math.sqrt(3.0)
        return rng.uniform(-bound, bound, size)
    df = float(config.error_df)
    return rng.standard_t(df, size) * math.sqrt((df - 2.0) / df)


def _seek_substream(bit_generator: np.random.Philox, seed: int,
                    replicate_index: int) -> None:
    """Reset ``bit_generator`` to the state ``_substream(seed,
    replicate_index)`` starts from: key = seed, counter = index << 128, and
    an empty output buffer. Philox is counter-based, so the variates that
    follow are exactly those of the fresh substream."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, replicate_index, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _observed_block(config: SimulationConfig, rng: np.random.Generator,
                    start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed (y, x) of replicates ``start`` to ``stop - 1``, one row each.

    Each row is drawn from its replicate's substream (``rng`` is reset
    there first): 2n standard normals for the truth pair, then 2n error-law
    variates, study block first. The arithmetic then runs over the whole
    block in the per-replicate operation order, so every value equals the
    one a single-replicate draw gives.
    """
    p = config.params
    n = p.n
    block = np.empty((stop - start, 4 * n))
    for row, index in zip(block, range(start, stop)):
        _seek_substream(rng.bit_generator, config.seed, index)
        rng.standard_normal(out=row[:2 * n])
        row[2 * n:] = _standardized_errors(rng, config, 2 * n)

    z1, z2 = block[:, :n], block[:, n:2 * n]
    y = p.mu_y + math.sqrt(p.sigma_y2) * z1
    x = p.mu_x + math.sqrt(p.sigma_x2) * (
        p.rho * z1 + math.sqrt(1.0 - p.rho * p.rho) * z2)
    y += math.sqrt(p.sigma_u2) * block[:, 2 * n:3 * n]
    x += math.sqrt(p.sigma_v2) * block[:, 3 * n:]
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise EvaluationError(NON_FINITE_SAMPLE)
    return y, x


def draw_replicate(config: SimulationConfig, replicate_index: int) -> ObservedSample:
    """Generate one observed sample, deterministically in (seed, index).

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
            f"replicate_index must be below 2**64, got {replicate_index}")
    y, x = _observed_block(config, _substream(config.seed, replicate_index),
                           replicate_index, replicate_index + 1)
    return ObservedSample(y=y[0], x=x[0])


def _replicate_means(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    reps = config.replicates
    ybars = np.empty(reps)
    xbars = np.empty(reps)
    # one generator for the run; _observed_block seeks it per replicate
    rng = _substream(config.seed, 0)
    for start in range(0, reps, _BLOCK):
        stop = min(start + _BLOCK, reps)
        y, x = _observed_block(config, rng, start, stop)
        ybars[start:stop] = y.mean(axis=1)
        xbars[start:stop] = x.mean(axis=1)
    return ybars, xbars


def _aggregate_spec(spec: Estimator, ybars: np.ndarray, xbars: np.ndarray,
                    mu_y: float, mu_x: float, theory: float) -> SimulationResult:
    reps = ybars.size
    mask = hazard_free(spec, xbars, mu_x)
    values = np.full(reps, np.nan)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values[mask] = evaluate_at_means(spec, ybars[mask], xbars[mask], mu_x)
    ok = np.isfinite(values)
    used = int(np.count_nonzero(ok))
    if used == 0:
        raise AllReplicatesSkippedError(
            f"all {reps} replicates hit the domain hazard of {spec!r}")

    deviations = values[ok] - mu_y
    squares = deviations * deviations
    # math.fsum is exactly rounded, hence independent of summation order
    bias = math.fsum(deviations.tolist()) / used
    mse = math.fsum(squares.tolist()) / used
    if used >= 2:
        # float_power squares through libm pow, as the scalar ``** 2`` of a
        # numpy float does; ``** 2`` on the array and np.square multiply
        # instead and can round the last bit differently
        sq_var = math.fsum(
            np.float_power(squares - mse, 2.0).tolist()) / (used - 1)
        se_mse = math.sqrt(sq_var / used)
    else:
        se_mse = math.nan
    return SimulationResult(
        estimator=spec,
        empirical_bias=bias,
        empirical_mse=mse,
        mc_se_mse=se_mse,
        replicates_used=used,
        replicates_skipped=reps - used,
        theory_mse=theory,
    )


def run_monte_carlo(config: SimulationConfig,
                    specs: Sequence[Estimator]) -> list[SimulationResult]:
    """Estimate bias and MSE for each spec over shared replicate draws.

    Every estimator sees the same replicate means, so cross-estimator
    comparisons are paired. ``theory_mse`` on each result is the first-order
    prediction for ``config.params``.
    """
    specs = list(specs)
    theories = [theory_mse(spec, config.params) for spec in specs]
    ybars, xbars = _replicate_means(config)
    return [
        _aggregate_spec(spec, ybars, xbars, config.params.mu_y,
                        config.params.mu_x, theory)
        for spec, theory in zip(specs, theories)
    ]

