"""The estimator family for a population mean with an auxiliary variable.

Five estimators, all functions of the observed sample means (ybar, xbar) and
the known auxiliary mean mu_x:

* ``MeanPerUnit``             ybar
* ``ExpRatio``                ybar * exp((mu_x - xbar) / (mu_x + xbar))
* ``WeightedDifference``      w1 * ybar + w2 * (mu_x - xbar)
* ``PowerExpRatio``           ybar * (2 - (xbar/mu_x)^alpha
                                        * exp(beta * (xbar - mu_x) / (xbar + mu_x)))
* ``WeightedPowerExpRatio``   (w1 * ybar + w2 * (mu_x - xbar)) * same bracket

Evaluation is exact (the defining expressions, not their expansions). The
kernel ``evaluate_at_means`` accepts scalars or numpy arrays so the Monte
Carlo engine can run it over a whole replicate batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "EvaluationError",
    "ObservedSample",
    "MeanPerUnit",
    "ExpRatio",
    "WeightedDifference",
    "PowerExpRatio",
    "WeightedPowerExpRatio",
    "EstimatorSpec",
    "evaluate",
    "evaluate_at_means",
    "hazard_free",
]


class EvaluationError(ValueError):
    """Raised for malformed samples and estimator domain hazards."""


NON_FINITE_SAMPLE = "sample values must be finite"


@dataclass(frozen=True)
class ObservedSample:
    """One simple random sample of observed (study, auxiliary) pairs."""

    y: np.ndarray   # observed study values
    x: np.ndarray   # observed auxiliary values

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        x = np.asarray(self.x, dtype=np.float64)
        if y.ndim != 1 or x.ndim != 1:
            raise EvaluationError("sample columns must be one-dimensional")
        if y.size == 0:
            raise EvaluationError("sample must be non-empty")
        if y.size != x.size:
            raise EvaluationError(
                f"column lengths differ: {y.size} study vs {x.size} auxiliary")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise EvaluationError(NON_FINITE_SAMPLE)
        y = y.copy()
        x = x.copy()
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_pairs(cls, pairs) -> "ObservedSample":
        arr = np.asarray(list(pairs), dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise EvaluationError("pairs must be a sequence of (y, x) tuples")
        return cls(y=arr[:, 0], x=arr[:, 1])

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.y.tolist(), self.x.tolist()))

    def __len__(self) -> int:
        return int(self.y.size)


def _check_finite_coeffs(obj, names) -> None:
    for name in names:
        v = getattr(obj, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise EvaluationError(f"{type(obj).__name__}.{name} must be finite, "
                                  f"got {v!r}")


@dataclass(frozen=True)
class MeanPerUnit:
    """The plain sample mean of the observed study values."""


@dataclass(frozen=True)
class ExpRatio:
    """Exponential ratio adjustment pulling ybar toward the known mu_x."""


@dataclass(frozen=True)
class WeightedDifference:
    """Linear combination of ybar and the auxiliary deviation (mu_x - xbar)."""

    mean_weight: float   # weight on ybar
    aux_weight: float    # weight on (mu_x - xbar)

    def __post_init__(self) -> None:
        _check_finite_coeffs(self, ("mean_weight", "aux_weight"))


@dataclass(frozen=True)
class PowerExpRatio:
    """Two-parameter corrected mean ybar * (2 - g) with
    g = (xbar/mu_x)^alpha * exp(beta * (xbar - mu_x) / (xbar + mu_x))."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_finite_coeffs(self, ("alpha", "beta"))


@dataclass(frozen=True)
class WeightedPowerExpRatio:
    """Weighted difference combined with the power-exp correction bracket.

    Reduces to ``WeightedDifference`` at alpha = beta = 0 and to
    ``PowerExpRatio`` at mean_weight = 1, aux_weight = 0.
    """

    mean_weight: float
    aux_weight: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_finite_coeffs(self, ("mean_weight", "aux_weight", "alpha", "beta"))


EstimatorSpec = Union[MeanPerUnit, ExpRatio, WeightedDifference,
                      PowerExpRatio, WeightedPowerExpRatio]


def _is_integral(value: float) -> bool:
    return math.isfinite(value) and float(value).is_integer()


def _correction_bracket(xbar, mu_x: float, alpha: float, beta: float):
    """(2 - (xbar/mu_x)^alpha * exp(beta (xbar - mu_x)/(xbar + mu_x))),
    computed blindly; hazard screening happens in the callers."""
    base = xbar / mu_x
    power = np.power(base, alpha)
    return 2.0 - power * np.exp(beta * (xbar - mu_x) / (xbar + mu_x))


def evaluate_at_means(spec: EstimatorSpec, ybar, xbar, mu_x: float):
    """Estimator value as a function of the sample means.

    ``ybar`` and ``xbar`` may be floats or numpy arrays of equal shape. No
    hazard screening is performed here; sites feeding arrays are expected to
    combine this with ``hazard_free`` and a finiteness check, which is what
    the simulation engine does. Scalar users normally want ``evaluate``.
    """
    if isinstance(spec, MeanPerUnit):
        return ybar
    if isinstance(spec, ExpRatio):
        return ybar * np.exp((mu_x - xbar) / (mu_x + xbar))
    if isinstance(spec, WeightedDifference):
        return spec.mean_weight * ybar + spec.aux_weight * (mu_x - xbar)
    if isinstance(spec, PowerExpRatio):
        return ybar * _correction_bracket(xbar, mu_x, spec.alpha, spec.beta)
    if isinstance(spec, WeightedPowerExpRatio):
        head = spec.mean_weight * ybar + spec.aux_weight * (mu_x - xbar)
        return head * _correction_bracket(xbar, mu_x, spec.alpha, spec.beta)
    raise TypeError(f"unknown estimator spec: {spec!r}")


def hazard_free(spec: EstimatorSpec, xbar, mu_x: float):
    """True where evaluating ``spec`` at ``xbar`` is free of domain hazards.

    Hazards are the exact division singularity xbar + mu_x = 0 and, for the
    power-bracket family with non-integral alpha, a non-positive power base
    xbar / mu_x <= 0 (which would leave the real line). Works elementwise on
    arrays. Overflow to non-finite values is screened separately by callers.
    """
    if isinstance(spec, (MeanPerUnit, WeightedDifference)):
        return np.ones(np.shape(xbar), dtype=bool) if np.ndim(xbar) else True
    if isinstance(spec, ExpRatio):
        return np.not_equal(xbar + mu_x, 0.0)
    if isinstance(spec, (PowerExpRatio, WeightedPowerExpRatio)):
        ok = np.not_equal(xbar + mu_x, 0.0)
        if mu_x == 0:
            return np.zeros(np.shape(xbar), dtype=bool) if np.ndim(xbar) else False
        if not _is_integral(spec.alpha):
            ok = ok & np.greater(np.asarray(xbar) / mu_x, 0.0)
        return ok
    raise TypeError(f"unknown estimator spec: {spec!r}")


def evaluate(spec: EstimatorSpec, sample: ObservedSample, mu_x: float) -> float:
    """Evaluate one estimator on one sample, raising on domain hazards.

    Raises
    ------
    EvaluationError
        If xbar + mu_x = 0, if a non-integral power would be applied to a
        non-positive base, or if the result is not finite.
    """
    if not math.isfinite(mu_x):
        raise EvaluationError(f"mu_x must be finite, got {mu_x!r}")
    ybar = float(sample.y.mean())
    xbar = float(sample.x.mean())
    if not bool(hazard_free(spec, xbar, mu_x)):
        raise EvaluationError(
            f"domain hazard for {type(spec).__name__} at xbar={xbar!r}, "
            f"mu_x={mu_x!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(evaluate_at_means(spec, ybar, xbar, mu_x))
    if not math.isfinite(value):
        raise EvaluationError(
            f"{type(spec).__name__} evaluated to a non-finite value at "
            f"ybar={ybar!r}, xbar={xbar!r}")
    return value

