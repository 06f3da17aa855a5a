"""The estimator family for a population mean with an auxiliary variable.

Every estimator is a function of the observed sample means (ybar, xbar) and
the known auxiliary mean mu_x of one form,

    (w1 * ybar + w2 * (mu_x - xbar)) * g(xbar),

an ``Estimator(mean_weight=w1, aux_weight=w2, bracket=g)``. The bracket g is
one of

* ``None``                          g = 1
* ``ExpBracket()``                  g = exp((mu_x - xbar) / (mu_x + xbar))
* ``PowerExpBracket(alpha, beta)``  g = 2 - (xbar/mu_x)^alpha
                                        * exp(beta (xbar - mu_x)/(xbar + mu_x))

so the mean per unit is ``Estimator()``, the exponential ratio estimator
``Estimator(bracket=ExpBracket())`` and the weighted difference
``Estimator(w1, w2)``. Each bracket carries its value, its domain hazards
and its expansion coefficients, 1 - B d - A d^2 in d = (xbar - mu_x)/mu_x,
as ``linear`` (B) and ``quadratic`` (A).

Evaluation is exact (the defining expressions, not their expansions). The
kernel ``evaluate_at_means`` accepts scalars or numpy arrays so the Monte
Carlo engine can run it over a whole replicate batch at once; for one
sample, pass it the means of the ``(y, x)`` arrays ``draw_replicate`` (in
``simulate``) returns, and ``hazard_free`` says where the value is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "EvaluationError",
    "Estimator",
    "ExpBracket",
    "PowerExpBracket",
    "evaluate_at_means",
    "hazard_free",
]


class EvaluationError(ValueError):
    """Raised for non-finite estimator coefficients and samples."""


# A coefficient must be a finite instance of one of these.
_REAL = (int, float)


def _finite_pair(a, b) -> bool:
    """Whether both coefficients are finite ints or floats."""
    return (isinstance(a, _REAL) and isinstance(b, _REAL)
            and math.isfinite(a) and math.isfinite(b))


def _check_finite_coeffs(obj, names) -> None:
    """EvaluationError naming the first of ``names`` that is not finite;
    the constructors call it only when ``_finite_pair`` fails."""
    for name in names:
        v = getattr(obj, name)
        if not (isinstance(v, _REAL) and math.isfinite(v)):
            raise EvaluationError(f"{type(obj).__name__}.{name} must be finite, "
                                  f"got {v!r}")


def _everywhere(xbar, value: bool):
    """``value`` in the shape of ``xbar``: an array, or a scalar."""
    return np.full(np.shape(xbar), value) if np.ndim(xbar) else value


@dataclass(frozen=True)
class ExpBracket:
    """exp((mu_x - xbar) / (mu_x + xbar)), which expands as
    1 - d/2 + (3/8) d^2: B = 1/2, A = -3/8."""

    linear = 0.5
    quadratic = -0.375

    def __call__(self, xbar, mu_x: float):
        return np.exp((mu_x - xbar) / (mu_x + xbar))

    def hazard_free(self, xbar, mu_x: float):
        """False at the division singularity xbar + mu_x = 0."""
        return np.not_equal(xbar + mu_x, 0.0)


@dataclass(frozen=True)
class PowerExpBracket:
    """2 - (xbar/mu_x)^alpha * exp(beta * (xbar - mu_x) / (xbar + mu_x)).

    Its expansion coefficients follow the shipped convention (see
    ``meanerr.theory``): B = alpha + beta/2 and
    A = alpha (alpha - 1) + beta (beta - 2)/8 + alpha beta / 2.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not _finite_pair(self.alpha, self.beta):
            _check_finite_coeffs(self, ("alpha", "beta"))

    @property
    def linear(self) -> float:
        return self.alpha + self.beta / 2.0

    @property
    def quadratic(self) -> float:
        return (self.alpha * (self.alpha - 1.0)
                + self.beta * (self.beta - 2.0) / 8.0
                + self.alpha * self.beta / 2.0)

    def __call__(self, xbar, mu_x: float):
        power = np.power(xbar / mu_x, self.alpha)
        return 2.0 - power * np.exp(self.beta * (xbar - mu_x) / (xbar + mu_x))

    def hazard_free(self, xbar, mu_x: float):
        """False at xbar + mu_x = 0, everywhere when mu_x = 0, and, for a
        non-integral alpha, where the power base xbar / mu_x <= 0 (which
        would leave the real line)."""
        if mu_x == 0:
            return _everywhere(xbar, False)
        ok = np.not_equal(xbar + mu_x, 0.0)
        if not float(self.alpha).is_integer():
            ok = ok & np.greater(np.asarray(xbar) / mu_x, 0.0)
        return ok


Bracket = Union[ExpBracket, PowerExpBracket]


@dataclass(frozen=True)
class Estimator:
    """(mean_weight * ybar + aux_weight * (mu_x - xbar)) * bracket(xbar).

    The defaults are the mean per unit: weights (1, 0) and no bracket.
    """

    mean_weight: float = 1.0   # weight on ybar
    aux_weight: float = 0.0    # weight on (mu_x - xbar)
    bracket: Optional[Bracket] = None

    def __post_init__(self) -> None:
        if not _finite_pair(self.mean_weight, self.aux_weight):
            _check_finite_coeffs(self, ("mean_weight", "aux_weight"))


def evaluate_at_means(spec: Estimator, ybar, xbar, mu_x: float):
    """Estimator value as a function of the sample means.

    ``ybar`` and ``xbar`` may be floats or numpy arrays of equal shape. No
    hazard screening is performed here; sites feeding arrays are expected to
    combine this with ``hazard_free`` and a finiteness check, which is what
    the simulation engine does.
    """
    head = spec.mean_weight * ybar + spec.aux_weight * (mu_x - xbar)
    if spec.bracket is None:
        return head
    return head * spec.bracket(xbar, mu_x)


def hazard_free(spec: Estimator, xbar, mu_x: float):
    """True where evaluating ``spec`` at ``xbar`` is free of domain hazards.

    Without a bracket there are none; otherwise the bracket's own rule
    applies. Works elementwise on arrays. Overflow to non-finite values is
    screened separately by callers.
    """
    if spec.bracket is None:
        return _everywhere(xbar, True)
    return spec.bracket.hazard_free(xbar, mu_x)
