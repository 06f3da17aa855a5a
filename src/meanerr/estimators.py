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
``Estimator(w1, w2)``. Each bracket carries its value, nan wherever it is
undefined, and its expansion coefficients, 1 - B d - A d^2 in
d = (xbar - mu_x)/mu_x, as ``linear`` (B) and ``quadratic`` (A).

Evaluation is exact (the defining expressions, not their expansions). The
kernel ``evaluate_at_means`` accepts scalars or numpy arrays so the Monte
Carlo engine can run it over a whole replicate batch at once; for one
sample, pass it the means of the ``(y, x)`` arrays ``draw_replicate`` (in
``simulate``) returns. Its value is nan where the estimator is undefined,
and it can leave the float range elsewhere: the engine skips a replicate
exactly where the value is not finite.

numpy is imported inside the functions that evaluate a bracket or build an
array, not at module load: the theory reads only the coefficients, and a
``theory`` or ``params`` run then never pays numpy's import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .moments import _finite, _shown

__all__ = [
    "EvaluationError",
    "Estimator",
    "ExpBracket",
    "PowerExpBracket",
    "evaluate_at_means",
]


class EvaluationError(ValueError):
    """Raised for non-finite estimator coefficients."""


def _check_finite(obj, names) -> None:
    """EvaluationError naming the first of ``names`` that is not finite."""
    for name in names:
        v = getattr(obj, name)
        if not _finite(v):
            raise EvaluationError(f"{type(obj).__name__}.{name} must be finite, "
                                  f"got {_shown(v)}")


@dataclass(frozen=True)
class ExpBracket:
    """exp((mu_x - xbar) / (mu_x + xbar)), which expands as
    1 - d/2 + (3/8) d^2: B = 1/2, A = -3/8."""

    linear = 0.5
    quadratic = -0.375

    def __call__(self, xbar, mu_x: float):
        """nan at the division singularity xbar + mu_x = 0."""
        import numpy as np
        total = mu_x + xbar
        return np.exp((mu_x - xbar) / np.where(total == 0.0, np.nan, total))


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
        _check_finite(self, ("alpha", "beta"))

    @property
    def linear(self) -> float:
        return self.alpha + self.beta / 2.0

    @property
    def quadratic(self) -> float:
        return (self.alpha * (self.alpha - 1.0)
                + self.beta * (self.beta - 2.0) / 8.0
                + self.alpha * self.beta / 2.0)

    def __call__(self, xbar, mu_x: float):
        """nan at xbar + mu_x = 0, everywhere when mu_x = 0, and, for a
        non-integral alpha, where the power base xbar / mu_x <= 0 (which
        would leave the real line)."""
        import numpy as np
        mu_x = mu_x or np.nan   # at mu_x = 0 every term below is nan
        base = xbar / mu_x
        if not float(self.alpha).is_integer():
            base = np.where(base > 0.0, base, np.nan)
        total = xbar + mu_x
        exponent = (self.beta * (xbar - mu_x)
                    / np.where(total == 0.0, np.nan, total))
        return 2.0 - np.power(base, self.alpha) * np.exp(exponent)


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
        _check_finite(self, ("mean_weight", "aux_weight"))


def evaluate_at_means(spec: Estimator, ybar, xbar, mu_x: float):
    """Estimator value as a function of the sample means.

    ``ybar`` and ``xbar`` may be floats or numpy arrays of equal shape.
    The value is nan where the bracket is undefined; it may also overflow.
    """
    head = spec.mean_weight * ybar + spec.aux_weight * (mu_x - xbar)
    if spec.bracket is None:
        return head
    return head * spec.bracket(xbar, mu_x)
