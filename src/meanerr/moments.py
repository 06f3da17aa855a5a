"""Population parameters and first-order moments of the observed sample means.

The observation model is additive: each study value and each auxiliary value is
recorded with an independent zero-mean error, so the observed means carry both
the finite-population variability and the error variability. Everything
downstream (bias, MSE, optimal coefficients) is a function of the first-order
moments computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ParameterError",
    "PopulationParams",
    "MomentSet",
    "derive_moments",
]


class ParameterError(ValueError):
    """Raised when population parameters violate their domain constraints."""


def _finite(value) -> bool:
    """An int or float whose float value is finite: the one definition of a
    finite coefficient or parameter. Each caller decides on bool."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _shown(value) -> str:
    """``repr(value)``, but an int past the float range by name alone: its
    repr can exceed Python's int-to-string digit limit."""
    return ("an int past the float range"
            if isinstance(value, int) and not _finite(value) else repr(value))


def _digits(value: int) -> str:
    """``str(value)``, but an int past Python's int-to-string digit limit,
    where ``str()`` raises ValueError, by name alone."""
    try:
        return str(value)
    except ValueError:
        return "an int past Python's digit limit"


@dataclass(frozen=True)
class PopulationParams:
    """Superpopulation and error-law parameters for a sample of size n.

    Variances are of the true values; ``sigma_u2`` and ``sigma_v2`` are the
    variances of the additive observation errors on the study and auxiliary
    variables respectively. Setting both error variances to zero recovers the
    error-free sampling setup.
    """

    n: int             # sample size, at least 2
    mu_y: float        # mean of the true study variable, nonzero
    mu_x: float        # mean of the true auxiliary variable, nonzero
    sigma_y2: float    # variance of the true study variable, positive
    sigma_x2: float    # variance of the true auxiliary variable, positive
    rho: float         # correlation between the true variables, in [-1, 1]
    sigma_u2: float    # study-side error variance, nonnegative
    sigma_v2: float    # auxiliary-side error variance, nonnegative

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ParameterError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ParameterError(
                f"n must be at least 2, got {_digits(self.n)}")
        values = (self.mu_y, self.mu_x, self.sigma_y2, self.sigma_x2,
                  self.rho, self.sigma_u2, self.sigma_v2)
        if not all(map(_finite, values)):
            raise ParameterError("all parameters must be finite")
        if self.mu_y == 0 or self.mu_x == 0:
            raise ParameterError("mu_y and mu_x must be nonzero")
        if self.sigma_y2 <= 0 or self.sigma_x2 <= 0:
            raise ParameterError("true-value variances must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.sigma_u2 < 0 or self.sigma_v2 < 0:
            raise ParameterError("error variances must be nonnegative")


class MomentSet(NamedTuple):
    """First-order moments of the observed means for one parameter set.

    ``var_ybar`` and ``var_xbar`` are the variances of the observed study and
    auxiliary means, each the sum of the true-value variance and the error
    variance over n. ``cov_yxbar`` is their covariance; the errors are
    independent of everything, so only the true values contribute to it.
    """

    var_ybar: float    # (sigma_y2 + sigma_u2) / n
    var_xbar: float    # (sigma_x2 + sigma_v2) / n
    cov_yxbar: float   # rho * sigma_y * sigma_x / n
    ratio: float       # mu_y / mu_x


def derive_moments(params: PopulationParams, *,
                   error_free: bool = False) -> MomentSet:
    """Compute the first-order moment set for ``params``.

    With ``error_free`` both error variances count as zero, which gives the
    moments of the error-free sampling setup. The covariance of the observed
    means never involves the error variances (errors are mutually
    independent and independent of the true values), so it is the same
    either way.
    """
    n = params.n
    sigma_u2, sigma_v2 = ((0.0, 0.0) if error_free
                          else (params.sigma_u2, params.sigma_v2))
    sigma_y = math.sqrt(params.sigma_y2)
    sigma_x = math.sqrt(params.sigma_x2)
    return MomentSet(
        var_ybar=(params.sigma_y2 + sigma_u2) / n,
        var_xbar=(params.sigma_x2 + sigma_v2) / n,
        cov_yxbar=params.rho * sigma_y * sigma_x / n,
        ratio=params.mu_y / params.mu_x,
    )
