"""Finite-population mean estimation under additive measurement errors.

A small research library around one estimation problem: estimating a
population mean from a simple random sample when both the study variable and
an auxiliary variable are observed with independent additive errors. It
provides the estimator family, first-order bias and MSE formulas with the
measurement-error contribution split out, optimal coefficients, percent
relative efficiencies, and a reproducible Monte Carlo engine that verifies
the theory.

The package namespace carries the names of a typical session; everything
else lives in the submodules ``moments``, ``estimators``, ``theory``,
``simulate``, ``ingest`` and ``cli``.
"""

from .estimators import Estimator, PowerExpBracket
from .ingest import preset
from .simulate import SimulationConfig, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Estimator",
    "PowerExpBracket",
    "SimulationConfig",
    "preset",
    "run_monte_carlo",
    "__version__",
]
