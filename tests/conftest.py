"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import strategies as st

from meanerr.ingest import DatasetError
from meanerr.moments import MomentSet, PopulationParams, derive_moments


@pytest.fixture
def table_params() -> PopulationParams:
    """The benchmark parameter set used throughout the numeric tests.

    n=10, mu_y=127, mu_x=170, sigma_y2=1278, sigma_x2=3300, rho=0.964,
    error variances 36 on both sides.
    """
    return PopulationParams(
        n=10, mu_y=127.0, mu_x=170.0, sigma_y2=1278.0, sigma_x2=3300.0,
        rho=0.964, sigma_u2=36.0, sigma_v2=36.0,
    )


def moment_pair(params: PopulationParams) -> tuple[MomentSet, MomentSet]:
    """The moments of ``params`` with and without the error variances, the
    pair the theory breakdowns take."""
    return derive_moments(params), derive_moments(params, error_free=True)


def params_from_dict(mapping) -> PopulationParams:
    """Build PopulationParams from a plain mapping (e.g. parsed JSON).

    Keys must match the field names exactly; missing or extra keys are
    errors, so a typo cannot silently fall back to a default.
    """
    expected = {f.name for f in dataclasses.fields(PopulationParams)}
    got = set(mapping)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise DatasetError("parameter document: " + ", ".join(detail))
    return PopulationParams(**{k: mapping[k] for k in expected})


def _finite(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


@st.composite
def population_params(draw, min_n: int = 2, max_n: int = 500) -> PopulationParams:
    """Valid parameter sets over a numerically tame range.

    Means are bounded away from zero and variances span four orders of
    magnitude, enough to exercise the algebra without drifting into float
    pathology that would make 1e-9 relative comparisons meaningless.
    """
    sign_y = draw(st.sampled_from([-1.0, 1.0]))
    sign_x = draw(st.sampled_from([-1.0, 1.0]))
    return PopulationParams(
        n=draw(st.integers(min_value=min_n, max_value=max_n)),
        mu_y=sign_y * draw(_finite(0.5, 1e3)),
        mu_x=sign_x * draw(_finite(0.5, 1e3)),
        sigma_y2=draw(_finite(1e-2, 1e4)),
        sigma_x2=draw(_finite(1e-2, 1e4)),
        rho=draw(_finite(-1.0, 1.0)),
        sigma_u2=draw(_finite(0.0, 1e4)),
        sigma_v2=draw(_finite(0.0, 1e4)),
    )
