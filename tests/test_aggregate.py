"""The engine's aggregation: exact row sums, and one chunked pass over all
specs, against ``math.fsum`` and against the one-spec-at-a-time
aggregation it replaced (``conftest.reference_result``)."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.simulate import _CHUNK, _aggregate, _exact_parts

from conftest import reference_result

DOUBLE_MAX = 1.7976931348623157e308


def bits(value):
    """A float as its IEEE bytes, so that -0.0 and each NaN payload count."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def outcome(results):
    """Every field of every result."""
    return [[bits(getattr(result, field.name))
             for field in dataclasses.fields(result)]
            for result in results]


# Sizes around the chunk edges; scales from where the SE terms underflow
# to subnormals to where they overflow.
SIZES = (1, 2, 13, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
SCALES = (1e-150, 1e-50, 1.0, 1e50, 1e75, 1e150)
HALF_ROOT = PowerExpBracket(0.5, 0.0)    # skips where xbar <= 0
SPECS = (
    Estimator(),
    Estimator(bracket=ExpBracket()),
    Estimator(bracket=HALF_ROOT),
    Estimator(0.7, 0.3, HALF_ROOT),       # the same bracket object again
    Estimator(1.0, -0.4),
    Estimator(0.9, 0.1, PowerExpBracket(1.0, 1.0)),
    Estimator(bracket=PowerExpBracket(2.0, 0.5)),
)


def scaled_case(size, scale, seed):
    """Means at ``scale`` with xbar <= 0 about one time in eighty, and the
    specs in a seed-drawn order."""
    rng = np.random.default_rng(seed)
    ybars = scale * (1.0 + 0.3 * rng.standard_normal(size))
    xbars = scale * (1.0 + 0.45 * rng.standard_normal(size))
    specs = [SPECS[i] for i in rng.permutation(len(SPECS))]
    return specs, ybars, xbars, scale, scale


def ordered_case(size, skipped_first, seed):
    """Every xbar <= 0, so the fractional power skips every replicate (nan
    moments), beside a mean per unit whose squares overflow (inf MSE), in
    either order: neither stops the other's result."""
    rng = np.random.default_rng(seed)
    ybars = 1e200 * (1.0 + 0.3 * rng.standard_normal(size))
    xbars = -rng.uniform(0.5, 2.0, size)
    specs = [Estimator(bracket=HALF_ROOT), Estimator()]
    if not skipped_first:
        specs.reverse()
    return [Estimator(0.0, 1.0), *specs], ybars, xbars, 0.0, 1.0


def huge_case(size, scale, seed):
    """Study means of both signs near ``scale``, where the sums of the
    squares (1.3e154) or of the deviations themselves (1.7e308) leave the
    float range while their means do not."""
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size)
    ybars = scale * signs * rng.uniform(0.9, 1.0, size)
    xbars = 1.0 + 0.01 * rng.standard_normal(size)
    return [Estimator(), Estimator(1.0, -0.4)], ybars, xbars, 0.0, 1.0


CASES = (
    [pytest.param(scaled_case, size, scale, id=f"{size}-{scale:g}")
     for size in SIZES for scale in SCALES]
    + [pytest.param(ordered_case, size, first,
                    id=f"{size}-{'skip' if first else 'overflow'}-first")
       for size in (1, 2, _CHUNK + 1) for first in (True, False)]
    + [pytest.param(huge_case, size, scale, id=f"{size}-huge-{scale:g}")
       for size in (2, 13, _CHUNK + 1) for scale in (1.3e154, 1.7e308)])


@pytest.mark.parametrize("make,size,arg", CASES)
def test_matches_one_spec_at_a_time(make, size, arg):
    specs, ybars, xbars, mu_y, mu_x = make(size, arg, seed=size)
    expected = outcome([reference_result(spec, ybars, xbars, mu_y, mu_x)
                        for spec in specs])
    assert outcome(_aggregate(specs, ybars, xbars, mu_y, mu_x)) == expected


def fsum_outcome(values):
    try:
        return bits(math.fsum(values))
    except (OverflowError, ValueError) as error:
        return type(error), str(error)


def _signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(
        lambda pair: pair[0] * pair[1])


def _fill(values, width):
    """``values`` cut or padded with zeros to ``width``."""
    return (list(values) + [0.0] * width)[:width]


def _mixed(width):
    mantissa = st.floats(1.0, 9.999)
    exponent = st.integers(-300, 300)
    value = st.tuples(mantissa, exponent).map(lambda p: p[0] * 10.0 ** p[1])
    return st.lists(_signed(value), min_size=width, max_size=width)


def _cancelling(width):
    pair = st.floats(1.0, 1.7).map(lambda m: m * 1e300)
    tail = _signed(st.floats(1.0, 9.0).map(lambda m: m * 1e-300))
    pairs = (width - 1) // 2
    return st.tuples(st.lists(pair, min_size=pairs, max_size=pairs),
                     tail).map(
        lambda p: _fill([v for m in p[0] for v in (m, -m)] + [p[1]], width)
    ).flatmap(st.permutations)


def _half_ulp_ties(width):
    base = _signed(st.floats(1e-300, 1e300))
    tail = st.integers(1, 60)
    return st.tuples(base, st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                                              tail), max_size=width)).map(
        lambda p: _fill([p[0], math.ulp(p[0]) / 2]
                        + [sign * math.ldexp(math.ulp(p[0]), -k)
                           for sign, k in p[1]], width)
    ).flatmap(st.permutations)


def _subnormals(width):
    steps = st.integers(-2**52, 2**52)
    return st.lists(steps.map(lambda k: k * 5e-324), min_size=width,
                    max_size=width)


def _zeros(width):
    return st.lists(st.sampled_from((0.0, -0.0)), min_size=width,
                    max_size=width)


def _near_max(width):
    return st.lists(_signed(st.floats(1e308, DOUBLE_MAX)), min_size=width,
                    max_size=width)


def _any_finite(width):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=width, max_size=width)


FAMILIES = (_mixed, _cancelling, _half_ulp_ties, _subnormals, _zeros,
            _near_max, _any_finite)


@st.composite
def blocks(draw):
    """A block of rows of one width, each row from one family."""
    width = draw(st.integers(1, 24))
    rows = draw(st.lists(st.one_of([family(width) for family in FAMILIES]),
                         min_size=1, max_size=6))
    return np.array(rows, dtype=float)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(blocks())
@example(np.array([[1.7e308, 1.7e308, -1.7e308]]))     # intermediate overflow
@example(np.array([[DOUBLE_MAX, DOUBLE_MAX, 0.0], [1.0, 2.0**-60, -1.0]]))
@example(np.array([[math.inf, -math.inf, 1.0], [math.inf, 1.0, 2.0]]))
@example(np.array([[-0.0], [0.0]]))
def test_row_sums_equal_fsum(block):
    parts = [[] for _ in block]
    _exact_parts(block, parts)
    assert ([fsum_outcome(row_parts) for row_parts in parts]
            == [fsum_outcome(list(row)) for row in block])
