"""The vectorized float formatter against ``repr``, its oracle.

``_floatfmt.shortest`` must write ``repr(v).encode()`` for every double into
its row of the caller's table, followed only by NULs; the values its numpy
pass cannot settle exactly are flagged and formatted by ``repr`` itself.
The properties draw doubles the usual way, as raw bit patterns, and across
the pass's range; the fixed cases are the ones a drawn value rarely hits.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsec._floatfmt import _E_MAX, _E_MIN, _GATHER, _WIDTH, shortest
from platoonsec.config import load_scenario
from platoonsec.engine import run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def oracle(values) -> list[bytes]:
    return [repr(v).encode() for v in np.asarray(values, np.float64).tolist()]


def formatted(values) -> tuple[list[bytes], np.ndarray]:
    """Each value's row of ``shortest``'s table, NULs stripped, and the
    fallback mask."""
    values = np.asarray(values, np.float64)
    out = np.zeros((values.size, _WIDTH), np.uint8)
    fallback = shortest(values, out)
    return [bytes(row).rstrip(b"\0") for row in out], fallback


def check(values):
    assert formatted(values)[0] == oracle(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=64))
def test_matches_repr_on_drawn_floats(values):
    check(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_matches_repr_on_bit_patterns(bits):
    check(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(_E_MIN, _E_MAX), st.integers(0, 2**52 - 1),
                          st.booleans()), max_size=64))
def test_matches_repr_across_the_pass_range(parts):
    """Significands drawn whole at every exponent the pass formats, so the
    values go through the numpy pass rather than the fallback."""
    values = np.array([(-1.0 if neg else 1.0) * np.ldexp(1.0 + m / 2.0**52, e - 1)
                       for e, m, neg in parts])
    check(values)


def test_matches_repr_on_many_values():
    """A few hundred thousand values of the kinds a trace holds: log-uniform
    magnitudes of either sign, 3-decimal values, multiples of 0.01,
    integers and powers of two."""
    rng = np.random.default_rng(7)
    n = 100_000
    check(np.exp(rng.uniform(-95, 95, n)) * rng.choice([-1.0, 1.0], n))
    check(np.round(rng.uniform(-1000, 1000, n), 3))
    check(np.arange(n) * 0.01)
    check(rng.integers(-10**17, 10**17, n).astype(np.float64))
    check(np.ldexp(1.0, np.arange(-1074, 1024)))


@pytest.mark.parametrize("size", [0, 1, 256 * 17])  # 256 rows of 17 floats at 4 vehicles
def test_sizes_up_to_a_block(size):
    check(np.exp(np.random.default_rng(size).uniform(-40, 40, size)))


# The formatter once gathered its layout in slices of 256 values, and now
# gathers it in chunks of _GATHER values: sizes about either width guard
# against a slicing that drops or repeats the rows at a seam.
@pytest.mark.parametrize("size", [255, 256, 257, 2 * 256 + 3])
def test_sizes_about_the_gather_slice(size):
    check(np.exp(np.random.default_rng(size).uniform(-40, 40, size)))


@pytest.mark.parametrize("size", [_GATHER - 1, _GATHER, _GATHER + 1, 2 * _GATHER + 1])
def test_sizes_about_the_gather_chunk(size):
    check(np.exp(np.random.default_rng(size).uniform(-40, 40, size)))


EDGE_CASES = [
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308,  # extremes
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,  # fixed/exponent switch
    1e-5, 123456789012345.6, 1234567890123456.8, 1e15, 1e17,
    0.1 + 0.2, 2.0**53 + 2, 0.1, 1.0, 0.5, 100.0, 1e22, 1e23, 5e-39,
    -0.0, 0.0, float("inf"), float("-inf"),
]


@pytest.mark.parametrize("value", EDGE_CASES + [-v for v in EDGE_CASES], ids=repr)
def test_edge_cases(value):
    check([value])


def test_nans_of_every_sign_and_payload():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    assert formatted(nans)[0] == [b"nan"] * nans.size


def test_exact_bound_takes_the_fallback():
    """1.01992787641404e+18's scaled lower bound is exactly an integer: the
    pass cannot tell on which side its rounding lies, so it flags the value."""
    value = np.array([1.01992787641404e+18])
    assert formatted(value)[1].tolist() == [True]
    check(value)


def test_fallback_is_rare_on_a_trace():
    """Of crash_defended's distinct floats at seed 0, under 1% go to repr
    (1 of about 100,000: 0.0), and every value matches it."""
    config = dataclasses.replace(load_scenario(CONFIGS / "crash_defended.json"), seed=0)
    trace = run_scenario(config)
    cells = np.concatenate([trace.times, trace.positions.ravel(), trace.velocities.ravel(),
                            trace.commands.ravel(), trace.spacing_errors.ravel(),
                            trace.attack_xi])
    distinct = np.unique(cells.view(np.int64)).view(np.float64)
    text, fallback = formatted(distinct)
    assert 100 * fallback.sum() < distinct.size
    assert text == oracle(distinct)
