"""The array "%.17g" kernel behind the Carnot trace: every field byte for byte as "%.17g" % v."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudotherm._format import _CHUNK, format_rows


def per_row(label, *columns):
    """The rows that one "%" per row writes."""
    fmt = label + ",%.17g" * len(columns)
    return "\n".join(fmt % row for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))


def assert_fields_match(values, label="hot"):
    values = np.asarray(values, dtype=float)
    assert format_rows(label, [values]).split("\n") == per_row(label, values).split("\n")


def _odd(lo, hi):
    return np.arange(lo | 1, hi, 2, dtype=np.int64).astype(float)


TENS = 10.0 ** np.arange(-5, 18)
FIXED = {
    # exactly 18 significant digits ending in 5: ties at 17 digits, rounded half to even
    "dyadic ties n/2**18": _odd(26215, 262144)[::97] / 2.0**18,
    "dyadic ties n/2**21": _odd(210, 2098) / 2.0**21,
    "powers of ten and their neighbours": np.concatenate([TENS, np.nextafter(TENS, 0), np.nextafter(TENS, np.inf)]),
    "band edges": np.array([1e-4, 1e16, *np.nextafter([1e-4, 1e-4, 1e16, 1e16], [0, 1, 0, np.inf])]),
    "integers near 2**53": np.arange(2**53 - 64, 2**53 + 64, dtype=np.int64).astype(float),
    "integers near 1e16": np.arange(10**16 - 64, 10**16 + 64, dtype=np.int64).astype(float),
    "out of band": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1e300]),
    "round numbers": np.array([0.5, 0.25, 1.0, 2.0, 10.0, 1234.5, 0.1, 0.3, 1e15 + 0.5, 123456789.125]),
}


@pytest.mark.parametrize("values", FIXED.values(), ids=FIXED.keys())
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_fixed_cases_match(values, sign):
    assert_fields_match(sign * values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_any_float_matches(values):
    assert_fields_match(values)


IN_BAND = st.floats(1e-4, 1e16, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(IN_BAND, st.booleans()), min_size=1, max_size=40))
def test_in_band_values_match(pairs):
    assert_fields_match([-v if negative else v for v, negative in pairs])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**16 - 1), st.integers(0, 20))
def test_decimal_fractions_match(n, places):
    # short decimals such as 0.375 or 12.5 end in zeros that "%.17g" strips
    assert_fields_match([n / 10.0**places])


@pytest.mark.parametrize("label", ["", "a", "cool", "heat-leg", "hé"])
def test_rows_of_several_columns_and_chunks(label):
    rng = np.random.default_rng(7)
    n = 2 * _CHUNK + 3
    columns = [rng.normal(size=n), 10.0 ** rng.uniform(-6, 18, n), rng.uniform(-1, 1, n)]
    columns[1][::50] = 0.0  # out-of-band fields in every chunk
    assert format_rows(label, columns) == per_row(label, *columns)


def test_no_rows_is_empty_text():
    assert format_rows("hot", [np.array([]), np.array([])]) == ""
