"""The float64 text kernel against float.__repr__, csv.writer and json."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec.floatrepr import repr_join, repr_rows
from apspec.serialize import dumps

SEP = ",\n      "


def _reference(values) -> str:
    return SEP.join(map(float.__repr__, np.asarray(values).tolist()))


def _check(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert repr_join(values, SEP) == _reference(values)
    assert repr_join(-values, ",") == ",".join(map(float.__repr__, (-values).tolist()))


def _edge_values() -> np.ndarray:
    """Zeros, subnormals, binade ends, every power of two and of ten with its neighbours, layout switches."""
    tiny = 5e-324
    values = [0.0, tiny, 2 * tiny, 1e-323, 5e-323, 8e-323, 1e-322]
    values += [2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max, 1.0, 0.1, 0.5]
    values += [2.0**k for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [1e-4, 1e-5, 0.0001234, 0.00001234, 9999999999999998.0, 1e16, 1.5e16, 123456789012345680.0]
    values += [float(2**53 + d) for d in range(-40, 41)] + [float(2**54 + 2 * d) for d in range(-20, 21)]
    values += [float(n) for n in (1, 10, 100, 999, 1000, 12345, 10**15, 10**16, 10**17, 10**22, 10**23)]
    values = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest finite double
        up = np.nextafter(values, np.inf)
    return np.concatenate([values, up[np.isfinite(up)], np.nextafter(values, 0.0)])


def test_edge_table_matches_repr():
    values = _edge_values()
    _check(values)
    # one value per call too: each class on its own
    for v in values[::7].tolist() + [-0.0, 5e-324]:
        assert repr_join(np.array([v]), SEP) == repr(v)


def test_signed_zeros_and_empty():
    assert repr_join(np.array([0.0, -0.0, 0.0]), ",") == "0.0,-0.0,0.0"
    assert repr_join(np.zeros(979), ",") == ",".join(["0.0"] * 979)
    assert repr_join(np.array([], dtype=np.float64), SEP) == ""
    assert repr_rows([], []) == ""


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_random_bit_patterns_match_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    _check(values[np.isfinite(values)])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=300))
def test_hypothesis_floats_match_repr(values):
    _check(values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40_000))
def test_arrays_of_many_classes_match_repr(seed, n):
    # sizes across the kernel's blocks, magnitudes across many decimal exponents
    rng = np.random.default_rng(seed)
    _check(rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n))


def test_strided_views():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(5001) + 1j * rng.standard_normal(5001)
    for view in (z.real, z.imag, z.real[::3], z.imag[::-1], np.asfortranarray(rng.standard_normal((40, 3)))[1]):
        assert not view.flags.c_contiguous
        _check(view)


def test_long_arrays_cross_block_and_chunk_ends():
    rng = np.random.default_rng(11)
    n = 2 * 65_536 + 8192 + 3
    _check(rng.standard_normal(n) * 10.0 ** rng.integers(-5, 20, n))


def test_rows_match_csv_writer():
    rng = np.random.default_rng(3)
    n = 65_536 + 2000  # two layout chunks
    xs = -math.pi + (math.pi / 512) * np.arange(n)
    values = rng.standard_normal(n) * 1e3 + 1j * rng.standard_normal(n) * 1e-7
    buf = io.StringIO()
    writer = csv.writer(buf)
    for x, v in zip(xs, values):
        writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
    assert repr_rows([xs, values.real, values.imag], [",", ",", "\r\n"]) == buf.getvalue()


def _json_error(obj) -> str:
    with pytest.raises(ValueError) as info:
        json.dumps(obj, indent=2, allow_nan=False)
    return str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 17, 4999])
def test_dumps_raises_json_error_at_a_nonfinite_array_value(bad, where):
    values = np.linspace(-1.0, 1.0, 5000)
    values[where] = bad
    payload = {"re": values, "im": np.zeros(5000)}
    with pytest.raises(ValueError) as info:
        dumps(payload)
    assert str(info.value) == _json_error({"re": values.tolist(), "im": [0.0] * 5000})


@pytest.mark.parametrize(
    "array",
    [
        np.array([], dtype=np.float64),
        np.array([2.5]),
        np.array([-0.0]),
        np.linspace(0, 1, 7)[::2],
        np.array([1.5, 2.0], dtype=np.float32),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([1, 2, 3]),
        np.array(4.0),
        np.array([1.0, 2.0]).astype(">f8"),
        np.ma.array([1.0, 2.0, 3.0], mask=[False, True, False]),
    ],
)
def test_dumps_writes_arrays_as_their_lists(array):
    payload = {"a": [array, {"b": array}], "c": array}
    plain = {"a": [array.tolist(), {"b": array.tolist()}], "c": array.tolist()}
    assert dumps(payload) == json.dumps(plain, indent=2, allow_nan=False) + "\n"
