"""JSON/CSV round-trips must be lossless and byte-deterministic."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec.errors import MalformedInput
from apspec.frequency import ExactFrequency as EF
from apspec.periodic import fejer_riesz
from apspec.sampling import SampledFunction
from apspec.serialize import (
    dumps,
    growth_table_text,
    loads,
    report_from_json,
    report_to_json,
    sampled_csv_text,
    sampled_from_json,
    sampled_to_json,
    trigpoly_from_json,
    trigpoly_to_json,
)
from apspec.trigpoly import TrigPoly


def two_two_cos() -> TrigPoly:
    return TrigPoly([(EF(-1), 1.0), (EF(0), 2.0), (EF(1), 1.0)])


def test_trigpoly_roundtrip_with_radicals():
    f = TrigPoly(
        [
            (EF(Fraction(-3, 7)), complex(0.1, -2.5)),
            (EF.sqrt_of(2, Fraction(5, 3)), complex(-1e-17, 0.25)),
            (EF(0) + EF.sqrt_of(3), complex(math.pi, 0.0)),
        ]
    )
    back = trigpoly_from_json(trigpoly_to_json(f))
    assert back == f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-50, max_value=50, max_denominator=40),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=0,
        max_size=12,
    )
)
def test_trigpoly_roundtrip_random(terms):
    f = TrigPoly([(EF(q), complex(a, b)) for q, a, b in terms])
    assert trigpoly_from_json(trigpoly_to_json(f)) == f


def test_trigpoly_json_is_canonical_and_exact():
    f = two_two_cos()
    g = TrigPoly(list(reversed(f.sorted_terms())))
    assert dumps(trigpoly_to_json(f)) == dumps(trigpoly_to_json(g))
    obj = trigpoly_to_json(f)
    # rationals as strings, never floats
    assert obj["terms"][0]["freq"]["rat"] == "-1"


def test_trigpoly_bad_payloads():
    with pytest.raises(MalformedInput):
        trigpoly_from_json({"nope": []})
    with pytest.raises(MalformedInput):
        trigpoly_from_json({"terms": [{"freq": {"rat": "x/y", "rad": []}, "re": 0, "im": 0}]})
    with pytest.raises(MalformedInput):
        loads("{not json")


def test_sampled_roundtrip_and_csv():
    vals = np.exp(1j * np.linspace(0, 1, 9)) * np.arange(9)
    s = SampledFunction(2.0, 0.5, vals)
    back = sampled_from_json(sampled_to_json(s))
    assert back.halfwidth == s.halfwidth and back.step == s.step
    assert np.array_equal(back.values, s.values)
    text = sampled_csv_text(s)
    lines = text.strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 10
    x0, re0, im0 = lines[1].split(",")
    assert float(x0) == -2.0 and float(re0) == 0.0 and float(im0) == 0.0
    # repr round-trip keeps samples exact
    row = lines[5].split(",")
    assert complex(float(row[1]), float(row[2])) == s.values[4]


def test_csv_row_cap():
    n = (1 << 20) + 1
    s = SampledFunction((n - 1) * 0.5 / 2.0, 0.5, np.zeros(n, dtype=complex))
    with pytest.raises(MalformedInput):
        sampled_csv_text(s)
    assert sampled_csv_text(s, allow_large=True).count("\n") == n + 1


def test_report_roundtrip():
    rep = fejer_riesz(two_two_cos())
    back = report_from_json(report_to_json(rep))
    assert back.method == rep.method
    assert back.residual_sup == rep.residual_sup
    assert back.bandwidth_ratio == rep.bandwidth_ratio
    assert back.factor == rep.factor
    assert [(c.name, c.passed, c.value) for c in back.checks] == [
        (c.name, c.passed, c.value) for c in rep.checks
    ]


def test_dumps_shape():
    text = dumps({"a": 1.5})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1.5}
    with pytest.raises(MalformedInput):
        dumps(float("nan"))


def test_growth_table_text():
    text = growth_table_text([(2, 1 / (4 * math.log(2)))])
    lines = text.strip().splitlines()
    assert lines[0] == "n,wiener_norm"
    n, v = lines[1].split(",")
    assert int(n) == 2 and float(v) == 1 / (4 * math.log(2))


# -- the writer against json's indented encoder ----------------------------------


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e22, 0.1, -1.5]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.text(),
    st.sampled_from(["", "\"quoted\" \\ back", "tab\there\nline", "é中\U0001f600", "\x00\x1f\x7f"]),
    _floats,
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(_floats, max_size=8),
        st.lists(st.one_of(_floats, st.integers(-3, 3), st.booleans()), max_size=8),
        st.dictionaries(st.text(max_size=8), inner, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_dumps_matches_json_reference(obj):
    assert dumps(obj) == _reference(obj)


def test_dumps_matches_json_on_edge_values():
    cases = [
        {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], "", "é", 10**30, -(10**30), True, None,
        [1.0, 2.0, 3], [1, 2.0, 3.0], [True, 1.0], [1.0, True], [np.float64(0.1), 0.2],
        {"x": -0.0, "y": 5e-324, "z": 1e16, "w": 1e-5, "v": np.float64(2.5)},
    ]
    for obj in cases:
        assert dumps(obj) == _reference(obj)


def _error(fn, obj):
    with pytest.raises((ValueError, TypeError)) as info:
        fn(obj)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "obj",
    [
        [1.0, math.nan],
        [1.0, math.inf, 2.0],
        {"a": [0.5, -math.inf]},
        {"a": math.nan},
        [np.float64(math.nan)],
        [1, "x", math.inf],
        {"a": [object()]},
        [1.0, np.float32(1.0)],
        {"a": np.int64(3)},
    ],
)
def test_dumps_errors_match_json(obj):
    assert _error(dumps, obj) == _error(_reference, obj)


def test_dumps_nested_nan_message():
    with pytest.raises(ValueError, match=r"^Out of range float values are not JSON compliant: nan$"):
        dumps({"re": [0.0, math.nan]})
    with pytest.raises(TypeError, match=r"^Object of type complex is not JSON serializable$"):
        dumps([1j])


def test_dumps_refuses_non_string_keys():
    for obj in [{1: 0}, {"a": {None: 0}}]:
        with pytest.raises(TypeError):
            dumps(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_dumps_refuses_nonfinite_top_level(value):
    with pytest.raises(MalformedInput, match="non-finite top-level value"):
        dumps(value)


# -- non-finite numbers on read ------------------------------------------------------


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_readers_refuse_nonfinite(literal):
    poly = loads('{"terms": [{"freq": {"rat": "0", "rad": []}, "re": 1.0, "im": %s}]}' % literal)
    with pytest.raises(MalformedInput, match="coefficients must be finite"):
        trigpoly_from_json(poly)
    samples = loads('{"halfwidth": 1.0, "step": 1.0, "re": [0.0, %s, 0.0], "im": [0.0, 0.0, 0.0]}' % literal)
    with pytest.raises(MalformedInput, match="must be finite"):
        sampled_from_json(samples)
    window = loads('{"halfwidth": %s, "step": 1.0, "re": [0.0], "im": [0.0]}' % literal)
    with pytest.raises(MalformedInput, match="must be finite"):
        sampled_from_json(window)


def test_route_bundles_match_json_reference(tmp_path, monkeypatch):
    # the live objects each route hands to dumps, np.float64 values included
    from apspec import cli, serialize

    written = []

    def recording_dumps(obj):
        text = dumps(obj)
        written.append((text, _reference(obj)))
        return text

    monkeypatch.setattr(serialize, "dumps", recording_dumps)
    poly = tmp_path / "f.json"
    poly.write_text(dumps(trigpoly_to_json(TrigPoly([(EF(-1), 1.0), (EF(0), 3.0), (EF(1), 1.0)]))))
    zeros = tmp_path / "zs.json"
    zeros.write_text(
        json.dumps({"m": 0, "a": 0.0, "b": 0.0, "p": 1, "zeros": [
            {"re": 0.5, "im": 1.0, "mult": 1}, {"re": 0.5, "im": -1.0, "mult": 1}, {"re": 2.0, "im": 0.0, "mult": 2},
        ]})
    )
    out = str(tmp_path / "out.json")
    requests = [
        ["factor", "--method", "roots", "--input", str(poly), "--out", out],
        ["factor", "--method", "cepstral", "--input", str(poly), "--m", "0.9",
         "--window-halfwidth", str(16 * math.pi), "--out", out],
        ["verify", "--report", out, "--out", str(tmp_path / "re.json")],
        ["factor", "--method", "zeros", "--input", str(zeros), "--out", out],
        ["construct", "--m", "1", "--blocks", "1", "--oracle-n", "32", "--out", out],
    ]
    for argv in requests:
        assert cli.run(argv) == 0
    assert len(written) == len(requests)
    for text, want in written:
        assert text == want
