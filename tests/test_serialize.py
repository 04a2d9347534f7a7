"""JSON/CSV round-trips must be lossless and byte-deterministic."""

import csv
import enum
import io
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
    construction_from_json,
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
from apspec.trigpoly import DenseBlock, TrigPoly, ray_partition


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


@pytest.mark.parametrize("obj", [{}, {"format": 1}, {"format": 2}], ids=["no_format", "format1", "format2"])
def test_construction_reader_refuses_formats_1_and_2(obj):
    fmt = obj.get("format", 1)
    with pytest.raises(MalformedInput) as exc:
        construction_from_json(obj)
    assert str(exc.value) == f"construction format {fmt} is no longer read; rebuild the bundle with `apspec construct`"


@pytest.mark.parametrize("fmt", [True, 3.0, "3", None, 0, 4])
def test_construction_reader_names_an_unknown_format(fmt):
    # only the int 3 is read: True == 1 and 3.0 == 3 are not formats
    with pytest.raises(MalformedInput) as exc:
        construction_from_json({"format": fmt})
    assert str(exc.value) == f"unknown construction format {fmt!r}"


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


def _array_list(o):
    """json's default hook with dumps' one extension: a numpy array is written as its tolist()."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    return json.JSONEncoder().default(o)


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_array_list) + "\n"


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


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


def test_dumps_matches_json_on_edge_values():
    cases = [
        {}, [], (), {"a": [], "b": {}, "c": ()}, [[[]]], "", "é", 10**30, -(10**30), True, None,
        [1.0, 2.0, 3], [1, 2.0, 3.0], [True, 1.0], [1.0, True], [np.float64(0.1), 0.2],
        {"x": -0.0, "y": 5e-324, "z": 1e16, "w": 1e-5, "v": np.float64(2.5)},
        [1, 2, 3], [1, True], [True, 1], [2**64, -1], [_Level.LOW, 2, _Level.HIGH], [3, _Level.LOW],
    ]
    for obj in cases:
        assert dumps(obj) == _reference(obj)


_TERM = {"freq": {"rat": "-1/2", "rad": [["2", "3"], ["5", "-1/7"]]}, "re": 0.1, "im": -0.0}


def _terms(*edits) -> dict:
    """A term list whose second term is _TERM with each (path, value) edit applied; a value of None deletes."""
    odd = json.loads(json.dumps(_TERM))
    for path, value in edits:
        *head, last = path
        target = odd
        for key in head:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
    return {"terms": [_TERM, odd, {"freq": {"rat": "0", "rad": []}, "re": 2.0, "im": 5e-324}]}


@pytest.mark.parametrize(
    "obj",
    [
        _terms(),
        _terms((("freq", "rat"), "é\"\n")),
        _terms((("freq", "rad"), [])),
        _terms((("freq", "rad"), [["2", "1", "3"]])),
        _terms((("freq", "rad"), [("2", "3")])),
        _terms((("freq", "rad"), [[2, "3"]])),
        _terms((("freq", "rat"), 0)),
        _terms((("re",), np.float64(0.1))),
        _terms((("im",), 1)),
        _terms((("freq",), None), (("freq",), {"rat": "0", "rad": []})),  # "re", "im", "freq"
        _terms((("re",), None), (("re",), 0.5)),  # "freq", "im", "re"
        _terms((("freq", "rat"), None), (("freq", "rat"), "1")),  # "rad" before "rat"
        _terms((("extra",), 1.0)),
        _terms((("freq", "extra"), [])),
        {"terms": [_TERM, [1.0, 2.0], _TERM]},
        {"terms": [_TERM], "more": [[_TERM]]},
    ],
)
def test_dumps_writes_term_lists_as_json_does(obj):
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
        _terms((("re",), math.nan)),
        _terms((("im",), math.inf)),
        _terms((("re",), -math.inf)),
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


def _csv_reference(s: SampledFunction) -> str:
    """factor --csv as csv.writer writes it row by row, each float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "re", "im"])
    for x, v in zip(s.xs(), s.values):
        writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
    return buf.getvalue()


def test_route_csv_matches_csv_writer(tmp_path, monkeypatch):
    # the samples each route hands to sampled_csv_text: roots through _as_samples, cepstral and zeros as stored
    from apspec import cli, serialize

    written = []

    def recording_csv_text(s, allow_large=False):
        text = sampled_csv_text(s, allow_large)
        written.append((text, _csv_reference(s)))
        return text

    monkeypatch.setattr(serialize, "sampled_csv_text", recording_csv_text)
    poly = tmp_path / "f.json"
    poly.write_text(dumps(trigpoly_to_json(TrigPoly([(EF(-1), 1.0), (EF(0), 3.0), (EF(1), 1.0)]))))
    zeros = tmp_path / "zs.json"
    zeros.write_text(json.dumps({"m": 0, "a": 0.0, "b": 0.1, "p": 1, "zeros": [
        {"re": 0.5, "im": 1.0, "mult": 1}, {"re": 0.5, "im": -1.0, "mult": 1}, {"re": 2.0, "im": 0.0, "mult": 2},
    ]}))
    out, csv_path = str(tmp_path / "out.json"), tmp_path / "s.csv"
    requests = [
        ["factor", "--method", "roots", "--input", str(poly)],
        ["factor", "--method", "roots", "--input", str(poly), "--window-halfwidth", "3.5", "--step", "0.001"],
        ["factor", "--method", "cepstral", "--input", str(poly), "--m", "0.9", "--window-halfwidth", str(16 * math.pi)],
        ["factor", "--method", "zeros", "--input", str(zeros)],
    ]
    for argv in requests:
        assert cli.run(argv + ["--out", out, "--csv", str(csv_path)]) == 0
        text, want = written[-1]
        assert text == want
        assert csv_path.read_bytes() == want.encode()
    assert len(written) == len(requests)


def test_csv_writes_nonfinite_samples_as_csv_writer_does():
    s = SampledFunction(1.0, 0.5, np.array([1.0, complex(math.nan, 0.0), complex(math.inf, -math.inf), 0.5j, -0.0]))
    assert sampled_csv_text(s) == _csv_reference(s)


# -- the ray codec against the term-by-term one ------------------------------------

# ray directions as (rational, {radicand: coefficient}), pairwise independent
_UNITS = (
    (Fraction(1), {}),
    (Fraction(0), {2: Fraction(1)}),
    (Fraction(0), {3: Fraction(1)}),
    (Fraction(1), {2: Fraction(1)}),
    (Fraction(0), {2: Fraction(1), 3: Fraction(-1)}),
    (Fraction(1, 3), {5: Fraction(2, 7)}),
)
# a radicand d spelled as d*s*s with its coefficient over s: 8, 12 and 50 among them
_SPELLINGS = {2: (1, 2, 5), 3: (1, 2), 5: (1, 3)}
_COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300]), st.floats(-10, 10))


def _ratio_spelled(q: Fraction, m: int) -> str:
    """q as num/den with both multiplied by m ("2/4" for 1/2), or str(q) for m = 1."""
    return str(q) if m == 1 else f"{q.numerator * m}/{q.denominator * m}"


def _spell(draw, rat: Fraction, rads: dict) -> dict:
    entries = []
    for d, c in rads.items():
        s = draw(st.sampled_from(_SPELLINGS[d]))
        m = draw(st.sampled_from([1, 2, 3]))
        if draw(st.booleans()):  # half at radicand d*s*s, half at 4d: c/4 * sqrt(4d) = c/2 * sqrt(d)
            entries += [[str(d * s * s), _ratio_spelled(c / (2 * s), m)], [str(4 * d), str(c / 4)]]
        else:
            entries.append([str(d * s * s), _ratio_spelled(c / s, m)])
    if draw(st.booleans()):
        entries.append([str(draw(st.sampled_from([2, 3, 8]))), "0"])  # a zero radical drops
    order = draw(st.permutations(range(len(entries))))
    return {"rat": _ratio_spelled(rat, draw(st.sampled_from([1, 2, 3]))), "rad": [entries[i] for i in order]}


@st.composite
def _poly_payloads(draw) -> dict:
    """1-4 rays plus a constant, with duplicates spelled differently, cancelling pairs and zeros."""
    units = draw(st.lists(st.sampled_from(range(len(_UNITS))), min_size=1, max_size=4, unique=True))
    terms = []
    for u in units:
        rat, rads = _UNITS[u]
        scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(2**64)]))
        for k in draw(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=6)):
            q = scale * k
            c = complex(draw(_COEFFS), draw(_COEFFS))
            terms.append((_spell(draw, rat * q, {d: x * q for d, x in rads.items()}), c))
            if draw(st.integers(0, 3)) == 0:  # the same frequency again, cancelling
                terms.append((_spell(draw, rat * q, {d: x * q for d, x in rads.items()}), -c))
    for _ in range(draw(st.integers(0, 2))):
        terms.append((_spell(draw, Fraction(0), {}), complex(draw(_COEFFS), draw(_COEFFS))))
    order = draw(st.permutations(range(len(terms))))
    return {"terms": [{"freq": terms[i][0], "re": terms[i][1].real, "im": terms[i][1].imag} for i in order]}


def _term_by_term_text(f: TrigPoly) -> str:
    """What the writer gave when it built one ExactFrequency per term."""
    return dumps({"terms": [{"freq": w.to_json(), "re": c.real, "im": c.imag} for w, c in f.sorted_terms()]})


def _rays_bits(rays) -> tuple:
    const, blocks = rays
    return repr(const), [(b.base, b.keys.tolist(), b.coeffs.tobytes()) for b in blocks]


@settings(max_examples=200, deadline=None)
@given(_poly_payloads())
def test_ray_codec_matches_the_term_by_term_codec(obj):
    ref = TrigPoly([(EF.from_json(t["freq"]), complex(float(t["re"]), float(t["im"]))) for t in obj["terms"]])
    ref_terms, ref_arrays, ref_text = ref.sorted_terms(), ref.term_arrays(), _term_by_term_text(ref)
    got = trigpoly_from_json(obj)
    assert got.sorted_terms() == ref_terms
    assert [a.tobytes() for a in got.term_arrays()] == [a.tobytes() for a in ref_arrays]
    assert dumps(trigpoly_to_json(got)) == ref_text
    assert _rays_bits(ray_partition(got)) == _rays_bits(ray_partition(ref))
    assert trigpoly_from_json(trigpoly_to_json(got)) == ref


def test_ray_codec_sums_spellings_in_input_order():
    # 1/2 three ways: 0.1 + 0.2 - 0.3 left to right, as a dict of terms sums it
    obj = {"terms": [
        {"freq": {"rat": "1/2", "rad": []}, "re": 0.1, "im": 0.0},
        {"freq": {"rat": "2/4", "rad": []}, "re": 0.2, "im": 0.0},
        {"freq": {"rat": "0", "rad": [["4", "1/4"]]}, "re": -0.3, "im": 0.0},
        {"freq": {"rat": "0", "rad": [["8", "1"]]}, "re": 1.0, "im": 0.0},
        {"freq": {"rat": "0", "rad": [["2", "2"]]}, "re": -1.0, "im": 0.0},
        {"freq": {"rat": "0", "rad": []}, "re": 2.0, "im": 0.0},
        {"freq": {"rat": "0/3", "rad": [["3", "0"]]}, "re": -2.0, "im": 0.0},
    ]}
    f = trigpoly_from_json(obj)
    assert f.sorted_terms() == [(EF(Fraction(1, 2)), complex(0.1 + 0.2 - 0.3, 0.0))]
    assert ray_partition(f)[0] == 0j


@pytest.mark.parametrize("big", [2**63, 3 * 2**63 + 1, 10**30])
def test_ray_codec_reads_a_generator_past_int64(big):
    obj = {"terms": [
        {"freq": {"rat": str(-big), "rad": []}, "re": 0.5, "im": 0.0},
        {"freq": {"rat": "0", "rad": []}, "re": 2.0, "im": 0.0},
        {"freq": {"rat": str(big), "rad": []}, "re": 0.5, "im": 0.0},
    ]}
    # a term at 1 that cancels leaves no key 1 beside the key big
    cancelled = [
        {"freq": {"rat": "1", "rad": []}, "re": 0.25, "im": 0.0},
        {"freq": {"rat": "2/2", "rad": []}, "re": -0.25, "im": 0.0},
    ]
    f = trigpoly_from_json({"terms": cancelled + obj["terms"]})
    const, (ray,) = ray_partition(f)
    assert ray.base == EF(big) and ray.keys.tolist() == [-1, 1]
    assert trigpoly_to_json(f) == obj


_SHIFTS = (EF(0), EF(Fraction(1, 3)), EF(1) + EF.sqrt_of(2), EF.sqrt_of(2, Fraction(-2, 3)) + EF.sqrt_of(5, 4))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SHIFTS),
    st.lists(st.sampled_from(range(len(_UNITS))), min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_ray_writer_matches_the_term_by_term_writer_off_the_origin(shift, units, data):
    # a radical of the shift cancels at some keys (1 + sqrt2 - sqrt2), which the writer must leave out
    rays = []
    for u in units:
        rat, rads = _UNITS[u]
        keys = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=5, unique=True))
        coeffs = [complex(data.draw(_COEFFS), data.draw(_COEFFS)) for _ in keys]
        rays.append(DenseBlock(abs(EF(rat, list(rads.items()))), np.array(keys), np.array(coeffs)))
    const = complex(data.draw(_COEFFS), 0.0)
    f = TrigPoly.from_rays(rays, shift=shift, const=const)
    ref = TrigPoly(f.sorted_terms())
    assert dumps(trigpoly_to_json(f)) == _term_by_term_text(ref)
