import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec.frequency import (
    ExactFrequency,
    coordinates_from_json,
    fraction_from_text,
    qlin_independent,
    rational_ratio,
    squarefree_split,
)

EF = ExactFrequency


def test_squarefree_split_basics():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(360) == (6, 10)
    # large prime squared
    assert squarefree_split(101 * 101 * 7) == (101, 7)


def test_canonicalization_reduces_radicands():
    # sqrt(8) = 2*sqrt(2)
    assert EF.sqrt_of(8) == EF(0, [(2, 2)])
    # sqrt(9) = 3 folds into the rational part
    assert EF.sqrt_of(9) == EF(3)
    # coefficients at the same core accumulate
    f = EF(0, [(2, 1), (8, 1)])
    assert f == EF(0, [(2, 3)])


def test_zero_coefficients_dropped():
    f = EF(1, [(2, 1), (2, -1)])
    assert f == EF(1)
    assert f.is_rational()
    assert not f.is_zero()
    assert EF(0).is_zero()


def test_addition_and_subtraction():
    a = EF(Fraction(1, 2), [(2, 1)])
    b = EF(Fraction(1, 2), [(3, 2)])
    s = a + b
    assert s.rational == 1
    assert s.radicals == ((2, Fraction(1)), (3, Fraction(2)))
    assert (s - a) == b
    assert (a - a).is_zero()


def test_multiplication_mixes_radicands():
    # sqrt(2)*sqrt(3) = sqrt(6)
    assert EF.sqrt_of(2) * EF.sqrt_of(3) == EF.sqrt_of(6)
    # sqrt(2)*sqrt(2) = 2
    assert EF.sqrt_of(2) * EF.sqrt_of(2) == EF(2)
    # sqrt(6)*sqrt(10) = 2*sqrt(15)
    assert EF.sqrt_of(6) * EF.sqrt_of(10) == EF(0, [(15, 2)])
    # (1+sqrt(2))**2 = 3 + 2*sqrt(2)
    f = EF(1, [(2, 1)])
    assert f * f == EF(3, [(2, 2)])


def test_rational_scaling():
    f = EF(1, [(2, 1)])
    assert f * Fraction(1, 2) == EF(Fraction(1, 2), [(2, Fraction(1, 2))])
    assert f / 2 == f * Fraction(1, 2)
    assert 3 * f == f + f + f


def test_exact_comparisons():
    # sqrt(2) + sqrt(3) vs sqrt(10): 3.146... vs 3.162...
    a = EF.sqrt_of(2) + EF.sqrt_of(3)
    b = EF.sqrt_of(10)
    assert a < b
    assert b > a
    assert a <= a
    assert not (a < a)
    # classic near-tie: 10*sqrt(2) vs sqrt(200) are equal exactly
    assert EF.sqrt_of(2, 10) == EF.sqrt_of(200)


def test_sign_of_tight_difference():
    # sqrt(2) ~ 1.41421356237, rational below and above
    lo = Fraction(141421356237309504, 10**17)
    hi = Fraction(141421356237309505, 10**17)
    assert (EF.sqrt_of(2) - lo).sign() == 1
    assert (EF.sqrt_of(2) - hi).sign() == -1


def test_float_value():
    f = EF(1, [(2, 1), (3, -1)])
    assert math.isclose(float(f), 1 + math.sqrt(2) - math.sqrt(3), rel_tol=1e-15)


def test_hash_consistency():
    assert hash(EF.sqrt_of(8)) == hash(EF(0, [(2, 2)]))
    # sqrt(8)/2 reduces to sqrt(2), so it must land on the same key
    d = {EF.sqrt_of(2): "a"}
    d[EF(0, [(8, Fraction(1, 2))])] = "b"
    assert len(d) == 1
    assert d[EF.sqrt_of(2)] == "b"


def test_abs():
    f = EF(1) - EF.sqrt_of(2)
    assert abs(f) == EF.sqrt_of(2) - EF(1)
    assert abs(EF(3)) == EF(3)


def test_json_round_trip():
    f = EF(Fraction(-3, 7), [(2, Fraction(1, 2)), (15, -4)])
    obj = f.to_json()
    assert obj == {"rat": "-3/7", "rad": [["2", "1/2"], ["15", "-4"]]}
    assert EF.from_json(obj) == f
    with pytest.raises(ValueError):
        EF.from_json({"rad": []})
    with pytest.raises(ValueError):
        EF.from_json({"rat": "x/y"})


@pytest.mark.parametrize(
    "obj",
    [
        {"rat": math.inf, "rad": []},
        {"rat": -math.inf, "rad": []},
        {"rat": math.nan, "rad": []},
        {"rat": "0", "rad": [[math.inf, "1"]]},
        {"rat": "0", "rad": [[math.nan, "1"]]},
        {"rat": "0", "rad": [["2", math.inf]]},
        {"rat": "0", "rad": [["2", -math.nan]]},
    ],
)
def test_from_json_refuses_nonfinite_coordinates(obj):
    # json reads Infinity, NaN and 1e400 as floats; Fraction(inf) raises OverflowError
    with pytest.raises(ValueError, match="malformed frequency object"):
        EF.from_json(obj)


def test_rational_ratio():
    a = EF.sqrt_of(2, 3)
    b = EF.sqrt_of(2, 2)
    assert rational_ratio(a, b) == Fraction(3, 2)
    assert rational_ratio(EF(0), b) == 0
    assert rational_ratio(EF.sqrt_of(3), b) is None
    mixed = EF(1, [(2, 1)])
    assert rational_ratio(mixed * Fraction(5, 4), mixed) == Fraction(5, 4)
    assert rational_ratio(EF(1), mixed) is None
    with pytest.raises(ZeroDivisionError):
        rational_ratio(a, EF(0))


def test_qlin_independent_basic():
    assert qlin_independent([])
    assert qlin_independent([EF(1), EF.sqrt_of(2)])
    assert qlin_independent([EF.sqrt_of(2), EF.sqrt_of(3), EF.sqrt_of(5)])
    # 1, sqrt(2), 1+sqrt(2) are dependent
    assert not qlin_independent([EF(1), EF.sqrt_of(2), EF(1, [(2, 1)])])
    # rational multiples are dependent
    assert not qlin_independent([EF.sqrt_of(2), EF.sqrt_of(8)])
    assert not qlin_independent([EF(0), EF(1)])


@st.composite
def frequencies(draw):
    rat = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
    rads = draw(
        st.lists(
            st.tuples(
                st.sampled_from([2, 3, 5, 6, 8, 12, 18]),
                st.integers(-6, 6).map(Fraction),
            ),
            max_size=3,
        )
    )
    return EF(rat, rads)


@given(frequencies(), frequencies(), frequencies())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(frequencies(), frequencies())
@settings(max_examples=150, deadline=None)
def test_order_matches_float(a, b):
    # exact comparisons must agree with floats when floats are clearly apart
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-9 * (1 + abs(fa) + abs(fb)):
        assert (a < b) == (fa < fb)


@given(frequencies())
@settings(max_examples=150, deadline=None)
def test_json_round_trip_property(f):
    assert EF.from_json(f.to_json()) == f


@given(frequencies())
@settings(max_examples=150, deadline=None)
def test_sign_consistent_with_negation(f):
    assert f.sign() == -((-f).sign())
    if not f.is_zero():
        assert (f * f).sign() == 1


@given(
    frequencies(),
    frequencies(),
    st.one_of(st.integers(-9, 9), st.fractions(max_denominator=12)).filter(lambda q: q != 0),
)
@settings(max_examples=150, deadline=None)
def test_sums_negations_quotients_match_public_constructor(a, b, q):
    # these results skip the squarefree split; they must equal a fresh build
    cases = [
        (a + b, a.rational + b.rational, list(a.radicals) + list(b.radicals)),
        (a - b, a.rational - b.rational, list(a.radicals) + [(d, -c) for d, c in b.radicals]),
        (a - a, Fraction(0), []),
        (-a, -a.rational, [(d, -c) for d, c in a.radicals]),
        (a / q, a.rational / q, [(d, c / q) for d, c in a.radicals]),
        (a + 3, a.rational + 3, list(a.radicals)),
    ]
    for got, rat, rads in cases:
        ref = EF(rat, rads)
        assert got == ref
        assert got.rational == ref.rational and isinstance(got.rational, Fraction)
        assert got.radicals == ref.radicals
        assert all(isinstance(c, Fraction) for _, c in got.radicals)
        assert hash(got) == hash(ref)
        assert float(got) == float(ref)


@given(
    frequencies(),
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
)
@settings(max_examples=200, deadline=None)
def test_rational_multiple_matches_public_constructor(a, q):
    # a rational multiple keeps radicands canonical: built without the split
    ref = EF(a.rational * q, [(d, c * q) for d, c in a.radicals])
    for got in (a * q, q * a):
        assert got == ref
        assert got.rational == ref.rational and isinstance(got.rational, Fraction)
        assert got.radicals == ref.radicals
        assert all(isinstance(c, Fraction) and c != 0 for _, c in got.radicals)
        assert hash(got) == hash(ref)
        assert float(got) == float(ref)
    assert (a * 0).is_zero() and (a * Fraction(0)).is_zero()


# pieces of Fraction's text grammar and of what lies just outside it
_PIECES = ["-", "+", " ", "\t", "_", "/", ".", "e", "E", "0", "1", "5", "9", "007", "\u0663", "\uff11", "\u00b2", "x"]
_SPELLINGS = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=7).map("".join),
    st.builds(
        lambda sign, num, den: f"{sign}{num}" + ("" if den is None else f"/{den}"),
        st.sampled_from(["", "-", "+", " ", "--"]),
        st.integers(0, 10**30),
        st.one_of(st.none(), st.integers(0, 10**20)),
    ),
    st.sampled_from(["-0", "0/5", "-0/5", "1/0", "-3/0", "0/0", "1/-2", "", "-", "/", "1/", "/2", "1/2/3", "\u0663/4"]),
    st.sampled_from([3, -7, 0.5, None, ["1"]]),
)


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:
        return "raises", type(exc)
    return type(value), value.numerator, value.denominator


@given(_SPELLINGS)
@settings(max_examples=400, deadline=None)
def test_fraction_from_text_is_fraction(text):
    # the same value, or the same exception, as Fraction(text)
    assert _outcome(fraction_from_text, text) == _outcome(Fraction, text)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_zero_denominator_is_a_malformed_frequency(text):
    for obj in ({"rat": text, "rad": []}, {"rat": "0", "rad": [["2", text]]}):
        with pytest.raises(ValueError, match="malformed frequency object"):
            coordinates_from_json(obj)
