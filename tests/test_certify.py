import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspec.certify import (
    MAX_GRID_POINTS,
    NormBracket,
    certify_lower_bound,
    ehlich_zeller_affine,
    ehlich_zeller_floats,
    ehlich_zeller_sup,
    ez_points,
    fft_rounding,
    ray_sup,
    sup_norm_certified,
    sup_norm_upper,
)
from apspec.errors import NonConvergence
from apspec.frequency import ExactFrequency
from apspec.trigpoly import DenseBlock, ProductPoly, TrigPoly, modulus_squared, ray_partition

EF = ExactFrequency


def sin_poly():
    return TrigPoly([(EF(1), -0.5j), (EF(-1), 0.5j)])


def test_sup_norm_certified_subnormal():
    # the smallest subnormal must not be rounded away by the FFT scaling
    assert sup_norm_certified(TrigPoly([(EF(1), 5e-324)])).upper >= 5e-324


def test_sup_norm_certified_constant():
    b = sup_norm_certified(TrigPoly([(EF(0), 3 - 4j)]))
    assert b.lower == 5.0
    assert b.upper == pytest.approx(5.0, rel=1e-11)


@pytest.mark.parametrize(
    "bound",
    [
        lambda: ray_sup(np.array([10**9]), np.array([1.0 + 0j])),
        lambda: sup_norm_upper(TrigPoly([(EF(1), 1.0), (EF(10**9), 1.0)])),
        lambda: sup_norm_certified(TrigPoly([(EF(1), 1.0), (EF(10**9), 1.0)])),
    ],
    ids=["ray_sup", "sup_norm_upper", "sup_norm_certified"],
)
def test_sup_bounds_refuse_a_degree_no_grid_certifies(bound):
    # ez_points decides in integers, before any grid is allocated
    with pytest.raises(NonConvergence, match="degree 1000000000 needs more than 8388608"):
        bound()


# the largest degree the MAX_GRID_POINTS = 2^23-point grid certifies: (355 d)^2 < 2 (113 2^23)^2
_EZ_LAST = math.isqrt(2 * (113 << 23) ** 2 - 1) // 355


@pytest.mark.parametrize(
    "degree, n",
    [(0, 1024), (1, 1024), (64, 1024), (65, 2048), (1 << 19, 1 << 23), ((1 << 19) + 1, 1 << 23), (1 << 20, 1 << 23), (_EZ_LAST, 1 << 23)],
)
def test_ez_points_grid_sizes(degree, n):
    assert ez_points(degree) == n


def test_ez_points_refuses_past_the_last_grid():
    assert MAX_GRID_POINTS == 1 << 23
    assert (355 * _EZ_LAST) ** 2 < 2 * (113 << 23) ** 2 <= (355 * (_EZ_LAST + 1)) ** 2
    with pytest.raises(NonConvergence):
        ez_points(_EZ_LAST + 1)


def test_ray_partition_splits_incommensurables():
    f = TrigPoly.from_cos([(1, 2.0), (EF.sqrt_of(2), 1.0)], constant=5.0)
    const, blocks = ray_partition(f)
    assert const == 5.0
    assert len(blocks) == 2
    bases = sorted(float(b.base) for b in blocks)
    assert bases == pytest.approx([1.0, math.sqrt(2)])


def test_ray_partition_integer_keys_gcd():
    # frequencies 1/2 and 3/2 share the ray; base 1/2, keys (1, 3)
    f = TrigPoly([(EF(1) / 2, 1.0), (EF(3) / 2, 2.0)])
    const, blocks = ray_partition(f)
    assert const == 0
    assert len(blocks) == 1
    b = blocks[0]
    assert b.base == EF(1) / 2
    assert b.keys.tolist() == [1, 3]
    # negative-direction ray still gets a positive base
    g = TrigPoly([(EF(-2), 1.0), (EF(-4), 2.0)])
    _, blocks = ray_partition(g)
    assert blocks[0].base == EF(2)
    assert blocks[0].keys.tolist() == [-2, -1]


def test_sup_norm_certified_periodic():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # 2 + 2cos, sup = 4
    b = sup_norm_certified(f)
    assert b.lower <= 4.0 * (1 + 1e-9)
    assert b.upper >= 4.0
    assert b.lower > 3.99
    assert b.upper < 4.05


U = Fraction(1, 1 << 53)


def test_sup_norm_certified_sin_tight():
    # keys +-1 on ez_points(1) = 1024 points: the grid holds the peak at pi/2,
    # and the upper bound is the Ehlich-Zeller one, sec(pi/1024) = 1 + 4.7e-6
    # (taken as 1/(1 - theta^2/2), theta = 355/(113*1024)) plus the FFT's
    # rounding, a few float steps above its exact value
    b = sup_norm_certified(sin_poly())
    assert b.lower == 1.0
    sec = 1 / (1 - Fraction(355, 113 * 1024) ** 2 / 2)
    assert ehlich_zeller_sup(1.0, 1, 1024, 1.0) <= Fraction(b.upper)
    assert Fraction(b.upper) <= (sec + fft_rounding(1024, 1.0) * sec) * (1 + 8 * U)
    assert b.upper < 1 + 5e-6


def test_sup_norm_certified_incommensurable():
    # 2 + cos x + cos(sqrt(2) x): sup over R equals 4, approached not attained
    f = TrigPoly.from_cos([(1, 1.0), (EF.sqrt_of(2), 1.0)], constant=2.0)
    b = sup_norm_certified(f)
    assert b.lower <= b.upper
    assert 3.5 < b.lower <= 4.0 + 1e-9
    assert 4.0 <= b.upper < 4.05
    # bracket must contain a dense independent scan
    xs = np.linspace(-64 * math.pi, 64 * math.pi, 400001)
    dense = float(np.max(np.abs(f.evaluate(xs))))
    assert b.lower <= dense * (1 + 1e-12) and dense <= b.upper


def test_sup_norm_certified_product_form():
    h = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    p = ProductPoly(h)
    b = sup_norm_certified(p)
    # sup |1 + e^{ix}|^2 = 4
    assert b.lower <= 4.0 <= b.upper
    assert b.upper < 4.3


def test_sup_norm_zero():
    assert sup_norm_certified(TrigPoly()) == NormBracket(0.0, 0.0)


def test_certify_lower_bound_periodic():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # min 0
    assert certify_lower_bound(f, -0.1)
    assert not certify_lower_bound(f, 0.01)
    g = TrigPoly.from_cos([(1, 1.0)], constant=3.0)  # min 2
    assert certify_lower_bound(g, 1.9)
    assert not certify_lower_bound(g, 2.5)


def test_certify_lower_bound_exact_boundary():
    g = TrigPoly.from_cos([(1, 1.0)], constant=3.0)
    # margin zero cannot be certified by a strict grid certificate
    assert not certify_lower_bound(g, 2.0)


def test_certify_lower_bound_constant():
    assert certify_lower_bound(TrigPoly.constant(2.0), 1.5)
    assert not certify_lower_bound(TrigPoly.constant(2.0), 2.5)


def test_certify_lower_bound_rejects_complex():
    f = TrigPoly([(EF(1), 1.0)])
    with pytest.raises(ValueError):
        certify_lower_bound(f, 0.0)


def test_certify_lower_bound_modulus_squared():
    h = TrigPoly([(EF(0), 2.0), (EF(1), 1.0)])
    f = modulus_squared(h)  # |2 + e^{ix}|^2, min 1
    assert certify_lower_bound(f, 0.9)
    assert not certify_lower_bound(f, 1.2)


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.floats(-2, 2), st.floats(-2, 2)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_bracket_contains_scan(data):
    f = TrigPoly([(EF(k), complex(a, b)) for k, a, b in data])
    if f.is_zero():
        return
    b = sup_norm_certified(f)
    assert b.lower <= b.upper
    xs = np.linspace(0, 2 * math.pi, 20001)
    dense = float(np.max(np.abs(f.evaluate(xs))))
    assert dense <= b.upper * (1 + 1e-10)
    assert b.lower >= dense - 1e-6 * max(1.0, dense) or b.lower <= dense


def test_sup_norm_upper_is_the_bracket_upper():
    rng = np.random.default_rng(5)
    polys = [
        sin_poly(),
        TrigPoly(),
        TrigPoly.constant(3 - 4j),
        TrigPoly([(EF(1), 5e-324)]),
        TrigPoly.from_cos([(1, 2.0)], constant=2.0),
        TrigPoly.from_cos([(1, 1.0), (EF.sqrt_of(2), 1.0)], constant=2.0),
    ]
    for _ in range(20):
        keys = rng.choice(np.arange(-12, 13), size=5, replace=False)
        roots = rng.choice((1, 2, 3), size=5)
        polys.append(TrigPoly([(EF.sqrt_of(int(r), int(k)), complex(*rng.normal(size=2))) for k, r in zip(keys, roots)]))
    for f in polys:
        for p in (f, ProductPoly(f)):
            assert sup_norm_upper(p) == sup_norm_certified(p).upper


def _dense_sup(keys, coeffs, oversample=64):
    """max |sum c_k e^{ikt}| over an oversampled grid of one period, by direct sums."""
    d = max(1, int(np.max(np.abs(keys))))
    t = np.linspace(0, 2 * math.pi, oversample * (2 * d + 1), endpoint=False)
    return float(np.max(np.abs(np.exp(1j * np.outer(t, keys)) @ coeffs)))


def test_ehlich_zeller_holds_on_random_polynomials():
    rng = np.random.default_rng(11)
    for trial in range(300):
        d = int(rng.integers(1, 48))
        keys = np.unique(np.concatenate([[d], rng.integers(-d, d + 1, size=int(rng.integers(1, 12)))]))
        coeffs = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        if trial % 2:
            # real: c_{-k} = conj(c_k)
            keys = np.unique(np.concatenate([keys, -keys]))
            half = dict(zip(keys.tolist(), rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))))
            coeffs = np.array([half[k] if k > 0 else np.conj(half[-k]) if k < 0 else half[0].real for k in keys.tolist()])
        bound = ray_sup(keys, coeffs)
        dense = _dense_sup(keys, coeffs)
        assert Fraction(dense) <= bound


def test_ehlich_zeller_is_tight_on_shifted_cosines():
    # cos(d t + phi) with d | n and phi = pi d / n: every grid point misses a
    # peak by pi d / n, so the grid max is cos(pi d / n) and sup = 1 needs
    # the full sec factor
    for d, n in ((1, 4), (3, 48), (32, 1024), (512, 2**14)):
        phi = math.pi * d / n
        bins = np.zeros(n, dtype=complex)
        bins[d] = 0.5 * np.exp(1j * phi)
        bins[-d] = 0.5 * np.exp(-1j * phi)
        grid_max = float(np.max(np.abs(np.fft.ifft(bins, norm="forward"))))
        assert grid_max == pytest.approx(math.cos(phi), rel=1e-14)
        bound = ehlich_zeller_sup(grid_max, d, n, 1.0)
        assert 1 <= bound <= 1 + phi**4
    with pytest.raises(ValueError):
        ehlich_zeller_sup(1.0, 8, 16, 1.0)


def test_ehlich_zeller_sup_is_affine_in_the_grid_max():
    u = Fraction(1, 1 << 53)
    for d, n, l1 in ((1, 4, 1.0), (64, 2048, 2.5), (1024, 2**15, 3.25)):
        a, b = ehlich_zeller_affine(d, n, l1)
        sec = 1 / (1 - (Fraction(355, 113) * d / n) ** 2 / 2)
        assert (a, b) == ((1 + 2 * u) * sec, fft_rounding(n, l1) * sec)
        for g in (0.0, 0.7, 1.0):
            assert ehlich_zeller_sup(g, d, n, l1) == a * Fraction(g) + b
    with pytest.raises(ValueError):
        ehlich_zeller_affine(8, 16, 1.0)


def test_fft_rounding_bounds_the_measured_error():
    rng = np.random.default_rng(3)
    for n in (1024, 4096):
        keys = rng.choice(np.arange(-60, 61), size=20, replace=False)
        coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
        bins = np.zeros(n, dtype=complex)
        bins[np.mod(keys, n)] = coeffs
        got = np.fft.ifft(bins, norm="forward")
        # reference in extended precision: angles 2 pi j k / n reduced exactly first
        j = np.arange(n)
        phase = np.mod(np.outer(j, keys), n).astype(np.longdouble) * (2 * np.pi / np.longdouble(n))
        ref_re = (np.cos(phase) * coeffs.real - np.sin(phase) * coeffs.imag).sum(axis=1)
        ref_im = (np.sin(phase) * coeffs.real + np.cos(phase) * coeffs.imag).sum(axis=1)
        err = float(np.max(np.hypot(got.real - ref_re, got.imag - ref_im)))
        l1 = math.fsum(np.abs(coeffs.real).tolist() + np.abs(coeffs.imag).tolist())
        assert Fraction(err) <= fft_rounding(n, l1)
        assert fft_rounding(n, l1) < 1e-11 * l1


def test_ray_sup_uses_the_lattice_grid():
    keys, coeffs = np.array([1, -1]), np.array([-0.5j, 0.5j])
    assert ez_points(1) == 1024
    # sec(pi / 1024) = 1 + 4.7e-6
    assert 1 <= ray_sup(keys, coeffs) <= 1 + 5e-6
    assert ray_sup(keys[:0], coeffs[:0]) == 0
    # the smallest subnormal is not rounded away
    assert ray_sup(np.array([1]), np.array([5e-324 + 0j])) >= Fraction(5e-324)


# magnitudes from the least subnormal to 1e300, so that sums and products
# underflow and l1 reaches 1e300 without overflowing
_MAGNITUDE = st.one_of(
    st.floats(0, 4),
    st.floats(5e-324, 1e-300),
    st.floats(1e250, 1e300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e300]),
)
_SIGNED = st.builds(lambda m, neg: -m if neg else m, _MAGNITUDE, st.booleans())


@given(st.integers(1, _EZ_LAST), _MAGNITUDE, _MAGNITUDE)
@example(1, 5e-324, 1.0)
@example(_EZ_LAST, 1e300, 1e300)
@settings(max_examples=300, deadline=None)
def test_ehlich_zeller_floats_cover_the_exact_bound(degree, l1, grid_max):
    # every float step rounds up: A >= a, B >= b, and the float bound of a
    # grid max is never below the exact one; near the last degree the factor
    # is large enough that B or the bound overflows to inf, still an upper bound
    n = ez_points(degree)
    a, b = ehlich_zeller_affine(degree, n, l1)
    fa, fb = ehlich_zeller_floats(degree, n, l1)
    assert _covers(fa, a) and _covers(fb, b)
    bound = math.nextafter(math.nextafter(grid_max * fa, math.inf) + fb, math.inf)
    assert _covers(bound, ehlich_zeller_sup(grid_max, degree, n, l1))


def _covers(x: float, exact: Fraction) -> bool:
    return x == math.inf or Fraction(x) >= exact


# one base per rational direction
_RAY_BASES = (EF(Fraction(1, 3)), EF.sqrt_of(2), EF.sqrt_of(3, Fraction(2, 5)), EF.sqrt_of(5))


@given(
    st.lists(
        st.dictionaries(st.integers(-40, 40).filter(bool), st.builds(complex, _SIGNED, _SIGNED), min_size=1, max_size=8),
        max_size=len(_RAY_BASES),
    ),
    st.builds(complex, _SIGNED, _SIGNED),
)
@example([{1: complex(5e-324, 0.0)}], 0j)
@example([{1: complex(1e300, -1e300), -7: 1e300 + 0j}, {2: complex(0.0, 5e-324)}], complex(1e300, 5e-324))
@settings(max_examples=100, deadline=None)
def test_sup_norm_upper_covers_the_exact_ray_bounds(rays, const):
    # sup_norm_upper(f) >= |c0| + sum of the exact per-ray bounds `ray_sup`,
    # checked exactly (|c0|^2 as the rational re^2 + im^2); for |f|^2 the
    # float bound is >= the exact square of f's
    blocks = [
        DenseBlock(base, np.array(sorted(terms), dtype=np.int64), np.array([terms[k] for k in sorted(terms)]))
        for base, terms in zip(_RAY_BASES, rays)
    ]
    f = TrigPoly.from_rays(blocks, const=const)
    c0, parts = ray_partition(f)
    upper = sup_norm_upper(f)
    rest = Fraction(upper) - sum((ray_sup(p.keys, p.coeffs) for p in parts), Fraction(0))
    assert rest >= 0 and rest * rest >= Fraction(c0.real) ** 2 + Fraction(c0.imag) ** 2
    square = sup_norm_upper(ProductPoly(f))
    assert square == math.inf or Fraction(square) >= Fraction(upper) ** 2
    assert square == sup_norm_certified(ProductPoly(f)).upper
