import math
from fractions import Fraction

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspec import checks, frequency, trigpoly
from apspec.errors import MalformedInput
from apspec.frequency import ExactFrequency, rational_ratio
from apspec.sampling import SampledFunction
from apspec.serialize import load_path, report_from_json, trigpoly_from_json, trigpoly_to_json
from apspec.trigpoly import (
    MAX_CONVOLUTION,
    MAX_OUTER_PAIRS,
    DenseBlock,
    ProductPoly,
    SpectrumInfo,
    TrigPoly,
    _evaluate_arrays,
    _grid_rows,
    _difference_count,
    _ray_floats,
    bohr_coefficient,
    evaluation_error,
    mean_value_numeric,
    modulus_squared,
    multiply,
    ray_partition,
    spectrum,
)

EF = ExactFrequency


def poly_close(f, g, tol=1e-12):
    diff = f - g
    return all(abs(c) <= tol for _, c in diff.sorted_terms())


def test_canonical_form_drops_zeros():
    f = TrigPoly([(EF(1), 1.0), (EF(1), -1.0), (EF(2), 2.0)])
    assert f.term_count() == 1
    assert f.coefficient(EF(2)) == 2.0
    assert f.coefficient(EF(1)) == 0.0
    assert TrigPoly().is_zero()


def test_sorted_terms_ascending():
    f = TrigPoly([(EF.sqrt_of(2), 1.0), (EF(1), 2.0), (EF(-3), 3.0)])
    freqs = f.frequencies()
    assert freqs == sorted(freqs)
    assert freqs[0] == EF(-3)
    assert freqs[1] == EF(1)  # sqrt(2) > 1


def test_from_cos_and_evaluate():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # 2 + 2cos(x)
    xs = np.linspace(-3, 3, 7)
    vals = f.evaluate(xs)
    assert np.allclose(vals, 2 + 2 * np.cos(xs))
    assert abs(f.evaluate(0.5) - (2 + 2 * math.cos(0.5))) < 1e-14
    assert f.is_real()


def test_evaluate_complex_argument():
    f = TrigPoly.character(2, 1.0)  # e^{2iz}
    z = 0.3 + 0.7j
    assert abs(f.evaluate(z) - np.exp(2j * z)) < 1e-14


def test_arithmetic_matches_pointwise():
    f = TrigPoly.from_cos([(1, 1.0)], constant=1.0)
    g = TrigPoly.character(EF.sqrt_of(2), 0.5 + 0.25j)
    xs = np.linspace(-5, 5, 11)
    assert np.allclose((f + g).evaluate(xs), f.evaluate(xs) + g.evaluate(xs))
    assert np.allclose((f - g).evaluate(xs), f.evaluate(xs) - g.evaluate(xs))
    assert np.allclose((f * g).evaluate(xs), f.evaluate(xs) * g.evaluate(xs))
    assert np.allclose((3 * f).evaluate(xs), 3 * f.evaluate(xs))


def test_conj_and_derivative():
    g = TrigPoly([(EF(2), 1 + 1j), (EF(-1), 0.5j)])
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(g.conj().evaluate(xs), np.conjugate(g.evaluate(xs)))
    d = g.derivative()
    h = 1e-6
    approx = (g.evaluate(xs + h) - g.evaluate(xs - h)) / (2 * h)
    assert np.allclose(d.evaluate(xs), approx, atol=1e-7)


def test_modulate_and_dilate():
    f = TrigPoly.from_cos([(1, 1.0)])
    w0 = EF.sqrt_of(3)
    xs = np.linspace(-4, 4, 13)
    assert np.allclose(
        f.modulate(w0).evaluate(xs), np.exp(1j * math.sqrt(3) * xs) * f.evaluate(xs)
    )
    rho = EF.sqrt_of(2) / 3
    assert np.allclose(f.dilate(rho).evaluate(xs), f.evaluate(float(rho) * xs))
    assert f.dilate(rho).frequencies() == [-rho, rho]
    # negative and radical scales keep every ray's base positive
    g = TrigPoly([(EF(0), 2.0), (EF(1), 1 + 1j), (EF(-3), 0.5), (EF.sqrt_of(2), -1j)])
    for rho in (EF(-2), -EF.sqrt_of(2) / 3, EF(1) - EF.sqrt_of(2)):
        assert np.allclose(g.dilate(rho).evaluate(xs), g.evaluate(float(rho) * xs))
        assert all(b.base.sign() > 0 for b in ray_partition(g.dilate(rho))[1])
    with pytest.raises(ValueError):
        g.dilate(0)


def test_modulus_squared_exact_small():
    h = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])  # 1 + e^{ix}
    f = modulus_squared(h)
    assert isinstance(f, TrigPoly)
    assert f.coefficient(EF(0)) == 2.0
    assert f.coefficient(EF(1)) == 1.0
    assert f.coefficient(EF(-1)) == 1.0
    assert f.term_count() == 3


def test_modulus_squared_autocorrelation_values():
    # h = 1 + 2e^{ix} + 3e^{2ix} + 4e^{3ix}; |h|^2 lags: 30, 20, 11, 4
    h = TrigPoly([(EF(k), float(k + 1)) for k in range(4)])
    f = modulus_squared(h)
    assert f.coefficient(EF(0)) == 30.0
    assert f.coefficient(EF(1)) == 20.0
    assert f.coefficient(EF(2)) == 11.0
    assert f.coefficient(EF(3)) == 4.0
    assert f.coefficient(EF(-2)) == 11.0


def test_modulus_squared_hermitian_exact():
    h = TrigPoly(
        [(EF(0), 0.3 - 0.2j), (EF.sqrt_of(2), 1 + 1j), (EF(1), -0.7j), (EF.sqrt_of(3), 0.1)]
    )
    f = modulus_squared(h)
    for w, c in f.sorted_terms():
        assert f.coefficient(-w) == c.conjugate()  # exact, not approximate
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(f.evaluate(xs).real, np.abs(h.evaluate(xs)) ** 2)
    assert np.max(np.abs(f.evaluate(xs).imag)) < 1e-12


def test_shift_invariance_of_modulus_squared():
    # multiplying h by a character must leave |h|^2 exactly unchanged, and
    # chi_a F * chi_b G = chi_{a+b} F G: a shift by sqrt 5 must not split the
    # 2000-key ray into one-term rays, whose 4e6 pairs the guard would refuse
    rng = np.random.default_rng(11)
    keys = np.array([k for k in range(-1000, 1001) if k], dtype=np.int64)
    wide = TrigPoly.from_rays([DenseBlock(EF(1), keys, rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys)))])
    delta = EF.sqrt_of(5) - EF(3)
    for h in (TrigPoly([(EF(0), 1.1), (EF.sqrt_of(2), 0.5 + 2j), (EF(2), -0.25)]), wide):
        f1 = modulus_squared(h)
        f2 = modulus_squared(h.modulate(delta))
        assert (f1 - f2).is_zero()
        for got, want in zip(f2.term_arrays(), f1.term_arrays()):
            assert got.tobytes() == want.tobytes()
        assert multiply(h.modulate(delta), h.conj().modulate(-delta)) == h * h.conj()


def test_multiply_guard():
    # two 2000-key rays on distinct directions: 4e6 outer-product pairs
    keys = np.arange(1, 2001, dtype=np.int64)
    a = TrigPoly.from_rays([DenseBlock(EF(1), keys, np.ones(2000, dtype=complex))])
    b = TrigPoly.from_rays([DenseBlock(EF.sqrt_of(2), keys, np.ones(2000, dtype=complex))])
    assert 2000 * 2000 > MAX_OUTER_PAIRS
    with pytest.raises(ValueError, match="outer-product pairs"):
        multiply(a, b)
    # two dense 70000-key rays: one convolution of 4.9e9 multiply-adds
    keys = np.arange(1, 70001, dtype=np.int64)
    wide = TrigPoly.from_rays([DenseBlock(EF(1), keys, np.ones(70000, dtype=complex))])
    assert 70000 * 70000 > MAX_CONVOLUTION
    with pytest.raises(ValueError, match="convolution multiply-adds"):
        modulus_squared(wide)
    # a 2000-term one-ray product is one 4001-key convolution
    big = TrigPoly([(EF(k), 1.0) for k in range(2000)])
    assert multiply(big, big).term_count() == 3999


def test_sparse_rays_on_one_direction_multiply_pair_by_pair(monkeypatch):
    # key spans of 2e9 and 5e6 hold a handful of terms: no dense span is allocated
    calls = _count_products(monkeypatch)
    wide = TrigPoly([(EF(0), 1.0), (EF(1), 1.0 + 1j), (EF(2 * 10**9), 0.5)])
    for g in (TrigPoly.character(EF(1), 2.0), wide, TrigPoly([(EF(Fraction(-1, 2)), 1.0), (EF(2500000), 1e-9)])):
        got, ref = multiply(wide, g), _pair_product(wide, g)
        assert got.frequencies() == ref.frequencies()
        assert np.all(np.abs(got.term_arrays()[1] - ref.term_arrays()[1]) <= 1e-12 * wide.wiener_norm() * g.wiener_norm())
    assert set(calls) == {"_outer_rays"}
    assert wide * TrigPoly.constant(2.0) == wide * 2.0
    assert modulus_squared(wide) == _pair_sum_modsq(wide)


def test_approximate_reciprocal_of_a_sparse_ray_matches_the_pair_sum(monkeypatch):
    # 3 + cos x + 0.5 cos(1e5 x): each Neumann step multiplies rays of key span up to 2e6,
    # and the error is certified at degree 2.1e6 on the 2^23 points of MAX_GRID_POINTS
    h = TrigPoly.from_cos([(EF(1), 1.0), (EF(10**5), 0.5)], constant=3.0)
    r, err = checks.approximate_reciprocal(h)
    monkeypatch.setattr(checks, "multiply", _pair_product)
    ref, ref_err = checks.approximate_reciprocal(h)
    assert r.frequencies() == ref.frequencies()
    assert np.all(np.abs(r.term_arrays()[1] - ref.term_arrays()[1]) <= 1e-12)
    assert err == pytest.approx(ref_err, rel=1e-6) and err < 1e-6


def test_multiply_a_constant_by_a_ray_of_any_base():
    # a constant factor scales a ray of any base: no lattice to align, even at a ratio past int64
    ray = TrigPoly([(EF(0), 1.0), (EF(Fraction(1, 2**70)), 1.0 - 1j)])
    for f, g in ((TrigPoly.constant(2.0), ray), (ray, TrigPoly.constant(2.0))):
        assert multiply(f, g) == ray * 2.0
    assert modulus_squared(ray) == _pair_sum_modsq(ray)


def test_the_guard_lets_every_roots_factor_up_to_degree_2_15_form_its_square(monkeypatch):
    # s of degree n has keys -n, -n + 2, ..., n on rho/2: a span of 2n + 1 for odd n once reduced
    monkeypatch.setattr(trigpoly, "_convolve_rays", lambda x, y, ratio: (0j, []))
    for n in (2**15 - 1, 2**15, 2**15 + 1):
        keys = np.arange(-n, n + 1, 2, dtype=np.int64)
        s = TrigPoly.from_rays([DenseBlock(EF(Fraction(1, 2)), keys[keys != 0], np.ones(n + 1 - (n % 2 == 0)) + 0j)], const=1.0)
        if n <= 2**15:
            modulus_squared(s)
        else:
            with pytest.raises(ValueError, match="convolution multiply-adds"):
                modulus_squared(s)


def test_spectrum_info():
    f = TrigPoly([(EF(-2), 1.0), (EF.sqrt_of(2), 2.0), (EF(1), 1.0)])
    info = spectrum(f)
    assert info.count == 3
    assert info.inf_freq == EF(-2)
    assert info.sup_freq == EF.sqrt_of(2)
    assert info.bandwidth == EF.sqrt_of(2) + 2
    assert info.tau == EF(2)  # 2 > sqrt(2)
    empty = spectrum(TrigPoly())
    assert empty.count == 0
    assert empty.bandwidth == EF(0)


def test_bohr_coefficient():
    f = TrigPoly([(EF.sqrt_of(2), 1 + 2j)])
    assert bohr_coefficient(f, EF.sqrt_of(2)) == 1 + 2j
    assert bohr_coefficient(f, EF.sqrt_of(3)) == 0


def test_mean_value_numeric_frozen():
    # quadrature oracle: estimate 2.042413314858006 + 1j, bound 0.042426
    f = TrigPoly([(EF(0), 3.0), (EF.sqrt_of(2), 2 + 1j)])
    est, bound = mean_value_numeric(f, EF.sqrt_of(2), 50.0)
    assert abs(est - (2.042413314858006 + 1.0j)) < 1e-9
    assert abs(bound - 0.04242640687119285) < 1e-12
    assert abs(est - (2 + 1j)) <= bound


def test_mean_value_exact_hit():
    f = TrigPoly([(EF(0), 5.0)])
    est, bound = mean_value_numeric(f, EF(0), 10.0)
    assert est == 5.0
    assert bound == 0.0


def test_wiener_norm():
    f = TrigPoly([(EF(1), 3 + 4j), (EF(-1), 1.0)])
    assert f.wiener_norm() == 6.0


def test_is_real_tolerance():
    f = TrigPoly([(EF(1), 1.0), (EF(-1), 1.0 + 1e-6j)])
    assert not f.is_real(tol=1e-9)
    assert f.is_real(tol=1e-3)


# -- lazy product form ----------------------------------------------------------


def _two_ray_poly():
    """Small origin-centred polynomial: a constant and two radical rays."""
    rho1 = EF.sqrt_of(2) / 5
    rho2 = EF.sqrt_of(3) / 7
    terms: list[tuple[EF, complex]] = [(EF(0), 2.0)]
    terms += [(rho1 * k, c) for k, c in zip([-2, 1, 3], [0.5 - 0.1j, 1.0, -0.25j])]
    terms += [(rho2 * k, c) for k, c in zip([-1, 2], [0.75, 0.4 + 0.2j])]
    return TrigPoly(terms)


def test_product_poly_matches_dict_route():
    h = _two_ray_poly()
    f_dict = _pair_sum_modsq(h)  # one exact frequency per coefficient pair
    f_lazy = ProductPoly(h)
    # same values on a grid
    xs = np.linspace(-7, 7, 41)
    assert np.allclose(f_lazy.evaluate(xs), f_dict.evaluate(xs).real, atol=1e-12)
    # spectral extremes agree
    sd, sl = spectrum(f_dict), f_lazy.spectrum()
    assert sd.inf_freq == sl.inf_freq
    assert sd.sup_freq == sl.sup_freq
    assert sl.count >= sd.count


def _count_products(monkeypatch) -> list:
    """Every partial product the kernel forms: one per convolution and per outer product."""
    calls = []
    for name in ("_convolve_rays", "_outer_rays"):
        real = getattr(trigpoly, name)
        monkeypatch.setattr(trigpoly, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def test_product_poly_spectrum_builds_no_autocorrelation(monkeypatch):
    # the count is the bound n(n - 1) + 1 on the differences of h's 6 frequencies
    calls = _count_products(monkeypatch)
    f = ProductPoly(_two_ray_poly())
    info = spectrum(f)
    f.term_count_upper()
    assert calls == []
    assert info.count == 31 and info.tau == spectrum(f.factor).bandwidth
    assert info.count >= spectrum(f.to_trigpoly()).count
    assert spectrum(ProductPoly(TrigPoly())) == SpectrumInfo.empty()


def test_product_poly_exact_self_subtraction():
    # a factor shifted off the origin and back rebuilds the same product
    s = _two_ray_poly()
    delta = EF.sqrt_of(2) * 3 / 5
    h = s.modulate(delta)
    f1 = ProductPoly(h.modulate(-delta))
    f2 = ProductPoly(s)
    assert f1.to_trigpoly() == f2.to_trigpoly()


def test_product_poly_detects_difference():
    h = _two_ray_poly()
    terms = dict(h.sorted_terms())
    terms[EF.sqrt_of(2) / 5 * -2] += 0.5
    assert ProductPoly(h).to_trigpoly() != ProductPoly(TrigPoly(terms)).to_trigpoly()


@st.composite
def small_polys(draw):
    n = draw(st.integers(1, 5))
    freqs = draw(
        st.lists(
            st.sampled_from(
                [EF(0), EF(1), EF(-1), EF(2), EF.sqrt_of(2), -EF.sqrt_of(2), EF.sqrt_of(3)]
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    coeffs = draw(
        st.lists(
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return TrigPoly(list(zip(freqs, coeffs)))


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_product_evaluates_pointwise(f, g):
    xs = np.linspace(-4, 4, 9)
    assert np.allclose(multiply(f, g).evaluate(xs), f.evaluate(xs) * g.evaluate(xs), atol=1e-9)


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_modulus_squared_is_nonnegative_real(f):
    p = modulus_squared(f)
    assert p.is_real()
    xs = np.linspace(-6, 6, 25)
    vals = p.evaluate(xs)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.min(vals.real) > -1e-10


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_wiener_norm_subadditive_under_product(f):
    p = multiply(f, f)
    assert p.wiener_norm() <= f.wiener_norm() ** 2 + 1e-9



def _pair_sum_modsq(h):
    """Reference |h|^2: one exact frequency difference per coefficient pair."""
    acc = {}
    for wi, ci in h.sorted_terms():
        for wj, cj in h.sorted_terms():
            w = wi - wj
            acc[w] = acc.get(w, 0j) + ci * cj.conjugate()
    return TrigPoly(acc)


def _pair_product(f, g):
    """Reference f*g: one exact frequency sum per coefficient pair, summed in a dict."""
    acc = {}
    for wa, ca in f.sorted_terms():
        for wb, cb in g.sorted_terms():
            w = wa + wb
            v = acc.get(w)
            acc[w] = ca * cb if v is None else v + ca * cb
    return TrigPoly(acc)


def _autocorrelate(keys, coeffs):
    """Reference autocorrelation of one ray: (delta keys, values) with values[d] = sum_k c_{k+d} * conj(c_k).

    One dense complex convolution of the ray with its reversed conjugate.
    """
    if len(keys) == 0:
        return keys.copy(), coeffs.copy()
    k0, k1 = int(keys[0]), int(keys[-1])
    width = k1 - k0 + 1
    dense = np.zeros(width, dtype=complex)
    dense[keys - k0] = coeffs
    corr = np.convolve(dense, np.conjugate(dense[::-1]))
    deltas = np.arange(-(width - 1), width, dtype=np.int64)
    nz = corr != 0
    return deltas[nz], corr[nz]


def _autocorrelation_modsq(h):
    """Reference |h|^2 of a one-ray h: the constant at key 0, one `_autocorrelate`, its w > 0 side mirrored."""
    (b,) = ProductPoly(h)._blocks
    keys, vals = _autocorrelate(b.keys, b.coeffs)
    zero = keys == 0
    const = complex(vals[zero][0]) if zero.any() else 0j
    pos = keys > 0
    k, v = keys[pos], vals[pos]
    ray = DenseBlock(b.base, np.concatenate([-k[::-1], k]), np.concatenate([np.conjugate(v[::-1]), v]))
    return TrigPoly.from_rays([ray], const=complex(const.real, 0.0))


# 1 and sqrt 2 multiply onto the direction of 1 + sqrt 2, and sqrt 2 / 3 shares sqrt 2's
_RADICAL_BASES = [EF(1), EF.sqrt_of(2), EF.sqrt_of(2) / 3, EF(1) + EF.sqrt_of(2), EF.sqrt_of(3) / 5]
# four directions, so that three distinct ones can be drawn
_DIRECTIONS = [EF(1), EF.sqrt_of(2) / 3, EF(1) + EF.sqrt_of(2), EF.sqrt_of(3) / 5]


def _spelled_with_8(p: TrigPoly) -> TrigPoly:
    """p read back from its JSON terms with every c sqrt 2 spelled (c/2) sqrt 8."""
    payload = trigpoly_to_json(p)
    for t in payload["terms"]:
        t["freq"]["rad"] = [["8", str(Fraction(c) / 2)] if d == "2" else [d, c] for d, c in t["freq"]["rad"]]
    return trigpoly_from_json(payload)


@st.composite
def product_operands(draw):
    """Two polynomials with Gaussian coefficients, so that no coefficient of the product is exactly 0 by chance."""
    kinds = ["one ray", "one direction", "radical rays", "constants", "shifted", "shifted, three directions", "radicand 8", "zero"]
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(bases, rays=(1, 3)):
        terms = []
        if not bases or draw(st.booleans()):
            terms.append((EF(0), complex(*rng.normal(size=2))))
        if bases:
            for base in draw(st.lists(st.sampled_from(bases), unique=True, min_size=rays[0], max_size=rays[1])):
                keys = sorted(draw(st.sets(st.integers(-12, 12).filter(bool), min_size=1, max_size=8)))
                terms += [(base * k, complex(*rng.normal(size=2))) for k in keys]
        return TrigPoly(terms)

    if kind == "one direction":
        f, g = operand([EF(Fraction(1, 2))]), operand([EF(Fraction(1, 3))])
    elif kind == "constants":
        f, g = operand([]), operand([])
    elif kind in ("one ray", "zero"):
        f, g = operand([EF(1)]), operand([EF(1)])
    elif kind == "shifted, three directions":
        f, g = operand(_DIRECTIONS, (3, 3)), operand(_DIRECTIONS, (3, 3))
    else:
        f, g = operand(_RADICAL_BASES), operand(_RADICAL_BASES)
    if kind.startswith("shifted"):
        shifts = [EF(0), EF(Fraction(1, 7)), EF.sqrt_of(5) - EF(3)]
        f, g = f.modulate(draw(st.sampled_from(shifts))), g.modulate(draw(st.sampled_from(shifts)))
    if kind == "radicand 8":
        spelled = _spelled_with_8(f), _spelled_with_8(g)
        assert spelled == (f, g)
        f, g = spelled
    if kind == "zero":
        f = TrigPoly()
    return (g, f) if draw(st.booleans()) else (f, g)


@given(product_operands())
@settings(max_examples=150, deadline=None)
def test_multiply_matches_the_pair_sum(operands):
    f, g = operands
    got, ref = multiply(f, g), _pair_product(f, g)
    assert got.frequencies() == ref.frequencies()
    tol = 1e-12 * f.wiener_norm() * g.wiener_norm()
    assert np.all(np.abs(got.term_arrays()[1] - ref.term_arrays()[1]) <= tol)
    assert f * g == got


def _one_ray_factors() -> dict:
    """One-ray h with and without a constant, real and complex, and the factor of every one-ray roots golden."""
    rng = np.random.default_rng(5)
    keys = np.array([-7, -3, -2, 1, 4, 9, 10], dtype=np.int64)
    cases = {}
    for const in (0j, 0.7 - 0.2j):
        for real in (False, True):
            coeffs = rng.normal(size=len(keys)) + (0 if real else 1j * rng.normal(size=len(keys)))
            cases[f"const={const} real={real}"] = TrigPoly.from_rays([DenseBlock(EF(Fraction(2, 3)), keys, coeffs)], const=const)
    for path in sorted((Path(__file__).parent / "data" / "roots").glob("*.bundle.json")):
        s = report_from_json(load_path(str(path))["report"]).factor
        if len(ray_partition(s)[1]) == 1:
            cases[path.name] = s
    return cases


_ONE_RAY_FACTORS = _one_ray_factors()


@pytest.mark.parametrize("name", sorted(_ONE_RAY_FACTORS))
def test_modulus_squared_of_one_ray_is_the_autocorrelation_bit_for_bit(name):
    h = _ONE_RAY_FACTORS[name]
    for got, want in zip(modulus_squared(h).term_arrays(), _autocorrelation_modsq(h).term_arrays()):
        assert got.tobytes() == want.tobytes()


_coeffs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=3, allow_nan=False, allow_infinity=False)


@given(
    st.one_of(
        small_polys(),
        small_polys().map(lambda f: f.modulate(EF.sqrt_of(5) - EF(3))),  # off-origin
        _coeffs.map(TrigPoly.constant),
        # sparse ray: the constant rides at key 0, keys 1 and 500 span 501
        st.tuples(_coeffs, _coeffs, _coeffs).map(lambda c: TrigPoly(zip([EF(0), EF(1), EF(500)], c))),
    )
)
@settings(max_examples=80, deadline=None)
def test_modulus_squared_matches_pair_sum(h):
    f = modulus_squared(h)
    ref = _pair_sum_modsq(h)
    tol = 1e-12 * h.wiener_norm() ** 2
    assert all(abs(c) <= tol for _, c in (f - ref).sorted_terms())
    for w, c in f.sorted_terms():
        assert f.coefficient(-w) == c.conjugate()  # exact, not approximate
    assert f.coefficient(EF(0)).imag == 0.0
    # the extremes +-bandwidth(h) carry c_max * conj(c_min), dropped only by underflow
    sp, sf = ProductPoly(h).spectrum(), spectrum(f)
    assert sp.count >= sf.count
    if sf.count:
        assert sp.inf_freq <= sf.inf_freq and sf.sup_freq <= sp.sup_freq
    terms = h.sorted_terms()
    if terms and terms[-1][1] * terms[0][1].conjugate() != 0:
        assert (sp.inf_freq, sp.sup_freq) == (sf.inf_freq, sf.sup_freq)


def test_modulus_squared_materializes_product_poly():
    # ProductPoly stays lazy; modulus_squared expands it to the pair sum
    h = _two_ray_poly()
    f = ProductPoly(h)
    const, rays = ray_partition(f.factor)
    assert const == 2.0 and len(rays) == 2
    plain = modulus_squared(h)
    assert isinstance(plain, TrigPoly)
    mat = f.to_trigpoly()
    assert mat.frequencies() == plain.frequencies()
    tol = 1e-12 * h.wiener_norm() ** 2
    assert all(abs(c) <= tol for _, c in (mat - plain).sorted_terms())
    assert all(abs(c) <= tol for _, c in (mat - _pair_sum_modsq(h)).sorted_terms())


def test_ray_partition_is_kept_and_read_only():
    h = _two_ray_poly()
    assert ray_partition(h) is ray_partition(h)
    _, rays = ray_partition(h)
    for b in rays:
        with pytest.raises(ValueError):
            b.keys[0] = 7
        with pytest.raises(ValueError):
            b.coeffs[0] = 7.0
    # the product puts the constant on its first ray without touching the kept split
    ProductPoly(h)
    assert [b.keys.tolist() for b in ray_partition(h)[1]] == [[-1, 2], [-2, 1, 3]]


# -- evaluation kernels --------------------------------------------------------


def _direct(f, xs):
    """The direct sum at the same points: complex x never takes the grid path."""
    if isinstance(f, ProductPoly):
        return np.abs(f.factor.evaluate(xs.astype(complex))) ** 2
    return f.evaluate(xs.astype(complex))


def _assert_grid_matches_direct(f, xs):
    assert _grid_rows(xs) is not None
    fast = f.evaluate(xs)
    err = evaluation_error(f, float(np.max(np.abs(xs))))
    assert np.max(np.abs(fast - _direct(f, xs))) <= err


def _one_ray(n_terms, seed=0):
    rng = np.random.default_rng(seed)
    lo = -(n_terms // 2)
    return TrigPoly(
        [(EF(k), complex(*rng.normal(size=2))) for k in range(lo, lo + n_terms)]
    )


def _construct_like_product(seed=0):
    """|s|^2 with a constant and two radical rays of keys 2 <= |k| <= 40."""
    rng = np.random.default_rng(seed)
    terms = [(EF(0), 3.0)]
    for base in (EF.sqrt_of(2) / 5, EF.sqrt_of(3) / 7):
        keys = np.concatenate([np.arange(-40, -1), np.arange(2, 41)]).astype(np.int64)
        coeffs = rng.normal(size=len(keys)) / keys**2 + 0j
        terms += [(base * k, c) for k, c in zip(keys.tolist(), coeffs.tolist())]
    return ProductPoly(TrigPoly(terms))


def test_grid_kernel_one_ray():
    _assert_grid_matches_direct(_one_ray(65), np.linspace(-32 * np.pi, 32 * np.pi, 4097))


def test_grid_kernel_radical_product():
    p = _construct_like_product()
    assert p.factor.term_count() == 157
    _assert_grid_matches_direct(p, np.linspace(-32 * np.pi, 32 * np.pi, 3001))


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 1000])
def test_grid_kernel_point_counts(n):
    f = TrigPoly.from_cos([(1, 1.5), (EF.sqrt_of(2), 0.5 - 0.25j), (EF(Fraction(7, 3)), 2.0)], constant=4.0)
    _assert_grid_matches_direct(f, np.linspace(-7.3, 11.1, n))


def test_grid_kernel_period_grid():
    _assert_grid_matches_direct(_one_ray(33, 1), np.linspace(0.0, 2 * np.pi, 4096, endpoint=False))


def test_grid_kernel_sampled_interior():
    s = SampledFunction(20.0, 0.01, np.zeros(4001, dtype=complex))
    xs = s.xs()[s.interior(0.8)]
    _assert_grid_matches_direct(_one_ray(17, 2), xs)


def test_grid_kernel_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    f = _one_ray(65, 3)
    xs = np.linspace(-32 * np.pi, 32 * np.pi, 257)
    fast = f.evaluate(xs)
    with mpmath.workdps(40):
        terms = [(int(w.rational), mpmath.mpc(c.real, c.imag)) for w, c in f.sorted_terms()]
        ref = [
            complex(mpmath.fsum(c * mpmath.expj(k * mpmath.mpf(float(x))) for k, c in terms))
            for x in xs
        ]
    err = evaluation_error(f, float(np.max(np.abs(xs))))
    assert np.max(np.abs(fast - np.array(ref))) <= err


def _seed_direct(terms, x):
    """The direct sum exactly as it was written before the grid kernel."""
    xs = np.asarray(x)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs).astype(complex)
    out = np.zeros(xs.shape, dtype=complex)
    ws = np.array([float(w) for w, _ in terms])
    cs = np.array([c for _, c in terms])
    step = max(1, int(4_000_000 // max(1, xs.size)))
    for i in range(0, len(ws), step):
        out += cs[i : i + step] @ np.exp(1j * np.outer(ws[i : i + step], xs))
    return complex(out[0]) if scalar else out


def test_direct_sum_unchanged_off_grid():
    f = _one_ray(65, 4)
    terms = f.sorted_terms()
    irregular = np.sort(np.random.default_rng(5).uniform(-30, 30, 500))
    nudged = np.linspace(-3.0, 3.0, 101)
    nudged[50] += 1e-9
    complex_grid = np.linspace(-3.0, 3.0, 101) + 0.5j
    for xs in (irregular, nudged, complex_grid):
        assert _grid_rows(xs) is None
        assert np.array_equal(f.evaluate(xs), _seed_direct(terms, xs))
    assert f.evaluate(0.7) == _seed_direct(terms, 0.7)
    assert f.evaluate(0.3 + 0.2j) == _seed_direct(terms, 0.3 + 0.2j)


# -- polynomials given by rays ---------------------------------------------


class _Oracle:
    """Reference for a TrigPoly: its exact terms in a dict {ExactFrequency: complex}.

    Coefficients of one frequency sum left to right and exact zeros drop;
    every reading sorts the terms by exact comparison and takes float(w)
    of each frequency.  A TrigPoly must give the same readings bit for bit.
    """

    def __init__(self, terms):
        acc = {}
        for w, c in terms:
            w, c = (w if isinstance(w, EF) else EF(w)), complex(c)
            acc[w] = acc[w] + c if w in acc else c
        self.terms = {w: c for w, c in acc.items() if c != 0}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def frequencies(self):
        return [w for w, _ in self.sorted_terms()]

    def term_arrays(self):
        terms = self.sorted_terms()
        return np.array([float(w) for w, _ in terms], dtype=float), np.array([c for _, c in terms], dtype=complex)

    def sorted_terms_json(self):
        return [(w.to_json(), c) for w, c in self.sorted_terms()]

    def wiener_norm(self):
        cs = np.array(list(self.terms.values()), dtype=complex)
        return math.fsum(np.hypot(cs.real, cs.imag).tolist())

    def spectrum(self):
        if not self.terms:
            return SpectrumInfo.empty()
        freqs = self.frequencies()
        lo, hi = freqs[0], freqs[-1]
        return SpectrumInfo(len(freqs), lo, hi, hi - lo, max(abs(lo), abs(hi)))

    def evaluate(self, x):
        return _evaluate_arrays(*self.term_arrays(), x)

    def map(self, freq, coeff):
        return _Oracle((freq(w), coeff(c)) for w, c in self.terms.items())

    def plus(self, other, sign):
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, 0j) + c if sign > 0 else acc.get(w, 0j) - c
        return _Oracle(acc.items())


def _assert_matches_oracle(f, ref):
    for got, want in zip(f.term_arrays(), ref.term_arrays()):
        assert got.tobytes() == want.tobytes()
    assert f.sorted_terms_json() == ref.sorted_terms_json()
    assert f.wiener_norm() == ref.wiener_norm()
    assert spectrum(f) == ref.spectrum()
    assert f.term_count() == len(ref.terms)
    assert dict(f._terms) == ref.terms


def _rays_to_terms(rays, shift):
    return [(shift + b.base * k, c) for b in rays for k, c in zip(b.keys.tolist(), b.coeffs.tolist())]


@st.composite
def exact_frequencies(draw, positive=False, big=False):
    # big: numerators and denominators may pass 2**53, independently
    num = st.one_of(st.integers(-60, 60), st.integers(-(10**18), 10**18)) if big else st.integers(-60, 60)
    den = st.one_of(st.integers(1, 40), st.integers(1, 10**17)) if big else st.integers(1, 40)
    rat = Fraction(draw(num), draw(den))
    rads = draw(
        st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 13]), st.builds(Fraction, num, den)), max_size=3)
    )
    w = EF(rat, rads)
    if positive and w.sign() <= 0:
        w = EF(1) if w.is_zero() else -w
    return w


@st.composite
def ray_polys(draw):
    """Rays on distinct rational directions, and a shift."""
    rays = []
    for _ in range(draw(st.integers(0, 3))):
        base = draw(exact_frequencies(positive=True))
        if any(rational_ratio(base, r.base) is not None for r in rays):
            continue
        keys = sorted(draw(st.sets(st.integers(-40, 40).filter(bool), min_size=1, max_size=12)))
        coeffs = [complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))) for _ in keys]
        rays.append(DenseBlock(base, np.array(keys, dtype=np.int64), np.array(coeffs)))
    shift = draw(st.one_of(st.just(EF(0)), exact_frequencies()))
    return rays, shift


@given(exact_frequencies(positive=True, big=True), exact_frequencies(big=True), st.lists(st.integers(-(10**6), 10**6), max_size=20))
@settings(max_examples=200, deadline=None)
def test_ray_floats_match_exact_frequencies(base, shift, keys):
    # the vectorized floats and the term-by-term fallback both round as float(EF) does
    ks = np.array(keys, dtype=np.int64)
    got = _ray_floats(base, ks, shift)
    want = [float(shift + base * k) for k in keys]
    assert got.tolist() == want
    assert np.signbit(got).tolist() == [math.copysign(1.0, w) < 0 for w in want]


def test_ray_floats_key_zero_with_a_huge_cross_numerator():
    # b*A = 424194283 * 27378296115 exceeds int64: kmax = 0 must not let it into numpy
    base, shift = EF(424194283), EF(Fraction(-7, 27378296115))
    for keys in ([0], [0, 0], [0, 1]):
        got = _ray_floats(base, np.array(keys, dtype=np.int64), shift)
        assert got.tolist() == [float(shift + base * k) for k in keys]


def test_ray_floats_large_denominators():
    # a denominator past 2**53 is no exact float: such coordinates take the exact route
    keys = np.arange(-300, 300)
    for base in (EF(Fraction(7, 10**17 + 3)), EF(0, [(2, Fraction(3, 2**53 + 1))])):
        for shift in (EF(0), EF(Fraction(1, 3)), EF.sqrt_of(5, Fraction(2, 9))):
            want = [float(shift + base * k) for k in keys.tolist()]
            assert _ray_floats(base, keys, shift).tolist() == want


@given(ray_polys())
@settings(max_examples=150, deadline=None)
def test_from_rays_matches_term_by_term(case):
    rays, shift = case
    lazy = TrigPoly.from_rays(rays, shift)
    ref = _Oracle(_rays_to_terms(rays, shift))
    assert lazy.term_count() == len(ref.terms)
    assert lazy.is_zero() == (not ref.terms)
    # read from the arrays, bit for bit what the exact terms give
    for got, want in zip(lazy.term_arrays(), ref.term_arrays()):
        assert got.tobytes() == want.tobytes()
    assert lazy.wiener_norm() == ref.wiener_norm()
    xs = np.linspace(-7.0, 9.0, 33)
    assert lazy.evaluate(xs).tobytes() == ref.evaluate(xs).tobytes()
    assert spectrum(lazy) == ref.spectrum()
    if shift.is_zero():
        const, blocks = ray_partition(lazy)
        ref_const, ref_blocks = ray_partition(TrigPoly(ref.terms))
        assert const == ref_const and len(blocks) == len(ref_blocks)
        for b, r in zip(blocks, ref_blocks):
            assert b.base == r.base
            assert b.keys.tolist() == r.keys.tolist() and b.coeffs.tolist() == r.coeffs.tolist()
    assert lazy._view is None  # nothing above built the exact terms
    assert lazy == TrigPoly(ref.terms) and TrigPoly(ref.terms) == lazy
    assert lazy.sorted_terms() == ref.sorted_terms()


_FREQS = [
    EF(0), EF(1), EF(-1), EF(3), EF(Fraction(1, 3)), EF(Fraction(-5, 6)), EF.sqrt_of(2), -EF.sqrt_of(2),
    EF.sqrt_of(2, Fraction(3, 2)), EF.sqrt_of(3), EF(1) + EF.sqrt_of(2), EF(Fraction(1, 2)) - EF.sqrt_of(5, 2),
]
# exact zeros of both signs, and magnitudes whose products underflow to zero
_term_coeffs = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 0.5j, 1e-200 + 0j, -3e-170j]),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
_frequencies = st.one_of(st.sampled_from(_FREQS), exact_frequencies())


@st.composite
def term_lists(draw):
    """(frequency, coefficient) terms with repeated frequencies, some of which cancel."""
    terms = draw(st.lists(st.tuples(_frequencies, _term_coeffs), max_size=10))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    return terms + [(w, -c) for w, c in cancel]


@given(term_lists(), _term_coeffs, _frequencies, st.lists(st.tuples(_frequencies, st.floats(-3, 3)), max_size=4))
@settings(max_examples=150, deadline=None)
def test_constructors_match_the_oracle(terms, c, w, pairs):
    _assert_matches_oracle(TrigPoly(terms), _Oracle(terms))
    _assert_matches_oracle(TrigPoly(dict(terms)), _Oracle(dict(terms).items()))
    _assert_matches_oracle(TrigPoly.constant(c), _Oracle([(EF(0), c)]))
    _assert_matches_oracle(TrigPoly.character(w, c), _Oracle([(w, c)]))
    cos_terms = [(EF(0), c.real)] + [t for v, a in pairs for t in ((v, a / 2), (-v, a / 2))]
    _assert_matches_oracle(TrigPoly.from_cos(pairs, constant=c.real), _Oracle(cos_terms))


_scalars = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-300, -1e-300j, complex(-0.0, 1.0)]),
)
_nonzero = exact_frequencies().filter(lambda w: not w.is_zero())
_operations = st.one_of(
    st.tuples(st.just("modulate"), _frequencies),
    # negative and radical scales, and a negative rational one
    st.tuples(st.just("dilate"), st.one_of(_nonzero, st.sampled_from([-EF.sqrt_of(2) / 3, EF(-2), EF.sqrt_of(5)]))),
    st.tuples(st.just("conj"), st.none()),
    st.tuples(st.just("neg"), st.none()),
    st.tuples(st.just("mul"), _scalars),
)


def _apply(op, arg, f, ref):
    if op == "modulate":
        return f.modulate(arg), ref.map(lambda w: w + arg, lambda c: c)
    if op == "dilate":
        return f.dilate(arg), ref.map(lambda w: w * arg, lambda c: c)
    if op == "conj":
        return f.conj(), ref.map(lambda w: -w, lambda c: c.conjugate())
    if op == "neg":
        return -f, ref.map(lambda w: w, lambda c: -c)
    return f * arg, (_Oracle(()) if arg == 0 else ref.map(lambda w: w, lambda c: c * arg))


@given(term_lists(), st.lists(_operations, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_form_operations_match_the_oracle(terms, ops):
    # each operation acts on (shift, const, rays) and must give what the
    # exact terms give; chains reach shifted forms and signs flipped by dilate
    f, ref = TrigPoly(terms), _Oracle(terms)
    for op, arg in ops:
        f, ref = _apply(op, arg, f, ref)
        _assert_matches_oracle(f, ref)


def _two_ray_h() -> TrigPoly:
    """77 terms: a constant and keys -19..19 on each of the rays 1 and sqrt 2."""
    rng = np.random.default_rng(7)
    terms = [(EF(0), 1.0 + 0j)]
    for base in (EF(1), EF.sqrt_of(2)):
        terms += [(base * k, complex(*rng.normal(size=2))) for k in range(-19, 20) if k]
    return TrigPoly(terms)


def test_codec_and_sums_build_exact_frequencies_per_ray_not_per_term(monkeypatch):
    # the reader groups coordinates by ray in integers and the writer spells
    # each term from its ray's base and key; a sum builds one base per
    # merged ray, and the partition is the form itself
    h = _two_ray_h()
    assert h.term_count() == 77
    payload = trigpoly_to_json(h)
    built = []
    fill = frequency._fill
    monkeypatch.setattr(frequency, "_fill", lambda *args: built.append(1) or fill(*args))

    def count(make):
        built.clear()
        return make(), len(built)

    g, n = count(lambda: trigpoly_from_json(payload))
    assert g == h and n <= len(ray_partition(h)[1]) == 2
    assert count(lambda: trigpoly_to_json(g)) == (payload, 0)
    assert count(lambda: ray_partition(g))[1] == 0
    wide = h.dilate(2)
    for make in (lambda: g + g, lambda: g - g * 0.5, lambda: g + wide):
        total, n = count(make)
        assert n <= len(ray_partition(total)[1])


def test_keys_past_int64_are_refused():
    # 1 and 10**30 on one ray need the key 10**30
    with pytest.raises(MalformedInput, match="int64"):
        TrigPoly([(EF(1), 1.0), (EF(-1), 1.0), (EF(10**30), 1.0), (EF(0), 3.0)])
    # a sum of two rays on one direction whose common lattice leaves int64
    a = TrigPoly.from_rays([DenseBlock(EF(1), np.array([1]), np.array([1.0 + 0j]))])
    b = TrigPoly.from_rays([DenseBlock(EF(Fraction(1, 2**62)), np.array([1]), np.array([1.0 + 0j]))])
    with pytest.raises(MalformedInput, match="int64"):
        a + b


def _is_real_term_by_term(terms: dict, tol: float) -> bool:
    scale = max((abs(c) for c in terms.values()), default=0.0)
    return all(abs(c - terms.get(-w, 0j).conjugate()) <= tol * scale for w, c in terms.items())


@given(ray_polys(), ray_polys(), st.booleans(), st.sampled_from([0j, 1.5 - 0.5j, -2.0 + 0j]))
@settings(max_examples=150, deadline=None)
def test_ray_methods_match_term_by_term(a, b, subtract, const):
    # sum, difference, derivative, realness and sorted terms read from the
    # rays give what the exact term dicts give, bit for bit
    pa, pb = TrigPoly.from_rays(a[0], const=const), TrigPoly.from_rays(b[0])
    da = _Oracle(_rays_to_terms(a[0], EF(0)) + [(EF(0), const)])
    db = _Oracle(_rays_to_terms(b[0], EF(0)))
    got = pa - pb if subtract else pa + pb
    want = da.plus(db, -1 if subtract else 1)  # term by term
    assert got == TrigPoly(want.terms) and dict(got._terms) == want.terms
    for g, w in zip(got.term_arrays(), want.term_arrays()):
        assert g.tobytes() == w.tobytes()
    exact = [(w.to_json(), c) for w, c in want.sorted_terms()]
    assert [(w.to_json(), c) for w, c in got.sorted_terms()] == exact
    slope = _Oracle((w, c * 1j * float(w)) for w, c in da.sorted_terms())
    for g, w in zip(pa.derivative().term_arrays(), slope.term_arrays()):
        assert g.tobytes() == w.tobytes()
    real = pa + pa.conj()
    nearly = real + TrigPoly.from_rays(a[0][:1], const=1e-13j)
    # 97 is on no drawn ray, so this term's mirror is absent, and it is tiny
    lopsided = real + TrigPoly.from_rays([DenseBlock(EF(1), np.array([97]), np.array([1e-13 + 0j]))], const=2.0)
    for p in (pa, real, nearly, lopsided):
        for tol in (0.0, 1e-12):
            assert p.is_real(tol) == _is_real_term_by_term(p._terms, tol)


def test_from_rays_near_tie_sorts_exactly():
    # 1 < 1 + 1e-20*sqrt(2), but both round to the float 1.0, and the ray of
    # the larger base comes first in a stable sort by float
    close = EF(1) + EF.sqrt_of(2, Fraction(1, 10**20))
    rays = [DenseBlock(close, np.array([-1, 1]), np.array([3.0 + 0j, 4.0])),
            DenseBlock(EF(1), np.array([1, 2]), np.array([1.0 + 0j, 2.0]))]
    lazy = TrigPoly.from_rays(rays)
    ws, cs = lazy.term_arrays()
    assert cs.tolist() == [3.0, 1.0, 4.0, 2.0]
    assert ws.tolist() == [float(w) for w in _Oracle(_rays_to_terms(rays, EF(0))).frequencies()]


def test_from_rays_normalizes_and_refuses():
    # zero coefficients dropped, keys rescaled to gcd 1, rays ordered by base
    lazy = TrigPoly.from_rays([
        DenseBlock(EF.sqrt_of(3), np.array([2, 4, 6]), np.array([1.0 + 0j, 0.0, 2.0])),
        DenseBlock(EF(Fraction(1, 2)), np.array([-1, 3]), np.array([5.0 + 0j, 6.0])),
    ])
    const, blocks = ray_partition(lazy)
    assert const == 0 and [b.base for b in blocks] == [EF(Fraction(1, 2)), EF.sqrt_of(3, 2)]
    assert blocks[1].keys.tolist() == [1, 3] and lazy.term_count() == 4
    assert not blocks[0].keys.flags.writeable and not blocks[1].coeffs.flags.writeable
    bad = [
        [DenseBlock(EF(-1), np.array([1]), np.array([1.0 + 0j]))],
        [DenseBlock(EF(1), np.array([0, 1]), np.array([1.0 + 0j, 1.0]))],
        [DenseBlock(EF(1), np.array([1, 1]), np.array([1.0 + 0j, 1.0]))],
        [DenseBlock(EF(1), np.array([1]), np.array([1.0 + 0j])), DenseBlock(EF(2), np.array([3]), np.array([1.0 + 0j]))],
    ]
    for rays in bad:
        with pytest.raises(ValueError):
            TrigPoly.from_rays(rays)


# -- the rays' own readings: Wiener norm, spectrum, float order, pair count ----


@given(ray_polys(), st.sampled_from([0j, 1.5 - 0.5j]))
@settings(max_examples=100, deadline=None)
def test_wiener_norm_reads_the_rays_unsorted(case, const):
    rays, shift = case
    lazy = TrigPoly.from_rays(rays, shift, const)
    got = lazy.wiener_norm()
    assert lazy._arrays is None and lazy._view is None  # nothing sorted, no exact term built
    cs = lazy.term_arrays()[1]
    assert got == math.fsum(np.hypot(cs.real, cs.imag).tolist())


def test_wiener_norm_unsorted_on_a_near_tie_and_a_dict():
    # the two rays' floats tie, so term_arrays sorts that run exactly
    close = EF(1) + EF.sqrt_of(2, Fraction(1, 10**20))
    tied = TrigPoly.from_rays([
        DenseBlock(close, np.array([-1, 1]), np.array([3.0 + 1e-17j, 4.0])),
        DenseBlock(EF(1), np.array([1, 2]), np.array([0.1 + 0.2j, 1e300])),
    ])
    from_dict = TrigPoly({EF(3): 0.1 + 0.7j, EF(-2): 1e-300, EF.sqrt_of(2, -1): -2.5j, EF(0): 1 / 3})
    for f in (tied, from_dict):
        got = f.wiener_norm()
        assert f._arrays is None and f._view is None
        cs = f.term_arrays()[1]
        assert got == math.fsum(np.hypot(cs.real, cs.imag).tolist())
        assert got == _Oracle(f._terms.items()).wiener_norm()


def test_spectrum_is_built_once_and_equals_a_rebuild():
    polys = [
        TrigPoly.from_rays([DenseBlock(EF.sqrt_of(3, Fraction(1, 5)), np.array([-4, 2, 9]), np.array([1.0 + 0j, 2j, 3.0]))], const=1.0),
        TrigPoly.from_rays([DenseBlock(EF(1), np.array([2, 5]), np.array([1.0 + 0j, 1.0]))], shift=EF(Fraction(-7, 2))),
        TrigPoly({EF(2): 1.0, EF.sqrt_of(2, -3): 2.0}),
        TrigPoly(),
    ]
    for f in polys:
        first = spectrum(f)
        assert spectrum(f) is first
        assert first == _Oracle(f._terms.items()).spectrum()


@st.composite
def _near_2_53(draw):
    """(base, shift, keys): 0-2 radicands in all (3 for the term-by-term route), keys near +-2**53."""
    rads = draw(st.sampled_from([(), (2,), (5,), (2, 3), (3, 7), (2, 3, 5)]))
    num = st.one_of(st.integers(-9, 9), st.integers(-(10**18), 10**18))
    den = st.one_of(st.integers(1, 9), st.integers(1, 10**17))

    def frequency():
        rat = Fraction(draw(num), draw(den))
        return EF(rat, [(d, Fraction(draw(num), draw(den))) for d in rads if draw(st.booleans())])

    base = frequency()
    if base.sign() <= 0:
        base = EF(1) if base.is_zero() else -base
    near = st.integers(2**53 - 70, 2**53 + 70)
    key = st.one_of(near, near.map(lambda k: -k), st.integers(-5, 5), st.integers(-(2**62), 2**62))
    return base, frequency(), draw(st.lists(key, min_size=1, max_size=12))


@given(_near_2_53())
@settings(max_examples=150, deadline=None)
def test_ray_float_bound_holds_at_50_digits(case):
    # |float - w| <= e/2, and the float interval [float - e, float + e] holds w
    import mpmath

    base, shift, keys = case
    ws, err = _ray_floats(base, np.array(keys, dtype=np.int64), shift, with_error=True)
    assert ws.tolist() == [float(shift + base * k) for k in keys]
    with mpmath.workdps(50):
        for k, w, e in zip(keys, ws.tolist(), err.tolist()):
            x = shift + base * k
            exact = mpmath.mpf(x.rational.numerator) / x.rational.denominator
            for d, c in x.radicals:
                exact += mpmath.sqrt(d) * mpmath.mpf(c.numerator) / c.denominator
            assert abs(mpmath.mpf(w) - exact) <= mpmath.mpf(e) / 2
            assert mpmath.mpf(w - e) <= exact <= mpmath.mpf(w + e)


def test_close_runs_sort_exactly_among_certified_ones():
    # three runs of tied floats, and a ray whose two parts nearly cancel:
    # 4.9e-17 * k, whose float is off by up to about 1e-4 at k ~ 1e12, which
    # is more than the 2.2e-5 steps of the sqrt(5) ray around it; only the
    # error bounds of all terms on either side of a cut certify it
    close = EF(1) + EF.sqrt_of(2, Fraction(1, 10**20))
    cancel = EF(Fraction(14142135623730951, 10**16)) - EF.sqrt_of(2)
    fine = np.array([k for k in range(-300, 301) if k], dtype=np.int64)
    rays = [
        DenseBlock(close, np.array([1, 2, 3]), np.array([1.0 + 0j, 2.0, 3.0])),
        DenseBlock(EF(1), np.array([1, 2, 3, 40]), np.array([4.0 + 0j, 5.0, 6.0, 7.0])),
        DenseBlock(cancel, np.array([-2, 1, 5, 10**12, 3 * 10**12]), np.array([8.0 + 0j, 9.0, 10.0, 10.5, 10.75])),
        DenseBlock(EF.sqrt_of(5, Fraction(1, 10**5)), fine, np.arange(1.0, len(fine) + 1) + 0j),
        DenseBlock(EF.sqrt_of(3, Fraction(1, 10**16)), np.array([-3, 1, 2]), np.array([11.0 + 0j, 12.0, 13.0])),
    ]
    for shift, const in ((EF(0), 0j), (EF(0), 14.0), (EF(Fraction(1, 3)), 15.0)):
        lazy = TrigPoly.from_rays(rays, shift, const)
        ref = _Oracle(_rays_to_terms(rays, shift) + [(shift, const)])
        for got, want in zip(lazy.term_arrays(), ref.term_arrays()):
            assert got.tobytes() == want.tobytes()
        assert lazy.sorted_terms() == ref.sorted_terms()


# n consecutive keys from lo with up to 6 of them left out
_dense_keys = st.integers(1, 80).flatmap(
    lambda n: st.builds(
        lambda lo, gaps: sorted(set(range(lo, lo + n)) - {lo + g for g in gaps}),
        st.integers(-50, 50), st.lists(st.integers(0, n - 1), max_size=6),
    )
)


@given(st.one_of(st.sets(st.integers(-300, 300), max_size=40).map(sorted), _dense_keys))
@example([0, 1, 4, 5])  # difference 2 misses every pair, though 2 < W - g
@settings(max_examples=200, deadline=None)
def test_difference_count_is_the_size_of_the_difference_set(keys):
    assert _difference_count(np.array(keys, dtype=np.int64)) == len({a - b for a in keys for b in keys})


def _dense_pair_count(pp: ProductPoly) -> int:
    sizes = [len(b.keys) for b in pp._blocks]
    return sum(len(_autocorrelate(b.keys, b.coeffs)[0]) for b in pp._blocks) + sum(sizes) ** 2 - sum(n * n for n in sizes)


_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "path",
    sorted((_DATA / "construct").glob("*.bundle.json")),
    ids=lambda p: str(p.relative_to(_DATA)),
)
def test_pair_count_from_keys_matches_the_dense_count_on_the_goldens(path):
    from apspec.serialize import construction_from_json, load_path

    obj = load_path(str(path))
    _, _, rho, *_, rays = construction_from_json(obj)
    pp = ProductPoly(TrigPoly.from_rays([DenseBlock(r, keys, coeffs) for r, (keys, coeffs) in zip(rho, rays)]))
    assert pp.term_count_upper() == _dense_pair_count(pp) == obj["f"]["pairs"]
