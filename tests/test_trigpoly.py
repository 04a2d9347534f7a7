import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec.frequency import ExactFrequency
from apspec.sampling import SampledFunction
from apspec.trigpoly import (
    ProductPoly,
    TrigPoly,
    _grid_rows,
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
    # multiplying h by a character must leave |h|^2 exactly unchanged
    h = TrigPoly([(EF(0), 1.1), (EF.sqrt_of(2), 0.5 + 2j), (EF(2), -0.25)])
    delta = EF.sqrt_of(5) - EF(3)
    f1 = modulus_squared(h)
    f2 = modulus_squared(h.modulate(delta))
    assert (f1 - f2).is_zero()


def test_multiply_guard():
    big = TrigPoly([(EF(k), 1.0) for k in range(2000)])
    with pytest.raises(ValueError):
        multiply(big, big)


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
