import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apspec.checks import (
    approximate_reciprocal,
    asym_decay_check,
    bernstein_check,
    factorization_residual,
    inverse_poisson_identity,
    poisson_eval,
    poisson_range_check,
)
from apspec.certify import MAX_GRID_POINTS, bernstein_sides, ez_points, fft_rounding, sup_norm_certified, sup_norm_upper
from apspec.errors import ReciprocalApproximationFailed
from apspec.frequency import ExactFrequency
from apspec.sampling import SampledFunction
from apspec.trigpoly import DenseBlock, TrigPoly, evaluation_error, modulus_squared, multiply, ray_partition, spectrum

EF = ExactFrequency

SIN = TrigPoly([(EF(1), -0.5j), (EF(-1), 0.5j)])


def test_bernstein_sin_equality():
    res = bernstein_check(SIN)
    assert res.passed
    # sup|cos| = 1 = tau * sup|sin|: lhs is cos's max on the 1024 points of
    # ez_points(1), which hold its peak; rhs is the Ehlich-Zeller bound for
    # sin on them, sec(pi/1024) = 1 + 4.7e-6 with the FFT's rounding
    assert res.lhs == 1.0
    assert res.rhs == res.upper == sup_norm_certified(SIN).upper
    assert 1.0 < res.rhs < 1 + 5e-6


def test_bernstein_constant_trivial():
    res = bernstein_check(TrigPoly.constant(5.0))
    assert res.passed and res.lhs == 0.0 and res.rhs == 0.0


def test_bernstein_zero_rejected():
    with pytest.raises(ValueError):
        bernstein_check(TrigPoly([]))


def test_bernstein_random_polys():
    rng = np.random.default_rng(17)
    freqs = [EF(1), EF(-2), EF.sqrt_of(2), EF.sqrt_of(3) / 2, EF(0)]
    for _ in range(20):
        terms = []
        for w in freqs:
            if rng.random() < 0.7:
                terms.append((w, complex(rng.normal(), rng.normal())))
        f = TrigPoly(terms)
        if f.is_zero():
            continue
        res = bernstein_check(f)
        assert res.lhs <= res.rhs * (1 + 1e-6)


def test_factorization_residual_exact_zero():
    s = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    f = modulus_squared(s)
    assert factorization_residual(f, s) == 0.0


def test_factorization_residual_perturbed():
    s = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    f = modulus_squared(s)
    s2 = s + TrigPoly([(EF(1), 1e-3)])
    res = factorization_residual(f, s2)
    assert 1e-4 < res < 1e-2


def test_factorization_residual_sampled():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    L, n = 8.0, 512
    xs = np.linspace(-L, L, n + 1)
    vals = np.sqrt(f.evaluate(xs).real) * np.exp(1j * 0.3 * xs)
    s = SampledFunction(L, 2 * L / n, vals)
    assert factorization_residual(f, s) < 1e-12
    s_bad = SampledFunction(L, 2 * L / n, vals + 0.05)
    assert factorization_residual(f, s_bad) > 1e-2


_ONE_RAY_BASES = (EF(1), EF(Fraction(1, 3)), EF.sqrt_of(3, Fraction(2, 5)))
_COEFF = st.one_of(st.just(0.0), st.floats(-2, 2))
_COEFFS = st.lists(st.builds(complex, _COEFF, _COEFF), min_size=2, max_size=12)


def _on_ray(base: EF, coeffs: list[complex]) -> TrigPoly:
    """sum_j coeffs[j] * exp(i*base*(j - n)*x), n = len(coeffs) // 2."""
    n = len(coeffs) // 2
    return TrigPoly([(base * (j - n), c) for j, c in enumerate(coeffs)])


def _scan(d: TrigPoly, lo: float, hi: float, npts: int) -> float:
    """max |d| on npts equispaced points of [lo, hi]."""
    return float(np.max(np.abs(d.evaluate(np.linspace(lo, hi, npts)))))


@given(st.sampled_from(_ONE_RAY_BASES), _COEFFS)
@example(EF(Fraction(1, 3)), [complex(0.0, 5e-324), 0j])  # f' = 5e-324 * 1/3 rounds to 0
@settings(max_examples=60, deadline=None)
def test_bernstein_lhs_brackets_sup_of_the_derivative_on_one_ray(base, coeffs):
    # one ray: lhs is max |f'| on the N points of one period that certify
    # sup|f|; a scan 64 times finer over the period bounds it from above,
    # and Ehlich-Zeller, sup <= sec(pi*maxk/N) * grid max, from below
    f = _on_ray(base, coeffs)
    assume(not spectrum(f).tau.is_zero())
    lhs = bernstein_check(f).lhs
    d = f.derivative()
    if d.is_zero():
        # every coefficient of f' underflowed to 0, so sup |f'| is 0 in floats
        assert lhs == 0.0
        return
    _, (ray,) = ray_partition(d)
    maxk = int(np.max(np.abs(ray.keys)))
    n = ez_points(maxk)
    period = 2 * math.pi / float(ray.base)
    scan = _scan(d, 0.0, period, 64 * n + 1)
    rounding = evaluation_error(d, period) + float(fft_rounding(n, d.wiener_norm()))
    assert lhs <= scan + rounding
    assert lhs >= math.cos(math.pi * maxk / n) * scan - rounding


def _bernstein_by_derivative(f: TrigPoly) -> tuple[float, float, float]:
    """(lhs, rhs, upper) of `bernstein_check` from f' built and certified on its own grid."""
    upper = sup_norm_upper(f)
    tau = float(spectrum(f).tau)
    if tau == 0.0:
        return 0.0, 0.0, upper
    return sup_norm_certified(f.derivative()).lower, tau * upper, upper


def _fused(f: TrigPoly) -> tuple[float, float, float]:
    res = bernstein_check(f)
    return res.lhs, res.rhs, res.upper


@given(st.sampled_from(_ONE_RAY_BASES), _COEFFS, st.sampled_from([0j, 2.5 + 0j, -1e-300j]))
@settings(max_examples=80, deadline=None)
def test_bernstein_one_fft_matches_the_derivative_route(base, coeffs, const):
    # both sides of a one-ray f come from one two-row FFT, bit for bit what
    # sup_norm_upper(f) and f' built and certified on its own give
    f = _on_ray(base, coeffs) + const
    assume(not f.is_zero())
    assert repr(_fused(f)) == repr(_bernstein_by_derivative(f))


@pytest.mark.parametrize(
    "f",
    [
        # the key-1 slope 5e-324 * 1e-3 underflows to 0: f' drops key 1, and its
        # one key 2000 sits on a grid of its own
        TrigPoly.from_rays([DenseBlock(EF(Fraction(1, 1000)), np.array([1, 2000]), np.array([5e-324 + 0j, 1.0]))]),
        TrigPoly.from_rays([DenseBlock(EF(Fraction(1, 1000)), np.array([1, 2000]), np.array([5e-324 + 0j, 1.0]))], const=3.0),
        # one term
        TrigPoly.from_rays([DenseBlock(EF.sqrt_of(5, Fraction(1, 7)), np.array([3]), np.array([0.25 - 2j]))]),
        # keys on one side of 0 only
        TrigPoly.from_rays([DenseBlock(EF(Fraction(2, 3)), np.array([-7, -4, -1]), np.array([1.0 + 0j, -0.5j, 2.0]))]),
        TrigPoly.from_rays([DenseBlock(EF(1), np.array([-3]), np.array([5e-324 + 0j]))], const=1.0),
        # tau = 0
        TrigPoly.from_rays([], const=-4.0 + 3j),
    ],
    ids=["underflow", "underflow_const", "one_term", "negative_keys", "subnormal_one_term", "constant"],
)
def test_bernstein_one_fft_edge_cases(f):
    assert repr(_fused(f)) == repr(_bernstein_by_derivative(f))


def test_bernstein_one_fft_builds_no_derivative(monkeypatch):
    f = _on_ray(EF(Fraction(1, 3)), [1.0, -0.5j, 2.0, 0.25])
    want = _bernstein_by_derivative(f)
    monkeypatch.setattr(TrigPoly, "derivative", lambda self: pytest.fail("f' built"))
    assert bernstein_sides(f) is not None
    assert repr(_fused(f)) == repr(want)
    # the underflowing slope, and two rays, keep the route through f'
    under = TrigPoly.from_rays([DenseBlock(EF(Fraction(1, 1000)), np.array([1, 2000]), np.array([5e-324 + 0j, 1.0]))])
    two = _on_ray(EF(1), [1.0, 2.0]) + _on_ray(EF.sqrt_of(2), [1.0, 2.0])
    assert bernstein_sides(under) is None and bernstein_sides(two) is None


@given(_COEFFS, st.lists(st.builds(complex, _COEFF, _COEFF), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_bernstein_lhs_brackets_sup_of_the_derivative_on_two_rays(coeffs, other):
    # two rays, 1 and sqrt(2): lhs is max |f'| on the window scan of
    # `sup_norm_certified`, step h = 1/(8*tau); a scan 64 times finer over
    # the window bounds it from above.  From below: with M >= sup|f'|, the
    # Duffin-Schaeffer inequality g'^2 + tau^2 g^2 <= tau^2 M^2 for
    # g = Re(exp(-i*theta) f') makes arccos(g/M) tau-Lipschitz, so a node
    # within h/2 of the finer scan's max m has |f'| >= M cos(arccos(m/M) + tau*h/2)
    f = _on_ray(EF(1), coeffs) + _on_ray(EF.sqrt_of(2), other)
    assume(len(ray_partition(f)[1]) == 2)
    lhs = bernstein_check(f).lhs
    d = f.derivative()
    tau = float(spectrum(f).tau)
    lo, hi = -64 * math.pi, 64 * math.pi
    npts = min(MAX_GRID_POINTS, max(2, int((hi - lo) / (1.0 / (8 * tau))) + 1))
    scan = _scan(d, lo, hi, 64 * (npts - 1) + 1)
    rounding = 2 * evaluation_error(d, hi)
    assert lhs <= scan + rounding
    top = sup_norm_upper(d)
    phase = math.acos(min(1.0, max(0.0, (scan - rounding) / top)))
    h = (hi - lo) / (npts - 1)
    assert lhs >= top * math.cos(min(math.pi, phase + tau * h / 2)) - rounding


@given(
    st.sampled_from(_ONE_RAY_BASES + (None,)),
    _COEFFS,
    st.lists(st.tuples(st.integers(0, 11), st.complex_numbers(max_magnitude=1e-2)), min_size=1, max_size=4),
)
# a nudge of the least normal makes f - |s|^2 subnormal: its evaluation
# rounds products that underflow, which the relative error terms miss
@example(EF(1), [0j, 3.954737341212578e-12j], [(0, 2.2250738585072014e-308)])
@settings(max_examples=60, deadline=None)
def test_factorization_residual_bounds_the_window_scan(base, coeffs, nudges):
    # ||f - |s|^2||_A >= |f - |s|^2| everywhere, so also on the 4097
    # points of [-32*pi, 32*pi] the residual used to scan; base None puts s
    # on two rays, 1 and sqrt(2)
    def factor(cs):
        if base is None:
            return _on_ray(EF(1), cs) + _on_ray(EF.sqrt_of(2), cs[:3])
        return _on_ray(base, cs)

    f = modulus_squared(factor(coeffs))
    nudged = list(coeffs)
    for j, c in nudges:
        nudged[j % len(nudged)] += c
    s = factor(nudged)
    res = factorization_residual(f, s)
    diff = f - modulus_squared(s)
    xs = np.linspace(-32 * math.pi, 32 * math.pi, 4097)
    scan = float(np.max(np.abs(diff.evaluate(xs))))
    assert res >= scan - evaluation_error(diff, 32 * math.pi)


def test_factorization_residual_is_the_wiener_norm_of_the_difference():
    s = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    f = modulus_squared(s)
    # |1 + 1.5 chi_1|^2 - |1 + chi_1|^2 = 0.5 chi_-1 + 1.25 + 0.5 chi_1, exact in binary
    assert factorization_residual(f, s + TrigPoly([(EF(1), 0.5)])) == 2.25


def test_poisson_closed_forms():
    assert poisson_eval(TrigPoly.constant(1.0), 0.4 + 0.9j) == pytest.approx(1.0)
    two_cos = TrigPoly.from_cos([(1, 2.0)])
    assert poisson_eval(two_cos, 1j) == pytest.approx(2 / math.e, abs=1e-14)
    # chi_1 at z: e^{iz}; chi_{-1}: e^{i conj(z)} -- harmonic, not holomorphic
    z = 0.3 + 0.7j
    assert poisson_eval(TrigPoly([(EF(1), 1.0)]), z) == pytest.approx(np.exp(1j * z))
    assert poisson_eval(TrigPoly([(EF(-1), 1.0)]), z) == pytest.approx(
        np.exp(-1j * np.conj(z))
    )


def _poisson_loop(f, z):
    # the closed mode as a scalar loop over the sorted terms
    total = 0j
    for w, c in f.sorted_terms():
        wf = float(w)
        total += c * (np.exp(1j * wf * z) if wf >= 0 else np.exp(1j * wf * z.conjugate()))
    return complex(total)


def test_poisson_closed_mode_matches_scalar_loop():
    # one vectorized pass, bit for bit the loop's result, on polynomials of 1 to 3000 terms
    rng = np.random.default_rng(12)
    for n in (1, 7, 300, 3000):
        rays = rng.choice([1, 2, 3], size=n)
        keys = rng.integers(-400, 400, size=n)
        terms = [(EF(0, [(2, int(k))]) if r == 2 else EF(int(k), [(3, int(r))]), complex(*rng.normal(size=2)))
                 for r, k in zip(rays, keys)]
        f = TrigPoly(terms)
        for z in (0.4 + 0.9j, -3.1 + 0.05j, 2.0 + 4.0j):
            assert poisson_eval(f, z) == _poisson_loop(f, z)
    assert poisson_eval(TrigPoly(), 1j) == 0j


def test_poisson_needs_upper_half_plane():
    with pytest.raises(ValueError):
        poisson_eval(TrigPoly.constant(1.0), 1.0 - 0.5j)
    with pytest.raises(ValueError):
        poisson_eval(TrigPoly.constant(1.0), 2.0)


def test_poisson_quadrature_matches_closed():
    f = TrigPoly(
        [(EF(0), 2.0), (EF(1), 1.0), (EF(-1), 1.0), (EF.sqrt_of(2), 0.5 - 0.25j)]
    )
    for z in (0.3 + 0.7j, -1.0 + 0.3j, 2.5 + 1.5j):
        closed = poisson_eval(f, z, mode="closed")
        quad = poisson_eval(f, z, mode="quadrature")
        assert abs(closed - quad) <= 1e-6


def test_poisson_range_check():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # range [0, 4]
    chk = poisson_range_check(f, [0.1 + 0.2j, 1j, -3.0 + 5.0j])
    assert chk.passed
    with pytest.raises(ValueError):
        poisson_range_check(TrigPoly([(EF(1), 1.0)]), [1j])


def test_asym_decay_character():
    # h = chi_{-sqrt2}: renormalized extension is exactly the constant
    d = EF.sqrt_of(2)
    h = TrigPoly([(-d, 3.0)])
    table = asym_decay_check(h, d, [1.0, 2.0])
    assert all(s <= 1e-12 for s in table.sups)
    assert table.gap == math.inf


def test_asym_decay_rate():
    h = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    ys = [0.5, 1.0, 2.0, 4.0]
    table = asym_decay_check(h, EF(0), ys)
    assert table.gap == 1.0
    assert table.strictly_decreasing()
    # D(y) = e^{-y} exactly here
    for y, sup in zip(table.ys, table.sups):
        assert sup == pytest.approx(math.exp(-y), rel=1e-9)
    # per-unit-y decay ratio within 2x of e^{-gap}
    for (y1, s1), (y2, s2) in zip(
        zip(table.ys, table.sups), zip(table.ys[1:], table.sups[1:])
    ):
        rate = (s2 / s1) ** (1.0 / (y2 - y1))
        assert math.exp(-table.gap) / 2 <= rate <= 2 * math.exp(-table.gap)


def test_asym_decay_delta_mismatch():
    h = TrigPoly([(EF(0), 1.0), (EF(1), 1.0)])
    with pytest.raises(ValueError):
        asym_decay_check(h, EF(1), [1.0])


def test_reciprocal_neumann():
    h = TrigPoly([(EF(0), 3.0), (EF(1), 1.0)])
    r, err = approximate_reciprocal(h)
    assert err <= 1e-9
    assert abs(r.coefficient(EF(0)) - 1 / 3) < 1e-12
    assert abs(r.coefficient(EF(1)) + 1 / 9) < 1e-12
    xs = np.linspace(-20, 20, 401)
    assert np.max(np.abs(h.evaluate(xs) * r.evaluate(xs) - 1)) <= 2e-9


def test_reciprocal_sampled_fallback():
    # h = (1 - w/4)^5: sup|h - 1| > 1 so no Neumann series, but h is
    # zero-free and its reciprocal coefficients decay fast enough for the
    # projection route to stay under the boundary-error gate
    p = np.poly([4.0] * 5)
    p = (p / p[-1])[::-1]
    h = TrigPoly([(EF(k), complex(c)) for k, c in enumerate(p.tolist())])
    r, err = approximate_reciprocal(h)
    assert err <= 1e-4
    xs = np.linspace(-20, 20, 401)
    assert np.max(np.abs(h.evaluate(xs) * r.evaluate(xs) - 1)) <= 2e-4


def test_reciprocal_failures():
    with pytest.raises(ReciprocalApproximationFailed):
        approximate_reciprocal(TrigPoly([(EF(0), 1.0), (EF(1), 1.0)]))  # vanishes
    with pytest.raises(ReciprocalApproximationFailed):
        approximate_reciprocal(TrigPoly([(EF(0), 1.0), (EF(1), 0.999)]))  # slow decay
    with pytest.raises(ReciprocalApproximationFailed):
        approximate_reciprocal(TrigPoly([(EF(1), 1.0)]))  # no constant term


def test_inverse_poisson_identity():
    h = TrigPoly([(EF(0), 2.0), (EF(1), 0.5)])
    pts = [0.5j * k + 0.3 * k for k in range(1, 11)]
    dev = inverse_poisson_identity(h, pts)
    assert dev <= 1e-3


def test_inverse_poisson_constant():
    h = TrigPoly.constant(4.0)
    assert inverse_poisson_identity(h, [1j, 1 + 2j]) <= 1e-12
