import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspec import cepstral
from apspec.cepstral import (
    DEFAULT_HALFWIDTH,
    AlmostPeriodReport,
    almost_period_test,
    arg_decompose,
    bohr_project,
    cepstral_factorize,
    conjugate_boundary,
    default_candidates,
    half_log,
)
from apspec.errors import NotBoundedBelow, WindowTooSmall
from apspec.frequency import ExactFrequency
from apspec.periodic import fejer_riesz
from apspec.sampling import SampledFunction
from apspec.trigpoly import TrigPoly, modulus_squared

EF = ExactFrequency


def test_half_log_constant():
    g = half_log(TrigPoly.constant(4.0), 3.0, halfwidth=8.0)
    assert np.allclose(g.values, math.log(2.0), atol=1e-15)
    g = half_log(TrigPoly.constant(math.e**2), 1.0, halfwidth=8.0)
    assert np.allclose(g.values, 1.0, atol=1e-12)


def test_half_log_matches_pointwise():
    f = TrigPoly.from_cos([(1, 1.0)], constant=2.0)
    g = half_log(f, 0.9, halfwidth=8 * math.pi)
    expect = 0.5 * np.log(f.evaluate(g.xs()).real)
    assert np.allclose(g.values, expect, atol=1e-12)
    assert g.values.min() >= 0.5 * math.log(0.9)


def test_half_log_rejects_uncertified():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)  # touches zero
    with pytest.raises(NotBoundedBelow):
        half_log(f, 0.5, halfwidth=8 * math.pi)
    with pytest.raises(NotBoundedBelow):
        half_log(TrigPoly.constant(4.0), -1.0, halfwidth=8.0)


def test_conjugate_of_constant_is_zero():
    g = SampledFunction(4.0, 0.25, np.full(33, 2.7))
    v = conjugate_boundary(g)
    assert np.allclose(v.values, 0.0, atol=1e-14)


def test_conjugate_pair_cos_sin():
    L = 4.0
    n = 256
    step = 2 * L / n
    xs = -L + step * np.arange(n + 1)
    g = SampledFunction(L, step, np.cos(math.pi * xs / L))
    v = conjugate_boundary(g)
    assert np.allclose(v.values, np.sin(math.pi * xs / L), atol=1e-12)


def test_conjugate_anti_self_adjoint():
    rng = np.random.default_rng(5)
    L, n = 3.0, 128
    step = 2 * L / n
    for _ in range(5):
        a = rng.normal(size=n + 1)
        b = rng.normal(size=n + 1)
        a[-1], b[-1] = a[0], b[0]
        ga, gb = SampledFunction(L, step, a), SampledFunction(L, step, b)
        ha = conjugate_boundary(ga).values[:-1]
        hb = conjugate_boundary(gb).values[:-1]
        lhs = float(ha @ b[:-1])
        rhs = -float(a[:-1] @ hb)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_conjugate_matches_root_factor_arg():
    # v should be the continuous arg of the outer factor, matching the
    # root-method factor shifted back to nonnegative frequencies
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    g = half_log(f, 0.4, halfwidth=64 * math.pi)
    v = conjugate_boundary(g)
    xs = g.xs()
    h_ref = fejer_riesz(f).factor.evaluate(xs) * np.exp(1j * xs / 2)
    arg_ref = np.unwrap(np.angle(h_ref))
    assert float(np.max(np.abs(v.values - arg_ref))) <= 3e-3


def test_cepstral_constant():
    rep = cepstral_factorize(TrigPoly.constant(4.0), 3.0, halfwidth=8.0)
    assert rep.method == "cepstral"
    assert np.allclose(rep.factor.values, 2.0, atol=1e-14)
    assert rep.residual_sup <= 1e-13
    assert rep.passed


def test_cepstral_periodic_interior_residual():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    rep = cepstral_factorize(f, 0.4, halfwidth=256 * math.pi)
    assert rep.residual_sup <= 1e-3 * 4.5
    assert rep.bandwidth_ratio == 0.5
    assert rep.passed
    s = rep.factor
    # |s| agrees with the root-method factor; arg differs by a constant
    xs = s.xs()
    mask = s.interior(0.8)
    ref = fejer_riesz(f).factor.evaluate(xs)
    assert float(np.max(np.abs(np.abs(s.values[mask]) - np.abs(ref[mask])))) <= 1e-3 * math.sqrt(4.5)
    darg = np.unwrap(np.angle(s.values)) - np.unwrap(np.angle(ref))
    dev = darg[mask] - np.median(darg[mask])
    assert float(np.max(np.abs(dev))) <= 1e-2


def test_cepstral_incommensurable():
    s_known = TrigPoly([(EF(0), 1.0), (EF.sqrt_of(2), 0.5)])
    f = modulus_squared(s_known)
    rep = cepstral_factorize(f, 0.2, halfwidth=256 * math.pi)
    assert rep.residual_sup <= 1e-2 * 2.25
    s = rep.factor
    xs = s.xs()
    mask = s.interior(0.8)
    ref = s_known.evaluate(xs) * np.exp(-1j * math.sqrt(2) / 2 * xs)
    darg = np.unwrap(np.angle(s.values)) - np.unwrap(np.angle(ref))
    dev = darg[mask] - np.median(darg[mask])
    # window-edge leakage only; measured ~1.3e-4 at this width
    assert float(np.max(np.abs(dev))) <= 1e-2
    assert float(np.max(np.abs(np.abs(s.values[mask]) - np.abs(ref[mask])))) <= 1e-3 * 1.5


def test_cepstral_rejects_touching_zero():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    with pytest.raises(NotBoundedBelow):
        cepstral_factorize(f, 0.1, halfwidth=32 * math.pi)


def _samples(vals, L):
    n = len(vals) - 1
    return SampledFunction(L, 2 * L / n, np.asarray(vals, dtype=float))


def test_arg_decompose_pure_slope():
    L = 10.0
    xs = np.linspace(-L, L, 401)
    dec = arg_decompose(_samples(3.0 * xs, L))
    assert abs(dec.c - 3.0) < 1e-12
    assert float(np.max(np.abs(dec.theta.values))) < 1e-10
    assert dec.fit_residual < 1e-10


def test_arg_decompose_slope_plus_sine():
    L = 64 * math.pi
    n = round(2 * L / 0.05)
    xs = np.linspace(-L, L, n + 1)
    dec = arg_decompose(_samples(0.5 * xs + 0.1 * np.sin(math.sqrt(2) * xs), L))
    assert abs(dec.c - 0.5) < 1e-3
    target = 0.1 * np.sin(math.sqrt(2) * xs)
    target -= target.mean()
    assert float(np.max(np.abs(dec.theta.values - target))) < 1e-3
    # mean-centering invariant
    norm = math.sqrt(float(np.mean(dec.theta.values**2)))
    assert abs(float(np.mean(dec.theta.values))) <= 1e-6 * max(norm, 1e-30)


def test_arg_decompose_constant_shift_invariance():
    L = 10.0
    xs = np.linspace(-L, L, 257)
    vals = 0.7 * xs + np.cos(xs)
    d1 = arg_decompose(_samples(vals, L))
    d2 = arg_decompose(_samples(vals + 42.0, L))
    assert d1.c == pytest.approx(d2.c, abs=1e-12)
    assert np.allclose(d1.theta.values, d2.theta.values, atol=1e-9)


def test_almost_period_zero_theta():
    L = 8.0
    xs = np.linspace(-L, L, 129)
    rep = almost_period_test(_samples(0.0 * xs, L), 0.05)
    assert isinstance(rep, AlmostPeriodReport)
    assert rep.verdict
    assert len(rep.epsilon_periods) == 64  # every translate up to L
    assert rep.relative_density_gap == pytest.approx(L / 64, abs=1e-12)


def test_almost_period_sine():
    L = 32 * math.pi
    n = 4096
    xs = np.linspace(-L, L, n + 1)
    rep = almost_period_test(_samples(np.sin(xs), L), 0.1)
    assert rep.verdict
    accepted = np.array(rep.epsilon_periods)
    for k in (1, 2, 3):
        assert np.min(np.abs(accepted - 2 * math.pi * k)) < 0.11
    assert rep.relative_density_gap == pytest.approx(2 * math.pi, abs=0.3)


def test_almost_period_drift_rejected():
    L = 16.0
    xs = np.linspace(-L, L, 513)
    rep = almost_period_test(_samples(0.2 * xs, L), 0.1)
    assert not rep.verdict
    assert all(t <= 1.0 for t in rep.epsilon_periods)
    assert rep.relative_density_gap > L / 2


def test_almost_period_window_too_small():
    with pytest.raises(WindowTooSmall):
        almost_period_test(SampledFunction(0.2, 0.4, np.zeros(2)), 0.1)


def _scan_reference(theta, eps):
    """The full-slice loop over every translate, before the probe screen."""
    vals = theta.values.real
    L = theta.halfwidth
    kmax = math.floor(L / theta.step + 1e-9)
    accepted = []
    for k in range(1, kmax + 1):
        if float(np.max(np.abs(vals[k:] - vals[:-k]))) <= eps:
            accepted.append(k * theta.step)
    knots = [0.0, *accepted, L]
    gap = max(b - a for a, b in zip(knots, knots[1:]))
    return AlmostPeriodReport(tuple(accepted), gap, gap <= L / 8)


def _probe_stride(n_samples, kmax):
    # mirrors the probe rule in almost_period_test
    return max(1, (n_samples - 1 - kmax) // (cepstral._SCAN_PROBES - 1)) | 1


@st.composite
def _scan_cases(draw):
    # kmax = n // 2: below the probe count, below one chunk, or across several chunks
    n = draw(st.one_of(
        st.integers(3, 2 * cepstral._SCAN_PROBES - 1),
        st.integers(2 * cepstral._SCAN_PROBES, 2 * cepstral._SCAN_CHUNK - 1),
        st.integers(2 * cepstral._SCAN_CHUNK, 5 * cepstral._SCAN_CHUNK),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "sines", "constant"]))
    if kind == "walk":
        vals = np.cumsum(rng.normal(scale=draw(st.floats(1e-3, 1.0)), size=n + 1))
    elif kind == "sines":
        xs = np.arange(n + 1)
        vals = sum(
            rng.uniform(0.05, 1.0) * np.sin(rng.uniform(0.0, 1.0) * xs + rng.uniform(0, 2 * math.pi))
            for _ in range(draw(st.integers(1, 3)))
        )
    else:
        vals = np.full(n + 1, draw(st.floats(-10.0, 10.0)))
    L = n / 2
    theta = SampledFunction(L, 1.0, vals)
    kmax = math.floor(L + 1e-9)
    for bad in draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=2)):
        if draw(st.booleans()):  # a probe index j, or j + kmax
            d = _probe_stride(n + 1, kmax)
            j = d * draw(st.integers(0, (n - kmax) // d)) + draw(st.sampled_from([0, kmax]))
        else:
            j = draw(st.integers(0, n))
        vals[j] = bad
    if draw(st.booleans()):
        # eps equal to a translate's attained deviation: that translate is accepted
        k = draw(st.integers(1, kmax))
        with np.errstate(invalid="ignore"):
            eps = float(np.max(np.abs(vals[k:] - vals[:-k])))
        if not 0 < eps < math.inf:
            eps = 0.1
    else:
        eps = draw(st.floats(1e-6, 3.0))
    return theta, eps


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_scan_cases())
def test_almost_period_screen_matches_full_scan(case):
    theta, eps = case
    rep = almost_period_test(theta, eps)
    ref = _scan_reference(theta, eps)
    assert rep == ref
    assert rep.epsilon_periods == ref.epsilon_periods


def test_almost_period_screen_boundary_is_inclusive():
    L = 600.0
    vals = np.sin(0.3 * np.arange(1201))
    theta = SampledFunction(L, 1.0, vals)
    k = 21
    eps = float(np.max(np.abs(vals[k:] - vals[:-k])))
    rep = almost_period_test(theta, eps)
    assert k * 1.0 in rep.epsilon_periods
    assert rep == _scan_reference(theta, eps)


@pytest.mark.parametrize("eps", [0.2, 0.5])
def test_almost_period_screen_default_window(eps):
    # four Q-independent rays with top frequency 4: 32769 samples on the default window
    rays = [EF(1), EF.sqrt_of(2) / 2, EF.sqrt_of(3) / 2, EF.sqrt_of(5) / 3]
    pairs = [(4 * rays[0], 0.6), (rays[0], -0.4), (rays[1], 0.8), (3 * rays[1], 0.3),
             (2 * rays[2], -0.7), (rays[3], 0.5), (4 * rays[3], -0.2)]
    m = 0.75
    f = TrigPoly.from_cos(pairs, constant=sum(abs(a) for _, a in pairs) + 1.5 * m)
    g = half_log(f, m, halfwidth=DEFAULT_HALFWIDTH)
    theta = arg_decompose(conjugate_boundary(g)).theta
    assert len(theta.values) == 32769
    rep = almost_period_test(theta, eps)
    ref = _scan_reference(theta, eps)
    assert rep == ref
    assert rep.epsilon_periods == ref.epsilon_periods
    assert rep.epsilon_periods


def test_bohr_project_constant():
    L = 8.0
    xs = np.linspace(-L, L, 257)
    s = SampledFunction(L, 2 * L / 256, np.full(257, math.sqrt(3), dtype=complex))
    p = bohr_project(s, [EF(0)])
    assert p.frequencies() == [EF(0)]
    assert abs(p.coefficient(EF(0)) - math.sqrt(3)) < 1e-12


def test_bohr_project_recovers_outer_coefficients():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    g = half_log(f, 0.4, halfwidth=64 * math.pi)
    xs = g.xs()
    h_ref = fejer_riesz(f).factor.evaluate(xs) * np.exp(1j * xs / 2)
    s = SampledFunction(g.halfwidth, g.step, h_ref)
    p = bohr_project(s, [EF(0), EF(1)])
    assert abs(p.coefficient(EF(0)) - math.sqrt(2)) < 1e-2
    assert abs(p.coefficient(EF(1)) - math.sqrt(0.5)) < 1e-2


def test_bohr_project_drops_tiny_and_dedupes():
    L = 4 * math.pi
    n = 512
    xs = np.linspace(-L, L, n + 1)
    s = SampledFunction(L, 2 * L / n, np.exp(1j * xs) * 2.0)
    p = bohr_project(s, [EF(1), EF(1), EF(3)])  # 3 is absent -> dropped
    assert p.frequencies() == [EF(1)]
    assert abs(p.coefficient(EF(1)) - 2.0) < 1e-12


def test_default_candidates_half_lattice():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    half = EF(Fraction(1, 2))
    assert default_candidates(f) == [-half, EF(0), half]
    s_known = TrigPoly([(EF(0), 1.0), (EF.sqrt_of(2), 0.5)])
    fi = modulus_squared(s_known)
    ci = default_candidates(fi)
    assert EF.sqrt_of(2) / 2 in ci and -(EF.sqrt_of(2) / 2) in ci and EF(0) in ci
