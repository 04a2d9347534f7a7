import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from apspec import periodic
from apspec.cli import run
from apspec.errors import IncommensurableSpectrum, NonConvergence, NotNonnegative
from apspec.frequency import ExactFrequency
from apspec.periodic import (
    LaurentForm,
    _roots_factor,
    commensurable_base,
    fejer_riesz,
    outer_factor,
    polynomial_roots,
)
from apspec.serialize import dumps, load_path, trigpoly_from_json, trigpoly_to_json
from apspec.trigpoly import TrigPoly, modulus_squared, multiply, spectrum

EF = ExactFrequency


def test_commensurable_base_cosine():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    lf = commensurable_base(f)
    assert lf.base == EF(1)
    assert lf.coeffs.tolist() == [1.0, 2.0, 1.0]
    assert lf.n == 1
    assert lf.to_trigpoly() == f


def test_commensurable_base_radical_ray():
    # frequencies {-sqrt(2), 0, sqrt(2)/2} -> base sqrt(2)/2, N = 2
    f = TrigPoly([(EF(0), 1.0), (-EF.sqrt_of(2), 0.5), (EF.sqrt_of(2) / 2, 2.0)])
    lf = commensurable_base(f)
    assert lf.base == EF.sqrt_of(2) / 2
    assert lf.n == 2
    assert lf.coeffs.tolist() == [0.5, 0.0, 1.0, 2.0, 0.0]


def test_commensurable_base_rejects_independent():
    f = TrigPoly([(EF(1), 1.0), (EF.sqrt_of(2), 1.0)])
    with pytest.raises(IncommensurableSpectrum):
        commensurable_base(f)


def test_commensurable_base_constant():
    lf = commensurable_base(TrigPoly.constant(3.0))
    assert lf.n == 0
    assert lf.coeffs.tolist() == [3.0]


def test_polynomial_roots_quadratics():
    roots = polynomial_roots(np.array([-1.0, 0.0, 1.0]))  # w^2 - 1
    vals = sorted(r.real for r, m in roots)
    assert len(roots) == 2
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)
    roots = polynomial_roots(np.array([1.0, 0.0, 1.0]))  # w^2 + 1
    ims = sorted(r.imag for r, m in roots)
    assert ims == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_polynomial_roots_multiplicity():
    roots = polynomial_roots(np.array([1.0, -2.0, 1.0]))  # (w-1)^2
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 2
    assert abs(r - 1.0) < 1e-7


def test_polynomial_roots_random_roundtrip():
    rng = np.random.default_rng(7)
    true = rng.uniform(-2, 2, 16) + 1j * rng.uniform(-2, 2, 16)
    coeffs_desc = np.poly(true)
    roots = polynomial_roots(coeffs_desc[::-1])
    found = sorted((r for r, m in roots for _ in range(m)), key=lambda z: (z.real, z.imag))
    expect = sorted(true.tolist(), key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(found, expect)) < 1e-8


def scalar_polish(coeffs, r):
    """Reference: one root polished alone, as a loop of scalar Newton steps."""
    poly = coeffs[::-1] if abs(r) <= 1 else coeffs
    dpoly = np.polyder(poly)
    x = complex(r) if abs(r) <= 1 else 1 / complex(r)
    for _ in range(60):
        dv = np.polyval(dpoly, x)
        if abs(dv) < 1e-300:
            break
        step = np.polyval(poly, x) / dv
        if abs(step) > 0.1 * (1 + abs(x)):
            break
        x -= step
        if abs(step) <= 5e-16 * (1 + abs(x)):
            break
    return x if abs(r) <= 1 else 1 / x


def test_polynomial_roots_vectorized_polish_matches_scalar_loop():
    # same steps and stop rules, so only the order of complex rounding differs
    rng = np.random.default_rng(17)
    for d in (3, 12, 30):
        coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        expect = [scalar_polish(coeffs, r) for r in np.roots(coeffs[::-1])]
        found = [r for r, m in polynomial_roots(coeffs) for _ in range(m)]
        assert len(found) == d
        for r in expect:
            assert min(abs(r - z) for z in found) <= 1e-12 * (1 + abs(r))


def test_polynomial_roots_rejects_degenerate():
    with pytest.raises(ValueError):
        polynomial_roots(np.array([1.0]))
    with pytest.raises(ValueError):
        polynomial_roots(np.array([1.0, 2.0, 0.0]))


def test_fejer_riesz_two_plus_two_cos():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    report = fejer_riesz(f)
    s = report.factor
    # type-halved factor: frequencies ±1/2, coefficients 1 each
    assert s.frequencies() == [EF(Fraction(-1, 2)), EF(Fraction(1, 2))]
    assert abs(s.coefficient(EF(Fraction(-1, 2))) - 1.0) < 1e-12
    assert abs(s.coefficient(EF(Fraction(1, 2))) - 1.0) < 1e-12
    assert report.residual_sup <= 1e-12
    assert report.bandwidth_ratio == pytest.approx(0.5, abs=1e-15)
    assert report.passed


def test_fejer_riesz_constant():
    report = fejer_riesz(TrigPoly.constant(9.0))
    assert report.factor == TrigPoly.constant(3.0)
    assert report.residual_sup == 0.0


def test_fejer_riesz_lowest_coefficient_positive_real():
    rng = np.random.default_rng(3)
    roots = 1.2 + rng.uniform(0, 1.5, 6) + 1j * rng.uniform(-1, 1, 6)
    coeffs = np.poly(roots)
    s0 = TrigPoly([(EF(k), coeffs[len(coeffs) - 1 - k]) for k in range(len(coeffs))])
    f = modulus_squared(s0)
    s = fejer_riesz(f).factor
    low = spectrum(s).inf_freq
    c = s.coefficient(low)
    assert abs(c.imag) < 1e-12 * abs(c)
    assert c.real > 0


def test_fejer_riesz_roundtrip_degree8():
    rng = np.random.default_rng(11)
    for trial in range(5):
        # minimum-phase: all w-roots outside the closed unit disk
        mags = rng.uniform(1.15, 2.5, 8)
        args = rng.uniform(0, 2 * math.pi, 8)
        roots = mags * np.exp(1j * args)
        coeffs = np.poly(roots)  # descending, degree 8
        s0 = TrigPoly([(EF(8 - k), c) for k, c in enumerate(coeffs.tolist())])
        f = modulus_squared(s0)
        report = fejer_riesz(f)
        s = report.factor
        # align: shift s up to integer lattice and match s0 by a unimodular constant
        shift = spectrum(s0).inf_freq - spectrum(s).inf_freq
        s_shifted = s.modulate(shift)
        w0 = spectrum(s0).sup_freq
        mu = s0.coefficient(w0) / s_shifted.coefficient(w0)
        assert abs(abs(mu) - 1.0) < 1e-9
        diff = s0 - s_shifted * mu
        worst = max((abs(c) for _, c in diff.sorted_terms()), default=0.0)
        assert worst < 1e-8
        assert report.residual_sup <= 1e-8 * sup_scale(f)


def sup_scale(f):
    xs = np.linspace(0, 2 * math.pi, 2048)
    return float(np.max(np.abs(f.evaluate(xs))))


def test_fejer_riesz_half_lattice_factor():
    # odd-degree case: factor lives on half-integer frequencies
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.5)
    report = fejer_riesz(f)
    s = report.factor
    freqs = s.frequencies()
    assert freqs == [EF(Fraction(-1, 2)), EF(Fraction(1, 2))]
    xs = np.linspace(-10, 10, 101)
    assert np.allclose(np.abs(s.evaluate(xs)) ** 2, f.evaluate(xs).real, atol=1e-10)


def test_fejer_riesz_rejects_negative():
    f = TrigPoly.from_cos([(1, 2.0)], constant=1.9)
    with pytest.raises(NotNonnegative):
        fejer_riesz(f)


def test_fejer_riesz_rejects_shallow_odd_circle_roots():
    # (2+2cos x)(2+2cos x - 1e-6): dips only ~1e-13 below zero, so the grid
    # scan passes and the odd-multiplicity circle roots must catch it
    a = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    b = TrigPoly.from_cos([(1, 2.0)], constant=2.0 - 1e-6)
    f = multiply(a, b)
    with pytest.raises(NotNonnegative):
        fejer_riesz(f)


def test_fejer_riesz_rejects_complex_valued():
    f = TrigPoly([(EF(1), 1.0)])
    with pytest.raises(NotNonnegative):
        fejer_riesz(f)


def test_fejer_riesz_rejects_incommensurable():
    f = TrigPoly.from_cos([(1, 1.0), (EF.sqrt_of(2), 1.0)], constant=3.0)
    with pytest.raises(IncommensurableSpectrum):
        fejer_riesz(f)


def test_fejer_riesz_deterministic_under_term_order():
    items = [(EF(0), 2.5 + 0j), (EF(1), 1.0 + 0j), (EF(-1), 1.0 + 0j)]
    s1 = fejer_riesz(TrigPoly(items)).factor
    s2 = fejer_riesz(TrigPoly(list(reversed(items)))).factor
    assert s1 == s2  # float-identical coefficients


def test_fejer_riesz_two_double_circle_roots():
    # touches zero at two points per period: double roots at w = -1 and w = i
    a = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    b = TrigPoly([(EF(0), 2.0), (EF(1), 1j), (EF(-1), -1j)])  # 2 - 2 sin x
    f = multiply(a, b)
    report = fejer_riesz(f)
    s = report.factor
    assert spectrum(s).bandwidth == EF(2)
    xs = np.linspace(-5, 5, 61)
    assert np.allclose(np.abs(s.evaluate(xs)) ** 2, f.evaluate(xs).real, atol=1e-9)


def test_fejer_riesz_quadruple_circle_root_fails_cleanly():
    # companion eigenvalues of a multiplicity-4 root carry eps**(1/4) errors,
    # far beyond the cluster radius, so the analysis must refuse rather than
    # return a sloppy factor
    base = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    f = multiply(base, base)
    with pytest.raises((NonConvergence, NotNonnegative)):
        fejer_riesz(f)


def test_zero_density_matches_bandwidth_over_pi():
    # count zeros of 2+2cos z in [-R, R] empirically: double zeros at odd pi
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    R = 200 * math.pi
    xs = np.linspace(-R, R, 4_000_001)
    vals = f.evaluate(xs).real
    # local minima below threshold are double zeros
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]) & (vals[1:-1] < 1e-4)
    count = 2 * int(np.sum(interior))  # multiplicity 2 each
    density = count / R
    bandwidth = float(spectrum(f).bandwidth)
    assert density == pytest.approx(bandwidth / math.pi, rel=2e-2)
    # the bandwidth/(2 pi) alternative is clearly wrong
    assert abs(density - bandwidth / (2 * math.pi)) > 0.2


# -- FFT outer-factor route ----------------------------------------------------


def min_phase_coeffs(rng, d):
    """The benchmark's roots-workload generator: ascending S with every root outside the disk."""
    hi = min(math.log(2.5), math.log(300.0) / d)
    lo = min(math.log(1.1), 0.5 * hi)
    moduli = np.exp(rng.uniform(lo, hi, size=d))
    angles = 2 * math.pi * (np.arange(d) + rng.uniform(0.15, 0.85, size=d)) / d
    coeffs = np.poly(moduli * np.exp(1j * angles))[::-1]
    coeffs = coeffs / np.max(np.abs(coeffs))
    return coeffs * np.exp(1j * rng.uniform(0, 2 * math.pi))


def modsq(s0, base=EF(1)):
    """|sum_j s0[j] exp(i j base x)|^2 as an exactly Hermitian TrigPoly."""
    d = len(s0) - 1
    terms = [(EF(0), float(np.sum(np.abs(s0) ** 2)))]
    for k in range(1, d + 1):
        fk = complex(np.sum(s0[k:] * np.conj(s0[: d + 1 - k])))
        terms += [(base * k, fk), (base * -k, fk.conjugate())]
    return TrigPoly(terms)


def factor_coeffs(s, base, d):
    """Ascending coefficients of s, read at base*(2j - d)/2."""
    return np.array([s.coefficient(base * Fraction(2 * j - d, 2)) for j in range(d + 1)])


def aligned_error(got, s0):
    inner = complex(np.vdot(got, s0))
    return float(np.max(np.abs(s0 - got * inner / abs(inner))))


def test_outer_factor_matches_roots_route_degrees_1_to_32():
    rng = np.random.default_rng(2024)
    for d in range(1, 33):
        s0 = min_phase_coeffs(rng, d)
        lf = commensurable_base(modsq(s0))
        outer = outer_factor(lf)
        assert outer is not None, d
        assert outer[0].imag == 0 and outer[0].real > 0
        assert np.max(np.abs(outer - np.array(_roots_factor(lf)))) <= 1e-8, d
        assert aligned_error(outer, s0) <= 1e-12, d


def test_roots_method_past_degree_32_then_verify(tmp_path, capsys):
    # degrees the Laurent roots could not factor (residual check failed at 40-64)
    rng = np.random.default_rng(1000)
    radical = EF.sqrt_of(3, Fraction(2, 5))
    for d, base in ((40, EF(1)), (48, radical), (64, EF(1))):
        s0 = min_phase_coeffs(rng, d)
        inp = tmp_path / f"f{d}.json"
        inp.write_text(dumps(trigpoly_to_json(modsq(s0, base))))
        out = tmp_path / f"s{d}.json"
        assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 0
        bundle = load_path(str(out))
        assert all(c["passed"] for c in bundle["report"]["checks"]), d
        got = factor_coeffs(trigpoly_from_json(bundle["report"]["factor"]), base, d)
        assert aligned_error(got, s0) <= 1e-12, d
        assert run(["verify", "--report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed and printed.count("PASS") == 4


def test_outer_factor_degree_128_well_conditioned():
    # s = a0 + tail with ||tail||_A < a0, so f >= (a0 - ||tail||_A)^2 > 0
    rng = np.random.default_rng(128)
    a0 = 2.0
    tail = 0.05 * a0 * 0.95 ** np.arange(128) * np.exp(2j * math.pi * rng.uniform(size=128))
    assert np.sum(np.abs(tail)) < a0
    s0 = np.concatenate([[a0], tail])
    f = modsq(s0)
    assert outer_factor(commensurable_base(f)) is not None
    report = fejer_riesz(f)
    assert report.passed
    assert np.max(np.abs(factor_coeffs(report.factor, EF(1), 128) - s0)) <= 1e-12


CIRCLE_ZERO_INPUTS = [
    TrigPoly.from_cos([(1, 2.0)], constant=2.0),
    multiply(TrigPoly.from_cos([(1, 2.0)], constant=2.0), TrigPoly([(EF(0), 2.0), (EF(1), 1j), (EF(-1), -1j)])),
    multiply(TrigPoly.from_cos([(1, 2.0)], constant=2.0), TrigPoly.from_cos([(1, 2.0)], constant=2.0 - 1e-6)),
    multiply(TrigPoly.from_cos([(1, 2.0)], constant=2.0), TrigPoly.from_cos([(1, 2.0)], constant=2.0)),
]


@pytest.mark.parametrize("f", CIRCLE_ZERO_INPUTS)
def test_circle_zeros_take_the_roots_route(f):
    assert outer_factor(commensurable_base(f)) is None


def test_near_circle_zero_takes_the_roots_route():
    # S = 1.001 + w: the cepstrum decays like 1.001^-k, so the 4096-point
    # grid aliases it (S off by ~4e-6, though |S|^2 still fits f); the
    # tail bound sends f to the roots, which recover S exactly
    s0 = np.array([1.001, 1.0])
    f = modsq(s0)
    assert outer_factor(commensurable_base(f)) is None
    report = fejer_riesz(f)
    assert report.passed
    assert np.max(np.abs(factor_coeffs(report.factor, EF(1), 1) - s0)) <= 1e-12


@pytest.mark.parametrize("angle", [0.0, 0.00077])
def test_grid_argument_principle_refuses_without_tail_bound(monkeypatch, angle):
    # with the tail bound lifted, an aliased S for a zero at 1e-4 from the
    # circle winds once round the origin on the grid (angle 0), or jumps in
    # phase by more than the grid can resolve (zero between grid points)
    monkeypatch.setattr(periodic, "CEPSTRUM_TAIL_TOL", math.inf)
    s0 = np.array([1.0001 * complex(math.cos(angle), math.sin(angle)), 1.0])
    assert outer_factor(commensurable_base(modsq(s0))) is None


def test_outer_factor_takes_no_log_of_nonpositive_samples():
    # f = |1 + w|^2 vanishes on a grid point: declined before any log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outer_factor(commensurable_base(modsq(np.array([1.0, 1.0])))) is None


def test_roots_route_fails_fast_past_degree_64(tmp_path, capsys):
    # f from the generator at degrees 96/128 is not positive in double
    # precision; the roots refuse it (exit 2) after one vectorized polish
    rng = np.random.default_rng(1000)
    for d in (96, 128):
        inp = tmp_path / f"f{d}.json"
        inp.write_text(dumps(trigpoly_to_json(modsq(min_phase_coeffs(rng, d)))))
        start = time.perf_counter()
        rc = run(["factor", "--method", "roots", "--input", str(inp), "--out", str(tmp_path / "s.json")])
        elapsed = time.perf_counter() - start
        assert rc == 2
        assert elapsed < 3.0, f"degree {d} took {elapsed:.2f} s to refuse"
    assert "NonConvergence" in capsys.readouterr().err
