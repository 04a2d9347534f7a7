import math
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    roots_check_battery,
)
from apspec.serialize import dumps, load_path, trigpoly_from_json, trigpoly_to_json
from apspec.trigpoly import DenseBlock, TrigPoly, modulus_squared, multiply, ray_partition, spectrum

EF = ExactFrequency


def test_commensurable_base_cosine():
    f = TrigPoly.from_cos([(1, 2.0)], constant=2.0)
    lf = commensurable_base(f)
    assert lf.base == EF(1)
    assert lf.coeffs.tolist() == [1.0, 2.0, 1.0]
    assert lf.n == 1
    const, (ray,) = ray_partition(f)
    assert lf.base == ray.base and lf.coeffs[lf.n] == const
    assert lf.coeffs[ray.keys + lf.n].tolist() == ray.coeffs.tolist()


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


def test_fejer_riesz_scans_the_outer_factor_samples(monkeypatch):
    # one FFT of the Laurent coefficients serves both the negativity scan
    # and the outer factor, with the scan's threshold and message
    from apspec import periodic

    calls = []
    real = periodic.period_samples
    monkeypatch.setattr(periodic, "period_samples", lambda lf: calls.append(lf) or real(lf))
    with pytest.raises(NotNonnegative, match=r"grid scan found f < 0 \(min -0\.1\)"):
        fejer_riesz(TrigPoly.from_cos([(1, 2.0)], constant=1.9))
    assert len(calls) == 1
    calls.clear()
    fejer_riesz(TrigPoly.from_cos([(1, 2.0), (2, 0.5)], constant=3.0))
    assert len(calls) == 1


# Bundles and verify lines of the roots route, whose Bernstein checks read
# the certificate's FFT grid and whose residual is a Wiener norm; factor and
# verify must reproduce them byte for byte.  previous/ holds the bundles the
# route wrote with window scans for both, when it still built its factor
# term by term
ROOTS_FIXTURES = Path(__file__).parent / "data" / "roots"
ROOTS_PREVIOUS = ROOTS_FIXTURES / "previous"
KERNEL_CASES = ("three_plus_two_cos", "degree7", "degree32", "degree9_radical")
OTHER_CASES = ("two_plus_two_cos", "constant", "zero")


@pytest.mark.parametrize("name", KERNEL_CASES + OTHER_CASES)
def test_roots_bundles_match_the_term_by_term_route(name, tmp_path, capsys):
    inp, bundle = ROOTS_FIXTURES / f"{name}.input.json", ROOTS_FIXTURES / f"{name}.bundle.json"
    out = tmp_path / "s.json"
    assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 0
    assert out.read_bytes() == bundle.read_bytes()
    capsys.readouterr()
    assert run(["verify", "--report", str(bundle)]) == 0
    assert capsys.readouterr().out == (ROOTS_FIXTURES / f"{name}.verify.txt").read_text()
    # the fixtures cover both routes: the FFT kernel, and the Laurent roots for 2 + 2cos
    f = trigpoly_from_json(load_path(str(inp)))
    lf = commensurable_base(f)
    if lf.n:
        assert (outer_factor(lf) is not None) == (name in KERNEL_CASES)


@pytest.mark.parametrize("name", KERNEL_CASES + OTHER_CASES)
def test_previous_roots_bundles_still_verify(name, capsys):
    assert run(["verify", "--report", str(ROOTS_PREVIOUS / f"{name}.bundle.json")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed and all(line.startswith("PASS ") for line in printed)


def _without_moved_fields(bundle: dict) -> dict:
    """The bundle with the numbers the grid Bernstein checks, the Wiener-norm residual and its Ehlich-Zeller scale moved blanked out."""
    report = bundle["report"]
    report["residual_sup"] = None
    for check in report["checks"]:
        if check["name"] == "bernstein":
            check["value"] = check["detail"] = None
        elif check["name"] == "residual":
            check["value"] = check["detail"] = None
    return bundle


@pytest.mark.parametrize("name", KERNEL_CASES + OTHER_CASES)
def test_regenerated_roots_bundles_move_only_the_check_numbers(name):
    old = load_path(str(ROOTS_PREVIOUS / f"{name}.bundle.json"))
    new = load_path(str(ROOTS_FIXTURES / f"{name}.bundle.json"))
    assert _without_moved_fields(new) == _without_moved_fields(old)


def _count_compares(monkeypatch) -> list[int]:
    """A one-element counter of ExactFrequency order comparisons made from now on."""
    count = [0]
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        def counted(self, other, _fn=getattr(EF, name)):
            count[0] += 1
            return _fn(self, other)

        monkeypatch.setattr(EF, name, counted)
    return count


@pytest.mark.parametrize("name", KERNEL_CASES + OTHER_CASES)
def test_verify_sorts_no_more_frequencies_than_factor(name, tmp_path, capsys, monkeypatch):
    # verify reads f and s by ray; f - |s|^2 and f's spectrum read rays, as
    # in factor
    count = _count_compares(monkeypatch)
    inp, out = ROOTS_FIXTURES / f"{name}.input.json", tmp_path / "s.json"
    assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 0
    factored, count[0] = count[0], 0
    assert run(["verify", "--report", str(out)]) == 0
    assert count[0] <= factored


def _count_frequencies_built(monkeypatch) -> list[int]:
    """A one-element counter of ExactFrequency objects built from now on (`__init__` and `_canonical`)."""
    count = [0]
    init, canonical = EF.__init__, EF._canonical.__func__

    def counted_init(self, *args):
        count[0] += 1
        init(self, *args)

    def counted_canonical(cls, *args):
        count[0] += 1
        return canonical(cls, *args)

    monkeypatch.setattr(EF, "__init__", counted_init)
    monkeypatch.setattr(EF, "_canonical", classmethod(counted_canonical))
    return count


def test_frequencies_built_do_not_grow_with_degree(tmp_path, capsys, monkeypatch):
    # f and s are read and written by ray, so a roots factor and its verify
    # build a fixed number of frequencies, whatever the degree (188 and 124
    # for degree 32 when the codec built one per term, 64 and 50 for degree 7).
    # An odd degree's |s|^2 is rescaled to keys of gcd 1, one frequency more
    count = _count_frequencies_built(monkeypatch)
    built = {}
    for name in ("degree32", "degree7"):
        inp, out = ROOTS_FIXTURES / f"{name}.input.json", tmp_path / f"{name}.json"
        count[0] = 0
        assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 0
        factored, count[0] = count[0], 0
        assert run(["verify", "--report", str(out)]) == 0
        built[name] = (factored, count[0])
    capsys.readouterr()
    assert built["degree32"][0] == built["degree7"][0]
    assert built["degree32"][1] <= built["degree7"][1] <= built["degree32"][1] + 1
    assert max(built["degree7"]) < 50


@pytest.mark.parametrize("base", [EF(10**19), EF.sqrt_of(2, 10**19), EF.sqrt_of(2, Fraction(10**19, 3))])
def test_roots_route_takes_a_ray_generator_past_int64(base, tmp_path, capsys):
    # f = 2 + cos(base*x) is one ray with keys -1, 1 on base, however large
    # the integers that spell base are
    f = TrigPoly.from_cos([(base, 1.0)], 2.0)
    const, (ray,) = ray_partition(f)
    assert const == 2 and ray.base == base and ray.keys.tolist() == [-1, 1]
    assert f.is_real()
    slope = TrigPoly({w: c * 1j * float(w) for w, c in f.sorted_terms()})
    assert f.derivative() == slope
    inp, out = tmp_path / "f.json", tmp_path / "s.json"
    inp.write_text(dumps(trigpoly_to_json(f)))
    assert run(["factor", "--method", "roots", "--input", str(inp), "--out", str(out)]) == 0
    assert all(c["passed"] for c in load_path(str(out))["report"]["checks"])
    capsys.readouterr()
    assert run(["verify", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed and printed.count("PASS") == 4


_BASES = (EF(1), EF(Fraction(1, 3)), EF.sqrt_of(3, Fraction(2, 5)), EF.sqrt_of(2, Fraction(2, 3)))
_COEFF = st.one_of(st.just(0.0), st.floats(-2, 2))


@given(
    st.sampled_from(_BASES),
    st.lists(st.builds(complex, _COEFF, _COEFF), min_size=1, max_size=14),
    st.lists(st.builds(complex, _COEFF, _COEFF), min_size=1, max_size=14),
)
@settings(max_examples=60, deadline=None)
def test_roots_battery_same_for_rays_and_terms(base, coeffs, other):
    # s laid out by ray as fejer_riesz builds it, and the same s term by term
    # as verify reads it from a bundle, against f = |t|^2 for some t on the
    # same lattice: every number the battery reports agrees bit for bit
    n = len(coeffs) - 1
    keys = np.arange(-n, n + 1, 2)
    mid = keys == 0
    const = coeffs[n // 2] if n % 2 == 0 else 0j
    s_rays = TrigPoly.from_rays([DenseBlock(base / 2, keys[~mid], np.array(coeffs)[~mid])], const=const)
    s_terms = TrigPoly([(base * Fraction(2 * j - n, 2), c) for j, c in enumerate(coeffs)])
    m = len(other) - 1
    f_rays = modulus_squared(TrigPoly([(base * Fraction(2 * j - m, 2), c) for j, c in enumerate(other)]))
    f_terms = TrigPoly(f_rays.sorted_terms())

    def numbers(report):
        checks = [(c.name, c.passed, repr(c.value), c.detail) for c in report.checks]
        return checks, repr(report.residual_sup), repr(report.bandwidth_ratio)

    got = numbers(roots_check_battery(f_rays, s_rays))
    assert got == numbers(roots_check_battery(f_terms, s_terms))
    assert got == numbers(roots_check_battery(TrigPoly(f_rays.sorted_terms()), s_rays))
