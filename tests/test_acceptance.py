"""Acceptance gate: the ten package-level criteria, one printed line each.

Run with `pytest -v` (names carry the criterion number) or `pytest -s` to
see the printed PASS/FAIL lines with the measured values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from apspec.cepstral import bohr_project, cepstral_factorize, default_candidates
from apspec.certify import certify_lower_bound, sup_norm_certified
from apspec.checks import (
    asym_decay_check,
    bernstein_check,
    inverse_poisson_identity,
    poisson_eval,
)
from apspec.cli import run
from apspec.construction import ConstructionParams, assemble, build_g, build_q, wiener_growth_table
from apspec.errors import NotBoundedBelow, NotNonnegative
from apspec.frequency import ExactFrequency as EF
from apspec.periodic import fejer_riesz
from apspec.products import ZeroSet, ahiezer_split, factor_from_zeros, product_eval
from apspec.serialize import dumps, trigpoly_to_json
from apspec.trigpoly import (
    TrigPoly,
    bohr_coefficient,
    mean_value_numeric,
    modulus_squared,
    spectrum,
)


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def random_min_phase(rng: np.random.Generator, max_degree: int = 32) -> TrigPoly:
    """Random w-polynomial with all roots outside the open unit disk, sup ~ 1.

    Two regularity constraints keep the draws inside the regime where 1e-8
    coefficient recovery is attainable in double precision:

    * the product of root moduli stays below ~300, since it equals the
      coefficient dynamic range and the roots of |s0|^2 are only determined
      to (dynamic range)^2 times machine epsilon;
    * angles are stratified with jitter so the 2d roots of |s0|^2 never
      nearly collide (i.i.d. angles produce gaps ~1/d^2 and near-double
      roots whose condition number swallows the whole tolerance budget).
    """
    d = int(rng.integers(1, max_degree + 1))
    hi = min(math.log(2.5), math.log(300.0) / d)
    lo = min(math.log(1.1), 0.5 * hi)
    moduli = np.exp(rng.uniform(lo, hi, size=d))
    angles = 2 * math.pi * (np.arange(d) + rng.uniform(0.15, 0.85, size=d)) / d
    roots = moduli * np.exp(1j * angles)
    coeffs = np.poly(roots)[::-1]  # ascending in w, monic at top
    coeffs = coeffs / np.max(np.abs(coeffs))
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return TrigPoly([(EF(k), phase * complex(c)) for k, c in enumerate(coeffs)])


def align_error(s0: TrigPoly, s: TrigPoly) -> float:
    """Max coefficient gap after the best unimodular alignment of s to s0."""
    keys = sorted(set(s0.frequencies()) | set(s.frequencies()))
    a = np.array([s0.coefficient(w) for w in keys])
    b = np.array([s.coefficient(w) for w in keys])
    inner = complex(np.vdot(b, a))  # sum conj(b) * a
    lam = inner / abs(inner) if inner != 0 else 1.0
    return float(np.max(np.abs(a - lam * b)))


@pytest.fixture(scope="module")
def pipeline():
    return assemble(ConstructionParams(m=1.0, blocks=2, oracle_n=4096))


def test_criterion_01_roundtrip_factorization():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        s0 = random_min_phase(rng)
        f = modulus_squared(s0)
        rep = fejer_riesz(f)
        d = spectrum(s0).sup_freq  # s0 lives on 0..d; the factor is centered
        recovered = rep.factor.modulate(d / 2)
        worst = max(worst, align_error(s0, recovered))
    ok = worst <= 1e-8
    emit(1, ok, f"50 random minimum-phase roundtrips, max coefficient error {worst:.3e}")
    assert ok


def test_criterion_02_type_halving():
    rng = np.random.default_rng(202)
    exact = True
    for _ in range(10):
        s0 = random_min_phase(rng, max_degree=16)
        f = modulus_squared(s0)
        s = fejer_riesz(f).factor
        bf, bs = spectrum(f).bandwidth, spectrum(s).bandwidth
        exact = exact and (bf - bs * 2).is_zero()
    # zeros path: the factor keeps exactly half of the zero multiplicity
    full = ZeroSet(tuple(((2 * k + 1) * math.pi + 0j, 2) for k in range(-50, 50)), b=math.log(2), p=1)
    half, _ = ahiezer_split(full)
    zeros_exact = sum(m for _, m in half.zeros) * 2 == sum(m for _, m in full.zeros)
    pair, _ = ahiezer_split(ZeroSet(((1j, 1), (-1j, 1))))
    zeros_exact = zeros_exact and sum(m for _, m in pair.zeros) == 1

    # cepstral path: bandwidth off by at most one candidate-lattice step
    cep_ok = True
    for f, mlow in (
        (TrigPoly([(EF(-1), 1.0), (EF(0), 3.0), (EF(1), 1.0)]), 0.9),
        (TrigPoly([(EF(Fraction(-1, 2)), 0.5), (EF(0), 1.25), (EF(Fraction(1, 2)), 0.5)]), 0.2),
    ):
        rep = cepstral_factorize(f, mlow)
        cands = default_candidates(f)
        s_poly = bohr_project(rep.factor, cands)
        top = max(abs(c) for _, c in s_poly.sorted_terms())
        trimmed = TrigPoly([(w, c) for w, c in s_poly.sorted_terms() if abs(c) > 0.05 * top])
        grid = sorted(float(w) for w in cands)
        step = min(b - a for a, b in zip(grid, grid[1:]))
        target = float(spectrum(f).bandwidth) / 2
        got = float(spectrum(trimmed).bandwidth)
        cep_ok = cep_ok and abs(got - target) <= step + 1e-12
    ok = exact and zeros_exact and cep_ok
    emit(
        2,
        ok,
        f"roots exact on 10 draws: {exact}; zeros multiplicity halved: {zeros_exact}; "
        f"cepstral within one lattice step: {cep_ok}",
    )
    assert ok


def test_criterion_03_method_agreement():
    rng = np.random.default_rng(2026)
    worst_mod = 0.0
    worst_arg = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 6))
        roots = rng.uniform(1.4, 2.5, size=d) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=d))
        coeffs = np.poly(roots)[::-1]
        coeffs = coeffs / np.max(np.abs(coeffs))
        s0 = TrigPoly([(EF(k), complex(c)) for k, c in enumerate(coeffs)])
        f = modulus_squared(s0)
        xs_min = np.linspace(0, 2 * math.pi, 4001)
        m = 0.5 * float(np.min(f.evaluate(xs_min).real))
        assert m > 0 and certify_lower_bound(f, m)
        rep_c = cepstral_factorize(f, m)  # window 256*pi
        rep_r = fejer_riesz(f)
        samples = rep_c.factor
        mask = samples.interior(0.8)
        xs = samples.xs()[mask]
        sc = samples.values[mask]
        sr = rep_r.factor.evaluate(xs)
        scale = math.sqrt(sup_norm_certified(f).upper)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(sc) - np.abs(sr)))) / scale)
        w = sc * np.conj(sr)
        lam = complex(np.sum(w))
        lam /= abs(lam)
        angles = np.angle(w * np.conj(lam))
        worst_arg = max(worst_arg, float(np.max(angles) - np.min(angles)))
    ok = worst_mod <= 1e-3 and worst_arg <= 1e-2
    emit(
        3,
        ok,
        f"10 seeded draws: sup ||s_cep|-|s_root||/||sqrt f|| = {worst_mod:.3e}, "
        f"arg spread {worst_arg:.3e}",
    )
    assert ok


def test_criterion_04_entire_products():
    # exact polynomial case: zeros {i, -i}, factor is 1 - iz
    S = factor_from_zeros(ZeroSet(((1j, 1), (-1j, 1))))
    pts = np.array([0.0, 1.0, -2.5, 0.3 + 0.7j, -1.1 + 2.2j])
    exact_err = float(np.max(np.abs(np.asarray(S(pts)) - (1 - 1j * pts))))

    K = 10**4
    zeros = tuple(((2 * k + 1) * math.pi + 0j, 2) for k in range(K)) + tuple(
        ((-(2 * k + 1)) * math.pi + 0j, 2) for k in range(K)
    )
    trunc = ZeroSet(zeros, b=math.log(2), p=1)
    Sk = factor_from_zeros(trunc)
    xs = np.linspace(-math.pi, math.pi, 2049)[1:-1]  # endpoints are the zeros
    f_true = 2 + 2 * np.cos(xs)
    rel = float(np.max(np.abs(np.abs(np.asarray(Sk(xs))) ** 2 - f_true) / f_true))
    ok = exact_err <= 1e-12 and rel <= 1e-3
    emit(4, ok, f"1+z^2 factor error {exact_err:.3e}; K=1e4 truncation relative error {rel:.3e}")
    assert ok


def test_criterion_05_construction_pipeline(pipeline):
    res = pipeline
    exact = next(c for c in res.certificates.checks if c.name == "exact_factorization")
    exact_zero = res.f.factor == res.s and exact.passed and exact.value == 0.0
    lower = certify_lower_bound(res.f, 1.0)
    q_counts = sum(build_q(j, res.n_seq).term_count() for j in range(1, res.params.blocks + 1))
    disjoint = res.g.term_count() == q_counts
    q2_ok = res.q_norms[1] <= 0.25
    norms = []
    for blocks in (1, 2, 3):
        _, _, _, _, wiener = build_g(ConstructionParams(m=1.0, blocks=blocks, oracle_n=4096))
        norms.append(math.fsum(wiener))
    growing = norms[0] < norms[1] < norms[2]
    ok = exact_zero and lower and disjoint and q2_ok and growing
    emit(
        5,
        ok,
        f"f-|s|^2 exact zero: {exact_zero}; f>=1 certified: {lower}; "
        f"spectra disjoint: {disjoint}; ||q_2||<=1/4: {q2_ok} ({res.q_norms[1]:.4f}); "
        f"||g||_A over blocks 1..3: {norms[0]:.4f} < {norms[1]:.4f} < {norms[2]:.4f}: {growing}",
    )
    assert ok


def test_criterion_06_growth_table():
    ns = [4, 16, 256, 4096, 65536]
    table = wiener_growth_table(ns)
    values = [v for _, v in table]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    # independent oracle: split the weight (n+1-k)/n = (1+1/n) - (k/n) and
    # sum the two series separately
    worst = 0.0
    for n, v in table:
        s1 = math.fsum(1.0 / (k * math.log(k)) for k in range(2, n + 1))
        s2 = math.fsum(1.0 / math.log(k) for k in range(2, n + 1))
        oracle = (1 + 1 / n) * s1 - s2 / n
        worst = max(worst, abs(v - oracle))
    ok = increasing and worst <= 1e-9
    emit(6, ok, f"strictly increasing: {increasing}; split-sum oracle gap {worst:.2e}")
    assert ok


def test_criterion_07_bernstein_battery():
    rng = np.random.default_rng(707)
    all_passed = True
    for _ in range(200):
        nterms = int(rng.integers(1, 9))
        terms = []
        for _ in range(nterms):
            w = EF(Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 9))))
            terms.append((w, complex(rng.normal(), rng.normal())))
        f = TrigPoly(terms)
        if f.is_zero():
            continue
        all_passed = all_passed and bernstein_check(f).passed
    sin_poly = TrigPoly([(EF(-1), 0.5j), (EF(1), -0.5j)])
    res = bernstein_check(sin_poly)
    xs = np.arange(0.0, 16 * math.pi, 1e-3)
    lhs = float(np.max(np.abs(np.cos(xs))))
    rhs = float(np.max(np.abs(np.sin(xs))))  # tau = 1
    eq_gap = abs(lhs - rhs)
    ok = all_passed and res.passed and eq_gap <= 1e-6
    emit(7, ok, f"200 random inequalities hold: {all_passed}; sin equality gap {eq_gap:.2e}")
    assert ok


def test_criterion_08_poisson_identities():
    rng = np.random.default_rng(808)
    f = TrigPoly(
        [
            (EF(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))), complex(rng.normal(), rng.normal()))
            for _ in range(5)
        ]
    )
    zs = [complex(0.35 * k - 3.3, 0.2 + 0.24 * k) for k in range(20)]
    agree = max(
        abs(poisson_eval(f, z, mode="closed") - poisson_eval(f, z, mode="quadrature")) for z in zs
    )

    ratio_ok = True
    monotone = True
    for h, delta in (
        (TrigPoly([(EF(0), 1.0), (EF(1), 1.0)]), EF(0)),
        (TrigPoly([(EF(Fraction(-3, 2)), 1.0), (EF(Fraction(-1, 2)), 2.0)]), EF(Fraction(3, 2))),
    ):
        table = asym_decay_check(h, delta, [1.0, 2.0, 3.0, 4.0])
        monotone = monotone and table.strictly_decreasing()
        expected = math.exp(-table.gap)
        for a, b in zip(table.sups, table.sups[1:]):
            r = b / a
            ratio_ok = ratio_ok and expected / 2 <= r <= expected * 2

    h17 = TrigPoly([(EF(0), 2.0), (EF(1), 0.5)])
    dev = inverse_poisson_identity(h17, zs, depth=20)
    ok = agree <= 1e-6 and monotone and ratio_ok and dev <= 1e-3
    emit(
        8,
        ok,
        f"closed vs quadrature {agree:.2e}; decay monotone {monotone} with e^-gap ratios {ratio_ok}; "
        f"product identity deviation {dev:.2e}",
    )
    assert ok


def test_criterion_09_mean_value_convergence():
    rng = np.random.default_rng(909)
    ok = True
    worst_ratio = 0.0
    for _ in range(20):
        nterms = int(rng.integers(2, 7))
        terms = []
        for _ in range(nterms):
            base = EF(Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7))))
            if rng.random() < 0.3:
                base = base + EF.sqrt_of(2, Fraction(int(rng.integers(1, 5)), 3))
            terms.append((base, complex(rng.normal(), rng.normal())))
        f = TrigPoly(terms)
        freqs = f.frequencies()
        w = freqs[int(rng.integers(0, len(freqs)))] if rng.random() < 0.5 else EF(Fraction(1, 9))
        L = float(rng.uniform(50, 1000))
        est, _ = mean_value_numeric(f, w, L)
        true = bohr_coefficient(f, w)
        C = math.fsum(2 * abs(c) / abs(float(wp - w)) for wp, c in f.sorted_terms() if wp != w)
        err = abs(est - true)
        ok = ok and err <= C / L + 1e-15
        if C > 0:
            worst_ratio = max(worst_ratio, err / (C / L))
    emit(9, ok, f"20 draws within C/L; worst error/(C/L) = {worst_ratio:.3f}")
    assert ok


def test_criterion_10_negative_controls(tmp_path):
    with pytest.raises(NotNonnegative):
        fejer_riesz(TrigPoly([(EF(-1), 1.0), (EF(0), 1.9), (EF(1), 1.0)]))
    with pytest.raises(NotBoundedBelow):
        cepstral_factorize(TrigPoly([(EF(-1), 1.0), (EF(0), 2.0), (EF(1), 1.0)]), 0.5)
    path = tmp_path / "irr.json"
    path.write_text(
        dumps(
            trigpoly_to_json(
                TrigPoly(
                    [
                        (EF(-1), 0.5),
                        (EF.sqrt_of(2, -1), 0.5),
                        (EF(0), 3.0),
                        (EF.sqrt_of(2), 0.5),
                        (EF(1), 0.5),
                    ]
                )
            )
        )
    )
    rc = run(["factor", "--method", "roots", "--input", str(path)])
    ok = rc == 2
    emit(10, ok, f"negative f and uncertified f rejected; incommensurable exit code {rc}")
    assert ok
