"""Spectral factorization for commensurable spectra via Laurent roots.

A real trig polynomial whose frequencies all lie on one rational ray is a
Laurent polynomial in w = exp(i*rho*x).  Nonnegativity forces its roots to
pair as (r, 1/conj(r)) with even multiplicity on the unit circle; keeping
the |r| >= 1 member of each pair yields the factor whose entire extension
is zero-free in the open upper half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from apspec.certify import sup_norm_certified
from apspec.checks import CheckResult, FactorizationReport, bernstein_check, factorization_residual
from apspec.errors import IncommensurableSpectrum, NonConvergence, NotNonnegative
from apspec.frequency import ExactFrequency
from apspec.trigpoly import TrigPoly, ray_partition, spectrum

EF = ExactFrequency

CIRCLE_BAND = 1e-7  # |log|r|| below this counts as a unit-circle root
CLUSTER_TOL = 1e-7  # relative clustering radius for multiplicities
PAIR_TOL = 1e-5  # |r*conj(r') - 1| <= PAIR_TOL*(1+|r|^2) matches a pair; clustered
# root pairs of high-degree inputs carry a few 1e-6 of noise while a genuinely
# unpaired root sits at distance ~|log|r|| from the reflected set
RESIDUAL_TOL = 1e-10  # scaled root residual accepted after refinement


@dataclass(frozen=True)
class LaurentForm:
    """f(x) = sum_{k=-N}^{N} coeffs[k+N] * exp(i*k*base*x), base > 0."""

    base: EF
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def to_trigpoly(self) -> TrigPoly:
        n = self.n
        return TrigPoly(
            [(self.base * (k - n), c) for k, c in enumerate(self.coeffs.tolist()) if c != 0]
        )


def commensurable_base(f: TrigPoly) -> LaurentForm:
    """Largest common base frequency and dense Laurent coefficients.

    Raises IncommensurableSpectrum unless every frequency is a rational
    multiple of every other (the constant term rides along at k = 0).
    """
    const, blocks = ray_partition(f)
    if len(blocks) > 1:
        raise IncommensurableSpectrum(
            f"spectrum spans {len(blocks)} independent rays; need exactly one"
        )
    if not blocks:
        return LaurentForm(EF(1), np.array([const], dtype=complex))
    b = blocks[0]
    n = int(max(np.max(b.keys), -np.min(b.keys)))
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    coeffs[b.keys + n] = b.coeffs
    coeffs[n] += const
    return LaurentForm(b.base, coeffs)


def polynomial_roots(coeffs: np.ndarray) -> list[tuple[complex, int]]:
    """Roots with multiplicities of sum_k coeffs[k] * w^k (ascending powers).

    Companion-matrix eigenvalues polished by Newton iteration run in the
    numerically stable orientation (the reversed polynomial u^n p(1/u) for
    |r| > 1, so the iterate stays inside the unit disk); residuals are
    checked scale-free the same way, and clusters within a relative radius
    of 1e-7 merge into multiple roots.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) < 2 or coeffs[-1] == 0:
        raise ValueError("need degree >= 1 and a nonzero leading coefficient")
    monic_desc = coeffs[::-1]
    roots = np.roots(monic_desc)
    deriv = np.polyder(monic_desc)
    # ascending coeffs read as descending are exactly u^n p(1/u)
    rev_desc = coeffs
    rev_deriv = np.polyder(rev_desc)

    def polish(poly, dpoly, x: complex) -> complex:
        for _ in range(60):
            dv = np.polyval(dpoly, x)
            if abs(dv) < 1e-300:
                break
            step = np.polyval(poly, x) / dv
            # cap the correction so a near-zero derivative cannot eject a root
            if abs(step) > 0.1 * (1 + abs(x)):
                break
            x -= step
            if abs(step) <= 5e-16 * (1 + abs(x)):
                break
        return x

    polished = []
    for r in roots:
        if abs(r) <= 1.0:
            polished.append(polish(monic_desc, deriv, complex(r)))
        else:
            polished.append(1.0 / polish(rev_desc, rev_deriv, 1.0 / complex(r)))
    roots = np.array(polished)
    scale = float(np.linalg.norm(coeffs))
    for r in roots:
        if abs(r) <= 1.0:
            res = abs(np.polyval(monic_desc, r)) / scale
        else:
            # P(r) = r^deg * (value below); check the bounded factor instead
            res = abs(np.polyval(coeffs, 1 / r)) / scale
        if res > RESIDUAL_TOL:
            raise NonConvergence(f"root residual {res:.3g} above {RESIDUAL_TOL:g}")
    order = np.lexsort((roots.imag, roots.real))
    clusters: list[list[complex]] = []
    for r in roots[order]:
        placed = False
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(r - center) <= CLUSTER_TOL * max(1.0, abs(center)):
                cl.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    out = []
    for cl in clusters:
        center = complex(sum(cl) / len(cl))
        mult = len(cl)
        if mult > 1:
            # Newton on a simple zero converges linearly at best for a
            # multiple root; the (mult-1)-th derivative sees it as simple
            dm = monic_desc
            for _ in range(mult - 1):
                dm = np.polyder(dm)
            dnext = np.polyder(dm)
            for _ in range(3):
                dv = np.polyval(dnext, center)
                if abs(dv) < 1e-30:
                    break
                step = np.polyval(dm, center) / dv
                if abs(step) > CLUSTER_TOL * max(1.0, abs(center)):
                    break
                center -= step
        out.append((center, mult))
    return out


def fejer_riesz(f: TrigPoly) -> FactorizationReport:
    """Factor a nonnegative commensurable f as |s|^2.

    The factor s is supported on half-integer multiples of the base, all
    roots of its w-polynomial satisfy |r| >= 1, its bandwidth is exactly
    half of f's, and the coefficient at its lowest frequency is real
    positive (fixing the unimodular freedom).
    """
    if not f.is_real(tol=1e-12):
        raise NotNonnegative("input is not real-valued")
    lf = commensurable_base(f)
    n = lf.n
    rho = lf.base
    # quick negativity scan over one period
    period = 2 * math.pi / float(rho)
    xs = np.linspace(0.0, period, 4096, endpoint=False)
    fv = f.evaluate(xs).real
    scale = max(float(np.max(np.abs(fv))), 1e-300)
    if float(np.min(fv)) < -1e-9 * scale:
        raise NotNonnegative(f"grid scan found f < 0 (min {float(np.min(fv)):.3g})")

    if n == 0:
        c = lf.coeffs[0].real
        if c < 0:
            raise NotNonnegative("negative constant")
        s = TrigPoly.constant(math.sqrt(c))
        return roots_check_battery(f, s)

    roots = polynomial_roots(lf.coeffs)
    selected: list[tuple[complex, int]] = []
    outside: list[tuple[complex, int]] = []
    inside: list[tuple[complex, int]] = []
    for r, mult in roots:
        if abs(math.log(abs(r))) <= CIRCLE_BAND:
            if mult % 2 != 0:
                raise NotNonnegative(
                    f"unit-circle root {r:.6g} with odd multiplicity {mult}"
                )
            selected.append((r, mult // 2))
        elif abs(r) > 1.0:
            outside.append((r, mult))
        else:
            inside.append((r, mult))
    remaining = list(inside)
    for r, mult in outside:
        match = None
        for i, (r2, m2) in enumerate(remaining):
            if abs(r * r2.conjugate() - 1.0) <= PAIR_TOL * (1 + abs(r) ** 2) and m2 == mult:
                match = i
                break
        if match is None:
            raise NonConvergence(f"no reflected partner for root {r:.6g}")
        remaining.pop(match)
        selected.append((r, mult))
    if remaining:
        raise NonConvergence(f"{len(remaining)} unpaired roots inside the unit disk")
    deg = sum(m for _, m in selected)
    if deg != n:
        raise NonConvergence(f"selected degree {deg} != {n}")

    prod_conj = complex(np.prod([r.conjugate() ** m for r, m in selected]))
    amplitude = lf.coeffs[-1] * (-1) ** n / prod_conj
    # a wrong root selection makes the amplitude complex at O(1) relative;
    # the angle noise from ~n conjugated computed roots stays below ~1e-6
    if abs(amplitude.imag) > 1e-6 * abs(amplitude):
        raise NonConvergence(f"amplitude {amplitude:.6g} is not real")
    if amplitude.real <= 0:
        raise NotNonnegative("negative leading amplitude")
    root_list = [r for r, m in selected for _ in range(m)]
    poly = np.poly(root_list)  # descending in w, leading 1
    kappa = math.sqrt(amplitude.real)
    phase = -np.angle(poly[-1]) if poly[-1] != 0 else 0.0
    unit = complex(math.cos(phase), math.sin(phase))
    terms = []
    for k, coef in enumerate(poly.tolist()):
        # w^{n-k} together with the e^{-i n rho x / 2} normalization
        freq = rho * Fraction(n - 2 * k, 2)
        terms.append((freq, kappa * unit * coef))
    s = TrigPoly(terms)
    return roots_check_battery(f, s)


def roots_check_battery(f: TrigPoly, s: TrigPoly) -> FactorizationReport:
    """Check battery for a polynomial factor s of f; factor and verify both run it."""
    residual = factorization_residual(f, s)
    bf = spectrum(f).bandwidth
    bs = spectrum(s).bandwidth
    ratio = float(bs) / float(bf) if not bf.is_zero() else 0.0
    checks = [
        CheckResult(
            "halved_bandwidth",
            (bf - bs * 2).is_zero(),
            ratio,
            f"b(s)={float(bs)!r} b(f)={float(bf)!r}",
        )
    ]
    if not f.is_zero():
        checks.append(bernstein_check(f).as_check())
    if not s.is_zero():
        checks.append(bernstein_check(s).as_check())
    scale = sup_norm_certified(f).upper
    checks.append(
        CheckResult(
            "residual", residual <= 1e-8 * max(scale, 1e-300), residual, f"scale={scale!r}"
        )
    )
    return FactorizationReport("roots", s, residual, ratio, checks)
