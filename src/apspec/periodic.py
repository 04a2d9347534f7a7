"""Spectral factorization for commensurable spectra.

A real trig polynomial whose frequencies all lie on one rational ray is a
Laurent polynomial f(w) = sum_{|k|<=n} c_k w^k in w = exp(i*rho*x).  Its
factor s is the degree-n polynomial S(w) with |S|^2 = f on |w| = 1 and no
zeros in the open unit disk, shifted by -n*rho/2 so that its frequencies
are rho*(2j - n)/2; its entire extension is then zero-free in the open
upper half-plane.  Two routes compute S:

* f > 0 (the common case): S is the outer function exp of the analytic
  half of log(f)/2 (Kolmogorov's method), one FFT kernel on N samples of
  one period.  `outer_factor` runs it when f is positive on its grid, the
  cepstrum has decayed to rounding level by the middle of the grid (no
  aliasing), and the winding number of S on the grid is 0 (S zero-free in
  the disk).
* otherwise, e.g. f with zeros on the unit circle such as 2 + 2cos:
  Laurent roots.  Nonnegativity forces them to pair as (r, 1/conj(r)) with
  even multiplicity on the circle; keeping the |r| >= 1 member of each
  pair gives S.

Both routes fix the coefficient of w^0 (s's lowest frequency) real
positive, and both hand s to the same `roots_check_battery`.
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

# FFT outer-factor route
OUTER_MIN_POINTS = 4096  # N is the least power of two >= max(4096, 8(2n+1)):
# eight samples per coefficient of f leave the cepstrum room to decay before
# the middle of the grid, and 4096 covers every degree up to 255
CEPSTRUM_TAIL_TOL = 1e-14  # max |cepstrum| over the middle quarter of the grid;
# the band holds the terms of log S that the grid drops or aliases, and an
# error d in log S is a relative error d in S.  Rounding alone leaves up to
# about 1e-15 there (1.04e-15 at most over 12800 inputs of degrees 1-32 from
# the benchmark's generator); a cepstrum still above ten times that has not
# decayed (zeros of S near the circle), and such f takes the roots route
WINDING_STEP_MAX = math.pi / 2  # largest phase step of S between grid points
# for which the winding count is trusted; the argument principle on a grid
# needs every step below pi, and the margin absorbs rounding near a small |S|

# Laurent-roots route
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


def outer_factor(lf: LaurentForm) -> np.ndarray | None:
    """Coefficients S_0..S_n of the outer factor of f > 0, or None to decline.

    Kolmogorov's method on N points of one period, N the least power of
    two >= max(OUTER_MIN_POINTS, 8(2n+1)): the cepstrum of log f, its
    analytic half (c_0/2 plus the positive terms) as log S, then exp and the
    FFT back.  Returns None, and takes no log, unless f is positive on the
    grid; returns None unless the cepstrum's middle quarter is below
    CEPSTRUM_TAIL_TOL and S, truncated to degree n, winds 0 times round the
    origin on the grid in steps of at most WINDING_STEP_MAX (so S has no
    zero in the disk).  S_0 is real positive.
    """
    n = lf.n
    size = max(OUTER_MIN_POINTS, 1 << (8 * (2 * n + 1) - 1).bit_length())
    bins = np.zeros(size, dtype=complex)
    bins[: n + 1] = lf.coeffs[n:]
    bins[size - n :] = lf.coeffs[:n]
    fv = np.fft.ifft(bins, norm="forward").real
    top = float(np.max(fv))
    if not float(np.min(fv)) > 0:
        return None
    # log of f/max f: the cepstrum's rounding floor then does not grow with f's scale
    cep = np.fft.fft(np.log(fv / top), norm="forward")
    if float(np.max(np.abs(cep[3 * size // 8 : 5 * size // 8]))) > CEPSTRUM_TAIL_TOL:
        return None
    half = np.zeros(size, dtype=complex)
    half[0] = cep[0].real / 2
    half[1 : size // 2] = cep[1 : size // 2]
    sv = np.exp(np.fft.ifft(half, norm="forward"))
    coeffs = np.fft.fft(sv, norm="forward")[: n + 1]
    lowest = abs(coeffs[0])
    coeffs *= math.sqrt(top) * np.exp(-1j * np.angle(coeffs[0]))
    coeffs[0] = math.sqrt(top) * lowest  # real positive, not just up to rounding
    vals = np.fft.ifft(coeffs, n=size, norm="forward")
    if np.any(vals == 0):
        return None
    steps = np.angle(np.roll(vals, -1) / vals)
    if float(np.max(np.abs(steps))) > WINDING_STEP_MAX:
        return None
    if round(float(np.sum(steps)) / (2 * math.pi)) != 0:
        return None
    return coeffs


def polynomial_roots(coeffs: np.ndarray) -> list[tuple[complex, int]]:
    """Roots with multiplicities of sum_k coeffs[k] * w^k (ascending powers).

    Companion-matrix eigenvalues polished together by Newton iteration run
    in the numerically stable orientation (the reversed polynomial
    u^n p(1/u) for |r| > 1, so the iterate stays inside the unit disk);
    residuals are checked scale-free the same way, and clusters within a
    relative radius of 1e-7 merge into multiple roots.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(coeffs) < 2 or coeffs[-1] == 0:
        raise ValueError("need degree >= 1 and a nonzero leading coefficient")
    monic_desc = coeffs[::-1]
    roots = np.roots(monic_desc).astype(complex)
    # one column per root, descending: p itself for |r| <= 1, else
    # u^n p(1/u) (the ascending coeffs read as descending) at u = 1/r
    inside = np.abs(roots) <= 1.0
    polys = np.where(inside, monic_desc[:, None], coeffs[:, None])
    derivs = polys[:-1] * np.arange(len(coeffs) - 1, 0, -1)[:, None]
    x = roots.copy()
    x[~inside] = 1.0 / roots[~inside]
    active = np.ones(len(x), dtype=bool)
    for _ in range(60):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        xa = x[idx]
        dv = np.polyval(derivs[:, idx], xa)
        live = np.abs(dv) >= 1e-300
        step = np.polyval(polys[:, idx], xa) / np.where(live, dv, 1.0)
        # cap the correction so a near-zero derivative cannot eject a root
        live &= np.abs(step) <= 0.1 * (1 + np.abs(xa))
        xa = np.where(live, xa - step, xa)
        x[idx] = xa
        active[idx] = live & (np.abs(step) > 5e-16 * (1 + np.abs(xa)))
    scale = float(np.linalg.norm(coeffs))
    # P(r) = r^deg * (value at 1/r) for |r| > 1: the bounded factor is checked
    res = np.abs(np.polyval(polys, x)) / scale
    if np.any(res > RESIDUAL_TOL):
        raise NonConvergence(f"root residual {float(np.max(res)):.3g} above {RESIDUAL_TOL:g}")
    roots = np.where(inside, x, 1.0 / x)
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
    positive (fixing the unimodular freedom).  `outer_factor` computes it
    when it accepts f; the Laurent roots do otherwise.
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

    outer = outer_factor(lf)
    coeffs = outer.tolist() if outer is not None else _roots_factor(lf)
    # w^j together with the e^{-i n rho x / 2} normalization
    s = TrigPoly([(rho * Fraction(2 * j - n, 2), c) for j, c in enumerate(coeffs)])
    return roots_check_battery(f, s)


def _roots_factor(lf: LaurentForm) -> list[complex]:
    """Ascending coefficients of S from the Laurent roots of f, S_0 real positive."""
    n = lf.n
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
    return [kappa * unit * coef for coef in reversed(poly.tolist())]


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
