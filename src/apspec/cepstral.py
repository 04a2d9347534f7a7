"""Outer-function factorization: half-log, harmonic conjugate, Bohr projection.

For f >= m > 0 the factor is built from boundary values alone: take
g = (1/2) log f on a window, form its harmonic conjugate v spectrally on the
periodized window, exponentiate to h = e^(g+iv), and shift by a quarter of
the bandwidth.  The factor comes back as samples; bohr_project recovers
coefficients on a candidate frequency set when one is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from apspec.certify import certify_lower_bound, check_grid_span, sup_norm_certified
from apspec.checks import CheckResult, FactorizationReport, factorization_residual
from apspec.errors import NotBoundedBelow, WindowTooSmall
from apspec.frequency import ExactFrequency
from apspec.sampling import SampledFunction
from apspec.trigpoly import TrigPoly, spectrum

EF = ExactFrequency

DEFAULT_HALFWIDTH = 256 * math.pi

# almost-period screen: probe indices per translate and translates per
# chunk; one chunk's deviations take 512 x 256 float64 = 1 MB
_SCAN_PROBES = 256
_SCAN_CHUNK = 512


def _grid(f: TrigPoly, halfwidth: float, step: float | None) -> tuple[int, float]:
    """Number of intervals (even) and adjusted step for the window."""
    if halfwidth <= 0:
        raise ValueError("window halfwidth must be positive")
    tau = float(spectrum(f).tau)
    if step is None:
        # pi/(4 tau) already keeps phase increments per sample below pi;
        # go 4x finer so aliased log-harmonics stay out of the conjugate
        step = math.pi / (16 * tau) if tau > 0 else halfwidth / 512
    if step <= 0:
        raise ValueError("step must be positive")
    span = 2 * halfwidth / step
    check_grid_span(span)
    n = max(64, math.ceil(span))
    n += n % 2
    return n, 2 * halfwidth / n


def half_log(
    f: TrigPoly,
    m: float,
    halfwidth: float = DEFAULT_HALFWIDTH,
    step: float | None = None,
) -> SampledFunction:
    """Samples of (1/2) log f on [-L, L]; requires a certified bound f >= m > 0."""
    if m <= 0:
        raise NotBoundedBelow("need a positive lower bound")
    if not f.is_real(tol=1e-9):
        raise NotBoundedBelow("input is not real-valued")
    if not certify_lower_bound(f, m):
        raise NotBoundedBelow(f"could not certify f >= {m}")
    n, step = _grid(f, halfwidth, step)
    xs = -halfwidth + step * np.arange(n + 1)
    vals = f.evaluate(xs).real
    return SampledFunction(halfwidth, step, 0.5 * np.log(vals))


def conjugate_boundary(g: SampledFunction) -> SampledFunction:
    """Harmonic conjugate of the length-2L periodization of g, mean zero.

    Computed spectrally: coefficient at signed bin k picks up -i sign(k),
    the mean bin is zeroed, and for even lengths the Nyquist bin (whose sign
    is ambiguous on the grid) is zeroed to keep real inputs real.
    """
    if not g.is_real(tol=1e-9):
        raise ValueError("conjugate needs a real-valued input")
    n = len(g.values) - 1
    if n < 2:
        return SampledFunction(g.halfwidth, g.step, np.zeros_like(g.values))
    w = np.asarray(g.values[:-1], dtype=complex)
    ft = np.fft.fft(w)
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = -1j * np.sign(k)
    if n % 2 == 0:
        mult[n // 2] = 0.0
    v = np.fft.ifft(ft * mult).real
    return SampledFunction(g.halfwidth, g.step, np.concatenate([v, v[:1]]))


def cepstral_factorize(
    f: TrigPoly,
    m: float,
    halfwidth: float = DEFAULT_HALFWIDTH,
    step: float | None = None,
) -> FactorizationReport:
    """Sampled spectral factor s with |s|^2 = f up to the Hilbert-window error.

    h = e^(g+iv) never vanishes; s = e^(-i b(f) x / 4) h carries half of f's
    bandwidth centered at zero.  The reported residual is the sup of
    |f - |s|^2| over the interior 80% of the window.
    """
    g = half_log(f, m, halfwidth, step)
    v = conjugate_boundary(g)
    h_vals = np.exp(g.values + 1j * v.values)
    quarter = float(spectrum(f).bandwidth) / 4.0
    xs = g.xs()
    s_vals = np.exp(-1j * quarter * xs) * h_vals
    return cepstral_checks(f, SampledFunction(g.halfwidth, g.step, s_vals), m)


def cepstral_checks(f: TrigPoly, s: SampledFunction, m: float) -> FactorizationReport:
    """Check battery for a sampled factor s of f >= m; factor and verify both run it.

    Re-certifies f >= m, checks |s| >= sqrt(m) on the samples, and bounds
    the residual sup |f - |s|^2| on the interior 80% of the window by 1e-2
    times the certified sup of f.
    """
    residual = factorization_residual(f, s)
    scale = sup_norm_certified(f).upper
    min_mod = float(np.min(np.abs(s.values)))
    checks = [
        CheckResult("lower_bound_certified", certify_lower_bound(f, m), float(m), f"m={m!r}"),
        CheckResult(
            "nonvanishing",
            min_mod >= math.sqrt(m) * (1 - 1e-6),
            min_mod,
            f"sqrt(m)={math.sqrt(m)!r}",
        ),
        CheckResult(
            "residual_interior", residual <= 1e-2 * max(scale, 1e-300), residual,
            f"scale={scale!r}",
        ),
    ]
    return FactorizationReport("cepstral", s, residual, 0.5, checks)


@dataclass(frozen=True)
class ArgDecomposition:
    """arg h split as cx + theta with theta mean-centered over the window."""

    c: float
    theta: SampledFunction
    fit_residual: float


def arg_decompose(v: SampledFunction) -> ArgDecomposition:
    """Least-squares linear slope of v and the mean-centered remainder.

    fit_residual is the rms of theta, a diagnostic only: theta need not be
    small, it only needs to carry no linear trend.
    """
    if not v.is_real(tol=1e-9):
        raise ValueError("arg decomposition needs a real-valued input")
    xs = v.xs()
    ys = v.values.real
    xc = xs - xs.mean()
    denom = float(xc @ xc)
    c = float(xc @ (ys - ys.mean()) / denom) if denom > 0 else 0.0
    theta = ys - c * xs
    theta = theta - theta.mean()
    rms = float(np.sqrt(np.mean(theta**2)))
    return ArgDecomposition(c, SampledFunction(v.halfwidth, v.step, theta), rms)


@dataclass(frozen=True)
class AlmostPeriodReport:
    """Translates accepted as eps-almost-periods and a density verdict.

    The verdict (largest gap between accepted translates <= L/8) is a
    heuristic for relative density; it cannot prove it.
    """

    epsilon_periods: tuple[float, ...]
    relative_density_gap: float
    verdict: bool
    note: str = field(default="verdict gap <= L/8 is heuristic", compare=False)


def almost_period_test(theta: SampledFunction, eps: float) -> AlmostPeriodReport:
    """Scan translates tau in (0, L] for sup |theta(x+tau) - theta(x)| <= eps.

    Translate k*step is accepted when max_j |vals[j+k] - vals[j]| <= eps
    over every j with j + k a sample; a NaN anywhere rejects it.  The scan
    runs in two stages with the same result as testing every k in full:

    - screen: for _SCAN_CHUNK translates at a time, take the max over a
      fixed probe set of _SCAN_PROBES indices spread evenly over
      [0, N-1-kmax], and drop each k whose probe max is > eps or NaN;
    - confirm: run each survivor through the full-slice test.

    Each probe difference is one of the full-slice differences, formed by
    the same floating-point subtraction, so a dropped k would fail the
    full test too: its full max is at least the probe max, or NaN.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    vals = theta.values.real
    L = theta.halfwidth
    kmax = math.floor(L / theta.step + 1e-9)
    if kmax < 1 or len(vals) < 4:
        raise WindowTooSmall("no candidate translate keeps at least half the window")
    # probes j = 0, d, 2d, ... <= N-1-kmax, so j + k is a sample for all k <= kmax;
    # d is odd, so the probes meet every phase of a period of 2^i samples (the
    # base-1 ray has 128 on the default window) instead of a few of them
    room = len(vals) - 1 - kmax
    d = max(1, room // (_SCAN_PROBES - 1)) | 1
    width = min(_SCAN_PROBES - 1, room // d) * d + 1
    shifted = np.lib.stride_tricks.sliding_window_view(vals, width)[:, ::d]  # [k, i] = vals[k + i*d]
    probes = shifted[0]
    buf = np.empty((_SCAN_CHUNK, len(probes)))
    accepted = []
    for k0 in range(1, kmax + 1, _SCAN_CHUNK):
        dev = buf[: min(_SCAN_CHUNK, kmax + 1 - k0)]
        np.subtract(shifted[k0 : k0 + len(dev)], probes, out=dev)
        np.abs(dev, out=dev)
        for k in (k0 + np.flatnonzero(dev.max(axis=1) <= eps)).tolist():
            if float(np.max(np.abs(vals[k:] - vals[:-k]))) <= eps:
                accepted.append(k * theta.step)
    # gaps measured against the ends too: a drift that kills all large
    # translates must show up as a huge trailing gap
    knots = [0.0, *accepted, L]
    gap = max(b - a for a, b in zip(knots, knots[1:]))
    return AlmostPeriodReport(tuple(accepted), gap, gap <= L / 8)


def bohr_project(s: SampledFunction, candidates: list[EF]) -> TrigPoly:
    """Windowed mean coefficients of s at the candidate frequencies.

    Coefficient at w is the trapezoid mean of s(x) e^(-iwx) over [-L, L];
    magnitudes below 1e-4 are dropped.
    """
    xs = s.xs()
    width = 2 * s.halfwidth
    terms = []
    seen = set()
    for w in candidates:
        if w in seen:
            continue
        seen.add(w)
        integrand = s.values * np.exp(-1j * float(w) * xs)
        coeff = complex(np.trapezoid(integrand, dx=s.step) / width)
        if abs(coeff) >= 1e-4:
            terms.append((w, coeff))
    return TrigPoly(terms)


def default_candidates(f: TrigPoly, depth: int = 3) -> list[EF]:
    """Half-lattice of the spectrum: depth-limited sums and differences.

    Starts from the exact half-frequencies of f and closes under addition
    and subtraction `depth` times, keeping only frequencies inside
    [inf/2, sup/2].  This covers the factor spectrum in all worked cases.
    """
    info = spectrum(f)
    if info.count == 0:
        return []
    lo, hi = info.inf_freq / 2, info.sup_freq / 2
    halves = [w / 2 for w in f.frequencies()]
    current = {w for w in halves if lo <= w <= hi}
    for _ in range(depth - 1):
        new = set()
        for a in current:
            for b in halves:
                for cand in (a + b, a - b):
                    if cand not in current and lo <= cand <= hi:
                        new.add(cand)
        if not new:
            break
        current |= new
        if len(current) > 4096:
            break
    return sorted(current)
