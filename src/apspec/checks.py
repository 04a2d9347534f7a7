"""Numeric identity checks shared by every factorization route.

Each check returns concrete numbers alongside its verdict so reports stay
auditable.  Sup norms feeding inequalities are certified upper bounds
from per-ray Ehlich-Zeller certificates (`sup_norm_upper`), not raw scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from apspec.certify import bernstein_sides, sup_norm_certified, sup_norm_upper
from apspec.errors import ReciprocalApproximationFailed
from apspec.frequency import ExactFrequency
from apspec.sampling import SampledFunction
from apspec.trigpoly import TrigPoly, complex_product, modulus_squared, multiply, ray_partition, spectrum

EF = ExactFrequency


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class FactorizationReport:
    """Factor plus the numbers that justify accepting it."""

    method: str  # roots | cepstral | zeros | construction
    factor: "TrigPoly | SampledFunction"
    residual_sup: float
    bandwidth_ratio: float
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class BernsteinResult:
    lhs: float
    rhs: float
    passed: bool
    upper: float  # the certified sup|f| (`sup_norm_upper`) behind rhs

    def as_check(self) -> CheckResult:
        return CheckResult(
            "bernstein", self.passed, self.lhs / self.rhs if self.rhs else 0.0,
            f"lhs={self.lhs!r} rhs={self.rhs!r}",
        )


def bernstein_check(f: TrigPoly) -> BernsteinResult:
    """Certified check of sup|f'| <= tau * sup|f|.

    lhs is a lower bound for sup|f'|: `sup_norm_certified(f').lower`, the
    grid max of |f'| on the certificate's grid, one period of f' when f
    has one ray (the grid `sup_norm_upper` uses for f), else a window
    scan.  rhs is tau times a certified upper bound for sup|f|.  With one
    ray, both sides come from one two-row FFT (`certify.bernstein_sides`),
    and f' is not built.  Pass means lhs <= rhs*(1 + 1e-6); the slack
    covers the rounding of lhs's FFT or scan and of tau and tau * upper.
    """
    if f.is_zero():
        raise ValueError("bernstein check needs a nonzero input")
    sides = bernstein_sides(f)
    upper = sides[0] if sides is not None else sup_norm_upper(f)
    tau = float(spectrum(f).tau)
    if tau == 0.0:
        return BernsteinResult(0.0, 0.0, True, upper)
    rhs = tau * upper
    lhs = sides[1] if sides is not None else sup_norm_certified(f.derivative()).lower
    return BernsteinResult(lhs, rhs, lhs <= rhs * (1 + 1e-6), upper)


def factorization_residual(f: TrigPoly, s: "TrigPoly | SampledFunction") -> float:
    """A bound on sup |f - |s|^2|.

    For a polynomial s it is the Wiener norm ||f - |s|^2||_A of the
    computed difference, which bounds that difference on all of R and is
    exactly 0 when the coefficients cancel.  The bound does not yet cover
    the rounding of |s|^2's coefficients (`modulus_squared`'s
    autocorrelation).  Sampled factors are compared on the interior 80% of
    their own window.
    """
    if isinstance(s, SampledFunction):
        mask = s.interior(0.8)
        xs = s.xs()[mask]
        return float(np.max(np.abs(f.evaluate(xs).real - np.abs(s.values[mask]) ** 2)))
    return (f - modulus_squared(s)).wiener_norm()


def poisson_eval(f: TrigPoly, z: complex, mode: str = "closed") -> complex:
    """Harmonic (Poisson) extension of f to the upper half-plane.

    Closed form: characters extend as exp(i*w*z) for w >= 0 and
    exp(i*w*conj(z)) for w < 0, all terms at once, then summed one after
    another in ascending frequency order.  Quadrature mode integrates the
    Poisson kernel against each character with semi-infinite oscillatory
    rules and serves as an independent cross-check.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("poisson extension needs Im z > 0")
    if mode == "closed":
        ws, cs = f.term_arrays()
        e = np.exp(1j * ws * np.where(ws >= 0, z, z.conjugate()))
        # c*e as Python multiplies, and the running sum from 0j, keep the
        # scalar loop's result bit for bit
        terms = np.zeros(len(ws) + 1, dtype=complex)
        complex_product(cs, e, out=terms[1:])
        return complex(np.add.accumulate(terms)[-1])
    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    from scipy.integrate import quad

    x, y = z.real, z.imag

    def kernel(t):
        return (y / math.pi) / (t * t + y * y)

    total = 0j
    for w, c in f.sorted_terms():
        wf = float(w)
        # integral of P_y(t) e^{i wf (x+t)} dt; P_y is even so only the
        # cosine part survives, as a semi-infinite Fourier integral
        if wf == 0.0:
            base = 2 * quad(kernel, 0, np.inf)[0]
        else:
            base = 2 * quad(kernel, 0, np.inf, weight="cos", wvar=abs(wf), limit=400)[0]
        total += c * complex(math.cos(wf * x), math.sin(wf * x)) * base
    return complex(total)


@dataclass(frozen=True)
class DecayTable:
    ys: tuple[float, ...]
    sups: tuple[float, ...]
    gap: float

    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.sups, self.sups[1:]))


def asym_decay_check(
    h: TrigPoly,
    delta: EF,
    y_list: list[float],
    x_halfwidth: float = 16.0,
    nx: int = 257,
) -> DecayTable:
    """Decay of the renormalized entire extension toward its lowest coefficient.

    For each y, reports sup over an x-grid of
    |exp(i*delta*z) * H(z) - c_low| at z = x + iy, where H is the entire
    extension of h and c_low its coefficient at the lowest frequency
    -delta.  The sups must decrease like exp(-gap*y), gap being the
    distance from the lowest frequency to the next one.
    """
    info = spectrum(h)
    if info.count == 0:
        raise ValueError("empty polynomial")
    if not (info.inf_freq + delta).is_zero():
        raise ValueError("delta must equal -inf spectrum(h)")
    c_low = h.coefficient(info.inf_freq)
    freqs = h.frequencies()
    gap = float(freqs[1] - freqs[0]) if len(freqs) > 1 else math.inf
    xs = np.linspace(-x_halfwidth, x_halfwidth, nx)
    df = float(delta)
    sups = []
    for y in y_list:
        zs = xs + 1j * float(y)
        vals = np.exp(1j * df * zs) * h.evaluate(zs) - c_low
        sups.append(float(np.max(np.abs(vals))))
    return DecayTable(tuple(float(y) for y in y_list), tuple(sups), gap)


def approximate_reciprocal(h: TrigPoly, depth: int = 20) -> tuple[TrigPoly, float]:
    """TrigPoly approximation r of 1/h with its certified boundary error.

    Splits h = c + h1 around the constant term; when the certified sup of
    |h1| is below |c| the truncated Neumann series (1/c) * sum (-h1/c)^k
    is used.  Returns (r, sup|h*r - 1| on a scan grid).  Raises
    ReciprocalApproximationFailed when the boundary error cannot be
    brought under 1e-4.
    """
    c = h.coefficient(EF(0))
    h1 = h - TrigPoly.constant(c)
    if abs(c) == 0:
        raise ReciprocalApproximationFailed("no constant term to expand around")
    ratio_upper = sup_norm_upper(h1) / abs(c)
    if ratio_upper < 1.0:
        base = h1 * (-1.0 / c)
        r = TrigPoly.constant(1.0)
        for _ in range(depth):
            r = TrigPoly.constant(1.0) + multiply(base, r)
        r = r * (1.0 / c)
    else:
        r = _sampled_reciprocal(h, depth)
    err_poly = multiply(h, r) - TrigPoly.constant(1.0)
    err = sup_norm_upper(err_poly)
    if err > 1e-4:
        raise ReciprocalApproximationFailed(f"boundary error {err:.3g} exceeds 1e-4")
    return r, err


def _sampled_reciprocal(h: TrigPoly, depth: int) -> TrigPoly:
    """Pointwise 1/h projected back onto the harmonic lattice of h."""
    from apspec.cepstral import bohr_project

    _, blocks = ray_partition(h)
    if len(blocks) != 1:
        raise ReciprocalApproximationFailed(
            "no convergent expansion and no single harmonic lattice to project onto"
        )
    base = blocks[0].base
    period = 2 * math.pi / float(base)
    L = 8 * period
    step = period / 512
    xs = np.linspace(-L, L, round(2 * L / step) + 1)
    hv = h.evaluate(xs)
    if float(np.min(np.abs(hv))) < 1e-9 * max(1.0, float(np.max(np.abs(hv)))):
        raise ReciprocalApproximationFailed("h vanishes on the sampling window")
    samples = SampledFunction(L, step, 1.0 / hv)
    maxk = int(np.max(np.abs(blocks[0].keys)))
    candidates = [base * k for k in range(0, depth * maxk + 1)]
    return bohr_project(samples, candidates)


def inverse_poisson_identity(h: TrigPoly, points: list[complex], depth: int = 20) -> float:
    """Max over upper-half-plane points of |P[h](z) * P[r](z) - 1|, r ~ 1/h."""
    r, _ = approximate_reciprocal(h, depth)
    worst = 0.0
    for z in points:
        dev = abs(poisson_eval(h, z) * poisson_eval(r, z) - 1.0)
        worst = max(worst, dev)
    return worst


def poisson_range_check(f: TrigPoly, zs: list[complex], slack: float = 1e-9) -> CheckResult:
    """Harmonic-extension range bound for real periodic f.

    Checks inf f <= Re P[f](z) <= sup f at each point, with inf/sup taken
    over one period (global for periodic inputs) plus a Lipschitz slack.
    """
    if not f.is_real(tol=1e-9):
        raise ValueError("range check needs a real-valued input")
    info = spectrum(f)
    tau = float(info.tau)
    if tau == 0:
        lo = hi = f.coefficient(EF(0)).real
    else:
        _, blocks = ray_partition(f)
        if len(blocks) == 1:
            # genuinely periodic: one period bounds the whole line
            span = 2 * math.pi / float(blocks[0].base)
        else:
            span = 256 * math.pi  # window-relative bound for mixed rays
        n = 1 << 16
        xs = np.linspace(0, span, n, endpoint=False)
        vals = f.evaluate(xs).real
        upper = sup_norm_upper(f)
        lip = (span / n) * tau * upper
        lo, hi = float(np.min(vals)) - lip, float(np.max(vals)) + lip
    worst = 0.0
    ok = True
    for z in zs:
        v = poisson_eval(f, z).real
        viol = max(lo - v, v - hi)
        worst = max(worst, viol)
        if viol > slack * max(1.0, abs(hi)):
            ok = False
    return CheckResult("poisson_range", ok, worst, f"range=[{lo!r},{hi!r}]")
