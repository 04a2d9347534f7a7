"""Certified sup-norm brackets and lower-bound certificates.

The upper bounds are rigorous (up to documented floating-point cushions):
each rational ray of the spectrum is periodic after rescaling, so a dense
FFT scan over one period plus a Bernstein-type step inflation bounds its
sup; the triangle inequality sums the rays.  Lower bounds come from direct
evaluation on a finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from apspec.errors import MalformedInput, NonConvergence
from apspec.frequency import ExactFrequency
from apspec.trigpoly import (
    ProductPoly,
    TrigPoly,
    bohr_coefficient,
    evaluation_error,
    ray_partition,
    spectrum,
)

EF = ExactFrequency

# multiplicative cushion applied to certified upper bounds to absorb the
# last-ulp effects of FFT evaluation; scans use ~1e-15-accurate values
FP_CUSHION = 1.0 + 1e-12

MAX_GRID_POINTS = 1 << 23


def check_grid_span(span: float) -> None:
    """Refuse a sample grid of `span` steps; keeps n + 1 <= MAX_GRID_POINTS
    when n rounds span up to even. The negated test also refuses inf and nan."""
    if not span <= MAX_GRID_POINTS - 2:
        raise MalformedInput(f"grid of {span:.3g} steps exceeds {MAX_GRID_POINTS} samples")


@dataclass(frozen=True)
class NormBracket:
    """Two-sided bracket: lower <= sup|f| <= upper."""

    lower: float
    upper: float


def integer_lattice_sup(keys: np.ndarray, coeffs: np.ndarray, rel_gap: float = 1.0 / 16) -> NormBracket:
    """Certified sup of t -> sum c_k exp(i k t) over one 2*pi period.

    keys are distinct integers.  The grid max is exact to fp accuracy at
    the sample points (lower bound); the upper bound inflates it by
    1/(1 - s*tau) where s is the grid step and tau = max|k|, and is
    rigorous for s*tau < 1.
    """
    keys = np.asarray(keys, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=complex)
    if len(keys) == 0:
        return NormBracket(0.0, 0.0)
    maxk = int(np.max(np.abs(keys)))
    if maxk == 0:
        v = abs(complex(coeffs.sum()))
        return NormBracket(v, v * FP_CUSHION)
    n = 1 << max(10, (int(2 * math.pi * maxk / rel_gap)).bit_length())
    n = min(n, 1 << 24)  # memory guard; the s*tau check below keeps rigor
    if 2 * math.pi * maxk / n >= 1:
        raise NonConvergence(
            f"degree {maxk} needs more than {1 << 24} certification points"
        )
    bins = np.zeros(n, dtype=complex)
    np.add.at(bins, np.mod(keys, n), coeffs)
    # forward-normalized inverse: no 1/n scaling, so subnormal sums survive
    vals = np.fft.ifft(bins, norm="forward")
    lower = float(np.max(np.abs(vals)))
    s_tau = 2 * math.pi * maxk / n
    upper = lower / (1 - s_tau) * FP_CUSHION
    return NormBracket(lower, upper)


def sup_norm_certified(f: "TrigPoly | ProductPoly", rel_gap: float = 1.0 / 16) -> NormBracket:
    """Certified bracket for sup over the reals of |f|.

    Upper bound: |constant| plus the sum of per-ray periodic certificates
    (`ray_partition`, triangle inequality).  Lower bound: the certificate's
    grid max for a single ray with no constant, otherwise max of |f| over a
    window scan with step 1/(8*tau): one period for a periodic f, else
    [-64*pi, 64*pi].  For a squared modulus |h|^2 both sides are the
    squared bracket of h.
    """
    if isinstance(f, ProductPoly):
        b = sup_norm_certified(f.factor, rel_gap)
        return NormBracket(b.lower * b.lower, b.upper * b.upper)
    if f.is_zero():
        return NormBracket(0.0, 0.0)
    c0, blocks = ray_partition(f)
    const = abs(c0)
    upper = const * FP_CUSHION
    brackets = [integer_lattice_sup(b.keys, b.coeffs, rel_gap) for b in blocks]
    upper += math.fsum(b.upper for b in brackets)

    # lower bound by direct scan
    if len(blocks) == 1 and const == 0:
        lower = brackets[0].lower
    else:
        if len(blocks) == 1:
            window = (0.0, 2 * math.pi / float(blocks[0].base))
        else:
            window = (-64 * math.pi, 64 * math.pi)
        tau = float(spectrum(f).tau)
        step = 1.0 / (8 * tau) if tau > 0 else 1.0
        npts = min(MAX_GRID_POINTS, max(2, int((window[1] - window[0]) / step) + 1))
        xs = np.linspace(window[0], window[1], npts)
        vals = np.abs(f.evaluate(xs))
        lower = float(np.max(vals))
    lower = min(lower, upper)  # guard against cushion inversion on constants
    return NormBracket(lower, upper)


def certify_lower_bound(f: "TrigPoly | ProductPoly", m: float) -> bool:
    """Window certificate that f >= m on [-32*pi, 32*pi].

    Checks min over a grid minus step*tau*sup_upper minus the evaluation
    error bound E (`trigpoly.evaluation_error`) >= m, starting from step
    1/(8*tau) and refining until the certificate decides.  The bound is
    rigorous on the window, and everywhere for a periodic f whose period is
    at most 64*pi.  Returns False when a grid value is already below m or
    refinement hits the point budget.
    """
    if isinstance(f, TrigPoly):
        if not f.is_real(tol=1e-9):
            raise ValueError("lower-bound certificates need a real-valued input")
    info = spectrum(f)
    tau = float(info.tau)
    upper = sup_norm_certified(f).upper
    window = (-32 * math.pi, 32 * math.pi)
    if tau == 0:
        return bohr_coefficient(f, EF(0)).real >= m
    err = evaluation_error(f, window[1])
    step = 1.0 / (8 * tau)
    for _ in range(8):
        npts = int((window[1] - window[0]) / step) + 1
        if npts > MAX_GRID_POINTS:
            return False
        xs = np.linspace(window[0], window[1], npts)
        actual_step = xs[1] - xs[0]
        vals = f.evaluate(xs).real
        gmin = float(np.min(vals))
        slack = actual_step * tau * upper + err
        if gmin - slack >= m:
            return True
        if gmin < m:
            return False
        # shrink the step until the slack fits inside the observed margin
        step = min(step / 4, (gmin - m) / (2 * tau * upper))
        if step <= 0 or not math.isfinite(step):
            return False
    return False
