"""Certified sup-norm brackets and lower-bound certificates.

The upper bounds are rigorous (up to documented floating-point cushions):
each rational ray of the spectrum is periodic after rescaling, so a dense
FFT scan over one period plus a Bernstein-type step inflation bounds its
sup; the triangle inequality sums the rays.  `ray_sup` bounds one ray on
the smaller `ez_points` grid through the Ehlich-Zeller inequality, with
the FFT's rounding bounded rather than cushioned.  `certify_lower_bound`
bounds a function from below by direct evaluation on a finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from apspec.errors import MalformedInput, NonConvergence
from apspec.frequency import ExactFrequency
from apspec.trigpoly import (
    ProductPoly,
    TrigPoly,
    bohr_coefficient,
    evaluation_error,
    ray_partition,
    ray_slopes,
    spectrum,
)

EF = ExactFrequency

# multiplicative cushion applied to certified upper bounds to absorb the
# last-ulp effects of FFT evaluation; scans use ~1e-15-accurate values
FP_CUSHION = 1.0 + 1e-12

MAX_GRID_POINTS = 1 << 23

_U = Fraction(1, 1 << 53)  # unit roundoff of binary64
_TINY = Fraction(1, 1 << 1074)  # smallest subnormal
_PI_UP = Fraction(355, 113)  # > pi
_SQRT2_UP = Fraction(14143, 10000)  # > sqrt(2)
_GAMMA4 = 4 * _U / (1 - 4 * _U)
_ETA = 2 * _U + _GAMMA4 * (_SQRT2_UP + 2 * _U)  # `fft_rounding`'s eta, with mu = 2u


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


def lattice_points(maxk: int, rel_gap: float = 1.0 / 16) -> int:
    """Grid size N of `integer_lattice_sup` for degree maxk.

    N is the power of two above 2*pi*maxk/rel_gap, at least 1024 and at
    most 2^24; NonConvergence when the step inflation would not apply.
    """
    n = 1 << max(10, (int(2 * math.pi * maxk / rel_gap)).bit_length())
    n = min(n, 1 << 24)  # memory guard; the s*tau check below keeps rigor
    if 2 * math.pi * maxk / n >= 1:
        raise NonConvergence(
            f"degree {maxk} needs more than {1 << 24} certification points"
        )
    return n


def _lattice_grid(keys: np.ndarray, rows: np.ndarray, n: int) -> list[float]:
    """max_j |sum c_k exp(2 pi i j k / n)| for each row of coefficients, by one n-point FFT over the rows."""
    bins = np.zeros((len(rows), n), dtype=complex)
    np.add.at(bins, (slice(None), np.mod(keys, n)), rows)
    # forward-normalized inverse: no 1/n scaling, so subnormal sums survive
    vals = np.fft.ifft(bins, norm="forward")
    return np.max(np.abs(vals), axis=1).tolist()


def integer_lattice_sup(keys: np.ndarray, coeffs: np.ndarray, rel_gap: float = 1.0 / 16) -> NormBracket:
    """Certified sup of t -> sum c_k exp(i k t) over one 2*pi period.

    keys are distinct integers.  The grid max is exact to fp accuracy at
    the sample points (lower bound); the upper bound inflates it by
    1/(1 - s*tau) where s is the grid step and tau = max|k|, and is
    rigorous for s*tau < 1.
    """
    return _lattice_brackets(keys, np.asarray(coeffs, dtype=complex)[None], rel_gap)[0]


def _lattice_brackets(keys: np.ndarray, rows: np.ndarray, rel_gap: float) -> list[NormBracket]:
    """`integer_lattice_sup` of each row of coefficients (shape (rows, len(keys))), by one FFT on the grid they share.

    Each bracket is bit for bit that of its row alone.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) == 0:
        return [NormBracket(0.0, 0.0)] * len(rows)
    if not keys.any():
        return [NormBracket(v, v * FP_CUSHION) for v in (abs(complex(row.sum())) for row in rows)]
    maxk = int(np.max(np.abs(keys)))
    n = lattice_points(maxk, rel_gap)
    room = 1 - 2 * math.pi * maxk / n
    return [NormBracket(g, g / room * FP_CUSHION) for g in _lattice_grid(keys, rows, n)]


def fft_rounding(n: int, l1: float) -> Fraction:
    """Bound on max_j |computed - exact| for `_lattice_grid`'s n-point FFT of coefficients with sum |c_k| <= l1.

    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.),
    Thm 24.2: a radix-2 FFT y = F_n x is computed with
    ||y_hat - y||_2 <= L eta / (1 - L eta) ||y||_2, where L = log2 n and
    eta = mu + gamma_4 (sqrt 2 + mu), mu bounding the error of the computed
    twiddle factors (taken as 2u).  Unscaled, ||y||_2 = sqrt(n) ||x||_2,
    and ||x||_2 <= l1.  The last term bounds gradual underflow: at most
    8 n L half-units of the smallest subnormal, which the 2-norm bound
    does not see.
    """
    levels = max(1, n.bit_length() - 1)
    rel = levels * _ETA / (1 - levels * _ETA)
    sqrt_n = Fraction(1 << ((levels + 1) // 2))  # >= sqrt(n) for n = 2^levels
    return rel * sqrt_n * Fraction(l1) * (1 + 2 * _U) + 8 * n * levels * _TINY


def ehlich_zeller_sup(grid_max: float, degree: int, n: int, l1: float) -> Fraction:
    """Certified sup over R of |T| for T = sum c_k exp(i k t), |k| <= degree, sum |c_k| <= l1.

    grid_max is the computed max of |T| on the n points 2 pi j / n, from
    an FFT of n points.  Ehlich & Zeller (Math. Z. 86, 1964): for n > 2 degree,
    a real trig polynomial obeys sup|T| <= sec(pi degree / n) max_j |T(t_j)|;
    a complex T follows through Re(e^{-i theta} T) for every theta.  The
    true grid max is at most grid_max (1 + 2u) (|.| by hypot) plus
    `fft_rounding`, and sec(theta) <= 1 / (1 - theta^2 / 2) with
    pi < 355/113 keeps the factor rational; that needs theta^2 < 2, a
    little more than n > 2 degree (ValueError otherwise).  The equality case
    cos(degree t + phi), degree dividing n, shows the factor cannot drop.
    """
    scale, shift = ehlich_zeller_affine(degree, n, l1)
    return Fraction(grid_max) * scale + shift


def ehlich_zeller_affine(degree: int, n: int, l1: float) -> tuple[Fraction, Fraction]:
    """(a, b) with `ehlich_zeller_sup(g, degree, n, l1)` = a g + b for every grid max g.

    a = (1 + 2u) / (1 - theta^2 / 2) and b = `fft_rounding(n, l1)` / (1 - theta^2 / 2);
    ValueError where `ehlich_zeller_sup` raises it.
    """
    theta = _PI_UP * degree / n
    if not (n > 2 * degree and theta * theta < 2):
        raise ValueError(f"{n} points cannot certify degree {degree}")
    sec = 1 / (1 - theta * theta / 2)
    return (1 + 2 * _U) * sec, fft_rounding(n, l1) * sec


def ez_points(degree: int) -> int:
    """Grid size N of the Ehlich-Zeller bounds for degree `degree`.

    N is the least power of two >= 16 degree, at least 1024 and at most
    2^24, so sec(pi degree / N) <= sec(pi / 16) < 1.02 below the cap.
    NonConvergence where even 2^24 points cannot certify the degree
    (`ehlich_zeller_affine`).
    """
    n = min(max(1024, 1 << (16 * degree - 1).bit_length()), 1 << 24)
    try:
        ehlich_zeller_affine(degree, n, 0.0)
    except ValueError:
        raise NonConvergence(f"degree {degree} needs more than {1 << 24} certification points") from None
    return n


def float_up(x: Fraction) -> float:
    """The least float >= x, for 0 <= x <= the largest float."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def ray_sup(keys: np.ndarray, coeffs: np.ndarray) -> Fraction:
    """Certified sup over R of |sum c_k exp(i k t)|, keys distinct integers.

    The grid max of `ez_points(maxk)` points, bounded by
    `ehlich_zeller_sup`: sec(pi maxk / N) and the FFT's rounding, in place
    of `integer_lattice_sup`'s 1/(1 - 2 pi maxk / N) and FP_CUSHION on a
    grid 6-8 times as fine.
    """
    if len(keys) == 0:
        return Fraction(0)
    re, im = np.abs(coeffs.real).tolist(), np.abs(coeffs.imag).tolist()
    l1 = math.fsum(re + im) * (1 + 2.0**-52)  # fsum rounds once, to nearest
    maxk = int(np.max(np.abs(keys)))
    n = ez_points(maxk)
    return ehlich_zeller_sup(_lattice_grid(keys, coeffs[None], n)[0], maxk, n, l1)


def sup_norm_upper(f: "TrigPoly | ProductPoly", rel_gap: float = 1.0 / 16) -> float:
    """Certified upper bound for sup over the reals of |f|: `sup_norm_certified(f).upper` without its scan.

    |constant| plus the sum of per-ray periodic certificates
    (`ray_partition`, triangle inequality); for a squared modulus |h|^2 the
    square of h's bound.
    """
    if isinstance(f, ProductPoly):
        u = sup_norm_upper(f.factor, rel_gap)
        return u * u
    return _ray_brackets(f, rel_gap)[1]


def _ray_brackets(f: TrigPoly, rel_gap: float) -> tuple[list[NormBracket], float]:
    """`integer_lattice_sup` of each ray of f, and the upper bound they give (`_upper`)."""
    c0, blocks = ray_partition(f)
    brackets = [integer_lattice_sup(b.keys, b.coeffs, rel_gap) for b in blocks]
    return brackets, _upper(c0, brackets)


def _upper(c0: complex, brackets: list[NormBracket]) -> float:
    """|constant| * FP_CUSHION plus the rays' upper bounds: the triangle inequality."""
    return abs(c0) * FP_CUSHION + math.fsum(b.upper for b in brackets)


def sup_norm_certified(f: "TrigPoly | ProductPoly", rel_gap: float = 1.0 / 16) -> NormBracket:
    """Certified bracket for sup over the reals of |f|.

    Upper bound: `sup_norm_upper`.  Lower bound: the certificate's grid max
    for a single ray with no constant, otherwise max of |f| over a window
    scan with step 1/(8*tau): one period for a periodic f, else
    [-64*pi, 64*pi].  For a squared modulus |h|^2 both sides are the
    squared bracket of h.
    """
    if isinstance(f, ProductPoly):
        b = sup_norm_certified(f.factor, rel_gap)
        return NormBracket(b.lower * b.lower, b.upper * b.upper)
    if f.is_zero():
        return NormBracket(0.0, 0.0)
    c0, blocks = ray_partition(f)
    brackets, upper = _ray_brackets(f, rel_gap)

    # lower bound by direct scan
    if len(blocks) == 1 and c0 == 0:
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


def bernstein_sides(f: TrigPoly, rel_gap: float = 1.0 / 16) -> tuple[float, float] | None:
    """`sup_norm_upper(f)` and `sup_norm_certified(f.derivative()).lower` for an f with one ray, by one FFT.

    f' has f's keys with the coefficients `ray_slopes` and no constant, so
    both come from `_lattice_brackets` of the two rows on f's grid; f''s
    lower bound is its row's grid max (its bracket's upper is never
    below it).  None when f has no ray or several, or when a coefficient
    of f' rounds to 0: f' then drops that key and can have a grid of its
    own.
    """
    c0, blocks = ray_partition(f)
    if len(blocks) != 1:
        return None
    b = blocks[0]
    slopes = ray_slopes(b)
    if not np.all(slopes != 0):
        return None
    ray, slope = _lattice_brackets(b.keys, np.stack([b.coeffs, slopes]), rel_gap)
    return _upper(c0, [ray]), slope.lower


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
    upper = sup_norm_upper(f)
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
