"""Certified sup-norm brackets and lower-bound certificates.

The upper bounds are rigorous: each rational ray of the spectrum is
periodic after rescaling, so the max of one FFT over a period on the
`ez_points` grid, times the Ehlich-Zeller factor sec(pi maxk / N) plus a
stated bound on the FFT's rounding, bounds its sup; the triangle
inequality sums the rays.  `ray_sup` gives that bound exactly, as a
Fraction; the live routes take it in floats with every step rounded up
(`ehlich_zeller_floats`).  No bound leans on an assumed cushion: every
rounding step is bounded or rounded up.  `certify_lower_bound` bounds a
function from below by direct evaluation on a finite window.
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


def _lattice_grid(keys: np.ndarray, rows: np.ndarray, n: int) -> list[float]:
    """max_j |sum c_k exp(2 pi i j k / n)| for each row of coefficients, by one n-point FFT over the rows."""
    bins = np.zeros((len(rows), n), dtype=complex)
    np.add.at(bins, (slice(None), np.mod(keys, n)), rows)
    # forward-normalized inverse: no 1/n scaling, so subnormal sums survive
    vals = np.fft.ifft(bins, norm="forward")
    return np.max(np.abs(vals), axis=1).tolist()


def float_up(x: Fraction) -> float:
    """The least float >= x, for 0 <= x <= the largest float."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


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


# fft_rounding(n, l1) = P l1 + Q: (P, Q) rounded up to floats once, for n = 2^1 ... 2^24
_FFT_FLOATS = {
    n: (float_up(fft_rounding(n, 1.0) - fft_rounding(n, 0.0)), float_up(fft_rounding(n, 0.0)))
    for n in (1 << k for k in range(1, 25))
}


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
    NonConvergence where even 2^24 points cannot certify the degree:
    `ehlich_zeller_affine` needs (355 degree / 113 N)^2 < 2, decided here
    in integers.
    """
    n = min(max(1024, 1 << (16 * degree - 1).bit_length()), 1 << 24)
    if (355 * degree) ** 2 >= 2 * (113 * n) ** 2:
        raise NonConvergence(f"degree {degree} needs more than {1 << 24} certification points")
    return n


def _up(x: float) -> float:
    """The next float above x: >= the exact result of the correctly rounded operation that gave x."""
    return math.nextafter(x, math.inf)


def ehlich_zeller_floats(degree: int, n: int, l1: float) -> tuple[float, float]:
    """Floats (A, B) >= `ehlich_zeller_affine(degree, n, l1)`, for an n = `ez_points(degree)`.

    up(up(g A) + B) is then >= `ehlich_zeller_sup(g, degree, n, l1)` for
    every grid max g, up being `math.nextafter` toward +inf.  Every step
    rounds up.  With theta = 355 degree / (113 n) and t = 2 (113 n)^2,
    a = (1 + 2u) / (1 - theta^2 / 2) is the ratio of the integers
    t (2^52 + 1) and (t - (355 degree)^2) 2^52, and A the least float
    above it (`float_up`: one correctly rounded int division and a check).
    B is (P l1 + Q) A, with `fft_rounding(n, l1)` = P l1 + Q, P and Q
    rounded up at import (`_FFT_FLOATS`), and A >= the factor sec of b.
    An overflow gives inf, still an upper bound; a subnormal product
    still gains a unit from up.
    """
    p, q = _FFT_FLOATS[n]
    top = 2 * (113 * n) ** 2
    a = float_up(Fraction(top * ((1 << 52) + 1), (top - (355 * degree) ** 2) << 52))
    return a, _up(_up(_up(p * l1) + q) * a)


def _l1(coeffs: np.ndarray) -> float:
    """A float >= sum_k |Re c_k| + |Im c_k|: fsum rounds once, to nearest, and the product by 1 + 2u lifts it past the sum."""
    re, im = np.abs(coeffs.real).tolist(), np.abs(coeffs.imag).tolist()
    return math.fsum(re + im) * (1 + 2.0**-52)


def ray_sup(keys: np.ndarray, coeffs: np.ndarray) -> Fraction:
    """Certified sup over R of |sum c_k exp(i k t)|, keys distinct integers, exactly.

    The grid max of `ez_points(maxk)` points, bounded by
    `ehlich_zeller_sup`: sec(pi maxk / N) and the FFT's rounding.
    Construction's B_j; the live routes take the same bound in floats
    (`ehlich_zeller_floats`), never below this one.
    """
    if len(keys) == 0:
        return Fraction(0)
    maxk = int(np.max(np.abs(keys)))
    n = ez_points(maxk)
    return ehlich_zeller_sup(_lattice_grid(keys, coeffs[None], n)[0], maxk, n, _l1(coeffs))


def _ray_upper(keys: np.ndarray, rows: np.ndarray) -> tuple[float, list[float]]:
    """A float >= `ray_sup(keys, rows[0])`, and the grid max of every row, by one FFT of the rows.

    The grid is `ez_points(maxk)`'s, and the bound `ehlich_zeller_floats`'
    up(up(g A) + B) for rows[0]'s grid max g.
    """
    maxk = int(np.max(np.abs(keys)))
    n = ez_points(maxk)
    grid = _lattice_grid(keys, rows, n)
    a, b = ehlich_zeller_floats(maxk, n, _l1(rows[0]))
    return _up(_up(grid[0] * a) + b), grid


def _triangle_upper(c0: complex, ray_uppers: list[float]) -> float:
    """A float >= |c0| + sum of ray_uppers: the triangle inequality, every step rounded up.

    |c0| is one hypot, within an ulp, so up(|c0| (1 + 2u)) covers it; each
    addition is rounded up.  0.0 for no terms.
    """
    terms = ([_up(abs(c0) * (1 + 2.0**-52))] if c0 else []) + ray_uppers
    total = terms[0] if terms else 0.0
    for t in terms[1:]:
        total = _up(total + t)
    return total


def _square_up(u: float) -> float:
    """A float >= u*u, rounded up; 0.0 for u = 0."""
    return _up(u * u) if u else 0.0


def sup_norm_upper(f: "TrigPoly | ProductPoly") -> float:
    """Certified upper bound for sup over the reals of |f|: `sup_norm_certified(f).upper` without its scan.

    |constant| plus each ray's Ehlich-Zeller bound (`ray_partition`,
    `_ray_upper`, `_triangle_upper`), in floats rounded up; for a squared
    modulus |h|^2 the square of h's bound, rounded up.
    """
    if isinstance(f, ProductPoly):
        return _square_up(sup_norm_upper(f.factor))
    c0, blocks = ray_partition(f)
    return _triangle_upper(c0, [_ray_upper(b.keys, b.coeffs[None])[0] for b in blocks])


def sup_norm_certified(f: "TrigPoly | ProductPoly") -> NormBracket:
    """Certified bracket for sup over the reals of |f|.

    Upper bound: `sup_norm_upper`.  Lower bound: the grid max of the
    upper bound's FFT for a single ray with no constant, otherwise max of
    |f| over a window scan with step 1/(8*tau): one period for a periodic
    f, else [-64*pi, 64*pi].  For a squared modulus |h|^2 both sides are
    the squared bracket of h.
    """
    if isinstance(f, ProductPoly):
        b = sup_norm_certified(f.factor)
        return NormBracket(b.lower * b.lower, _square_up(b.upper))
    if f.is_zero():
        return NormBracket(0.0, 0.0)
    c0, blocks = ray_partition(f)
    rays = [_ray_upper(b.keys, b.coeffs[None]) for b in blocks]
    upper = _triangle_upper(c0, [u for u, _ in rays])

    # lower bound by direct scan
    if len(blocks) == 1 and c0 == 0:
        lower = rays[0][1][0]
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
    lower = min(lower, upper)  # the scan's own rounding can lift it past upper
    return NormBracket(lower, upper)


def bernstein_sides(f: TrigPoly) -> tuple[float, float] | None:
    """`sup_norm_upper(f)` and `sup_norm_certified(f.derivative()).lower` for an f with one ray, by one FFT.

    f' has f's keys with the coefficients `ray_slopes` and no constant, so
    both come from one FFT of the two rows on f's grid (`_ray_upper`):
    f's bound, and f''s lower bound as its row's grid max.  None when f
    has no ray or several, or when a coefficient of f' rounds to 0: f'
    then drops that key and can have a grid of its own.
    """
    c0, blocks = ray_partition(f)
    if len(blocks) != 1:
        return None
    b = blocks[0]
    slopes = ray_slopes(b)
    if not np.all(slopes != 0):
        return None
    upper, (_, slope) = _ray_upper(b.keys, np.stack([b.coeffs, slopes]))
    return _triangle_upper(c0, [upper]), slope


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
