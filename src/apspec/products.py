"""Canonical products over prescribed zero sets and the half-zero factor.

A finite ZeroSet describes F(z) = z^(2m) e^(2az+2b) prod E(z/z_n, p)^mult.
When the zeros are conjugation-symmetric with even real multiplicities, F is
real on the line and splitting the zeros (lower half-plane representative of
each conjugate pair, real zeros at half multiplicity) yields an entire S
with |S|^2 = F on the line and no zeros in the open upper half-plane.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from apspec.certify import sup_norm_upper
from apspec.errors import MalformedInput, OddRealMultiplicity
from apspec.trigpoly import TrigPoly

# terms of -sum_{k>=2} zeta^k / k, enough for |zeta| <= 1/2 at double precision
_SERIES_TERMS = 48
_SERIES_RADIUS = 0.5

# relative tolerance for recognizing real zeros and conjugate pairs
PAIR_TOL = 1e-12


@dataclass(frozen=True)
class ZeroSet:
    """Zero data of z^(2m) e^(2az+2b) prod E(z/z_n, p)^mult.

    Conjugation symmetry is not enforced here: diagnostics accept arbitrary
    zero lists.  It is checked where it matters (ahiezer_split).
    """

    zeros: tuple[tuple[complex, int], ...]
    m: int = 0
    a: float = 0.0
    b: float = 0.0
    p: int = 0

    def __post_init__(self):
        if self.p not in (0, 1):
            raise MalformedInput("genus p must be 0 or 1")
        if self.m < 0:
            raise MalformedInput("origin multiplicity must be nonnegative")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise MalformedInput(f"a and b must be finite, got a={self.a!r}, b={self.b!r}")
        zs = tuple((complex(z), int(k)) for z, k in self.zeros)
        for z, k in zs:
            if not cmath.isfinite(z):
                raise MalformedInput(f"zero {z!r} is not finite")
            if z == 0:
                raise MalformedInput("origin zeros belong in m, not the list")
            if not cmath.isfinite(1 / z):
                raise MalformedInput(f"zero {z!r} is too close to the origin: 1/z overflows")
            if k < 1:
                raise MalformedInput("multiplicities must be positive")
        object.__setattr__(self, "zeros", zs)

    def to_obj(self) -> dict:
        return {
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "p": self.p,
            "zeros": [{"re": z.real, "im": z.imag, "mult": k} for z, k in self.zeros],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj) -> "ZeroSet":
        try:
            zeros = tuple(
                (complex(item["re"], item["im"]), int(item["mult"]))
                for item in obj["zeros"]
            )
            return cls(zeros, int(obj["m"]), float(obj["a"]), float(obj["b"]), int(obj["p"]))
        except MalformedInput:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad zero-set JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ZeroSet":
        try:
            obj = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise MalformedInput(f"bad zero-set JSON: {exc}") from exc
        return cls.from_obj(obj)


def weierstrass_factor(z: complex, p: int) -> complex:
    """Primary factor E(z, p): 1-z for genus 0, (1-z)e^z for genus 1."""
    if p == 0:
        return 1 - z
    if p == 1:
        return (1 - z) * np.exp(z)
    raise MalformedInput("genus p must be 0 or 1")


def _log_primary(zeta: np.ndarray, p: int) -> np.ndarray:
    """log E(zeta, p), series-corrected where the genus-1 terms cancel."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log((1 + 0j) - zeta)
    if p == 1:
        out = out + zeta
        small = np.abs(zeta) <= _SERIES_RADIUS
        if np.any(small):
            zs = zeta[small]
            acc = np.full_like(zs, 1.0 / _SERIES_TERMS)
            for k in range(_SERIES_TERMS - 1, 1, -1):
                acc = acc * zs + 1.0 / k
            out[small] = -zs * zs * acc
    return out


def _far_series(zs: np.ndarray, mults: np.ndarray, p: int, z: np.ndarray, reach: float) -> np.ndarray:
    """sum_n mult_n log E(z/z_n, p) for zeros with |z_n|/2 >= reach >= max|z|.

    With w_n = reach/z_n and t = z/reach (|w_n| <= 1/2, |t| <= 1), the sum is
    -sum_{j>p} (Q_j/j) t^j with power sums Q_j = sum_n mult_n w_n^j.  Cutting
    it at J = _SERIES_TERMS leaves |sum_{j>J} (w t)^j/j| <= 2^-(J+1)/((J+1)/2)
    = 2^-48/49 per unit multiplicity, M 2^-48/49 in all, M = sum_n mult_n.

    Rounding, with u = 2^-53 and gamma_k = k u/(1 - k u): the quotient w_n,
    the scaling by mult_n and j - 1 complex products put mult_n w_n^j within
    gamma_(3j+3) of itself, and summing N far zeros in any order adds
    gamma_(N-1), per component; so Q_j/j is within 2 gamma_(N+4J+3) M 2^-j/j
    of its exact value, and these errors sum to at most that times ln 2 over
    j.  Horner in t adds gamma_(4J) sum_j |Q_j|/j <= gamma_(4J) M ln 2, and
    the rounding of t moves the sum by at most u sum_j |Q_j| <= u M, and the
    last product by t^(p+1) adds gamma_3.  In all the result is within
    M (2^-48/49 + 2 gamma_(N+8J+8)) of the exact sum.
    """
    w = reach / zs
    pw = mults * w
    coef = np.zeros(_SERIES_TERMS + 1, dtype=complex)
    for j in range(1, _SERIES_TERMS + 1):
        coef[j] = pw.sum() / j
        pw = pw * w
    t = z / reach
    acc = np.full(len(t), coef[_SERIES_TERMS])
    for j in range(_SERIES_TERMS - 1, p, -1):
        acc = acc * t + coef[j]
    return -acc * t ** (p + 1)


def _log_product(zs: np.ndarray, mults: np.ndarray, p: int, z: np.ndarray) -> np.ndarray:
    """sum_n mult_n log E(z/z_n, p) for a vector of evaluation points.

    Zeros with |z_n|/2 >= max|z| are far: they go through one power-sum
    series (_far_series), about J (points + zeros) multiply-adds.  The near
    zeros take one log per (point, zero).  A point that hits a zero exactly
    gets -inf + 0j, so exp gives 0 there (the matrix product alone would
    turn -inf * 0 into NaN); a far zero cannot be hit, since |z/z_n| <= 1/2.
    """
    total = np.zeros(len(z), dtype=complex)
    if len(z) == 0:
        return total
    reach = float(np.max(np.abs(z)))
    far = np.abs(zs) * _SERIES_RADIUS >= reach
    if reach > 0 and np.any(far):
        total += _far_series(zs[far], mults[far], p, z, reach)
    zs, mults = zs[~far], mults[~far]
    if len(zs) == 0:
        return total
    chunk = max(1, 4_000_000 // len(zs))
    for lo in range(0, len(z), chunk):
        pts = z[lo : lo + chunk]
        zeta = pts[:, None] / zs[None, :]
        logs = _log_primary(zeta, p)
        hit = logs.real.min(axis=1) == -np.inf
        with np.errstate(invalid="ignore"):
            total[lo : lo + chunk] += logs @ mults
        total[lo : lo + chunk][hit] = complex(-np.inf, 0.0)
    return total


def _log_sum(zero_set: ZeroSet, pts: np.ndarray) -> np.ndarray:
    """_log_product over the zero list of `zero_set`."""
    zs = np.array([w for w, _ in zero_set.zeros], dtype=complex)
    mults = np.array([k for _, k in zero_set.zeros], dtype=float)
    return _log_product(zs, mults, zero_set.p, pts)


def product_eval(zero_set: ZeroSet, z) -> np.ndarray | complex:
    """F(z) = z^(2m) e^(2az+2b) prod E(z/z_n, p)^mult, log-accumulated."""
    pts = np.atleast_1d(np.asarray(z, dtype=complex))
    logs = _log_sum(zero_set, pts)
    vals = np.exp(logs + 2 * zero_set.a * pts + 2 * zero_set.b)
    if zero_set.m:
        vals = vals * pts ** (2 * zero_set.m)
    return vals if np.ndim(z) else complex(vals[0])


def ahiezer_split(zero_set: ZeroSet) -> tuple[ZeroSet, float]:
    """Lower half-plane representatives and the genus-1 compensating slope.

    Picks the Im <= 0 member of each conjugate pair and halves real zeros;
    gamma = -sum mult * Im(1/z_n) over the selection for genus 1 (zero for
    genus 0, where no exponential compensators appear).
    """
    real_zeros: list[tuple[complex, int]] = []
    lower: list[tuple[complex, int]] = []
    upper: list[tuple[complex, int]] = []
    for z, k in zero_set.zeros:
        if abs(z.imag) <= PAIR_TOL * abs(z):
            real_zeros.append((complex(z.real), k))
        elif z.imag < 0:
            lower.append((z, k))
        else:
            upper.append((z, k))
    selected: list[tuple[complex, int]] = []
    for z, k in real_zeros:
        if k % 2 != 0:
            raise OddRealMultiplicity(
                f"real zero {z.real:.6g} has odd multiplicity {k}"
            )
        selected.append((z, k // 2))
    # a partner w of z has |w - conj z| <= tol: the distinct upper zeros are
    # sorted by (real, imag) and split into columns of equal real part, and
    # a box of +-2 tol (twice as wide, against rounding) is bisected in both;
    # each (zero, multiplicity) keeps a queue of its unused list positions,
    # so the earliest-listed unused partner wins, as in a scan of the list
    queues: dict[tuple[complex, int], deque[int]] = {}
    for i, (w, kw) in enumerate(upper):
        queues.setdefault((w, kw), deque()).append(i)
    reals: list[float] = []
    columns: list[tuple[list[float], list[complex]]] = []
    distinct = sorted({w for w, _ in upper}, key=lambda w: (w.real, w.imag))
    for re, col in groupby(distinct, key=lambda w: w.real):
        col = list(col)
        reals.append(re)
        columns.append(([w.imag for w in col], col))
    for z, k in lower:
        tol = PAIR_TOL * (1 + abs(z))
        lo, hi = bisect_left(reals, z.real - 2 * tol), bisect_right(reals, z.real + 2 * tol)
        best = None
        for ims, col in columns[lo:hi]:
            for w in col[bisect_left(ims, -z.imag - 2 * tol) : bisect_right(ims, -z.imag + 2 * tol)]:
                queue = queues.get((w, k))
                if queue and abs(w - z.conjugate()) <= tol and (best is None or queue[0] < best[0]):
                    best = queue
        if best is None:
            raise MalformedInput(f"zero {z:.6g} has no conjugate partner")
        best.popleft()
        selected.append((z, k))
    unused = sum(len(queue) for queue in queues.values())
    if unused:
        raise MalformedInput(f"{unused} upper zeros lack conjugate partners")
    gamma = 0.0
    if zero_set.p == 1:
        gamma = -math.fsum(k * (1 / z).imag for z, k in selected if k > 0)
    s_zeros = ZeroSet(
        tuple((z, k) for z, k in selected if k > 0),
        zero_set.m,
        zero_set.a,
        zero_set.b,
        zero_set.p,
    )
    return s_zeros, gamma


@dataclass(frozen=True)
class EntireFactor:
    """Evaluator for S(z) = z^m e^(az+b+i gamma z) prod E(z/z_n, p)^mult.

    By construction |S(x)|^2 equals the full product on the real line and S
    has no zeros in the open upper half-plane.
    """

    zero_set: ZeroSet
    gamma: float

    def __call__(self, z) -> np.ndarray | complex:
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        Z = self.zero_set
        logs = _log_sum(Z, pts)
        vals = np.exp(logs + (Z.a + 1j * self.gamma) * pts + Z.b)
        if Z.m:
            vals = vals * pts**Z.m
        return vals if np.ndim(z) else complex(vals[0])


def factor_from_zeros(zero_set: ZeroSet) -> EntireFactor:
    """Spectral factor of the product with zero set `zero_set`."""
    s_zeros, gamma = ahiezer_split(zero_set)
    return EntireFactor(s_zeros, gamma)


@dataclass(frozen=True)
class LindelofReport:
    """Truncation diagnostics for the symmetric-sum and density conditions."""

    max_partial_sum: float
    max_density_ratio: float
    density_bounded: bool
    partial_sums: tuple[float, ...] = field(compare=False)
    density_ratios: tuple[float, ...] = field(compare=False)


def lindelof_check(zero_set: ZeroSet, rho: int, r_grid: list[float]) -> LindelofReport:
    """Partial sums of z_n^(-rho) and counting-function growth over r_grid.

    A finite-truncation diagnostic only: density_bounded compares the two
    halves of r_grid, so the grid should extend well past the zeros.
    """
    if rho < 1:
        raise MalformedInput("rho must be a positive integer")
    rs = sorted(float(r) for r in r_grid)
    if not rs or rs[0] <= 0:
        raise MalformedInput("r_grid must contain positive radii")
    zeros = sorted(zero_set.zeros, key=lambda zk: abs(zk[0]))
    moduli = [abs(z) for z, _ in zeros]
    sums, ratios = [], []
    for r in rs:
        acc = 0j
        count = 2 * zero_set.m
        for (z, k), az in zip(zeros, moduli):
            if az > r:
                break
            acc += k * z ** (-rho)
            count += k
        sums.append(abs(acc))
        ratios.append(count / r**rho)
    half = max(1, len(rs) // 2)
    first, second = max(ratios[:half]), max(ratios[half:])
    bounded = second <= 1.25 * first + 1e-12
    return LindelofReport(max(sums), max(ratios), bounded, tuple(sums), tuple(ratios))


def log_integrability(f: TrigPoly, cutoff: float) -> float:
    """Integral of max(0, log|f|)/(1+x^2) on [-R, R] plus a sup-norm tail."""
    from scipy.integrate import quad

    if cutoff <= 0:
        raise MalformedInput("cutoff must be positive")
    upper = sup_norm_upper(f)
    if upper == 0.0:
        return 0.0

    def integrand(x: float) -> float:
        v = abs(complex(f.evaluate(np.array([x]))[0]))
        return max(0.0, math.log(v)) / (1 + x * x) if v > 0 else 0.0

    # chunk so each quad call sees only a few oscillations of f
    edges = np.linspace(-cutoff, cutoff, max(2, int(math.ceil(cutoff / 10.0)) * 2 + 1))
    body = math.fsum(quad(integrand, lo, hi, limit=400)[0] for lo, hi in zip(edges[:-1], edges[1:]))
    tail = max(0.0, math.log(upper)) * (math.pi - 2 * math.atan(cutoff))
    return body + tail
