"""Trigonometric polynomials with exact frequencies.

A TrigPoly is a finite sum  sum_w c_w * exp(i*w*x)  with ExactFrequency
frequencies and complex coefficients.  Canonical form: frequencies are
distinct and kept in a dict; exact zero coefficients are dropped; iteration
order is ascending by frequency value.

Every squared modulus |h|^2 is built one way (`ProductPoly(h)`): h is
split into its rational rays (`ray_partition`) and each ray is
autocorrelated with one convolution.  The ProductPoly is |h|^2 seen
through its factor: values, sup bounds and the spectrum are read from h,
and `modulus_squared` materializes its coefficients as a TrigPoly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from apspec.frequency import ExactFrequency, rational_ratio

EF = ExactFrequency
Scalar = Union[int, float, complex]

# beyond this many terms, products refuse to materialize as a TrigPoly
MAX_DICT_PAIRS = 3_000_000

# elements in one exp table of the evaluation kernels
_MAX_TABLE = 4_000_000

# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


def _as_ef(w) -> EF:
    if isinstance(w, EF):
        return w
    if isinstance(w, (int, Fraction)):
        return EF(w)
    raise TypeError(f"frequency must be ExactFrequency or rational, got {type(w).__name__}")


@dataclass(frozen=True)
class DenseBlock:
    """Terms on the lattice base*k, base > 0, keys distinct."""

    base: EF
    keys: np.ndarray  # int64, ascending
    coeffs: np.ndarray  # complex128, aligned with keys

    def __post_init__(self):
        if len(self.keys) != len(self.coeffs):
            raise ValueError("keys and coeffs must align")

    def terms(self) -> Iterator[tuple[EF, complex]]:
        """(frequency, coefficient) pairs, zero coefficients skipped."""
        for k, c in zip(self.keys.tolist(), self.coeffs.tolist()):
            if c != 0:
                yield self.base * k, c


class TrigPoly:
    """Finite exponential sum with exact frequencies."""

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Mapping[EF, complex] | Iterable[tuple[EF, complex]] = ()):
        acc: dict[EF, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for w, c in items:
            w = _as_ef(w)
            c = complex(c)
            if w in acc:
                acc[w] += c
            else:
                acc[w] = c
        self._terms = {w: c for w, c in acc.items() if c != 0}
        self._sorted = None

    # -- construction helpers ---------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "TrigPoly":
        return cls({EF(0): complex(c)})

    @classmethod
    def character(cls, w, coeff: Scalar = 1.0) -> "TrigPoly":
        """coeff * exp(i*w*x)."""
        return cls({_as_ef(w): complex(coeff)})

    @classmethod
    def from_cos(cls, pairs: Iterable[tuple[object, float]], constant: float = 0.0) -> "TrigPoly":
        """constant + sum a * cos(w*x), given (w, a) pairs."""
        terms: list[tuple[EF, complex]] = [(EF(0), complex(constant))]
        for w, a in pairs:
            w = _as_ef(w)
            terms.append((w, a / 2))
            terms.append((-w, a / 2))
        return cls(terms)

    # -- basic views --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[EF, complex]]:
        """Terms in ascending frequency order (exact comparison)."""
        if self._sorted is None:
            self._sorted = sorted(self._terms.items(), key=lambda t: t[0])
        return list(self._sorted)

    def frequencies(self) -> list[EF]:
        return [w for w, _ in self.sorted_terms()]

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, w) -> complex:
        return self._terms.get(_as_ef(w), 0j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # pragma: no cover - polys are not meant as dict keys
        return hash(tuple(self.sorted_terms()))

    def __repr__(self) -> str:
        n = self.term_count()
        if n > 6:
            return f"TrigPoly(<{n} terms>)"
        parts = [f"{c:.6g}*chi({w!r})" for w, c in self.sorted_terms()]
        return "TrigPoly(" + " + ".join(parts) + ")" if parts else "TrigPoly(0)"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "TrigPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for w, c in other._terms.items():
            v = acc.get(w, 0j) + c
            if v == 0:
                acc.pop(w, None)
            else:
                acc[w] = v
        return TrigPoly(acc)

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({w: -c for w, c in self._terms.items()})

    def __sub__(self, other) -> "TrigPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TrigPoly":
        return (-self) + other

    def __mul__(self, other) -> "TrigPoly":
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return TrigPoly()
            return TrigPoly({w: c * other for w, c in self._terms.items()})
        if isinstance(other, TrigPoly):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # -- analysis -----------------------------------------------------------

    def evaluate(self, x):
        """Value at real or complex x (scalar or ndarray)."""
        return _evaluate_terms(self.sorted_terms(), x)

    def conj(self) -> "TrigPoly":
        """Pointwise complex conjugate (for real x)."""
        return TrigPoly({-w: c.conjugate() for w, c in self._terms.items()})

    def derivative(self) -> "TrigPoly":
        return TrigPoly({w: c * 1j * float(w) for w, c in self._terms.items()})

    def modulate(self, w0) -> "TrigPoly":
        """Multiply by exp(i*w0*x): shifts every frequency by w0."""
        w0 = _as_ef(w0)
        return TrigPoly({w + w0: c for w, c in self._terms.items()})

    def dilate(self, rho) -> "TrigPoly":
        """x -> rho*x rescaling: multiplies every frequency by rho."""
        rho = _as_ef(rho)
        if rho.is_zero():
            raise ValueError("dilation scale must be nonzero")
        return TrigPoly({w * rho: c for w, c in self._terms.items()})

    def wiener_norm(self) -> float:
        """Sum of coefficient magnitudes, accumulated in canonical order."""
        return math.fsum(abs(c) for _, c in self.sorted_terms())

    def is_real(self, tol: float = 0.0) -> bool:
        """Hermitian-symmetry test: c(-w) == conj(c(w)) within tol."""
        scale = max((abs(c) for c in self._terms.values()), default=0.0)
        for w, c in self._terms.items():
            d = abs(c - self._terms.get(-w, 0j).conjugate())
            if d > tol * scale:
                return False
        return True


def _as_poly(x) -> "TrigPoly":
    if isinstance(x, TrigPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return TrigPoly.constant(x)
    return NotImplemented


def _evaluate_terms(terms: Sequence[tuple[EF, complex]], x):
    """sum c*exp(i*w*x) over (w, c) in terms, at real or complex x.

    Two kernels.  A real 1-D x of n >= 2 points that lies on a uniform
    grid (see `_grid_rows`) is cut into rows of B = ceil(sqrt(n)) points,
    x[a*B + b] = t_a + s_b with s_b = b*h, and since exp(i*w*(t + s)) =
    exp(i*w*t) * exp(i*w*s) the n values are one complex matrix product
    (c * E1)^T @ E2 with E1 = exp(i*w*t) (terms x A) and E2 = exp(i*w*s)
    (terms x B): about 2*terms*sqrt(n) exps instead of terms*n.  Every
    other x (complex, irregular, scalar) takes the direct sum, one exp per
    term and point.  Both chunk over terms to keep their exp tables under
    _MAX_TABLE elements.

    Error bound.  With u = 2**-53, N terms, W = max|w|, X = max|x| and
    A = sum|c|, both kernels are within E = u*(16*W*X + 3*N + 8)*A of the
    exact sum at the given points (`evaluation_error`).  First order in u,
    per term, relative to |c|:

    * phase: the direct sum rounds w*x once (u*W*X).  The grid kernel
      rounds w*t and w*s (|t| <= X, |s| <= 2X: 3u*W*X) and evaluates at
      t + s, which the grid test puts within 4 ulp(X) plus one rounding,
      9u*X, of x (9u*W*X).  Rounding w to a double adds u*W*X (exact for
      integers, correctly rounded for rationals; radical frequencies are
      within a few ulps unless their parts nearly cancel).
    * exp: each exp(i*theta) is within 2u (cos and sin to one ulp); the
      grid kernel takes two, 4u, and rounds c*E1, 2*sqrt(2)*u.
    * sum: BLAS forms each complex dot of N products as real sums of 2N
      products, within sqrt(2)*gamma_2N <= 2.9*N*u of A; the adds across
      term chunks stay within that depth.

    Grid: 13u*W*X + 6.9u + 2.9N*u; direct: 2u*W*X + 2u + 2.9N*u.  The
    kernels run the same BLAS calls on the same inputs every time, so
    repeated evaluations are bit-identical.
    """
    xs = np.asarray(x)
    scalar = xs.ndim == 0
    ws = np.array([float(w) for w, _ in terms])
    cs = np.array([c for _, c in terms])
    rows = _grid_rows(xs) if terms else None
    if rows is not None:
        return _grid_sum(ws, cs, *rows, xs.size)
    xs = np.atleast_1d(xs).astype(complex)
    out = np.zeros(xs.shape, dtype=complex)
    step = max(1, int(_MAX_TABLE // max(1, xs.size)))
    for i in range(0, len(ws), step):
        block = np.exp(1j * np.outer(ws[i : i + step], xs))
        out += cs[i : i + step] @ block
    return complex(out[0]) if scalar else out


def _grid_rows(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row starts t and in-row offsets s of a uniform grid, or None.

    x qualifies when it is real and 1-D with n >= 2 points and every point
    lies within 4 ulp(max|x|) of t_a + s_b, where t_a = x[a*B] starts row
    a, s_b = b*h, h = (x[-1] - x[0])/(n - 1) and B = ceil(sqrt(n)).
    """
    if xs.ndim != 1 or xs.size < 2 or xs.dtype.kind not in "fiu":
        return None
    x = xs.astype(float, copy=False)
    n = x.size
    cols = math.isqrt(n - 1) + 1
    starts = x[::cols]
    offsets = (x[-1] - x[0]) / (n - 1) * np.arange(cols)
    dev = (starts[:, None] + offsets).ravel()[:n]
    dev -= x
    np.abs(dev, out=dev)
    # NaN or inf anywhere fails the comparison and leaves x to the direct sum
    if not np.all(dev <= 4 * np.spacing(np.max(np.abs(x)))):
        return None
    return starts, offsets


def _grid_sum(ws: np.ndarray, cs: np.ndarray, starts: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    acc = np.zeros((len(starts), len(offsets)), dtype=complex)
    step = max(1, _MAX_TABLE // (len(starts) + len(offsets)))
    for i in range(0, len(ws), step):
        w = ws[i : i + step, None]
        e1 = cs[i : i + step, None] * np.exp(1j * (w * starts))
        e2 = np.exp(1j * (w * offsets))
        acc += e1.T @ e2
    return acc.ravel()[:n]


def evaluation_error(f: "TrigPoly | ProductPoly", x_max: float) -> float:
    """A-priori bound on the rounding error of evaluating f at real |x| <= x_max.

    For a TrigPoly it bounds f.evaluate (E of `_evaluate_terms`).  For a
    ProductPoly |h|^2 it bounds f.evaluate_real: | |h~|^2 - |h|^2 | <=
    2*E_h*||h||_A + E_h^2, plus 6u*(||h||_A + E_h)^2 for the rounding of
    abs and the square.
    """
    if isinstance(f, ProductPoly):
        e = evaluation_error(f.factor, x_max)
        a = f.factor.wiener_norm()
        return 2 * e * a + e * e + 6 * UNIT_ROUNDOFF * (a + e) ** 2
    terms = f.sorted_terms()
    if not terms:
        return 0.0
    w_max = max(abs(float(w)) for w, _ in terms)
    return UNIT_ROUNDOFF * (16 * w_max * abs(x_max) + 3 * len(terms) + 8) * f.wiener_norm()


# -- spectrum ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumInfo:
    """Summary of a (finite) Bohr spectrum."""

    count: int
    inf_freq: EF | None
    sup_freq: EF | None
    bandwidth: EF
    tau: EF
    frequencies: tuple[EF, ...] | None = None

    @staticmethod
    def empty() -> "SpectrumInfo":
        return SpectrumInfo(0, None, None, EF(0), EF(0), ())


def spectrum(f: "TrigPoly | ProductPoly") -> SpectrumInfo:
    """Spectrum summary: count, extremes, bandwidth, one-sided width tau.

    tau is max(|inf|, |sup|), the exponential type of the natural entire
    extension.  For a ProductPoly the frequency list is omitted, the
    extremes are +-(bandwidth of the factor) and the count is an upper bound.
    """
    if isinstance(f, ProductPoly):
        return f.spectrum()
    freqs = f.frequencies()
    if not freqs:
        return SpectrumInfo.empty()
    lo, hi = freqs[0], freqs[-1]
    tau = max(abs(lo), abs(hi))
    return SpectrumInfo(len(freqs), lo, hi, hi - lo, tau, tuple(freqs))


def bohr_coefficient(f: "TrigPoly | ProductPoly", w) -> complex:
    """Exact coefficient at frequency w (0 if absent); a ProductPoly is materialized first."""
    if isinstance(f, ProductPoly):
        f = f.to_trigpoly()
    return f.coefficient(w)


def mean_value_numeric(f: TrigPoly, w, halfwidth: float) -> tuple[complex, float]:
    """Finite-window mean (1/2L) * integral of f * exp(-i*w*x) over [-L, L].

    Returns (estimate, bound) where bound = C / (2L) with
    C = sum over other frequencies of 2|c| / |w' - w|; the true Bohr
    coefficient differs from the estimate by at most bound.
    """
    w = _as_ef(w)
    L = float(halfwidth)
    if L <= 0:
        raise ValueError("halfwidth must be positive")
    est = 0j
    c_big = 0.0
    for wp, c in f.sorted_terms():
        delta = float(wp - w)
        if wp == w:
            est += c
        else:
            est += c * math.sin(delta * L) / (delta * L)
            c_big += 2 * abs(c) / abs(delta)
    return est, c_big / (2 * L)


# -- products ----------------------------------------------------------------


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Exact product; deterministic accumulation order."""
    ta, tb = f.sorted_terms(), g.sorted_terms()
    if len(ta) * len(tb) > MAX_DICT_PAIRS:
        raise ValueError(
            f"product would touch {len(ta) * len(tb)} coefficient pairs; "
            "use ProductPoly for a squared modulus"
        )
    acc: dict[EF, complex] = {}
    for wa, ca in ta:
        for wb, cb in tb:
            w = wa + wb
            v = acc.get(w)
            acc[w] = ca * cb if v is None else v + ca * cb
    return TrigPoly(acc)


def _normalized_direction(w: EF) -> tuple:
    """Hashable ray label: coordinates scaled so the first nonzero one is 1."""
    coords = [(0, w.rational)] + [(d, c) for d, c in w.radicals]
    coords = [(d, c) for d, c in coords if c != 0]
    lead = coords[0][1]
    return tuple((d, c / lead) for d, c in coords)


def ray_partition(f: TrigPoly) -> tuple[complex, list[DenseBlock]]:
    """Split f into its constant term and one periodic piece per rational ray.

    Each returned block has a positive base frequency and integer exponent
    keys with gcd 1; block frequencies base*k enumerate one commensurable
    class of the spectrum.
    """
    const = f.coefficient(EF(0))
    groups: dict[tuple, list[tuple[EF, Fraction, complex]]] = {}
    units: dict[tuple, EF] = {}
    for w, c in f.sorted_terms():
        if w.is_zero():
            continue
        key = _normalized_direction(w)
        if key not in groups:
            unit = w
            if unit.sign() < 0:
                unit = -unit
            units[key] = unit
            groups[key] = []
        t = rational_ratio(w, units[key])
        groups[key].append((w, t, c))
    blocks: list[DenseBlock] = []
    for key, members in groups.items():
        unit = units[key]
        den_lcm = 1
        for _, t, _ in members:
            den_lcm = den_lcm * t.denominator // math.gcd(den_lcm, t.denominator)
        nums = [int(t * den_lcm) for _, t, _ in members]
        g = 0
        for v in nums:
            g = math.gcd(g, v)
        g = max(g, 1)
        base = unit * Fraction(g, den_lcm)
        ks = np.array([v // g for v in nums], dtype=np.int64)
        cs = np.array([c for _, _, c in members], dtype=complex)
        order = np.argsort(ks)
        blocks.append(DenseBlock(base, ks[order], cs[order]))
    blocks.sort(key=lambda b: float(b.base))
    return const, blocks


def modulus_squared(f: TrigPoly) -> TrigPoly:
    """|f|^2 materialized as a TrigPoly with c(-w) == conj(c(w)) exactly."""
    return ProductPoly(f).to_trigpoly()


class ProductPoly:
    """|h|^2 seen through its factor h.

    factor: the polynomial h.
    const, rays: h's constant term and rational rays (`ray_partition`).
    dense: one autocorrelation block per ray, the constant riding on the
           first ray at key 0 (or on a lone base-1 block if h is constant).

    Values are |h(x)|^2, sup bounds come from h's rays (`certify`), and the
    spectrum lies in [-b, b] with b the bandwidth of h.  `to_trigpoly`
    adds to the dense blocks the rank-one cross terms of each ordered pair
    of distinct rays.  Pass the origin-centred factor: |chi_a * h|^2 = |h|^2,
    and an h moved off the origin can split into one ray per term, which
    makes the number of cross terms quadratic in its term count.
    """

    __slots__ = ("factor", "const", "rays", "dense", "_blocks")

    def __init__(self, h: TrigPoly):
        const, rays = ray_partition(h)
        blocks = list(rays)
        if const != 0:
            if blocks:
                b = blocks[0]
                i = int(np.searchsorted(b.keys, 0))
                blocks[0] = DenseBlock(b.base, np.insert(b.keys, i, 0), np.insert(b.coeffs, i, const))
            else:
                blocks = [DenseBlock(EF(1), np.zeros(1, dtype=np.int64), np.array([const]))]
        self.factor = h
        self.const = const
        self.rays = tuple(rays)
        # autocorrelation of a block: frequencies base*(k_i - k_j)
        self.dense = tuple(DenseBlock(b.base, *_autocorrelate(b.keys, b.coeffs)) for b in blocks)
        self._blocks = tuple(blocks)

    # -- views ---------------------------------------------------------------

    def term_count_upper(self) -> int:
        """Upper bound on the number of distinct frequencies."""
        sizes = [len(b.keys) for b in self._blocks]
        cross = sum(sizes) ** 2 - sum(n * n for n in sizes)
        return sum(len(b.keys) for b in self.dense) + cross

    def is_real(self, tol: float = 0.0) -> bool:
        return True  # |h|^2 is real by construction

    def evaluate(self, x):
        h = self.factor.evaluate(x)
        return h * np.conjugate(h) if isinstance(h, np.ndarray) else h * h.conjugate()

    def evaluate_real(self, x):
        h = self.factor.evaluate(x)
        return np.abs(h) ** 2 if isinstance(h, np.ndarray) else abs(h) ** 2

    def spectrum(self) -> SpectrumInfo:
        """Omega(|h|^2) lies in Omega(h) - Omega(h), whose extremes are +-bandwidth(h)."""
        info = spectrum(self.factor)
        if info.count == 0:
            return SpectrumInfo.empty()
        b = info.bandwidth
        return SpectrumInfo(self.term_count_upper(), -b, b, b + b, b, None)

    def to_trigpoly(self) -> TrigPoly:
        """The product materialized term by term, exactly Hermitian.

        The dense blocks' terms come first, then for each ordered pair
        (a, b) of distinct blocks the terms a_i * conj(b_j) at
        base_a*k_i - base_b*k_j.  They are summed once; only the w > 0 side
        is kept and mirrored, and the w = 0 coefficient is made real, so
        c(-w) == conj(c(w)) holds bit for bit (the rank-one products of
        (a, b) and (b, a) need not be conjugate to the last bit).
        """
        if self.term_count_upper() > MAX_DICT_PAIRS:
            raise ValueError("product too large to materialize as a TrigPoly")

        def cross(a: DenseBlock, b: DenseBlock) -> Iterator[tuple[EF, complex]]:
            vals = np.outer(a.coeffs, np.conjugate(b.coeffs))
            for ka, row in zip(a.keys.tolist(), vals.tolist()):
                wa = a.base * ka
                for kb, v in zip(b.keys.tolist(), row):
                    if v != 0:
                        yield wa - b.base * kb, v

        blocks = self._blocks
        dense = (t for d in self.dense for t in d.terms())
        pairs = (t for a in blocks for b in blocks if a is not b for t in cross(a, b))
        out: dict[EF, complex] = {}
        for w, c in TrigPoly(itertools.chain(dense, pairs))._terms.items():
            sign = w.sign()
            if sign > 0:
                out[w] = c
                out[-w] = c.conjugate()
            elif sign == 0:
                out[w] = complex(c.real, 0.0)
        return TrigPoly(out)


def _autocorrelate(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and coefficients of |sum c_k e^{i k t}|^2 on the integer lattice.

    Returns (delta_keys ascending, values) with values[d] = sum_k c_{k+d} * conj(c_k),
    computed by one dense complex convolution (deterministic given its inputs).
    The convolution is dense over the key span k1 - k0 + 1, not the key
    count: O(span^2).  Every caller in apspec has a span about equal to its
    term count: Laurent factors from the roots route and construction blocks.
    """
    if len(keys) == 0:
        return keys.copy(), coeffs.copy()
    k0, k1 = int(keys[0]), int(keys[-1])
    width = k1 - k0 + 1
    dense = np.zeros(width, dtype=complex)
    dense[keys - k0] = coeffs
    corr = np.convolve(dense, np.conjugate(dense[::-1]))
    deltas = np.arange(-(width - 1), width, dtype=np.int64)
    nz = corr != 0
    return deltas[nz], corr[nz]
