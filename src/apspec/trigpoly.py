"""Trigonometric polynomials with exact frequencies.

A TrigPoly is a finite sum  sum_w c_w * exp(i*w*x)  with ExactFrequency
frequencies and complex coefficients.  It is kept in one form,
chi_shift * (const + sum of rays): a shift, a constant, and per rational
direction one ray, a positive base frequency with ascending int64 keys
of gcd 1 and complex128 coefficients (`DenseBlock`).  Frequencies are
distinct and exact zero coefficients are dropped.  Terms given by
frequencies (`TrigPoly(terms)`, `constant`, `character`, `from_cos`) or
by their canonical coordinates (`TrigPoly.from_coordinates`, which the
JSON reader calls) are grouped into rays in integer arithmetic, and a
ray whose keys leave int64 raises MalformedInput.

The form reads values, float frequencies, sorted terms, Wiener norm and
spectrum extremes from its arrays; exact frequencies are compared only
where floats cannot certify the order.  `modulate`, `dilate`, `conj`,
negation and scalar products act on the shift, bases, keys and
coefficients.  For shift 0 the constant and the rays are the
polynomial's `ray_partition`, which sums, differences, `derivative` and
`is_real` read; a shifted form's partition is computed once and kept.
All of these give bit for bit what the exact terms give.  The exact
terms themselves, one ExactFrequency each, are built only on request:
as a read-only dict view, on first use, for `coefficient`, for `==` of
forms whose arrays differ and for the partition of a shifted form, and
as `sorted_terms`, which `mean_value_numeric` reads.
`sorted_terms_json` writes frequencies as JSON from each ray's base and
keys.

Every product is formed pair of rays by pair of rays (`_products`), with
one ExactFrequency per resulting ray: `multiply`, behind `TrigPoly *
TrigPoly`, and `modulus_squared` (|h|^2 of one ray is one convolution).  The
ProductPoly is |h|^2 seen through its factor: values, sup bounds and the
spectrum are read from h, and `to_trigpoly` is `modulus_squared`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from apspec.errors import MalformedInput
from apspec.frequency import ONE, ZERO, Coordinates, ExactFrequency, lattice_json, rational_ratio

EF = ExactFrequency
Scalar = Union[int, float, complex]

# a product refuses past these convolution multiply-adds (|s|^2 of any roots
# factor of degree <= 2**15 passes) or outer-product pairs (`_products`)
MAX_CONVOLUTION = 1 << 32
MAX_OUTER_PAIRS = 3_000_000
# two blocks on one direction convolve unless their key spans hold more
# multiply-adds than this many per coefficient pair
DENSE_RATIO = 64

# elements in one exp table of the evaluation kernels
_MAX_TABLE = 4_000_000

# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

# integers up to this bound convert to float exactly
_EXACT_INT = 1 << 53


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


class TrigPoly:
    """Finite exponential sum with exact frequencies, kept as chi_shift * (const + rays)."""

    __slots__ = ("_form", "_rays", "_view", "_sorted", "_arrays", "_spec")

    def __init__(self, terms: Mapping[EF, complex] | Iterable[tuple[EF, complex]] = ()):
        """The sum of (frequency, coefficient) terms, grouped by ray as `from_coordinates` groups them."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        coords = []
        for w, c in items:
            w = _as_ef(w)
            coords.append(((w.rational, w.radicals), complex(c)))
        self._fill(ZERO, *_ray_groups(coords))

    def _fill(self, shift: EF, const: complex, rays: Iterable["DenseBlock"]) -> None:
        self._form = (shift, 0j if const == 0 else const, _normalized_rays(rays))
        self._rays = self._form[1:] if shift.is_zero() else None
        self._view = self._sorted = self._arrays = self._spec = None

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_rays(cls, rays: Iterable["DenseBlock"], shift=ZERO, const: Scalar = 0j) -> "TrigPoly":
        """chi_shift * (const + sum of the rays).

        Every ray needs a positive base and distinct nonzero keys, and the
        rays must lie on distinct rational directions, so that no two terms
        share a frequency (ValueError otherwise).  Zero coefficients are
        dropped, and each ray is rescaled to keys with gcd 1, so that for
        shift 0 the constant and the rays are the polynomial's
        `ray_partition`.
        """
        poly = cls.__new__(cls)
        poly._fill(_as_ef(shift), complex(const), rays)
        return poly

    @classmethod
    def from_coordinates(cls, items: Iterable[tuple[Coordinates, complex]]) -> "TrigPoly":
        """The sum of (coordinates, coefficient) items, given by its rays (`_ray_groups`)."""
        poly = cls.__new__(cls)
        poly._fill(ZERO, *_ray_groups(items))
        return poly

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

    @property
    def _terms(self) -> Mapping[EF, complex]:
        """The exact terms as a read-only {frequency: coefficient} view, built on first use."""
        if self._view is None:
            self._view = MappingProxyType(dict(zip(_ray_frequencies(*self._form), _ray_coeffs(*self._form[1:]).tolist())))
        return self._view

    def sorted_terms(self) -> list[tuple[EF, complex]]:
        """Terms in ascending frequency order: that of `term_arrays`, each frequency built from its ray and key."""
        if self._sorted is None:
            _, cs, order = self._sorted_arrays()
            freqs = _ray_frequencies(*self._form)
            self._sorted = [(freqs[i], c) for i, c in zip(order.tolist(), cs.tolist())]
        return list(self._sorted)

    def sorted_terms_json(self) -> list[tuple[dict, complex]]:
        """`sorted_terms` with each frequency as its `EF.to_json` object.

        The objects are written from each ray's base and keys in integer
        arithmetic (`lattice_json`), and no frequency is built.
        """
        _, cs, order = self._sorted_arrays()
        freqs = _ray_json(*self._form)
        return [(freqs[i], c) for i, c in zip(order.tolist(), cs.tolist())]

    def frequencies(self) -> list[EF]:
        return [w for w, _ in self.sorted_terms()]

    def term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Float frequencies and coefficients in ascending frequency order (read-only).

        Each float is float(w) of the exact frequency w, bit for bit.  Both
        are taken from the rays, and exact frequencies are compared only
        within runs whose floats lie too close to certify their order
        (`_ray_term_arrays`).
        """
        return self._sorted_arrays()[:2]

    def _sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`term_arrays` and the permutation that sorts the form's terms."""
        if self._arrays is None:
            found = _ray_term_arrays(*self._form)
            for a in found[:2]:
                a.setflags(write=False)
            self._arrays = found
        return self._arrays

    def term_count(self) -> int:
        _, const, blocks = self._form
        return sum(len(b.keys) for b in blocks) + (const != 0)

    def is_zero(self) -> bool:
        return self.term_count() == 0

    def coefficient(self, w) -> complex:
        return self._terms.get(_as_ef(w), 0j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if self is other or _same_rays(self._form, other._form):
            return True
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
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        shift, const, blocks = self._form
        return TrigPoly.from_rays([DenseBlock(b.base, b.keys, -b.coeffs) for b in blocks], shift, -const)

    def __sub__(self, other) -> "TrigPoly":
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "TrigPoly":
        return (-self) + other

    def __mul__(self, other) -> "TrigPoly":
        """Product with a scalar (each coefficient times it, as Python multiplies complex numbers) or a TrigPoly."""
        if isinstance(other, (int, float, complex)):
            if other == 0:
                return TrigPoly()
            z = complex(other)
            shift, const, blocks = self._form
            rays = [DenseBlock(b.base, b.keys, complex_product(b.coeffs, z)) for b in blocks]
            return TrigPoly.from_rays(rays, shift, const * z)
        if isinstance(other, TrigPoly):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # -- analysis -----------------------------------------------------------

    def evaluate(self, x):
        """Value at real or complex x (scalar or ndarray)."""
        return _evaluate_arrays(*self.term_arrays(), x)

    def conj(self) -> "TrigPoly":
        """Pointwise complex conjugate (for real x): every frequency negated, every coefficient conjugated."""
        shift, const, blocks = self._form
        rays = [DenseBlock(b.base, -b.keys, np.conjugate(b.coeffs)) for b in blocks]
        return TrigPoly.from_rays(rays, -shift, const.conjugate())

    def derivative(self) -> "TrigPoly":
        """sum c*i*float(w)*exp(i*w*x), by ray: each coefficient times i and its ray's float frequency."""
        _, blocks = ray_partition(self)
        return TrigPoly.from_rays([DenseBlock(b.base, b.keys, ray_slopes(b)) for b in blocks])

    def modulate(self, w0) -> "TrigPoly":
        """Multiply by exp(i*w0*x): shifts every frequency by w0."""
        shift, const, blocks = self._form
        return TrigPoly.from_rays(blocks, shift + _as_ef(w0), const)

    def dilate(self, rho) -> "TrigPoly":
        """x -> rho*x rescaling: multiplies every frequency by rho.

        Each base becomes base*|rho|, and a negative rho negates the keys.
        """
        rho = _as_ef(rho)
        sign = rho.sign()
        if sign == 0:
            raise ValueError("dilation scale must be nonzero")
        shift, const, blocks = self._form
        rays = [DenseBlock(b.base * abs(rho), b.keys * sign, b.coeffs) for b in blocks]
        return TrigPoly.from_rays(rays, shift * rho, const)

    def wiener_norm(self) -> float:
        """Sum of coefficient magnitudes (fsum, so exact before one rounding).

        fsum's result does not depend on the order of its terms, so the
        magnitudes are read unsorted, from the constant and the rays; no
        frequency is compared.  np.hypot is libm's hypot, as abs(complex)
        is; np.abs differs in the last bit for about a third of complex
        inputs.
        """
        cs = _ray_coeffs(*self._form[1:])
        return math.fsum(np.hypot(cs.real, cs.imag).tolist())

    def is_real(self, tol: float = 0.0) -> bool:
        """Hermitian-symmetry test: |c(-w) - conj(c(w))| <= tol * max|c| at every w.

        Read from `ray_partition`: -w lies on w's ray, so each ray is
        compared with its own mirror image, on the union of its keys and
        their negatives (a key whose mirror is absent meets a zero).
        """
        const, blocks = ray_partition(self)
        mags = [abs(const)] + [np.hypot(b.coeffs.real, b.coeffs.imag).max() for b in blocks]
        bound = tol * max(mags)
        if abs(const - const.conjugate()) > bound:
            return False
        for b in blocks:
            keys = _key_union(b.keys, -b.keys)
            c = np.zeros(len(keys), dtype=complex)
            c[np.searchsorted(keys, b.keys)] = b.coeffs
            d = c - np.conjugate(c[::-1])
            if np.any(np.hypot(d.real, d.imag) > bound):
                return False
        return True


def _as_poly(x) -> "TrigPoly":
    if isinstance(x, TrigPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return TrigPoly.constant(x)
    return NotImplemented


def _normalized_rays(rays: Iterable[DenseBlock]) -> tuple[DenseBlock, ...]:
    """The rays of `TrigPoly.from_rays`, checked and normalized.

    Zero coefficients drop, keys end ascending with gcd 1 (the base times
    their gcd), the arrays read-only, and the rays ordered by float base.
    """
    blocks: list[DenseBlock] = []
    for b in rays:
        if b.base.sign() <= 0:
            raise ValueError("ray bases must be positive")
        keep = b.coeffs != 0
        order = np.argsort(b.keys[keep], kind="stable")
        keys = b.keys[keep][order].astype(np.int64)
        coeffs = b.coeffs[keep][order].astype(complex)
        if not len(keys):
            continue
        if np.any(keys == 0) or np.any(np.diff(keys) == 0):
            raise ValueError("ray keys must be distinct and nonzero")
        step = int(np.gcd.reduce(keys))
        base = b.base
        if step > 1:
            base, keys = base * step, keys // step
        keys.setflags(write=False)
        coeffs.setflags(write=False)
        blocks.append(DenseBlock(base, keys, coeffs))
    if len(blocks) > 1 and len({_direction(b.base.rational, b.base.radicals)[0] for b in blocks}) < len(blocks):
        raise ValueError("rays must lie on distinct directions")
    blocks.sort(key=lambda b: float(b.base))
    return tuple(blocks)


def _ray_groups(items: Iterable[tuple[Coordinates, complex]]) -> tuple[complex, list[DenseBlock]]:
    """The constant and the rays of the sum of (coordinates, coefficient) items.

    Coordinates are an ExactFrequency's canonical (rational, radicals)
    (`canonical_coordinates`).  Coefficients of one frequency sum left to
    right, and exact zeros drop.  The grouping is integer arithmetic.

    A nonzero w is (g/den) * u on the ray labelled by u (`_direction`),
    and g/den, a reduced fraction, names w on it.  On one ray with lcm L
    of the dens, w is the key g*L/den times u/L (both negated if u < 0,
    so that the base is positive).  The keys are divided by their gcd G,
    and the base is G*u/L, before they become int64, so a lone term of
    any size fits; a ray whose keys still leave int64 raises
    MalformedInput.
    """
    const = None
    groups: dict[tuple, dict[tuple[int, int], complex]] = {}
    for (rat, rads), c in items:
        if not rat and not rads:
            const = c if const is None else const + c
            continue
        label, g, den = _direction(rat, rads)
        terms = groups.setdefault(label, {})
        at = (g, den)
        terms[at] = terms[at] + c if at in terms else c
    rays = []
    for (has_rational, rads, vec), terms in groups.items():
        kept = [(g, den, c) for (g, den), c in terms.items() if c != 0]
        if not kept:
            continue
        lcm = math.lcm(*(den for _, den, _ in kept))
        ints = [g * (lcm // den) for g, den, _ in kept]
        step = math.gcd(*ints)
        ints = [k // step for k in ints]
        if max(map(abs, ints)) >= 1 << 63:
            raise MalformedInput(f"a ray of the polynomial needs a key past int64: {max(map(abs, ints))}")
        keys = np.array(ints, dtype=np.int64)
        parts = iter(Fraction(v * step, lcm) for v in vec)
        unit = EF._canonical(next(parts) if has_rational else Fraction(0), tuple(zip(rads, parts)))
        if unit.sign() < 0:
            unit, keys = -unit, -keys
        rays.append(DenseBlock(unit, keys, np.array([c for *_, c in kept], dtype=complex)))
    return 0j if const is None else const, rays


def _combine(f: TrigPoly, other, sign: int) -> TrigPoly:
    """f + other (sign 1) or f - other (sign -1), formed ray by ray on the two ray partitions (`_sum_rays`)."""
    other = _as_poly(other)
    if other is NotImplemented:
        return NotImplemented
    return _sum_rays([ray_partition(f), ray_partition(other)], sign)


def _same_rays(a, b) -> bool:
    """True when two forms (shift, const, blocks) hold the same arrays."""
    if a[0] != b[0] or a[1] != b[1] or len(a[2]) != len(b[2]):
        return False
    return all(
        p.base == q.base and np.array_equal(p.keys, q.keys) and np.array_equal(p.coeffs, q.coeffs)
        for p, q in zip(a[2], b[2])
    )


def _ray_frequencies(shift: EF, const: complex, blocks: Sequence[DenseBlock]) -> list[EF]:
    """Exact frequencies of a form's terms: the constant's if nonzero, then ray by ray."""
    freqs = [ZERO] if const != 0 else []
    freqs += [b.base * k for b in blocks for k in b.keys.tolist()]
    return freqs if shift.is_zero() else [shift + w for w in freqs]


def _ray_json(shift: EF, const: complex, blocks: Sequence[DenseBlock]) -> list[dict]:
    """`EF.to_json` of each of `_ray_frequencies`, written from each ray's base and keys (`lattice_json`)."""
    out = [shift.to_json()] if const != 0 else []
    for b in blocks:
        out += lattice_json(shift, b.base, b.keys.tolist())
    return out


def _ray_coeffs(const: complex, blocks: Sequence[DenseBlock]) -> np.ndarray:
    """Coefficients of a form's terms, aligned with `_ray_frequencies`."""
    head = [np.array([const])] if const != 0 else []
    return np.concatenate(head + [b.coeffs for b in blocks]) if head or blocks else np.zeros(0, dtype=complex)


def _sum_rays(parts: Sequence[tuple[complex, Sequence[DenseBlock]]], sign: int = 1, shift: EF = ZERO) -> TrigPoly:
    """chi_shift * (parts[0] + sign*parts[1] + sign*parts[2] + ...) for (const, rays) parts, ray by ray.

    Rays on one direction, bases m_i*u for integers m_i, are summed on the
    lattice u*Z (MalformedInput if a key there leaves int64): the first
    part's coefficients as they are, each later part's added or subtracted
    in order, from 0j where no earlier part has the frequency.
    """
    groups: dict[tuple, list[tuple[int, DenseBlock, int, int]]] = {}
    for i, (_, blocks) in enumerate(parts):
        for r in blocks:
            if len(r.keys):
                label, g, den = _direction(r.base.rational, r.base.radicals)
                groups.setdefault(label, []).append((i, r, g, den))
    rays = []
    for members in groups.values():
        if len(members) == 1 and members[0][0] == 0:
            rays.append(members[0][1])
            continue
        _, r0, g0, den0 = members[0]
        # base_i / base_0 = (g_i/den_i) / (g_0/den_0), read from the ray's integers
        ratios = [Fraction(g * den0, den * g0) for *_, g, den in members]
        lcm = math.lcm(*(q.denominator for q in ratios))
        steps = [q.numerator * (lcm // q.denominator) for q in ratios]
        first, members = r0.base, [(i, r) for i, r, *_ in members]
        if len(members) > 1 and max(int(np.max(np.abs(r.keys))) * m for (_, r), m in zip(members, steps)) >= 1 << 62:
            raise MalformedInput(f"the sum of rays on one direction needs keys past int64 (base steps {steps})")
        scaled = [r.keys * m for (_, r), m in zip(members, steps)]
        keys = functools.reduce(_key_union, scaled)
        coeffs = np.zeros(len(keys), dtype=complex)
        for (i, r), k in zip(members, scaled):
            at = np.searchsorted(keys, k)
            coeffs[at] = r.coeffs if i == 0 else coeffs[at] + r.coeffs if sign > 0 else coeffs[at] - r.coeffs
        rays.append(DenseBlock(first / lcm, keys, coeffs))
    const = parts[0][0]
    for c, _ in parts[1:]:
        if c != 0:
            const = const + c if sign > 0 else const - c
    return TrigPoly.from_rays(rays, shift, const)


def _key_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of a and b: np.union1d, without the import of numpy.ma its first call makes."""
    keys = np.sort(np.concatenate([a, b]))
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def complex_product(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """a * b elementwise, written out as Python multiplies two complex numbers.

    numpy's complex array product can round unlike Python's scalar one;
    this form gives Python's product bit for bit.  b is an array of a's
    shape or a Python complex; out, a complex array of a's shape, takes
    the product in place of a new array.
    """
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def ray_slopes(b: DenseBlock) -> np.ndarray:
    """Coefficients of the derivative on ray b: each coefficient times i and its float frequency."""
    return b.coeffs * 1j * _ray_floats(b.base, b.keys, ZERO)


def _ray_floats(base: EF, keys: np.ndarray, shift: EF, with_error: bool = False):
    """float(shift + base*k) for each key k, bit for bit, without building the sums.

    float(w) is float(r) + fsum(float(c_d)*sqrt(d)) over w's coordinates.
    The coordinate of shift + base*k is (a*B + k*b*A)/(A*B) for a/A of the
    shift and b/B of the base.  Below 2**53, numerator and denominator are
    exact floats, so one float division rounds it as float(Fraction) does,
    and with at most two radicands one float addition is their fsum (a
    radical absent at some k adds 0.0, which changes no nonzero sum).
    Otherwise the sums are built term by term.

    with_error also returns e per key with |float - w| <= e/2, and e/2
    left over for the rounding of float +- e.  First order (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 2-3): a radical
    term is one correctly rounded division (or float(c)), times a
    correctly rounded sqrt(d), one product; the terms are summed with two
    more roundings (two additions, or fsum's and one addition).  Each
    term thus passes at most five roundings: |float - w| <= gamma_5 * A
    for A = |r| + sum |c_d|*sqrt(d).  The magnitudes of the computed
    terms, summed the same way, give A~ >= (1 - gamma_5) * A, so
    |float - w| < 6u * A~.  e is 12u * A~ plus 2**-1068 * (1 + sum
    sqrt(d)) for gradual underflow (half the least subnormal per
    operation, times sqrt(d) after a product): a few units in the last
    place of |w| unless its parts nearly cancel.
    """
    if not len(keys):
        return (np.zeros(0), np.zeros(0)) if with_error else np.zeros(0)
    kmax = int(np.max(np.abs(keys)))
    sd, bd = dict(shift.radicals), dict(base.radicals)
    rads = sorted(sd.keys() | bd.keys())
    coords = [(sd.get(d, Fraction(0)), bd.get(d, Fraction(0))) for d in rads]
    tiny = 2.0**-1068 * (1 + math.fsum(math.sqrt(d) for d in rads))
    parts = []
    for a, b in [(shift.rational, base.rational), *coords]:
        den = a.denominator * b.denominator
        na, nb = a.numerator * b.denominator, b.numerator * a.denominator
        # nb must fit too: numpy multiplies it into the int64 keys even when kmax is 0
        if len(rads) > 2 or den >= _EXACT_INT or abs(na) + max(kmax, 1) * abs(nb) >= _EXACT_INT:
            ws = [shift + base * k for k in keys.tolist()]
            floats = np.array([float(w) for w in ws], dtype=float)
            if not with_error:
                return floats
            mags = [abs(float(w.rational)) + math.fsum(abs(float(c)) * math.sqrt(d) for d, c in w.radicals) for w in ws]
            return floats, 12 * UNIT_ROUNDOFF * np.array(mags, dtype=float) + tiny
        parts.append((na + nb * keys) / den)
    rad = [v * math.sqrt(d) for v, d in zip(parts[1:], rads)]

    def total(first, rest):
        return first + (rest[0] + rest[1] if len(rest) == 2 else rest[0] if rest else 0.0)

    floats = total(parts[0], rad)
    if not with_error:
        return floats
    return floats, 12 * UNIT_ROUNDOFF * total(np.abs(parts[0]), [np.abs(v) for v in rad]) + tiny


def _ray_term_arrays(
    shift: EF, const: complex, blocks: Sequence[DenseBlock]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`TrigPoly.term_arrays` of chi_shift * (const + sum of blocks) and the sorting permutation.

    The permutation orders the terms as `_ray_frequencies` lists them.
    Each float lies within e/2 of its exact frequency (`_ray_floats`'
    bound).  Sorted by float, a cut after position i is certified when
    every interval [float - e, float + e] up to i ends below every one
    after it: then so do the exact frequencies.  Only the runs between
    certified cuts that hold more than one term are sorted by exact
    comparison, so the order is the exact one and each float is float(w).
    """
    owners: list[tuple[EF, np.ndarray]] = [(ONE, np.zeros(1, dtype=np.int64))] if const != 0 else []
    owners += [(b.base, b.keys) for b in blocks]
    found = [_ray_floats(base, keys, shift, with_error=True) for base, keys in owners]
    ws = np.concatenate([w for w, _ in found]) if found else np.zeros(0)
    err = np.concatenate([e for _, e in found]) if found else np.zeros(0)
    order = np.argsort(ws, kind="stable")
    if len(ws) > 1:
        lo, hi = ws[order] - err[order], ws[order] + err[order]
        # open[i]: no cut is certified between sorted positions i and i + 1 (NaN leaves it open)
        open_ = ~(np.maximum.accumulate(hi)[:-1] < np.minimum.accumulate(lo[::-1])[::-1][1:])
        if open_.any():
            order = _exact_runs(order, open_, shift, owners)
    return ws[order], _ray_coeffs(const, blocks)[order], order


def _exact_runs(order: np.ndarray, open_: np.ndarray, shift: EF, owners: Sequence[tuple[EF, np.ndarray]]) -> np.ndarray:
    """order with each run of sorted positions joined by `open_` sorted by exact frequency.

    owners lists (base, keys) in term order; term t is shift + base*k.
    """
    keys = np.concatenate([k for _, k in owners])
    owner = np.repeat(np.arange(len(owners)), [len(k) for _, k in owners])

    def frequency(t: int) -> EF:
        return shift + owners[owner[t]][0] * int(keys[t])

    order = order.copy()
    joined = np.flatnonzero(open_)
    breaks = np.flatnonzero(np.diff(joined) > 1)
    starts = joined[np.concatenate([[0], breaks + 1])]
    ends = joined[np.concatenate([breaks, [len(joined) - 1]])] + 2
    for a, b in zip(starts.tolist(), ends.tolist()):
        order[a:b] = sorted(order[a:b].tolist(), key=frequency)
    return order


def _evaluate_arrays(ws: np.ndarray, cs: np.ndarray, x):
    """sum c*exp(i*w*x) over the aligned float frequencies ws and coefficients cs.

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
    rows = _grid_rows(xs) if len(ws) else None
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

    For a TrigPoly it bounds f.evaluate (E of `_evaluate_arrays`), plus
    8N * 2^-1074 for gradual underflow: a product that underflows is off
    by up to half the least subnormal, whatever its size, which E's
    relative terms do not see.  Each of the N terms passes through fewer
    than 16 such products in either kernel (the grid kernel's c * E1 and
    its BLAS dot take 12), and additions of subnormals are exact.  For a
    ProductPoly |h|^2 it bounds
    f.evaluate: | |h~|^2 - |h|^2 | <= 2*E_h*||h||_A + E_h^2, plus
    6u*(||h||_A + E_h)^2 for the rounding of abs and the square, and
    2^-1072 for their underflow.
    """
    if isinstance(f, ProductPoly):
        e = evaluation_error(f.factor, x_max)
        a = f.factor.wiener_norm()
        return 2 * e * a + e * e + 6 * UNIT_ROUNDOFF * (a + e) ** 2 + 2.0**-1072
    ws = f.term_arrays()[0]
    if not len(ws):
        return 0.0
    w_max = float(np.max(np.abs(ws)))
    n = len(ws)
    return UNIT_ROUNDOFF * (16 * w_max * abs(x_max) + 3 * n + 8) * f.wiener_norm() + 8 * n * 2.0**-1074


# -- spectrum ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumInfo:
    """Summary of a (finite) Bohr spectrum."""

    count: int
    inf_freq: EF | None
    sup_freq: EF | None
    bandwidth: EF
    tau: EF

    @staticmethod
    def empty() -> "SpectrumInfo":
        return SpectrumInfo(0, None, None, EF(0), EF(0))


def spectrum(f: "TrigPoly | ProductPoly") -> SpectrumInfo:
    """Spectrum summary: count, extremes, bandwidth, one-sided width tau.

    tau is max(|inf|, |sup|), the exponential type of the natural entire
    extension.  A polynomial's extremes are read from its constant and
    each ray's end keys.  The summary is built once per
    TrigPoly and kept on it, as `ray_partition` is.  For a ProductPoly the
    extremes are +-(bandwidth of the factor) and the count is an upper
    bound.
    """
    if isinstance(f, ProductPoly):
        return f.spectrum()
    if f._spec is None:
        f._spec = _spectrum_of(f)
    return f._spec


def _spectrum_of(f: TrigPoly) -> SpectrumInfo:
    if f.is_zero():
        return SpectrumInfo.empty()
    shift, const, blocks = f._form
    lo = min([b.base * int(b.keys[0]) for b in blocks] + ([ZERO] if const != 0 else []))
    hi = max([b.base * int(b.keys[-1]) for b in blocks] + ([ZERO] if const != 0 else []))
    if not shift.is_zero():
        lo, hi = lo + shift, hi + shift
    tau = max(abs(lo), abs(hi))
    return SpectrumInfo(f.term_count(), lo, hi, hi - lo, tau)


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
    """f*g on pairs of blocks (`_products`), since chi_s*F times chi_t*G is chi_{s+t}*(F*G).

    The parts are summed once (`_sum_rays`); a constant factor only
    scales the other.
    """
    (s, fc, fr), (t, gc, gr) = f._form, g._form
    if not fr or not gr:
        return (g * fc).modulate(s) if not fr else (f * gc).modulate(t)
    return _sum_rays(_products(_blocks(fc, fr), _blocks(gc, gr)), shift=s + t)


def _blocks(const: complex, rays: Sequence[DenseBlock]) -> list[DenseBlock]:
    """The rays with the constant riding on the first at key 0, or on a lone base-1 block if there is no ray."""
    if const == 0:
        return list(rays)
    if not rays:
        return [DenseBlock(ONE, np.zeros(1, dtype=np.int64), np.array([const]))]
    b, i = rays[0], int(np.searchsorted(rays[0].keys, 0))
    keys, coeffs = np.concatenate([b.keys[:i], [0], b.keys[i:]]), np.concatenate([b.coeffs[:i], [const], b.coeffs[i:]])
    return [DenseBlock(b.base, keys, coeffs), *rays[1:]]


def _products(xs: Sequence[DenseBlock], ys: Sequence[DenseBlock]) -> list[tuple[complex, list[DenseBlock]]]:
    """(const, rays) of x*y for every x in xs and y in ys.

    Blocks on one direction, whose key spans on the common lattice hold
    at most DENSE_RATIO multiply-adds per coefficient pair, convolve
    (`_convolve_rays`); the rest form one outer product (`_outer_rays`).
    Before anything is allocated, ValueError past MAX_CONVOLUTION
    multiply-adds (span_x * span_y per convolution) or MAX_OUTER_PAIRS
    outer-product pairs, and MalformedInput if a key on the common lattice
    would leave int64.
    """
    pairs, macs, outer = [], 0, 0
    for x in xs:
        for y in ys:
            ratio, mac = rational_ratio(x.base, y.base), math.inf
            if ratio is not None:
                px, py = ratio.numerator, ratio.denominator
                if max(-int(x.keys[0]), int(x.keys[-1])) * px + max(-int(y.keys[0]), int(y.keys[-1])) * py >= 1 << 62:
                    raise MalformedInput(f"the product of two rays on one direction needs keys past int64 (base ratio {ratio})")
                mac = _span(x, px) * _span(y, py)
            if mac <= DENSE_RATIO * len(x.keys) * len(y.keys):
                macs += mac
                pairs.append((_convolve_rays, x, y, ratio))
            else:
                outer += len(x.keys) * len(y.keys)
                pairs.append((_outer_rays, x, y, ratio))
    if macs > MAX_CONVOLUTION or outer > MAX_OUTER_PAIRS:
        raise ValueError(
            f"product would take {macs} convolution multiply-adds and {outer} outer-product pairs "
            f"(bounds {MAX_CONVOLUTION} and {MAX_OUTER_PAIRS})"
        )
    return [route(x, y, ratio) for route, x, y, ratio in pairs]


def _span(b: DenseBlock, step: int) -> int:
    return (int(b.keys[-1]) - int(b.keys[0])) * step + 1


def _dense(b: DenseBlock, step: int) -> np.ndarray:
    """b's coefficients on its key span, keys times step."""
    dense = np.zeros(_span(b, step), dtype=complex)
    dense[(b.keys - b.keys[0]) * step] = b.coeffs
    return dense


def _convolve_rays(x: DenseBlock, y: DenseBlock, ratio: Fraction) -> tuple[complex, list[DenseBlock]]:
    """(const, rays) of x*y for x.base/y.base = ratio = px/py: one np.convolve of the dense key spans.

    x sits at keys px*k and y at py*l of the lattice u*Z, u = x.base/px.
    """
    px, py = ratio.numerator, ratio.denominator
    vals = np.convolve(_dense(x, px), _dense(y, py))
    keys = np.arange(len(vals), dtype=np.int64) + (int(x.keys[0]) * px + int(y.keys[0]) * py)
    keep = (vals != 0) & (keys != 0)
    return complex(vals[keys == 0].sum()), [DenseBlock(x.base / px, keys[keep], vals[keep])]


def _outer_rays(x: DenseBlock, y: DenseBlock, ratio: Fraction | None) -> tuple[complex, list[DenseBlock]]:
    """(const, rays) of x*y from one np.outer, its pairs (k, l) grouped in integers.

    On one direction, x.base/y.base = ratio = px/py, pair (k, l) sits at
    key px*k + py*l of the lattice u*Z, u = x.base/px, and the pairs of
    one key are summed in key order: one ray.  On two, a = x.base and
    b = y.base are Q-independent, so (k, l) sits at a*k + b*l, distinct
    for each pair, and (0, 0) is the constant; the pairs of one primitive
    (k', l') = (k, l)/g, g = +-gcd(k, l) signed to make its first nonzero
    positive, form one ray of base |a*k' + b*l'|: one ExactFrequency per ray.
    """
    vals = np.outer(x.coeffs, y.coeffs).ravel()
    if ratio is not None:
        keys = np.add.outer(x.keys * ratio.numerator, y.keys * ratio.denominator).ravel()
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        keys, vals = keys[first], np.add.reduceat(vals, first)
        keep = (vals != 0) & (keys != 0)
        return complex(vals[keys == 0].sum()), [DenseBlock(x.base / ratio.numerator, keys[keep], vals[keep])]
    k, l = np.repeat(x.keys, len(y.keys)), np.tile(y.keys, len(x.keys))
    g = np.gcd(k, l)
    const = complex(vals[g == 0].sum())
    keep = (vals != 0) & (g != 0)
    k, l, g, vals = k[keep], l[keep], g[keep], vals[keep]
    g = np.where((k < 0) | ((k == 0) & (l < 0)), -g, g)
    k, l = k // g, l // g
    order = np.lexsort((g, l, k))
    k, l, g, vals = k[order], l[order], g[order], vals[order]
    first = np.ones(len(k), dtype=bool)
    first[1:] = (k[1:] != k[:-1]) | (l[1:] != l[:-1])
    starts = np.flatnonzero(first).tolist()
    rays = []
    for lo, hi in zip(starts, [*starts[1:], len(k)]):
        base = x.base * int(k[lo]) + y.base * int(l[lo])
        keys, coeffs = g[lo:hi], vals[lo:hi]
        if base.sign() < 0:
            base, keys, coeffs = -base, -keys[::-1], coeffs[::-1]
        rays.append(DenseBlock(base, keys, coeffs))
    return const, rays


def _direction(rat: Fraction, rads: tuple[tuple[int, Fraction], ...]) -> tuple[tuple, int, int]:
    """(label, g, den) of a nonzero w = rat + sum_d c_d sqrt(d), in integers: w = (g/den) * u.

    w's coordinates are n_i / den, den the lcm of their denominators; with
    g = +-gcd(n_i), signed like n_0, u is the primitive integer vector
    n_i/g read back as a frequency.  The label (rat != 0, the radicands,
    u) is the same for two frequencies exactly when one is a rational
    multiple of the other: it names their ray.
    """
    coords = [x for _, x in rads]
    if rat:
        coords.insert(0, rat)
    den = math.lcm(*(x.denominator for x in coords))
    nums = [x.numerator * (den // x.denominator) for x in coords]
    g = math.gcd(*nums) if nums[0] > 0 else -math.gcd(*nums)
    return (rat != 0, tuple([d for d, _ in rads]), tuple([n // g for n in nums])), g, den


def ray_partition(f: TrigPoly) -> tuple[complex, tuple[DenseBlock, ...]]:
    """Split f into its constant term and one periodic piece per rational ray.

    Each returned block has a positive base frequency and integer exponent
    keys with gcd 1; block frequencies base*k enumerate one commensurable
    class of the spectrum.  Blocks are ordered by base.  The split is
    computed once per polynomial and kept on it; the blocks' arrays are
    read-only, so no caller can change the kept copy.  For shift 0 the
    polynomial's form is its partition; a shifted form is partitioned from
    its exact terms.
    """
    if f._rays is None:
        f._rays = TrigPoly.from_coordinates(((w.rational, w.radicals), c) for w, c in f._terms.items())._rays
    return f._rays


def modulus_squared(h: TrigPoly) -> TrigPoly:
    """|h|^2 = h * conj(h), made exactly Hermitian: c(-w) == conj(c(w)).

    |chi_s*F|^2 = |F|^2, so F's blocks (`_blocks`) multiply their
    conjugates, keys negated and reversed (`_products`); one block's part
    is its autocorrelation, one np.convolve.  Of each ray only the w > 0
    side is kept and mirrored, and the constant made real: the products
    of two distinct rays taken in either order need not be conjugate to
    the last bit.
    """
    xs = _blocks(*h._form[1:])
    parts = _products(xs, [DenseBlock(b.base, -b.keys[::-1], np.conjugate(b.coeffs[::-1])) for b in xs])
    if not parts:
        return TrigPoly()
    const, rays = parts[0] if len(parts) == 1 else _sum_rays(parts)._form[1:]
    mirrored = []
    for d in rays:
        pos = d.keys > 0
        keys, vals = d.keys[pos], d.coeffs[pos]
        mirrored.append(DenseBlock(d.base, np.concatenate([-keys[::-1], keys]), np.concatenate([np.conjugate(vals[::-1]), vals])))
    return TrigPoly.from_rays(mirrored, const=complex(const.real, 0.0))


class ProductPoly:
    """|h|^2 seen through its factor h.

    Values are |h(x)|^2, sup bounds come from h's rays (`certify`), and the
    spectrum lies in [-b, b] with b the bandwidth of h.  `term_count_upper`
    counts from the blocks (`_blocks`), and `to_trigpoly` is `modulus_squared`.
    """

    __slots__ = ("factor", "_blocks")

    def __init__(self, h: TrigPoly):
        self.factor = h
        self._blocks = tuple(_blocks(*ray_partition(h)))

    # -- views ---------------------------------------------------------------

    def term_count_upper(self) -> int:
        """Upper bound on the number of distinct frequencies.

        Each block's autocorrelation lies on its difference set K - K
        (`_difference_count`, counted from the keys, no correlation
        formed), and each ordered pair of distinct blocks adds at most the
        product of their sizes.
        """
        sizes = [len(b.keys) for b in self._blocks]
        cross = sum(sizes) ** 2 - sum(n * n for n in sizes)
        return sum(_difference_count(b.keys) for b in self._blocks) + cross

    def evaluate(self, x):
        """The real value |h(x)|^2 (scalar or ndarray)."""
        h = self.factor.evaluate(x)
        return np.abs(h) ** 2 if isinstance(h, np.ndarray) else abs(h) ** 2

    def spectrum(self) -> SpectrumInfo:
        """Omega(|h|^2) lies in Omega(h) - Omega(h), whose extremes are +-bandwidth(h).

        With n terms in h that set holds at most n(n - 1) + 1 frequencies,
        the count given; no autocorrelation is built.
        """
        info = spectrum(self.factor)
        if info.count == 0:
            return SpectrumInfo.empty()
        b = info.bandwidth
        return SpectrumInfo(info.count * (info.count - 1) + 1, -b, b, b + b, b)

    def to_trigpoly(self) -> TrigPoly:
        """The product materialized: `modulus_squared` of the factor."""
        return modulus_squared(self.factor)


def _difference_count(keys: np.ndarray) -> int:
    """|K - K| for the ascending distinct int64 keys K.

    Of the W = span + 1 slots from the least key to the greatest, g are
    empty.  A difference d in [1, W) is absent only when each of its W - d
    pairs (k, k + d) meets an empty slot, and one slot meets at most two
    of them, so every d < W - 2g is present.  The rest are tested one
    slice of the occupied slots each: O(W g) work, at most the O(W^2) of
    a dense correlation, and O(W) for construction blocks, whose keys
    leave at most three slots empty.
    """
    n = len(keys)
    if n == 0:
        return 0
    offsets = keys - keys[0]
    width = int(offsets[-1]) + 1
    first = max(1, width - 2 * (width - n))
    slots = np.zeros(width, dtype=bool)
    slots[offsets] = True
    found = sum(bool(np.any(slots[d:] & slots[: width - d])) for d in range(first, width))
    return 2 * (first - 1 + found) + 1
