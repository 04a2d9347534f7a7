"""Exact frequencies of the form r + sum_i c_i * sqrt(d_i).

Frequencies live in the real quadratic lattice spanned by 1 and square roots
of squarefree integers >= 2, with rational coefficients.  Distinct canonical
forms denote distinct real numbers (square roots of distinct squarefree
integers are linearly independent over the rationals), so exact equality,
hashing and sign tests are all decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from apspec.errors import MalformedInput

RationalLike = Union[int, Fraction]
# canonical (rational, radicals) of a frequency: radicands squarefree, ascending, coefficients nonzero
Coordinates = tuple[Fraction, tuple[tuple[int, Fraction], ...]]

# largest radicand accepted from outside (JSON, construction primes): it
# keeps a trial-division split under about 0.1 ms
MAX_RADICAND = 10**6

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def squarefree_split(d: int) -> tuple[int, int]:
    """Write d = outer**2 * core with core squarefree; return (outer, core).

    d must be a positive integer.  Trial division costs O(sqrt(d)), so
    inputs bound their radicands by MAX_RADICAND.
    """
    if d <= 0:
        raise ValueError(f"radicand must be positive, got {d}")
    outer = 1
    core = d
    for p in _SMALL_PRIMES:
        p2 = p * p
        while core % p2 == 0:
            core //= p2
            outer *= p
    # remaining square factors p*p have p >= 41 and p*p <= core, so trial
    # division by odd p up to sqrt(core) finds them all
    p = 41
    while p * p <= core:
        p2 = p * p
        while core % p2 == 0:
            core //= p2
            outer *= p
        p += 2
    return outer, core


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactFrequency:
    """Exact real number r + sum of c_i * sqrt(d_i), d_i squarefree and distinct.

    Immutable and hashable.  Arithmetic stays inside the class: sums,
    differences, products and rational quotients of such numbers are again
    of the same shape.
    """

    __slots__ = ("rational", "radicals", "_float", "_hash", "_approx_err")

    rational: Fraction
    radicals: tuple[tuple[int, Fraction], ...]

    def __init__(
        self,
        rational: RationalLike = 0,
        radicals: Iterable[tuple[int, RationalLike]] = (),
    ):
        _fill(self, *canonical_coordinates(rational, radicals))

    @classmethod
    def _canonical(
        cls, rational: Fraction, radicals: tuple[tuple[int, Fraction], ...]
    ) -> "ExactFrequency":
        """Wrap parts already in canonical form, skipping the squarefree split.

        rational is a Fraction; radicals hold squarefree radicands >= 2 in
        ascending order with nonzero Fraction coefficients.
        """
        obj = object.__new__(cls)
        _fill(obj, rational, radicals)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExactFrequency is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt_of(cls, d: int, coeff: RationalLike = 1) -> "ExactFrequency":
        """coeff * sqrt(d), with automatic squarefree reduction."""
        return cls(0, [(d, coeff)])

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self.rational == 0 and not self.radicals

    def is_rational(self) -> bool:
        return not self.radicals

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactFrequency | RationalLike") -> "ExactFrequency":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactFrequency._canonical(
            self.rational + other.rational, _merge_radicals(self.radicals, other.radicals)
        )

    __radd__ = __add__

    def __neg__(self) -> "ExactFrequency":
        return ExactFrequency._canonical(-self.rational, tuple((d, -c) for d, c in self.radicals))

    def __sub__(self, other: "ExactFrequency | RationalLike") -> "ExactFrequency":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "ExactFrequency":
        return (-self) + other

    def __mul__(self, other: "ExactFrequency | RationalLike") -> "ExactFrequency":
        if isinstance(other, (int, Fraction)):
            # a rational multiple keeps every radicand squarefree: no split
            if other == 0:
                return ZERO
            return ExactFrequency._canonical(
                self.rational * other, tuple((d, c * other) for d, c in self.radicals)
            )
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        rat = self.rational * other.rational
        rads: list[tuple[int, Fraction]] = []
        if other.rational != 0:
            rads.extend((d, c * other.rational) for d, c in self.radicals)
        if self.rational != 0:
            rads.extend((d, c * self.rational) for d, c in other.radicals)
        for d1, c1 in self.radicals:
            for d2, c2 in other.radicals:
                g = math.gcd(d1, d2)
                core = (d1 // g) * (d2 // g)
                if core == 1:
                    rat += c1 * c2 * g
                else:
                    rads.append((core, c1 * c2 * g))
        return ExactFrequency(rat, rads)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExactFrequency":
        q = _as_fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of frequency by zero")
        inv = 1 / q
        return ExactFrequency._canonical(
            self.rational * inv, tuple((d, c * inv) for d, c in self.radicals)
        )

    def __abs__(self) -> "ExactFrequency":
        return -self if self.sign() < 0 else self

    # -- exact comparison --------------------------------------------------

    def approx(self) -> tuple[float, float]:
        """Float value with a cached, generously padded error bound."""
        err = self._approx_err
        if err is None:
            scale = abs(float(self.rational)) + sum(
                abs(float(c)) * math.sqrt(d) for d, c in self.radicals
            )
            err = 1e-12 * (scale + 1.0)
            object.__setattr__(self, "_approx_err", err)
        return float(self), err

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        if self.rational == 0 and not self.radicals:
            return 0
        v, err = self.approx()
        if abs(v) > err:
            return 1 if v > 0 else -1
        scale = abs(float(self.rational)) + sum(
            abs(float(c)) * math.sqrt(d) for d, c in self.radicals
        )
        # precision escalation; a nonzero canonical form has nonzero value,
        # so this terminates for any input of sane bit-size.  mpmath is
        # imported here, where it is used, so that importing apspec does
        # not pay its import (about 13 ms and 4 MB)
        import mpmath

        for dps in (50, 200, 1000):
            with mpmath.workdps(dps):
                acc = mpmath.mpf(self.rational.numerator) / self.rational.denominator
                for d, c in self.radicals:
                    acc += mpmath.sqrt(d) * mpmath.mpf(c.numerator) / c.denominator
                if abs(acc) > mpmath.mpf(10) ** (20 - dps) * (scale + 1):
                    return 1 if acc > 0 else -1
        raise ArithmeticError(f"could not resolve sign of {self!r}")

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.rational == other.rational and self.radicals == other.radicals

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rational, self.radicals))
            object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        va, ea = self.approx()
        vb, eb = other.approx()
        if va + ea < vb - eb:
            return True
        if vb + eb < va - ea:
            return False
        if self == other:
            return False
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        va, ea = self.approx()
        vb, eb = other.approx()
        if va + ea < vb - eb:
            return True
        if vb + eb < va - ea:
            return False
        return self == other or (self - other).sign() < 0

    def __gt__(self, other) -> bool:
        result = self.__le__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __ge__(self, other) -> bool:
        result = self.__lt__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    # -- numeric views -----------------------------------------------------

    def __float__(self) -> float:
        v = self._float
        if v is None:
            v = float(self.rational) + math.fsum(
                float(c) * math.sqrt(d) for d, c in self.radicals
            )
            object.__setattr__(self, "_float", v)
        return v

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        parts = []
        if self.rational != 0 or not self.radicals:
            parts.append(str(self.rational))
        for d, c in self.radicals:
            parts.append(f"{c}*sqrt({d})")
        return "ExactFrequency(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "rat": str(self.rational),
            "rad": [[str(d), str(c)] for d, c in self.radicals],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExactFrequency":
        return cls._canonical(*coordinates_from_json(obj))


def canonical_coordinates(rational: RationalLike, radicals: Iterable[tuple[int, RationalLike]]) -> Coordinates:
    """Canonical (rational, radicals) of r + sum c*sqrt(d): the parts `ExactFrequency` keeps.

    Each radicand is split into outer**2 * core; a core of 1 moves its
    term into the rational part, equal cores are summed, and zero
    coefficients are dropped.  Radicands end squarefree and ascending.
    """
    rat = _as_fraction(rational)
    acc: dict[int, Fraction] = {}
    for d, c in radicals:
        c = _as_fraction(c)
        if c == 0:
            continue
        outer, core = squarefree_split(int(d))
        if outer != 1:
            c *= outer
        if core == 1:
            rat += c
        else:
            acc[core] = acc[core] + c if core in acc else c
    return rat, tuple(sorted((d, c) for d, c in acc.items() if c != 0))


def coordinates_from_json(obj: dict) -> Coordinates:
    """Canonical coordinates of a frequency's JSON object {"rat", "rad"}, without building it.

    Each coordinate is parsed by `fraction_from_text`.  A malformed
    object, a zero denominator or a non-finite number among them (json
    reads Infinity, NaN and 1e400), raises ValueError, and a radicand
    above MAX_RADICAND MalformedInput.
    """
    try:
        rat = fraction_from_text(obj["rat"])
        rads = [(int(d), fraction_from_text(c)) for d, c in obj.get("rad", [])]
    except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed frequency object: {obj!r}") from exc
    for d, _ in rads:
        if d > MAX_RADICAND:
            raise MalformedInput(f"radicand {d} exceeds {MAX_RADICAND}")
    return canonical_coordinates(rat, rads) if rads else (rat, ())


def fraction_from_text(text) -> Fraction:
    """Fraction(text), with the writer's own spellings read without Fraction's regex.

    Those are ASCII "k" and "n/d": digits, the numerator with an optional
    leading "-".  Any other text, or a non-string, goes to Fraction(text),
    so the value, or the exception, is always Fraction's.
    """
    if type(text) is str and text.isascii():
        num, slash, den = text.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    return Fraction(text)


def lattice_json(shift: ExactFrequency, base: ExactFrequency, keys: Iterable[int]) -> list[dict]:
    """`to_json` of shift + base*k for each key k, in integer arithmetic: no frequency is built.

    The coordinate of shift + base*k at 1 or at sqrt(d) is
    (a*B + k*b*A)/(A*B), for a/A that of the shift and b/B that of the
    base.  A radical whose coordinate is 0 is left out, as the canonical
    form leaves it out.
    """
    sd, bd = dict(shift.radicals), dict(base.radicals)
    rads = sorted(sd.keys() | bd.keys())
    pairs = [(shift.rational, base.rational)] + [(sd.get(d, Fraction(0)), bd.get(d, Fraction(0))) for d in rads]
    # (a*B, b*A, A*B) at 1, then at each radicand
    (na, nb, den), *at_rads = [
        (a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator) for a, b in pairs
    ]
    names = [str(d) for d in rads]
    out = []
    for k in keys:
        rad = [[name, _ratio_text(n, dd)] for name, (da, db, dd) in zip(names, at_rads) if (n := da + k * db)]
        out.append({"rat": _ratio_text(na + k * nb, den), "rad": rad})
    return out


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _fill(obj: ExactFrequency, rational: Fraction, radicals: tuple[tuple[int, Fraction], ...]) -> None:
    object.__setattr__(obj, "rational", rational)
    object.__setattr__(obj, "radicals", radicals)
    object.__setattr__(obj, "_float", None)
    object.__setattr__(obj, "_hash", None)
    object.__setattr__(obj, "_approx_err", None)


def _merge_radicals(
    a: tuple[tuple[int, Fraction], ...], b: tuple[tuple[int, Fraction], ...]
) -> tuple[tuple[int, Fraction], ...]:
    """Sum of two canonical radical tuples, canonical again: no radicand is split."""
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for d, c in b:
        acc[d] = acc.get(d, 0) + c
    return tuple(sorted((d, c) for d, c in acc.items() if c != 0))


def _coerce(x) -> "ExactFrequency":
    if isinstance(x, ExactFrequency):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactFrequency(x)
    return NotImplemented


ZERO = ExactFrequency(0)
ONE = ExactFrequency(1)


def rational_ratio(a: ExactFrequency, b: ExactFrequency) -> Fraction | None:
    """q with a == q*b if the two frequencies are commensurable, else None.

    b must be nonzero.
    """
    if b.is_zero():
        raise ZeroDivisionError("ratio against the zero frequency")
    if a.is_zero():
        return Fraction(0)
    if b.rational != 0:
        q = a.rational / b.rational
    else:
        d0, c0 = b.radicals[0]
        ca = dict(a.radicals).get(d0)
        if ca is None:
            return None
        q = ca / c0
    if a.rational != q * b.rational:
        return None
    bd = dict(b.radicals)
    ad = dict(a.radicals)
    if set(ad) != set(bd):
        return None
    for d, c in bd.items():
        if ad[d] != q * c:
            return None
    return q


def qlin_independent(freqs: Sequence[ExactFrequency]) -> bool:
    """True when the given frequencies are linearly independent over Q.

    Runs exact Gaussian elimination on the coordinate matrix with respect
    to the basis {1} + {sqrt(d) : d appearing}.  No rounding is involved.
    """
    freqs = list(freqs)
    if not freqs:
        return True
    basis = sorted({d for f in freqs for d, _ in f.radicals})
    cols = 1 + len(basis)
    col_of = {d: i + 1 for i, d in enumerate(basis)}
    rows: list[list[Fraction]] = []
    for f in freqs:
        row = [Fraction(0)] * cols
        row[0] = f.rational
        for d, c in f.radicals:
            row[col_of[d]] = c
        rows.append(row)
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            if factor != 0:
                rr = rows[r]
                for cidx in range(col, cols):
                    rr[cidx] -= factor * prow[cidx]
        rank += 1
        if rank == len(rows):
            break
    return rank == len(freqs)
