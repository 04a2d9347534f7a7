"""float64 arrays as `float.__repr__` text, in numpy lanes.

`repr_join(values, sep)` is sep.join(map(float.__repr__, values)) and
`repr_rows(columns, seps)` writes a table row by row, each value followed
by its column's separator, as csv.writer writes repr strings.  Both take
finite float64 values only; the callers keep json's and csv's own paths
for anything else.

Digits.  CPython's repr prints the shortest decimal that reads back to the
same double, and of those the closest, ties to an even last digit (dtoa
mode 0).  Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020) computes that same decimal from two 64-bit halves of a 126-bit power
of ten, g = g1 2^63 + g0, one pair per decimal exponent k.  Here it runs in
uint64 lanes, with the 128-bit products of its `rop` formed from 32-bit
limbs.  Java's reference version prints at least two digits, which Python
does not, so its `s >= 100` guard and its path for the three smallest
subnormals are left out: with them, 5e-323 would print as 4.9e-323.

Layout.  A value's text is fixed by its class, (sign, digit count, decimal
point position), up to the digits themselves: repr writes a decimal point
position in -3..16 in positional form and any other in exponent form.  The
rows are sorted by class; each class's rows are written from one template,
a few runs of digits and of constant bytes copied as column blocks, and
the zero-padded rows, put back in input order, are joined by dropping the
padding.

Integer wrap-around is part of the arithmetic (the low half of a 128-bit
product), so it is done on arrays, where numpy wraps without a warning.
The tables are module constants built once at import (the g table from
Python integers), never cached per call.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

# decimal exponents k of Schubfach's g table
_K_MIN, _K_MAX = -324, 292
# values per digit pass (its uint64 temporaries stay in cache) and per layout pass
_BLOCK = 8192
_CHUNK = 1 << 16

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_LOW52 = _U((1 << 52) - 1)
_ONE_BITS = np.float64(1.0).view(np.uint64)
_DIGITS = 17
# a template byte at or above this marks a digit: byte - _SLOT is its index
_SLOT = 128


def _g_table() -> tuple[np.ndarray, ...]:
    """Per k: the 32-bit limbs of g1 and g0, and r + 127, where 10^-k = beta 2^r, 2^125 <= beta < 2^126, g = floor(beta) + 1."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10**k
            r = -p.bit_length() - 125
            g = (1 << -r) // p + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32, r + 127))
    cols = list(zip(*rows))
    return (*(np.array(c, dtype=np.uint64) for c in cols[:5]), np.array(cols[5], dtype=np.int64))


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32, and the last-digit table.

    Row j of the second gives, for a quad 0..9999 that is the (j+1)-th after
    the lead digit, the position of its last nonzero digit, counting the
    lead digit as 1; 0 for 0000.
    """
    quad = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10], axis=1).astype(np.uint8)
    zeros = (quad % 10 == 0).astype(np.uint8) + (quad % 100 == 0) + (quad % 1000 == 0)
    last = np.arange(5, 21, 4, dtype=np.uint8)[:, None] - zeros
    return (digits + ord("0")).view(np.uint32).ravel(), np.where(quad > 0, last, 0)


_G1, _G1_LO, _G1_HI, _G0_LO, _G0_HI, _H_OFFSET = _g_table()
_FOUR_DIGITS, _LAST_DIGIT = _quad_tables()
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=np.uint64)


def _mul_high(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """floor(a b / 2^64) of a < 2^63 and b < 2^60 given by their 32-bit limbs.

    The middle sum stays below 2^63 + 2^60 + 2^32, so it needs no carry.
    """
    return a_hi * b_hi + ((a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _U(32))) >> _U(32))


def _rop(g: tuple, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g cp / 2^127 rounded to odd."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _LOW32, cp >> _U(32)
    x1 = _mul_high(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _mul_high(g1_lo, g1_hi, cp_lo, cp_hi)
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the decimal repr prints, for the bits of finite positive doubles; f < 10^17."""
    t = bits & _LOW52
    bq = bits >> _U(52)
    normal = (bq != 0).astype(np.uint64)
    c = t | (normal << _U(52))
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # at a power of two (past the first binade) the gap below v is half the gap above
    irregular = ((t == 0) & (bq > 1)).astype(np.uint64)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at a power of two
    k = (q * 661_971_961_083 - irregular.astype(np.int64) * 274_743_187_321) >> 41
    row = k - _K_MIN
    g = (_G1[row], _G1_LO[row], _G1_HI[row], _G0_LO[row], _G0_HI[row])
    h = (q + _H_OFFSET[row]).astype(np.uint64)
    out = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h)
    vbr = _rop(g, (cb + _U(2)) << h)
    s = vb >> _U(2)
    # one digit shorter: u' = 10 floor(s / 10) and w' = u' + 10, if exactly one lies in the interval
    sp10 = (s // _U(10)) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    # otherwise s or t = s + 1: the one in the interval, or the closer, ties to even
    t1 = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t1 << _U(2)) + out <= vbr
    twice = (s + t1) << _U(1)
    closer = (vb < twice) | ((vb == twice) & ((s & _U(1)) == 0))
    f = t1 - np.where(uin != win, uin, closer)
    return np.where(upin != wpin, tp10 - _U(10) * upin, f), k


def _digits(values: np.ndarray, quads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write each value's 17 repr digits, zero-padded, into the rows of the (n, 5) uint32 `quads`.

    A row holds "000" and then the digits, left-aligned.  Returns the
    significant digit counts and the decimal point positions p, with
    |v| = 0.d1 d2 ... 10^p; zero has the digit 0 and p = 1.
    """
    bits = values.view(np.uint64) & _LOW63
    zero = bits == 0
    f, k = _shortest(np.where(zero, _ONE_BITS, bits))
    # f has 16 or 17 digits for a normal double, fewer only for a subnormal one
    n = 16 + (f >= _POW10[16])
    short = np.flatnonzero(f < _POW10[15])
    if len(short):
        n[short] = np.searchsorted(_POW10, f[short], side="right")
    f = f * _POW10[_DIGITS - n]
    f[zero] = 0
    # f = lead 10^16 + mid 10^8 + low: 1, 8 and 8 digits, in four-digit quads
    hi = (f // _U(10**8)).astype(np.uint32)
    low = (f - hi * _U(10**8)).astype(np.uint32)
    lead = hi // np.uint32(10**8)
    mid = hi - lead * np.uint32(10**8)
    mid_hi, low_hi = mid // np.uint32(10**4), low // np.uint32(10**4)
    parts = (lead, mid_hi, mid - mid_hi * np.uint32(10**4), low_hi, low - low_hi * np.uint32(10**4))
    # the significant digits end at the last nonzero digit; the lead digit is nonzero but for 0.0
    count = np.ones(len(values), dtype=np.uint8)
    for j, part in enumerate(parts):
        part = part.astype(np.intp)
        quads[:, j] = _FOUR_DIGITS.take(part)
        if j:
            np.maximum(count, _LAST_DIGIT[j - 1].take(part), out=count)
    return count, k + n


def _template(negative: bool, count: int, point: int) -> str:
    """repr's text for a class, with chr(_SLOT + j) in place of the j-th digit."""
    d = "".join(chr(_SLOT + j) for j in range(count))
    if -4 < point <= 16:
        if point <= 0:
            body = "0." + "0" * -point + d
        elif point < count:
            body = d[:point] + "." + d[point:]
        else:
            body = d + "0" * (point - count) + ".0"
    else:
        exp = point - 1
        body = d[0] + ("." + d[1:] if count > 1 else "") + ("e-%02d" % -exp if exp < 0 else "e+%02d" % exp)
    return "-" + body if negative else body


def _write_column(values: np.ndarray, sep: bytes, out: np.ndarray) -> None:
    """Write repr(v) + sep for each value, zero-padded, into the rows of the uint8 matrix `out`."""
    n = len(values)
    quads = np.empty((n, 5), dtype=np.uint32)
    count = np.empty(n, dtype=np.uint8)
    point = np.empty(n, dtype=np.int64)
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        count[a:b], point[a:b] = _digits(values[a:b], quads[a:b])
    # the class of a value: sign, point + 400 (10 bits) and count (5 bits)
    key = np.signbit(values).astype(np.uint16) << 15
    key |= (point + 400).astype(np.uint16) << 5
    key |= count
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1]))).tolist()
    # digit j of a row sits at byte 3 + j
    digits = quads.take(order, axis=0).view(np.uint8)
    rows = np.zeros((n, out.shape[1]), dtype=np.uint8)
    for a, b in zip(starts, starts[1:] + [n]):
        cls = int(key[a])
        text = _template(cls >> 15 == 1, cls & 31, ((cls >> 5) & 1023) - 400).encode("latin-1") + sep
        col = 0
        for is_digit, run in itertools.groupby(text, key=lambda byte: byte >= _SLOT):
            run = bytes(run)
            end = col + len(run)
            if is_digit:
                first = 3 + run[0] - _SLOT
                rows[a:b, col:end] = digits[a:b, first : first + len(run)]
            else:
                rows[a:b, col:end] = np.frombuffer(run, dtype=np.uint8)
            col = end
    # back to input order, each row moved as one item: several times faster than rows of bytes
    row = np.dtype((np.void, out.shape[1]))
    out.view(row)[order, 0] = rows.view(row)[:, 0]


def repr_rows(columns: Sequence[np.ndarray], seps: Sequence[str]) -> str:
    """The rows of a table of finite float64 columns: repr(value) + seps[j] for each column j in turn.

    Equals "".join(repr(float(c[i])) + sep for i in range(n) for c, sep in
    zip(columns, seps)), so a CSV row ends in its line terminator.
    """
    n = len(columns[0]) if columns else 0
    seps = [sep.encode("ascii") for sep in seps]
    width = 24 + max(map(len, seps), default=0)  # "-2.2250738585072014e-308" has 24 characters
    chunks = []
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        buf = np.zeros((b - a, len(columns), width), dtype=np.uint8)
        for j, (column, sep) in enumerate(zip(columns, seps)):
            _write_column(np.asarray(column[a:b], dtype=np.float64), sep, buf[:, j])
        chunks.append(buf[buf != 0].tobytes())
    return b"".join(chunks).decode("ascii")


def repr_join(values: np.ndarray, sep: str) -> str:
    """sep.join(map(float.__repr__, values)) for a 1-D array of finite float64 values."""
    text = repr_rows([values], [sep])
    return text[: len(text) - len(sep)]
