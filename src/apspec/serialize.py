"""Lossless JSON/CSV round-trips for polynomials, samples, and reports.

Exact rationals travel as decimal strings so frequency independence
survives save/load; floats rely on repr round-tripping.  Emission order is
the canonical term order, so identical inputs give byte-identical files.

A sampled factor's re and im stay float64 arrays in its payload, and
`dumps` writes a finite one with `floatrepr.repr_join`, as `sampled_csv_text`
writes its rows with `floatrepr.repr_rows`: a numpy kernel whose text is
float.__repr__'s, value for value.  Its digits come from Schubfach, whose
shortest-then-closest decimal (ties to an even digit) is the decimal
CPython's repr prints (dtoa mode 0); Python has no two-digit minimum, so
Java's guard for one is left out.  A value with NaN or inf goes through
json's own path and error.

A trig polynomial's term list is read into a ray form and written from
one: the reader parses each freq into canonical coordinates and
`TrigPoly.from_coordinates` groups them by ray, and the writer forms each
freq's strings from its ray's base and key (`TrigPoly.sorted_terms_json`).
ExactFrequency objects are built per ray, not per term.

A construction bundle (format 3) stores its factor s once, by ray: ray j
is {"keys", "re", "im"} on the lattice rho_j * Z, rho_j given by position,
so of its frequencies only rho and delta travel as exact strings.  Its
reader returns the stored params (through `ConstructionParams`, so the
primes are bounded before verify derives rho from them), n_seq, rho,
q_norms, wiener_norms, delta, c and the rays of s; verify rebuilds the
instance from params and n_seq and compares the rest against it.  Formats
1 and 2, which older versions wrote, are refused: `construct` rebuilds
such a bundle in format 3.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from apspec.checks import CheckResult, FactorizationReport
from apspec.construction import ConstructionParams, block_sizes
from apspec.errors import MalformedInput
from apspec.floatrepr import repr_join, repr_rows
from apspec.frequency import ExactFrequency, coordinates_from_json
from apspec.sampling import SampledFunction
from apspec.trigpoly import TrigPoly

EF = ExactFrequency

MAX_ROWS = 1 << 20


def trigpoly_to_json(f: TrigPoly, allow_large: bool = False) -> dict:
    if f.term_count() > MAX_ROWS and not allow_large:
        raise MalformedInput(
            f"refusing to serialize {f.term_count()} terms without allow_large"
        )
    return {"terms": [{"freq": w, "re": c.real, "im": c.imag} for w, c in f.sorted_terms_json()]}


def trigpoly_from_json(obj: Any) -> TrigPoly:
    """The polynomial of a {"terms": [{"freq", "re", "im"}, ...]} payload, given by its rays.

    Each freq is read into canonical coordinates (`coordinates_from_json`),
    which `TrigPoly.from_coordinates` groups by ray, so no frequency is
    built per term.  Coefficients must be finite, and so must their
    Wiener norm (the sum of their magnitudes), which the certificates of
    every route read.
    """
    try:
        terms = [
            (coordinates_from_json(t["freq"]), complex(float(t["re"]), float(t["im"])))
            for t in obj["terms"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedInput(f"bad trig polynomial payload: {exc}") from exc
    if not all(cmath.isfinite(c) for _, c in terms):
        # json reads NaN, Infinity and overflowing literals such as 1e400
        raise MalformedInput("bad trig polynomial payload: coefficients must be finite")
    f = TrigPoly.from_coordinates(terms)
    try:
        finite = math.isfinite(f.wiener_norm())
    except OverflowError:  # fsum's partial sums passed the largest float
        finite = False
    if not finite:
        raise MalformedInput("bad trig polynomial payload: the sum of |coefficients| exceeds the largest float")
    return f


def sampled_to_json(s: SampledFunction) -> dict:
    """The samples' payload; re and im stay float64 arrays, which `dumps` writes as lists."""
    return {"halfwidth": s.halfwidth, "step": s.step, "re": s.values.real, "im": s.values.imag}


def sampled_from_json(obj: Any) -> SampledFunction:
    try:
        re, im = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
        halfwidth, step = float(obj["halfwidth"]), float(obj["step"])
        finite = math.isfinite(halfwidth) and math.isfinite(step)
        if finite and np.isfinite(re).all() and np.isfinite(im).all():
            return SampledFunction(halfwidth, step, re + 1j * im)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad sample payload: {exc}") from exc
    raise MalformedInput("bad sample payload: samples, halfwidth and step must be finite")


def sampled_csv_text(s: SampledFunction, allow_large: bool = False) -> str:
    """x, re and im of each sample as repr strings, in csv.writer's text ("\r\n" line ends)."""
    n = len(s.values)
    if n > MAX_ROWS and not allow_large:
        raise MalformedInput(f"refusing to emit {n} CSV rows without allow_large")
    columns = (s.xs(), s.values.real, s.values.imag)
    if all(np.isfinite(c).all() for c in columns):
        return "x,re,im\r\n" + repr_rows(columns, (",", ",", "\r\n"))
    buf = io.StringIO()  # nan and inf, which the kernel does not write
    writer = csv.writer(buf)
    writer.writerow(["x", "re", "im"])
    writer.writerows(zip(*(map(float.__repr__, c.tolist()) for c in columns)))
    return buf.getvalue()


def growth_table_text(rows: list[tuple[int, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "wiener_norm"])
    for n, v in rows:
        writer.writerow([n, repr(float(v))])
    return buf.getvalue()


def _factor_to_json(factor: "TrigPoly | SampledFunction", allow_large: bool) -> dict:
    if isinstance(factor, TrigPoly):
        return {"kind": "trigpoly", **trigpoly_to_json(factor, allow_large)}
    if isinstance(factor, SampledFunction):
        return {"kind": "sampled", **sampled_to_json(factor)}
    raise MalformedInput(f"cannot serialize factor of type {type(factor).__name__}")


def _factor_from_json(obj: Any) -> "TrigPoly | SampledFunction":
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "trigpoly":
        return trigpoly_from_json(obj)
    if kind == "sampled":
        return sampled_from_json(obj)
    raise MalformedInput(f"unknown factor kind {kind!r}")


def _checks_to_json(checks: list[CheckResult]) -> list[dict]:
    return [{"name": c.name, "passed": c.passed, "value": c.value, "detail": c.detail} for c in checks]


def report_to_json(report: FactorizationReport, allow_large: bool = False) -> dict:
    return {
        "method": report.method,
        "residual_sup": report.residual_sup,
        "bandwidth_ratio": report.bandwidth_ratio,
        "factor": _factor_to_json(report.factor, allow_large),
        "checks": _checks_to_json(report.checks),
    }


def report_from_json(obj: Any) -> FactorizationReport:
    try:
        checks = [
            CheckResult(c["name"], bool(c["passed"]), float(c["value"]), c.get("detail", ""))
            for c in obj["checks"]
        ]
        return FactorizationReport(
            method=obj["method"],
            factor=_factor_from_json(obj["factor"]),
            residual_sup=float(obj["residual_sup"]),
            bandwidth_ratio=float(obj["bandwidth_ratio"]),
            checks=checks,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad report payload: {exc}") from exc


def factor_bundle_to_json(
    kind: str,
    input_obj: Any,
    report: FactorizationReport,
    m: float | None = None,
    allow_large: bool = False,
) -> dict:
    out = {"kind": kind, "input": input_obj, "report": report_to_json(report, allow_large)}
    if m is not None:
        out["m"] = m
    return out


def construction_to_json(res, allow_large: bool = False) -> dict:
    """ConstructionResult payload, format 3: s once, by ray; g, h and f implicit.

    Ray j of s holds its keys k and the coefficients at rho_j * k; rho_j is
    the j-th entry of "rho".  verify rebuilds the instance from params and
    n_seq, checks the stored numbers and s = g + c chi_{-delta} against it,
    and reads h = chi_delta s and f = |s|^2 from the same rays.  f written
    out would dominate the file by orders of magnitude, so only a marker
    with its upper term count is stored (the hint string is part of the
    bundle bytes, so it stays fixed).
    """
    terms = sum(len(r.keys) for r in res.rays)
    if terms > MAX_ROWS and not allow_large:
        raise MalformedInput(f"refusing to serialize {terms} terms without allow_large")
    f_obj = {"omitted": True, "pairs": res.f.term_count_upper(), "hint": "modulus_squared(h)"}
    return {
        "kind": "construction",
        "format": 3,
        "params": {
            "m": res.params.m,
            "blocks": res.params.blocks,
            "oracle_n": res.params.oracle_n,
            "primes": list(res.params.primes),
        },
        "n_seq": list(res.n_seq),
        "rho": [r.to_json() for r in res.rho],
        "q_norms": list(res.q_norms),
        "wiener_norms": list(res.wiener_norms),
        "delta": res.delta.to_json(),
        "c": res.c,
        "f": f_obj,
        "checks": _checks_to_json(res.certificates.checks),
        "s": [
            {"keys": r.keys.tolist(), "re": r.coeffs.real.tolist(), "im": r.coeffs.imag.tolist()}
            for r in res.rays
        ],
    }


def _strict_int(value: Any) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _ray_from_json(obj: Any) -> tuple[np.ndarray, np.ndarray]:
    keys = np.array([_strict_int(k) for k in obj["keys"]], dtype=np.int64)
    re, im = np.asarray(obj["re"], dtype=float), np.asarray(obj["im"], dtype=float)
    if not keys.shape == re.shape == im.shape:
        raise ValueError("keys, re and im of a ray must have equal lengths")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("ray coefficients must be finite")
    if np.any(keys == 0) or np.any(np.diff(keys) <= 0):
        raise ValueError("ray keys must increase strictly and skip 0")
    coeffs = np.empty(len(keys), dtype=complex)
    coeffs.real, coeffs.imag = re, im
    return keys, coeffs


def construction_from_json(obj: dict) -> tuple:
    """(params, n_seq, rho, q_norms, wiener_norms, delta, c, rays of s) of a format-3 bundle.

    n_seq must increase strictly from 2 or more, give params.blocks blocks,
    and end at or below params.oracle_n, where `select_n_sequence` stops.
    Ray j must hold the 2(n - 1) keys n_seq gives block j, which bounds the
    rebuild by the size of the bundle.  A bundle of format 1 (no "format"
    key) or 2 is refused with a pointer to `construct`.
    """
    fmt = obj.get("format", 1)
    if type(fmt) is int and fmt in (1, 2):
        raise MalformedInput(
            f"construction format {fmt} is no longer read; rebuild the bundle with `apspec construct`"
        )
    if type(fmt) is not int or fmt != 3:
        raise MalformedInput(f"unknown construction format {fmt!r}")
    try:
        p = obj["params"]
        params = ConstructionParams(
            m=float(p["m"]),
            blocks=_strict_int(p["blocks"]),
            oracle_n=_strict_int(p["oracle_n"]),
            primes=tuple(_strict_int(q) for q in p["primes"]),
        )
        n_seq = tuple(_strict_int(n) for n in obj["n_seq"])
        rho = tuple(EF.from_json(r) for r in obj["rho"])
        q_norms = tuple(float(x) for x in obj["q_norms"])
        wiener_norms = tuple(float(x) for x in obj["wiener_norms"])
        delta = EF.from_json(obj["delta"])
        c = float(obj["c"])
        rays = [_ray_from_json(r) for r in obj["s"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"bad construction payload: {exc}") from exc
    if not all(map(math.isfinite, (c, *q_norms, *wiener_norms))):
        raise MalformedInput("bad construction payload: c, q_norms and wiener_norms must be finite")
    if len(n_seq) < 2 or n_seq[0] < 2 or any(b <= a for a, b in zip(n_seq, n_seq[1:])):
        raise MalformedInput("bad construction payload: n_seq must increase strictly from 2 or more")
    if params.blocks != len(n_seq) - 1:
        raise MalformedInput(
            f"bad construction payload: params.blocks is {params.blocks}, n_seq makes {len(n_seq) - 1} blocks"
        )
    if n_seq[-1] > params.oracle_n:
        raise MalformedInput(
            f"bad construction payload: n_seq ends at {n_seq[-1]}, past oracle_n {params.oracle_n}"
        )
    sizes = block_sizes(n_seq)
    if len(rho) != len(sizes) or [len(keys) for keys, _ in rays] != sizes:
        raise MalformedInput(
            f"bad construction payload: n_seq needs {len(sizes)} rho and rays of s of {sizes} keys"
        )
    return params, n_seq, rho, q_norms, wiener_norms, delta, c, rays


def dumps(obj: Any) -> str:
    """Canonical text form: two-space indent, trailing newline, no NaN.

    The text is byte-identical to json.dumps(obj, indent=2, allow_nan=False)
    plus a newline, with each numpy array in obj replaced by its tolist(),
    and so are the errors: a nested NaN or inf raises json's ValueError, an
    unsupported type json's TypeError, and a non-finite top level value
    MalformedInput.  Dict keys must be strings, as they are in
    every payload here.  Readers refuse non-finite numbers in turn
    (trigpoly_from_json, sampled_from_json, the construction readers).
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        raise MalformedInput("non-finite top-level value")
    chunks: list[str] = []
    _write(obj, chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _float_text(o: float) -> str:
    text = float.__repr__(o)
    if "n" in text:  # inf or nan: no finite repr has an n
        raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
    return text


def _write(obj: Any, emit) -> None:
    """json's indent=2 encoder, emitting chunks instead of yielding them.

    Before Python 3.13, json.dumps indents through its pure-Python encoder.
    This one writes a list of floats or of plain ints with one join, a
    finite 1-D float64 array with the `floatrepr` kernel and any other array
    as its tolist(), and a trig-polynomial term list row by row
    (`_term_rows`); it shares its separators (one set per depth) and its
    '"key": ' strings (one per key).
    """
    levels: list[tuple[str, str, str, str, str]] = []
    keys: dict[str, str] = {}

    def level(depth: int) -> tuple[str, str, str, str, str]:
        """Openers, item separator and closers of a container at `depth`."""
        while len(levels) <= depth:
            brk = "\n" + "  " * len(levels)
            end = brk[:-2]
            levels.append(("[" + brk, "{" + brk, "," + brk, end + "]", end + "}"))
        return levels[depth]

    def value(o: Any, depth: int) -> None:
        if isinstance(o, str):
            emit(encode_basestring_ascii(o))
        elif o is None:
            emit("null")
        elif o is True:
            emit("true")
        elif o is False:
            emit("false")
        elif isinstance(o, int):
            emit(int.__repr__(o))
        elif isinstance(o, float):
            emit(_float_text(o))
        elif isinstance(o, (list, tuple)):
            array(o, depth + 1)
        elif isinstance(o, dict):
            mapping(o, depth + 1)
        elif isinstance(o, np.ndarray):
            if type(o) is np.ndarray and o.ndim == 1 and o.dtype == np.float64 and len(o) and np.isfinite(o).all():
                opener, _, sep, closer, _ = level(depth + 1)
                emit(opener)
                emit(repr_join(o, sep))
                emit(closer)
            else:  # json's text, and json's error at a NaN or inf
                value(o.tolist(), depth)
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def array(o, depth: int) -> None:
        if not o:
            emit("[]")
            return
        opener, _, sep, closer, _ = levels[depth] if depth < len(levels) else level(depth)
        body = None
        if isinstance(o[0], float):
            try:
                body = sep.join(map(float.__repr__, o))
            except TypeError:  # a non-float further on
                pass
        elif type(o[0]) is int:
            if all(type(x) is int for x in o):  # a bool or int subclass goes item by item
                body = sep.join(map(int.__repr__, o))
        elif type(o[0]) is dict:
            body = _term_rows(o, depth, sep)
        emit(opener)
        if body is None or "n" in body:  # item by item: json's error at a bad one
            for i, item in enumerate(o):
                if i:
                    emit(sep)
                value(item, depth)
        else:
            emit(body)
        emit(closer)

    def mapping(o: dict, depth: int) -> None:
        if not o:
            emit("{}")
            return
        _, lead, sep, _, closer = levels[depth] if depth < len(levels) else level(depth)
        for key, item in o.items():
            head = keys.get(key)
            if head is None:
                head = keys[key] = encode_basestring_ascii(key) + ": "
            emit(lead)
            emit(head)
            lead = sep
            if isinstance(item, str):
                emit(encode_basestring_ascii(item))
            elif type(item) is float:
                emit(_float_text(item))
            else:
                value(item, depth)
        emit(closer)

    value(obj, 0)


def _term_rows(items: list, depth: int, sep: str) -> str | None:
    """The items of a list at `depth` as json's indent=2 text, if each is a trig-polynomial term.

    A term is {"freq": {"rat": str, "rad": [[str, str], ...]}, "re": float,
    "im": float}, keys in that order and both floats finite.  Each row is
    formed from one template, which writes what json would.  None if any
    item differs: the item-by-item encoder then writes the list, and raises
    json's error where json raises it.
    """
    n0, n1, n2, n3, n4 = ("\n" + "  " * (depth + i) for i in range(5))
    head, rad_head = "{" + n1 + '"freq": {' + n2 + '"rat": ', "," + n2 + '"rad": '
    re_head, im_head, tail = n1 + "}," + n1 + '"re": ', "," + n1 + '"im": ', n0 + "}"
    enc = encode_basestring_ascii
    rows = []
    for t in items:
        if type(t) is not dict or len(t) != 3:
            return None
        (k_freq, freq), (k_re, re), (k_im, im) = t.items()
        if (k_freq, k_re, k_im) != ("freq", "re", "im") or type(freq) is not dict or len(freq) != 2:
            return None
        if type(re) is not float or type(im) is not float or not (math.isfinite(re) and math.isfinite(im)):
            return None
        (k_rat, rat), (k_rad, rad) = freq.items()
        if k_rat != "rat" or k_rad != "rad" or type(rat) is not str or type(rad) is not list:
            return None
        pairs = []
        for pair in rad:
            if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
                return None
            pairs.append(f"[{n4}{enc(pair[0])},{n4}{enc(pair[1])}{n3}]")
        rad_text = f"[{n3}{(',' + n3).join(pairs)}{n2}]" if pairs else "[]"
        rows.append(f"{head}{enc(rat)}{rad_head}{rad_text}{re_head}{re!r}{im_head}{im!r}{tail}")
    return sep.join(rows)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def load_path(path: str) -> Any:
    try:
        with open(path) as fh:
            return loads(fh.read())
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
