"""Lossless JSON/CSV round-trips for polynomials, samples, and reports.

Exact rationals travel as decimal strings so frequency independence
survives save/load; floats rely on repr round-tripping.  Emission order is
the canonical term order, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

from apspec.checks import CheckResult, FactorizationReport
from apspec.errors import MalformedInput
from apspec.frequency import ExactFrequency
from apspec.sampling import SampledFunction
from apspec.trigpoly import TrigPoly

EF = ExactFrequency

MAX_ROWS = 1 << 20


def trigpoly_to_json(f: TrigPoly, allow_large: bool = False) -> dict:
    if f.term_count() > MAX_ROWS and not allow_large:
        raise MalformedInput(
            f"refusing to serialize {f.term_count()} terms without allow_large"
        )
    return {
        "terms": [
            {"freq": w.to_json(), "re": c.real, "im": c.imag}
            for w, c in f.sorted_terms()
        ]
    }


def trigpoly_from_json(obj: Any) -> TrigPoly:
    try:
        terms = [
            (EF.from_json(t["freq"]), complex(float(t["re"]), float(t["im"])))
            for t in obj["terms"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedInput(f"bad trig polynomial payload: {exc}") from exc
    return TrigPoly(terms)


def sampled_to_json(s: SampledFunction) -> dict:
    return {
        "halfwidth": s.halfwidth,
        "step": s.step,
        "re": [float(v) for v in s.values.real],
        "im": [float(v) for v in s.values.imag],
    }


def sampled_from_json(obj: Any) -> SampledFunction:
    try:
        vals = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return SampledFunction(float(obj["halfwidth"]), float(obj["step"]), vals)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad sample payload: {exc}") from exc


def sampled_csv_text(s: SampledFunction, allow_large: bool = False) -> str:
    n = len(s.values)
    if n > MAX_ROWS and not allow_large:
        raise MalformedInput(f"refusing to emit {n} CSV rows without allow_large")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "re", "im"])
    for x, v in zip(s.xs(), s.values):
        writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
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


def report_to_json(report: FactorizationReport, allow_large: bool = False) -> dict:
    return {
        "method": report.method,
        "residual_sup": report.residual_sup,
        "bandwidth_ratio": report.bandwidth_ratio,
        "factor": _factor_to_json(report.factor, allow_large),
        "checks": [
            {"name": c.name, "passed": c.passed, "value": c.value, "detail": c.detail}
            for c in report.checks
        ],
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
    """ConstructionResult payload; f stays implicit (|h|^2 = |s|^2).

    f is the lazy ProductPoly of s, and written out it would dominate the
    file by orders of magnitude, so only a marker with its upper term count
    is stored (the hint string is part of the bundle bytes, so it stays
    fixed).  Everything needed to rebuild and re-verify f exactly (h, s,
    delta, rho) is present; verify never reads f.
    """
    f_obj = {"omitted": True, "pairs": res.f.term_count_upper(), "hint": "modulus_squared(h)"}
    return {
        "kind": "construction",
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
        "g": trigpoly_to_json(res.g, allow_large),
        "h1": trigpoly_to_json(res.h1, allow_large),
        "h": trigpoly_to_json(res.h, allow_large),
        "s": trigpoly_to_json(res.s, allow_large),
        "f": f_obj,
        "certificates": report_to_json(res.certificates, allow_large),
    }


def dumps(obj: Any) -> str:
    """Canonical text form: two-space indent, trailing newline, no NaN."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise MalformedInput("non-finite top-level value")
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


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
