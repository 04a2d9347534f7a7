"""Seeded inputs, op schedules and correctness gates for the three workloads.

An op is one input's full request sequence through `apspec.cli.run`.  A
workload's schedule is a fixed list of strata (degrees, op kinds, instance
sizes) in a fixed order; the seed only varies the content inside them:
roots, amplitudes, bases, zero positions, m and primes.  Every seed
therefore measures the same mix, and allocates memory in the same sequence,
which keeps the resident-set peak steady.

The program sees only the files and flags built here.  Reference data (the
minimum-phase s0, the cosine terms of f, the zero sets) stays in the Op and
the gates check against it with their own arithmetic, never with apspec's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# q*sqrt(p) bases in (0.69, 0.95) for the radical third of the roots
# workload; grid sizes scale with the base, so they are dealt round-robin,
# not drawn, and the schedule costs the same whatever the seed
RADICAL_BASES = ((3, Fraction(2, 5)), (2, Fraction(2, 3)), (5, Fraction(1, 3)), (7, Fraction(1, 3)))

# Q-independent rays sqrt(p)/q in (0.7, 0.91) for the cepstral inputs; the
# ray with base 1 always carries harmonic 4, so every f has tau = 4 exactly
# and the CLI's default grid (step pi/64 over [-256 pi, 256 pi]) is the same
# size for every input
CEPSTRAL_RAYS = ((2, 2), (3, 2), (5, 3), (7, 3), (11, 4), (13, 4))

# construct (blocks, oracle_n) classes, cheapest to dearest, and their m
# before the seeded jitter; see NOTES.md for the regimes kept out of the mix.
# Five of the seven ops are the 1.0-1.3 s (1, 32) and (1, 64) classes at m
# spread over [0.5, 2]: three passes give 21 latency samples, whose median
# falls inside that cluster of 15 samples, taken from every pass, rather
# than in the gap between two classes or on one op's samples; p90 is the
# fastest of the three (2, 1024) samples
CONSTRUCT_CLASSES = (
    (1, 32, 0.5), (1, 32, 1.55), (1, 64, 0.875), (1, 64, 1.25), (1, 64, 1.925), (1, 128, 1.25), (2, 1024, 1.625),
)
CONSTRUCT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# zeros kinds and their sizes in pairs; the genus-1 set is sized so that its
# op (about 1.3 s) joins the cepstral ops' 1.0-1.4 s cluster: with a dearer
# op alone above it, p90 would straddle the gap between the two
ZERO_KINDS = (("pairs0", 850), ("pairs1", 350), ("cos", 250))


@dataclass
class Op:
    """One request sequence plus the reference its outputs are checked against."""

    kind: str
    requests: list[list[str]]
    check: Callable[["Op", list[tuple[int, str]]], str | None]
    ref: dict = field(default_factory=dict)


# -- shared helpers ------------------------------------------------------------


def _freq_json(k: Fraction, base: tuple[int, Fraction] | None) -> dict:
    """ExactFrequency JSON for k*base (base None means 1, else q*sqrt(p))."""
    if base is None:
        return {"rat": str(k), "rad": []}
    p, q = base
    if k == 0:
        return {"rat": "0", "rad": []}
    return {"rat": "0", "rad": [[str(p), str(q * k)]]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _verify_failure(rc: int, out: str) -> str | None:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if rc != 0:
        return f"verify exit {rc}"
    if not lines or not all(ln.startswith("PASS ") for ln in lines):
        return "verify reported a check that did not pass"
    return None


def _sampled_from_bundle(bundle: dict) -> tuple[np.ndarray, np.ndarray, float]:
    fac = bundle["report"]["factor"]
    vals = np.asarray(fac["re"], dtype=float) + 1j * np.asarray(fac["im"], dtype=float)
    xs = -float(fac["halfwidth"]) + float(fac["step"]) * np.arange(len(vals))
    return xs, vals, float(fac["halfwidth"])


# -- roots ---------------------------------------------------------------------


def min_phase_coeffs(rng: np.random.Generator, d: int) -> np.ndarray:
    """Ascending w-polynomial coefficients with all roots outside the unit disk.

    The criterion-01 regime: the root-moduli product stays below 300 and the
    angles are stratified with jitter, so 1e-8 coefficient recovery is
    attainable in double precision.  Largest coefficient has modulus 1.
    """
    hi = min(math.log(2.5), math.log(300.0) / d)
    lo = min(math.log(1.1), 0.5 * hi)
    moduli = np.exp(rng.uniform(lo, hi, size=d))
    angles = 2 * math.pi * (np.arange(d) + rng.uniform(0.15, 0.85, size=d)) / d
    coeffs = np.poly(moduli * np.exp(1j * angles))[::-1]
    coeffs = coeffs / np.max(np.abs(coeffs))
    return coeffs * np.exp(1j * rng.uniform(0, 2 * math.pi))


def modulus_squared_json(c: np.ndarray, base: tuple[int, Fraction] | None) -> dict:
    """|sum_k c_k e^{i k base x}|^2 as TrigPoly JSON, exactly Hermitian."""
    d = len(c) - 1
    terms = [{"freq": _freq_json(Fraction(0), base), "re": float(np.sum(np.abs(c) ** 2)), "im": 0.0}]
    for k in range(1, d + 1):
        fk = complex(np.sum(c[k:] * np.conj(c[: d + 1 - k])))
        terms.append({"freq": _freq_json(Fraction(k), base), "re": fk.real, "im": fk.imag})
        terms.append({"freq": _freq_json(Fraction(-k), base), "re": fk.real, "im": -fk.imag})
    return {"terms": terms}


def _check_roots(op: Op, outputs: list[tuple[int, str]]) -> str | None:
    bundle = json.loads(Path(op.ref["out"]).read_text())
    if not all(c["passed"] for c in bundle["report"]["checks"]):
        return "report check failed"
    s0 = op.ref["s0"]
    d = len(s0) - 1
    base = op.ref["base"]
    got = np.zeros(d + 1, dtype=complex)
    for t in bundle["report"]["factor"]["terms"]:
        fr = t["freq"]
        if base is None:
            if fr["rad"]:
                return "radical frequency in a rational-base factor"
            k = Fraction(fr["rat"])
        else:
            if Fraction(fr["rat"]) != 0 or (fr["rad"] and (len(fr["rad"]) != 1 or int(fr["rad"][0][0]) != base[0])):
                return "factor frequency off the input ray"
            k = Fraction(fr["rad"][0][1]) / base[1] if fr["rad"] else Fraction(0)
        j = k + Fraction(d, 2)  # the factor is centred; s0 lives on 0..d
        if j.denominator != 1 or not 0 <= j <= d:
            return f"factor frequency index {j} outside 0..{d}"
        got[int(j)] += complex(t["re"], t["im"])
    inner = complex(np.vdot(got, s0))
    lam = inner / abs(inner) if inner != 0 else 1.0
    err = float(np.max(np.abs(s0 - lam * got)))
    if not err <= 1e-8:
        return f"factor differs from s0 by {err:.3g} after unimodular alignment"
    return None


class Roots:
    """`factor --method roots` on |s0|^2, two sweeps over degrees 1..32.

    Each sweep has its own seeded inputs: with two inputs per degree, the
    percentiles rest on twice as many inputs near them, which narrows the
    part of their spread across seeds that comes from the inputs' content.
    Degrees divisible by 3 use a radical base, a third of the schedule.
    """

    name = "roots"

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed, self.work = seed, work
        self.degrees = (1, 2) if smoke else tuple(range(1, 33)) * 2

    def _op(self, rng: np.random.Generator, d: int, base: tuple[int, Fraction] | None, tag: str) -> Op:
        s0 = min_phase_coeffs(rng, d)
        inp = _write_json(self.work / f"roots-{tag}.json", modulus_squared_json(s0, base))
        out = str(self.work / "roots-out.json")
        return Op(
            "roots",
            [["factor", "--method", "roots", "--input", inp, "--out", out]],
            _check_roots,
            {"s0": s0, "base": base, "out": out},
        )

    def schedule(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, 0])
        ops, dealt = [], 0
        for k, d in enumerate(self.degrees):
            base = None
            if d % 3 == 0:
                base, dealt = RADICAL_BASES[dealt % len(RADICAL_BASES)], dealt + 1
            ops.append(self._op(rng, d, base, str(k)))
        return ops

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, 1])
        return [self._op(rng, 3, None, "w0"), self._op(rng, 3, RADICAL_BASES[0], "w1")]


# -- sampled -------------------------------------------------------------------


def cepstral_input(rng: np.random.Generator, n_rays: int) -> tuple[list[tuple[float, float]], float, float, dict]:
    """f = c0 + sum a cos(w x) over n_rays Q-independent rays.

    Returns (cosine terms as (w, a) floats, c0, m, TrigPoly JSON).  The
    first ray has base 1 and always includes harmonic 4; the others are
    sqrt(p)/q rays below 1.  c0 lifts the minimum of f to at least 1.5 m.
    """
    picks = rng.choice(len(CEPSTRAL_RAYS), size=n_rays - 1, replace=False)
    rays: list[tuple[int, Fraction] | None] = [None] + [
        (CEPSTRAL_RAYS[i][0], Fraction(1, CEPSTRAL_RAYS[i][1])) for i in picks
    ]
    m = float(rng.uniform(0.5, 1.0))
    cos_terms: list[tuple[float, float]] = []
    json_terms = []
    for base in rays:
        n_harm = int(rng.integers(2, 5))
        if base is None:
            harmonics = [4] + sorted(int(h) for h in rng.choice([1, 2, 3], size=n_harm - 1, replace=False))
        else:
            harmonics = sorted(int(h) for h in rng.choice([1, 2, 3, 4], size=n_harm, replace=False))
        for h in harmonics:
            a = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
            w = h * (1.0 if base is None else math.sqrt(base[0]) * float(base[1]))
            cos_terms.append((w, a))
            for sgn in (1, -1):
                json_terms.append({"freq": _freq_json(Fraction(sgn * h), base), "re": a / 2, "im": 0.0})
    c0 = math.fsum(abs(a) for _, a in cos_terms) + 1.5 * m
    json_terms.append({"freq": _freq_json(Fraction(0), None), "re": c0, "im": 0.0})
    return cos_terms, c0, m, {"terms": json_terms}


def _check_cepstral(op: Op, outputs: list[tuple[int, str]]) -> str | None:
    failure = _verify_failure(*outputs[1])
    if failure:
        return failure
    analysis = json.loads(Path(op.ref["analysis"]).read_text())
    if analysis.get("kind") != "analysis" or not isinstance(analysis.get("verdict"), bool):
        return "analyze wrote no verdict"
    xs, s, halfwidth = _sampled_from_bundle(json.loads(Path(op.ref["out"]).read_text()))
    inner = np.abs(xs) <= 0.8 * halfwidth
    x = xs[inner]
    f = np.full(len(x), op.ref["c0"])
    for w, a in op.ref["cos"]:
        f += a * np.cos(w * x)
    scale = op.ref["c0"] + math.fsum(abs(a) for _, a in op.ref["cos"])
    err = float(np.max(np.abs(f - np.abs(s[inner]) ** 2)))
    if not err <= 1e-2 * scale:
        return f"|s|^2 misses f by {err:.3g} on the interior window"
    return None


def zero_set(rng: np.random.Generator, kind: str, pairs: int) -> dict:
    """Conjugation-symmetric zero-set JSON with `pairs` pairs, listed shuffled.

    kind "pairs0"/"pairs1": simple zeros x +- iy (genus 0/1), |x| ~ 1..pairs.
    kind "cos": the double real zeros (2k+1)pi of 2 + 2cos x, genus 1.
    """
    if kind == "cos":
        half = pairs // 2
        zeros = [{"re": (2 * k + 1) * math.pi, "im": 0.0, "mult": 2} for k in range(-half, half)]
        return {"m": 0, "a": 0.0, "b": math.log(2.0), "p": 1, "zeros": zeros}
    zeros = []
    for n in range(1, pairs + 1):
        x = float((n + rng.uniform(0.0, 1.0)) * rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(0.3, 3.0))
        zeros += [{"re": x, "im": y, "mult": 1}, {"re": x, "im": -y, "mult": 1}]
    order = rng.permutation(len(zeros))
    return {"m": 0, "a": 0.0, "b": 0.0, "p": 1 if kind == "pairs1" else 0, "zeros": [zeros[i] for i in order]}


def log_product_direct(zs: dict, x: np.ndarray) -> np.ndarray:
    """log F(x) on the real line from the zero list, in real arithmetic.

    F(x) = e^(2b) prod |1 - x/z|^mult e^(p mult Re(x/z)) for a
    conjugation-symmetric set (a = m = 0), which is real and >= 0 there.
    """
    out = np.full(len(x), 2.0 * zs["b"])
    p = zs["p"]
    for item in zs["zeros"]:
        zr, zi, k = item["re"], item["im"], item["mult"]
        r2 = zr * zr + zi * zi
        u = x * zr / r2  # Re(x/z)
        v = -x * zi / r2  # Im(x/z)
        out += k * (0.5 * np.log((1.0 - u) ** 2 + v * v) + p * u)
    return out


def _check_zeros(op: Op, outputs: list[tuple[int, str]]) -> str | None:
    failure = _verify_failure(*outputs[1])
    if failure:
        return failure
    xs, s, halfwidth = _sampled_from_bundle(json.loads(Path(op.ref["out"]).read_text()))
    inner = np.abs(xs) <= 0.8 * halfwidth
    f = np.exp(log_product_direct(op.ref["zeros"], xs[inner]))
    err = float(np.max(np.abs(f - np.abs(s[inner]) ** 2)))
    scale = float(np.max(f))
    if not err <= 1e-3 * scale:
        return f"|S|^2 misses the product by {err / scale:.3g} relative"
    return None


# 2 + 2cos x has its double zeros at +-pi, the ends of the default [-pi, pi]
# window; the zeros route returns NaN there (see NOTES.md), so those sets
# are sampled on [-3, 3]
COS_HALFWIDTH = "3.0"


class Sampled:
    """Cepstral and zeros ops, 6:3.

    Cepstral ops use 2, 3 and 4 rays twice each; the zeros ops are one of
    each ZERO_KINDS entry (genus-0 pairs, genus-1 pairs, truncated 2 + 2cos).
    Cepstral ops still take about 70% of the time.
    """

    name = "sampled"

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed, self.work, self.smoke = seed, work, smoke

    def _cepstral(self, rng, n_rays: int, tag: str, halfwidth: str | None = None) -> Op:
        cos_terms, c0, m, fj = cepstral_input(rng, n_rays)
        inp = _write_json(self.work / f"cep-{tag}.json", fj)
        out, analysis = str(self.work / "cep-out.json"), str(self.work / "cep-analysis.json")
        window = [] if halfwidth is None else ["--window-halfwidth", halfwidth]
        return Op(
            "cepstral",
            [
                ["factor", "--method", "cepstral", "--input", inp, "--m", repr(m), "--out", out, *window],
                ["verify", "--report", out],
                ["analyze", "--input", inp, "--m", repr(m), "--eps", "0.2", "--out", analysis, *window],
            ],
            _check_cepstral,
            {"cos": cos_terms, "c0": c0, "out": out, "analysis": analysis},
        )

    def _zeros(self, rng, kind: str, pairs: int, tag: str) -> Op:
        zs = zero_set(rng, kind, pairs)
        inp = _write_json(self.work / f"zeros-{tag}.json", zs)
        out = str(self.work / "zeros-out.json")
        window = ["--window-halfwidth", COS_HALFWIDTH] if kind == "cos" else []
        return Op(
            "zeros",
            [
                ["factor", "--method", "zeros", "--input", inp, "--out", out, *window],
                ["verify", "--report", out],
            ],
            _check_zeros,
            {"zeros": zs, "out": out},
        )

    def schedule(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, 0])
        if self.smoke:
            return [self._cepstral(rng, 2, "0", "16.0"), self._zeros(rng, "pairs1", 20, "0")]
        cepstral = [self._cepstral(rng, n, str(i)) for i, n in enumerate((2, 3, 4) * 2)]
        # the zeros ops run first in a pass: the 850-pair op sets the peak
        # RSS, and when it ran after the cepstral ops the heap it met
        # differed by seed (peak 175 or 194 MB; run first, 171 MB for all)
        return [self._zeros(rng, kind, pairs, kind) for kind, pairs in ZERO_KINDS] + cepstral

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, 1])
        return [
            self._cepstral(rng, 2, "w", "16.0"),
            self._zeros(rng, "pairs1", 20, "w1"),
            self._zeros(rng, "cos", 20, "w2"),
        ]


# -- construct -----------------------------------------------------------------


def _check_construct(op: Op, outputs: list[tuple[int, str]]) -> str | None:
    return _verify_failure(*outputs[1])


class Construct:
    """`construct` then `verify --report`, one op per CONSTRUCT_CLASSES entry.

    The classes' m values spread over [0.5, 2]; the seed adds at most 0.075
    to each, because the lower-bound refinement (time and memory) depends
    on m.
    """

    name = "construct"

    def __init__(self, seed: int, work: Path, smoke: bool = False):
        self.seed, self.work = seed, work
        self.classes = ((1, 8, 1.0), (1, 16, 1.0)) if smoke else CONSTRUCT_CLASSES

    def _op(self, rng, blocks: int, oracle_n: int, m: float) -> Op:
        primes = rng.choice(CONSTRUCT_PRIMES, size=2, replace=False)
        out = str(self.work / "construct-out.json")
        return Op(
            "construct",
            [
                [
                    "construct", "--m", repr(m), "--blocks", str(blocks), "--oracle-n", str(oracle_n),
                    "--primes", ",".join(str(int(p)) for p in primes), "--out", out,
                ],
                ["verify", "--report", out],
            ],
            _check_construct,
        )

    def schedule(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, 0])
        return [self._op(rng, blocks, n, m + 0.075 * float(rng.uniform())) for blocks, n, m in self.classes]

    def warmup(self) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, 1])
        return [self._op(rng, 1, 8, 1.0)]


WORKLOADS = {w.name: w for w in (Roots, Sampled, Construct)}
