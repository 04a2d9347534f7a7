"""Batch front door: factorize, construct, verify, analyze, tabulate.

Exit codes: 0 success, 1 malformed input (bad flags, unreadable or invalid
files), 2 a method precondition failed (e.g. incommensurable spectrum for
the roots method), 3 a verification check failed (in `verify`, or in the
battery `construct` runs on its own output, which then writes nothing).
Outputs carry no timestamps, so identical argv and inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from apspec import construction, serialize
from apspec.cepstral import (
    DEFAULT_HALFWIDTH,
    almost_period_test,
    arg_decompose,
    cepstral_checks,
    cepstral_factorize,
    conjugate_boundary,
    half_log,
)
from apspec.certify import check_grid_span
from apspec.checks import CheckResult, FactorizationReport
from apspec.errors import ApspecError, MalformedInput
from apspec.frequency import ExactFrequency
from apspec.periodic import fejer_riesz, roots_check_battery
from apspec.products import ZeroSet, factor_from_zeros, product_eval
from apspec.sampling import SampledFunction
from apspec.serialize import (
    construction_to_json,
    factor_bundle_to_json,
    load_path,
    report_to_json,
    trigpoly_from_json,
    trigpoly_to_json,
)
from apspec.trigpoly import TrigPoly


def _finite_float(text: str) -> float:
    """Float flag value; NaN and infinities are refused while the flags are read."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apspec",
        description="Spectral factorization of almost periodic trigonometric data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a nonnegative input as |s|^2")
    p.add_argument("--method", required=True, choices=("roots", "cepstral", "zeros"))
    p.add_argument("--input", required=True, help="TrigPoly JSON (roots/cepstral) or zero-set JSON (zeros)")
    p.add_argument("--m", type=_finite_float, default=None, help="certified lower bound for f (cepstral)")
    p.add_argument("--window-halfwidth", type=_finite_float, default=None, dest="window_halfwidth")
    p.add_argument("--step", type=_finite_float, default=None)
    p.add_argument("--out", default=None, help="report bundle path (default: stdout)")
    p.add_argument("--csv", default=None, help="also sample the factor to CSV")
    p.add_argument("--allow-large", action="store_true", dest="allow_large")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("construct", help="build a bounded non-Wiener factorization instance")
    p.add_argument("--m", type=_finite_float, default=1.0)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--oracle-n", type=int, default=4096, dest="oracle_n")
    p.add_argument("--primes", default=None, help="comma list overriding the dilation primes")
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true", dest="allow_large")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-run the check battery on a stored report")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None, help="write the re-run report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="argument decomposition and almost-period scan")
    p.add_argument("--input", required=True, help="TrigPoly JSON for f")
    p.add_argument("--m", type=_finite_float, required=True, help="certified lower bound for f")
    p.add_argument("--eps", type=_finite_float, default=0.1)
    p.add_argument("--window-halfwidth", type=_finite_float, default=None, dest="window_halfwidth")
    p.add_argument("--step", type=_finite_float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("growth-table", help="Wiener norms of the averaged sine series")
    p.add_argument("--n", required=True, help="comma list of indices, each >= 2")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_growth)

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _write_json(path: str | None, obj) -> None:
    _write_text(path, serialize.dumps(obj))


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _grid(halfwidth: float, step: float) -> np.ndarray:
    if halfwidth <= 0 or step <= 0 or step > 2 * halfwidth:
        raise MalformedInput("need 0 < step <= 2*halfwidth")
    span = 2 * halfwidth / step
    check_grid_span(span)
    n = round(span)
    return -halfwidth + step * np.arange(n + 1)


def _zeros_report(zero_set: ZeroSet, halfwidth: float, step: float) -> FactorizationReport:
    """Factor the canonical product over `zero_set` and sample both sides."""
    factor = factor_from_zeros(zero_set)
    xs = _grid(halfwidth, step)
    fvals = np.atleast_1d(np.asarray(product_eval(zero_set, xs)))
    svals = np.atleast_1d(np.asarray(factor(xs)))
    samples = SampledFunction(halfwidth, step, svals)
    scale = max(float(np.max(np.abs(fvals))), 1e-300)
    residual = float(np.max(np.abs(fvals.real - np.abs(svals) ** 2)))
    realness = float(np.max(np.abs(fvals.imag))) / scale
    ys = np.array(
        [complex(x, y) for y in (0.5, 2.0) for x in np.linspace(-halfwidth, halfwidth, 9)]
    )
    min_upper = float(np.min(np.abs(np.asarray(factor(ys)))))
    checks = [
        CheckResult(
            "input_real_on_axis", realness <= 1e-6, realness,
            "Im of the full product, relative to its sup",
        ),
        CheckResult(
            "modulus_identity", residual <= 1e-3 * scale, residual / scale,
            f"sup |F - |S|^2| = {residual!r}",
        ),
        CheckResult(
            "halfplane_nonvanishing", min_upper > 0.0, min_upper,
            "min |S| over an upper half-plane grid",
        ),
    ]
    return FactorizationReport("zeros", samples, residual, 0.5, checks)


def _cmd_factor(args) -> int:
    if args.method == "zeros":
        zero_set = ZeroSet.from_json(_read_text(args.input))
        halfwidth = args.window_halfwidth if args.window_halfwidth is not None else math.pi
        step = args.step if args.step is not None else math.pi / 512
        report = _zeros_report(zero_set, halfwidth, step)
        bundle = factor_bundle_to_json(
            "factor", zero_set.to_obj(), report, allow_large=args.allow_large
        )
    else:
        f = trigpoly_from_json(load_path(args.input))
        if args.method == "roots":
            report = fejer_riesz(f)
        else:
            if args.m is None or args.m <= 0:
                raise MalformedInput("cepstral factorization needs --m > 0")
            halfwidth = (
                args.window_halfwidth if args.window_halfwidth is not None else DEFAULT_HALFWIDTH
            )
            report = cepstral_factorize(f, args.m, halfwidth=halfwidth, step=args.step)
        bundle = factor_bundle_to_json(
            "factor",
            trigpoly_to_json(f, args.allow_large),
            report,
            m=args.m,
            allow_large=args.allow_large,
        )
    bundle["method"] = args.method
    # sample and size-check the CSV first: a refused grid leaves neither file
    csv_text = None
    if args.csv is not None:
        csv_text = serialize.sampled_csv_text(_as_samples(report.factor, args), args.allow_large)
    _write_json(args.out, bundle)
    if csv_text is not None:
        _write_text(args.csv, csv_text)
    return 0


def _as_samples(factor, args) -> SampledFunction:
    if isinstance(factor, SampledFunction):
        return factor
    halfwidth = args.window_halfwidth if args.window_halfwidth is not None else 32 * math.pi
    step = args.step if args.step is not None else math.pi / 64
    xs = _grid(halfwidth, step)
    return SampledFunction(halfwidth, step, factor.evaluate(xs))


def _cmd_construct(args) -> int:
    if args.primes is not None:
        primes = tuple(int(tok) for tok in args.primes.split(",") if tok.strip())
    else:
        primes = construction.DEFAULT_PRIMES
    params = construction.ConstructionParams(
        m=args.m, blocks=args.blocks, oracle_n=args.oracle_n, primes=primes
    )
    result = construction.assemble(params)
    failed = [check.name for check in result.certificates.checks if not check.passed]
    if failed:
        sys.stderr.write(f"error: construction failed its own checks: {', '.join(failed)}\n")
        return 3
    _write_json(args.out, construction_to_json(result, args.allow_large))
    return 0


def _recheck_zeros(zero_set: ZeroSet, stored: SampledFunction) -> FactorizationReport:
    report = _zeros_report(zero_set, stored.halfwidth, stored.step)
    fresh = report.factor.values
    scale = max(float(np.max(np.abs(fresh))), 1e-300)
    replay = float(np.max(np.abs(fresh - stored.values))) / scale
    checks = list(report.checks)
    checks.append(
        CheckResult(
            "deterministic_replay", replay <= 1e-12, replay,
            "stored samples vs recomputed factor",
        )
    )
    return FactorizationReport("zeros", report.factor, report.residual_sup, 0.5, checks)


def _reverify(obj) -> FactorizationReport:
    if not isinstance(obj, dict):
        raise MalformedInput("report file must hold a JSON object")
    kind = obj.get("kind")
    if kind == "construction":
        try:
            m = float(obj["params"]["m"])
            # n_seq is validated but not needed: f is rebuilt from h alone
            tuple(int(n) for n in obj["n_seq"])
            rho = tuple(ExactFrequency.from_json(r) for r in obj["rho"])
            delta = ExactFrequency.from_json(obj["delta"])
            c = float(obj["c"])
            g = trigpoly_from_json(obj["g"])
            h1 = trigpoly_from_json(obj["h1"])
            h = trigpoly_from_json(obj["h"])
            s = trigpoly_from_json(obj["s"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad construction payload: {exc}") from exc
        return construction.recheck(m, rho, delta, c, g, h1, h, s)
    if kind == "factor":
        report = serialize.report_from_json(obj.get("report"))
        if report.method == "roots":
            f = trigpoly_from_json(obj.get("input"))
            if not isinstance(report.factor, TrigPoly):
                raise MalformedInput("roots report should carry a polynomial factor")
            return roots_check_battery(f, report.factor)
        if report.method == "cepstral":
            f = trigpoly_from_json(obj.get("input"))
            m = obj.get("m")
            if m is None:
                raise MalformedInput("cepstral bundle is missing its lower bound m")
            if not isinstance(report.factor, SampledFunction):
                raise MalformedInput("cepstral report should carry a sampled factor")
            return cepstral_checks(f, report.factor, float(m))
        if report.method == "zeros":
            zero_set = ZeroSet.from_obj(obj.get("input"))
            if not isinstance(report.factor, SampledFunction):
                raise MalformedInput("zeros report should carry a sampled factor")
            return _recheck_zeros(zero_set, report.factor)
        raise MalformedInput(f"unknown factor method {report.method!r}")
    if "checks" in obj:
        # bare report with no inputs attached: evaluate the stored flags
        return serialize.report_from_json(obj)
    raise MalformedInput(f"unrecognized report kind {kind!r}")


def _cmd_verify(args) -> int:
    report = _reverify(load_path(args.report))
    if args.out is not None:
        _write_json(args.out, report_to_json(report))
    for check in report.checks:
        if check.passed:
            sys.stdout.write(f"PASS {check.name} value={check.value!r}\n")
        else:
            sys.stdout.write(f"FAIL {check.name} value={check.value!r} -- {check.detail}\n")
    return 0 if all(check.passed for check in report.checks) else 3


def _cmd_analyze(args) -> int:
    f = trigpoly_from_json(load_path(args.input))
    if args.m <= 0:
        raise MalformedInput("--m must be positive")
    if args.eps <= 0:
        raise MalformedInput("--eps must be positive")
    halfwidth = args.window_halfwidth if args.window_halfwidth is not None else DEFAULT_HALFWIDTH
    g = half_log(f, args.m, halfwidth=halfwidth, step=args.step)
    v = conjugate_boundary(g)
    decomposition = arg_decompose(v)
    periods = almost_period_test(decomposition.theta, args.eps)
    out = {
        "kind": "analysis",
        "m": args.m,
        "eps": args.eps,
        "window_halfwidth": g.halfwidth,
        "step": g.step,
        "arg_slope": decomposition.c,
        "theta_rms": decomposition.fit_residual,
        "epsilon_period_count": len(periods.epsilon_periods),
        "epsilon_periods_head": list(periods.epsilon_periods[:32]),
        "relative_density_gap": periods.relative_density_gap,
        "verdict": periods.verdict,
    }
    _write_json(args.out, out)
    return 0


def _cmd_growth(args) -> int:
    try:
        ns = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError as exc:
        raise MalformedInput(f"bad --n list: {exc}") from exc
    if not ns:
        raise MalformedInput("--n must list at least one index")
    _write_text(args.out, serialize.growth_table_text(construction.wiener_growth_table(ns)))
    return 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except MalformedInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ApspecError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
