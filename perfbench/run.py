"""apspec benchmark: seeded request streams through `apspec.cli.run`, in-process.

    python3 perfbench/run.py --workload {roots,sampled,construct} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and nowhere else.  One closed loop, one client, one process:
op k+1 starts when op k is done.  BLAS is pinned to one thread.

The timed phase runs the seed's schedule (see workloads.py) in passes, at
least MIN_PASSES of them and until the ops have been busy for --seconds.
ops_per_s is the ops completed over the timed wall time of all passes; the
latency percentiles are taken over every attempt of every pass.  Before
every op, outside the timed region, apspec's in-process caches are cleared,
so each op starts as a fresh CLI process would.  Input generation happens in set-up; the per-op
correctness gate runs between ops, outside the timed region.  setup_s is
the median of SETUP_REPS set-ups: this process's and fresh --setup-only
children run between the passes, so they sample the whole run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates TRACE_PASSES
untraced passes with as many passes under the layer tracer, and prints the
per-layer metrics (per-op means over the traced passes) plus the tracing
overhead (untraced minus traced ops_per_s).
The last stdout line is the JSON result; spans go to .bench_out/ as gzip
CSV.  See NOTES.md for metric definitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# this process plus fresh --setup-only children, spread between the passes:
# the host's speed swings in spells of about ten seconds, so set-ups run
# back to back all see the same spell
SETUP_REPS = 5
# every op runs in several passes spread over the run, and every attempt is a
# latency sample: the shared machine's CPU speed swings by up to 1.7x, in
# spells of seconds to minutes, and percentiles over all attempts average
# over the spells, where one attempt of each op, or its fastest, would not
MIN_PASSES = 3
# untraced/traced pass pairs of a traced run; kept low so a traced construct
# run stays well inside three minutes during a slow spell
TRACE_PASSES = 2
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description="apspec benchmark")
    p.add_argument("--workload", required=True, choices=("roots", "sampled", "construct"))
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a schedule of two tiny ops")
    p.add_argument("--setup-only", action="store_true", dest="setup_only", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def apspec_caches() -> list:
    """cache_clear of every functools cache in the loaded apspec modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "apspec" and not name.startswith("apspec."):
            continue
        for obj in vars(mod).values():
            for member in [obj] + (list(vars(obj).values()) if isinstance(obj, type) else []):
                if callable(getattr(member, "cache_clear", None)):
                    found[id(member)] = member.cache_clear
    return list(found.values())


def run_op(cli, op, tracer=None, caches=()) -> tuple[float, str | None]:
    """Latency of one op's request sequence and its failure reason, if any.

    `caches` are cleared first, outside the timed region.
    """
    for clear in caches:
        clear()
    outputs = []
    err = io.StringIO()
    failure = None
    start = time.perf_counter()
    with tracer.op() if tracer is not None else nullcontext():
        for argv in op.requests:
            buf = io.StringIO()
            try:
                with redirect_stdout(buf), redirect_stderr(err):
                    rc = cli.run(argv)
            except Exception:  # the loop must go on; the op counts as failed
                failure = f"{argv[0]} raised: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"
                break
            outputs.append((rc, buf.getvalue()))
            if rc != 0:
                failure = f"{argv[0]} exit {rc}: {err.getvalue().strip()[:200]}"
                break
    latency = time.perf_counter() - start
    if failure is None:
        try:
            failure = op.check(op, outputs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"gate could not read the outputs: {exc!r}"
    return latency, failure


def child_setup_s(args) -> float:
    """Set-up time of a fresh process, as it reports it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1].split()[1])


def latency_summary(lat: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "p50": statistics.median(lat),
        "p90": p90,
        "n": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
    }


def run_pass(cli, ops, lat, failures, label, caches, tracer=None) -> tuple[float, int]:
    """One closed-loop pass over `ops`; appends every attempt's latency to `lat`.

    Failure reasons are appended to `failures[op index]`.  Returns the busy
    (timed wall) time and the number of ops completed without failure.
    """
    busy, completed = 0.0, 0
    for i, op in enumerate(ops):
        latency, failure = run_op(cli, op, tracer, caches)
        if failure is not None:
            failures.setdefault(i, []).append(f"{label} op {i} {op.kind}: {failure}")
        else:
            completed += 1
        lat.append(latency)
        busy += latency
    return busy, completed


def per_layer_metrics(tracer, ops_per_s: float, traced_ops_per_s: float) -> dict:
    from layertrace import PER_LAYER

    layers = tracer.summary()
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    metrics["trace.untraced_ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_ops_per_s, "unit": "1/s"}
    metrics["trace.overhead_ops_per_s"] = {"value": ops_per_s - traced_ops_per_s, "unit": "1/s"}
    return metrics


def environment(load_1m: float, threads: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "loadavg_1m_at_start": load_1m,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "blas_vars": {v: os.environ.get(v) for v in BLAS_VARS},
        "APSPEC_THREADS": os.environ.get("APSPEC_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "apspec" / "cli.py").is_file():
        print(f"error: no apspec sources at {SRC}", file=sys.stderr)
        return 2
    load_1m = os.getloadavg()[0]
    threads = "1"  # one client, one thread: multi-threaded BLAS spins and was slower here
    for var in BLAS_VARS:
        os.environ[var] = threads  # before numpy is imported
    sys.path.insert(0, str(SRC))

    from apspec import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: apspec imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, smoke=args.smoke)
        ops = wl.schedule()
        warm_failures = [f for op in wl.warmup() for f in [run_op(cli, op)[1]] if f is not None]
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(f"setup_s {own_setup!r}")
            return 0 if not warm_failures else 3
        setups = [own_setup]
        env = environment(load_1m, threads)
        caches = apspec_caches()  # before the tracer wraps any of them

        lat, failures, passes, busy, done = [], {}, 0, 0.0, 0
        if args.trace:
            from layertrace import Tracer

            # untraced and traced passes alternate, so both see the same spells;
            # traced runs do not report setup_s, so they skip the child set-ups
            tracer, t_lat, t_busy, t_done = Tracer(), [], 0.0, 0
            for passes in range(1, TRACE_PASSES + 1):
                b, d = run_pass(cli, ops, lat, failures, f"untraced pass {passes}", caches)
                busy, done = busy + b, done + d
                tracer.install()
                try:
                    b, d = run_pass(cli, ops, t_lat, failures, f"traced pass {passes}", caches, tracer)
                    t_busy, t_done = t_busy + b, t_done + d
                finally:
                    tracer.uninstall()
        else:
            while passes < MIN_PASSES or busy < args.seconds:
                b, d = run_pass(cli, ops, lat, failures, f"pass {passes}", caches)
                busy, done, passes = busy + b, done + d, passes + 1
                if len(setups) < SETUP_REPS:
                    setups.append(child_setup_s(args))
            setups += [child_setup_s(args) for _ in range(SETUP_REPS - len(setups))]
        ops_per_s = done / busy
        summary = latency_summary(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = passes * len(ops) * (2 if args.trace else 1)
        failed = sum(len(f) for f in failures.values())

        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace} ops {len(ops)} passes {passes}")
        print(f"setup_s {statistics.median(setups):.6g} s (median of {len(setups)}: "
              + ", ".join(f"{s:.4g}" for s in setups) + ")")
        print(f"ops_per_s {ops_per_s:.6g} 1/s")
        print(f"latency_p50_s {summary['p50']:.6g} s (n={summary['n']})")
        enough = "" if summary["beyond_p90"] >= 10 else ", fewer than 10: p90 does not count"
        print(f"latency_p90_s {summary['p90']:.6g} s (n={summary['n']}, {summary['beyond_p90']} beyond{enough})")
        print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
        print(f"peak_rss_mb {rss_mb:.6g} MB")

        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(trace_path)
            traced_ops_per_s = t_done / t_busy
            metrics = per_layer_metrics(tracer, ops_per_s, traced_ops_per_s)
            overhead_s = (t_busy - busy) / (TRACE_PASSES * len(ops))
            op_s = metrics["trace.op_s"]["value"]
            self_sum = math.fsum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
            # informational: the gap is trace.unattributed_s, harness time at
            # the op root; the tracing overhead is noisy and can read negative
            print(f"traced ops_per_s {traced_ops_per_s:.6g} 1/s; tracing overhead "
                  f"{ops_per_s - traced_ops_per_s:.6g} 1/s ({overhead_s:.4g} s per op)")
            print(f"layer self times sum to {self_sum:.6g} s of {op_s:.6g} s traced op time "
                  f"(unattributed {op_s - self_sum:.3g} s per op)")
            print(f"spans {len(tracer.cols['span'])} written to {trace_path.relative_to(ROOT)}")
            for name, m in metrics.items():
                print(f"  {name} {m['value']:.6g} {m['unit']}")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "latency_p50_s": {"value": summary["p50"], "unit": "s"},
                "latency_p90_s": {"value": summary["p90"], "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        for line in (warm_failures + [f for fs in failures.values() for f in fs])[:20]:
            print(f"FAILED {line}")
        result = {
            "correct": failed == 0 and not warm_failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
