"""Traced mode: spans and counters around apspec's layers, installed from outside.

`Tracer.install()` replaces each layer's public functions, the public and
arithmetic methods of TrigPoly and ProductPoly, and EntireFactor.__call__
with wrappers that record a span (name, start, end, parent, op id), and
rebinds every name another apspec module imported from them;
`Tracer.uninstall()` puts the originals back.  Nothing under src/ changes.  ExactFrequency operations are too cheap and too many for
spans: they feed aggregate timers and counts instead, timed only at the
outermost frequency call and charged as child time to the enclosing span.

A layer's self time is its spans' time minus the time covered by their
child spans and frequency timers, so the layer self times plus the
frequency time plus the harness time at the op root add up to the op time.
Spans stay in memory and are written as gzip CSV when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPAN_LAYERS = (
    "trigpoly", "periodic", "certify", "checks", "cepstral",
    "products", "construction", "serialize", "cli",
)

# (name, unit); every value is a per-op mean over the traced ops
PER_LAYER = (
    ("frequency.self_s", "s"),
    ("frequency.ef_created", "count"),
    ("frequency.compares", "count"),
    ("trigpoly.self_s", "s"),
    ("trigpoly.evaluate_s", "s"),
    ("trigpoly.term_points", "count"),
    ("trigpoly.modsq_s", "s"),
    ("trigpoly.modsq_pairs", "count"),
    ("periodic.self_s", "s"),
    ("periodic.roots_s", "s"),
    ("periodic.roots_degree", "count"),
    ("periodic.errors", "count"),
    ("certify.self_s", "s"),
    ("certify.lattice_sup_calls", "count"),
    ("certify.lower_bound_passes", "count"),
    ("certify.lower_bound_points", "count"),
    ("certify.lower_bound_refused", "count"),
    ("checks.self_s", "s"),
    ("checks.bernstein_calls", "count"),
    ("checks.poisson_calls", "count"),
    ("cepstral.self_s", "s"),
    ("cepstral.samples", "count"),
    ("cepstral.scan_s", "s"),
    ("cepstral.scan_translates", "count"),
    ("products.self_s", "s"),
    ("products.log_terms", "count"),
    ("construction.self_s", "s"),
    ("construction.select_n_s", "s"),
    ("serialize.self_s", "s"),
    ("serialize.bytes_out", "bytes"),
    ("serialize.bytes_in", "bytes"),
    ("cli.self_s", "s"),
    ("trace.op_s", "s"),
    ("trace.unattributed_s", "s"),
)

EVALUATE = ("trigpoly.TrigPoly.evaluate", "trigpoly.ProductPoly.evaluate", "trigpoly.ProductPoly.evaluate_real")
EF_COMPARE = ("__lt__", "__le__", "__gt__", "__ge__")
SKIP_METHODS = ("__repr__", "__hash__", "__setattr__")


class _Frame:
    __slots__ = ("span", "name", "start", "child")

    def __init__(self, span: int, name: str, start: float):
        self.span, self.name, self.start, self.child = span, name, start, 0.0


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.stack: list[_Frame] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.per_op: list[dict[str, float]] = []
        self.op_id = -1
        self.next_span = 0
        self.ef_depth = 0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.original: dict[str, object] = {}
        self.patches: list[tuple[object, str, object]] = []  # (owner, name, value before install)
        self.cols = {
            "op": array("q"), "span": array("q"), "parent": array("q"), "name": array("l"),
            "start": array("d"), "end": array("d"), "error": array("b"),
        }
        self.hooks = {
            "trigpoly.TrigPoly.evaluate": self._hook_evaluate,
            "trigpoly.ProductPoly.evaluate": self._hook_evaluate,
            "trigpoly.ProductPoly.evaluate_real": self._hook_evaluate,
            "trigpoly.modulus_squared": self._hook_modsq,
            "periodic.polynomial_roots": self._hook_roots,
            "certify.integer_lattice_sup": self._count("certify.lattice_sup_calls"),
            "certify.certify_lower_bound": self._hook_lower_bound,
            "checks.bernstein_check": self._count("checks.bernstein_calls"),
            "checks.poisson_eval": self._count("checks.poisson_calls"),
            "cepstral.half_log": self._hook_half_log,
            "cepstral.almost_period_test": self._hook_scan,
            "products.product_eval": self._hook_product,
            "products.EntireFactor.__call__": self._hook_product,
            "construction.select_n_sequence": self._hook_select_n,
            "serialize.dumps": self._hook_dumps,
            "serialize.loads": self._hook_loads,
        }

    # -- ops -------------------------------------------------------------------

    @contextmanager
    def op(self):
        """Root span of one op; per-op counters start empty."""
        self.op_id += 1
        self.counts = defaultdict(float)
        root = _Frame(self._span_id(), "bench.op", perf_counter())
        self.stack = [root]
        try:
            yield
        finally:
            end = perf_counter()
            self.stack = []
            dur = end - root.start
            self.counts["trace.op_s"] += dur
            self.counts["trace.unattributed_s"] += dur - root.child
            self._record(root, -1, end, False)
            self.per_op.append(dict(self.counts))

    def summary(self) -> dict[str, float]:
        n = max(1, len(self.per_op))
        return {name: math.fsum(c.get(name, 0.0) for c in self.per_op) / n for name, _ in PER_LAYER}

    def write(self, path) -> None:
        c = self.cols
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("op,span,parent,name,start_s,end_s,error\n")
            for i in range(len(c["span"])):
                fh.write(
                    f"{c['op'][i]},{c['span'][i]},{c['parent'][i]},{self.names[c['name'][i]]},"
                    f"{c['start'][i]!r},{c['end'][i]!r},{c['error'][i]}\n"
                )

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self.patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every function, method and imported name install() replaced."""
        while self.patches:
            owner, name, value = self.patches.pop()
            setattr(owner, name, value)

    def install(self) -> None:
        from apspec import frequency, products, trigpoly

        if self.patches:
            raise RuntimeError("tracer already installed")
        import_map: dict[int, object] = {}
        for layer in SPAN_LAYERS:
            mod = sys.modules[f"apspec.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{name}", layer, obj)
                import_map[id(obj)] = (obj, wrapper)
        for cls in (trigpoly.TrigPoly, trigpoly.ProductPoly):
            self._wrap_class(cls, "trigpoly", self._span_wrapper)
        call = products.EntireFactor.__call__
        self._patch(products.EntireFactor, "__call__", self._span_wrapper("products.EntireFactor.__call__", "products", call))

        ef = frequency.ExactFrequency
        self._wrap_class(ef, "frequency", lambda name, layer, fn: self._agg_wrapper(name, fn))
        for name in ("squarefree_split", "rational_ratio", "qlin_independent"):
            obj = getattr(frequency, name)
            import_map[id(obj)] = (obj, self._agg_wrapper(f"frequency.{name}", obj))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "apspec" or mod_name.startswith("apspec.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = import_map.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_class(self, cls, layer: str, make) -> None:
        for name, attr in list(vars(cls).items()):
            if name in SKIP_METHODS or (name.startswith("_") and not name.startswith("__")):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(make(qual, layer, attr.__func__)))
            elif isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(make(qual, layer, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, make(qual, layer, attr))

    # -- wrappers ------------------------------------------------------------------

    def _span_id(self) -> int:
        self.next_span += 1
        return self.next_span - 1

    def _record(self, frame: _Frame, parent: int, end: float, error: bool) -> None:
        c = self.cols
        name_id = self.name_ids.get(frame.name)
        if name_id is None:
            name_id = self.name_ids[frame.name] = len(self.names)
            self.names.append(frame.name)
        c["op"].append(self.op_id)
        c["span"].append(frame.span)
        c["parent"].append(parent)
        c["name"].append(name_id)
        c["start"].append(frame.start - self.t0)
        c["end"].append(end - self.t0)
        c["error"].append(1 if error else 0)

    def _span_wrapper(self, name: str, layer: str, fn):
        tracer = self
        self_key = f"{layer}.self_s"
        hook = self.hooks.get(name)
        self.original[name] = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = _Frame(tracer._span_id(), name, perf_counter())
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame.start
                tracer.counts[self_key] += dur - frame.child
                parent.child += dur
                tracer._record(frame, parent.span, end, not ok)
                if not ok and layer == "periodic" and not parent.name.startswith("periodic."):
                    tracer.counts["periodic.errors"] += 1
                if hook is not None and ok:
                    hook(args, kwargs, result, dur, parent.name)

        return wrapper

    def _agg_wrapper(self, name: str, fn):
        tracer = self
        created = name.endswith(".__init__")
        compare = name.rsplit(".", 1)[-1] in EF_COMPARE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            if created:
                counts["frequency.ef_created"] += 1
            if tracer.ef_depth:
                tracer.ef_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.ef_depth -= 1
            if compare:
                counts["frequency.compares"] += 1
            tracer.ef_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                tracer.ef_depth = 0
                counts["frequency.self_s"] += dt
                if tracer.stack:
                    tracer.stack[-1].child += dt

        return wrapper

    # -- per-layer counters ----------------------------------------------------------

    def _count(self, key: str):
        def hook(args, kwargs, result, dur, parent):
            self.counts[key] += 1

        return hook

    def _hook_evaluate(self, args, kwargs, result, dur, parent):
        x = args[1] if len(args) > 1 else kwargs["x"]
        if args[0].__class__.__name__ == "TrigPoly":
            self.counts["trigpoly.term_points"] += self.original["trigpoly.TrigPoly.term_count"](args[0]) * np.size(x)
        if parent not in EVALUATE:
            self.counts["trigpoly.evaluate_s"] += dur
        if parent == "certify.certify_lower_bound":
            self.counts["certify.lower_bound_passes"] += 1
            self.counts["certify.lower_bound_points"] += np.size(x)

    def _hook_modsq(self, args, kwargs, result, dur, parent):
        self.counts["trigpoly.modsq_s"] += dur
        if result.__class__.__name__ == "TrigPoly":  # the dict route, not the lazy product
            n = self.original["trigpoly.TrigPoly.term_count"](args[0])
            self.counts["trigpoly.modsq_pairs"] += n * (n - 1) // 2

    def _hook_roots(self, args, kwargs, result, dur, parent):
        self.counts["periodic.roots_s"] += dur
        self.counts["periodic.roots_degree"] += len(args[0]) - 1

    def _hook_lower_bound(self, args, kwargs, result, dur, parent):
        if result is False:
            self.counts["certify.lower_bound_refused"] += 1

    def _hook_half_log(self, args, kwargs, result, dur, parent):
        self.counts["cepstral.samples"] += len(result.values)

    def _hook_scan(self, args, kwargs, result, dur, parent):
        theta = args[0]
        self.counts["cepstral.scan_s"] += dur
        self.counts["cepstral.scan_translates"] += math.floor(theta.halfwidth / theta.step + 1e-9)

    def _hook_product(self, args, kwargs, result, dur, parent):
        zs = args[0].zero_set if hasattr(args[0], "zero_set") else args[0]
        z = args[1] if len(args) > 1 else kwargs["z"]
        self.counts["products.log_terms"] += np.size(z) * len(zs.zeros)

    def _hook_select_n(self, args, kwargs, result, dur, parent):
        self.counts["construction.select_n_s"] += dur

    def _hook_dumps(self, args, kwargs, result, dur, parent):
        self.counts["serialize.bytes_out"] += len(result)

    def _hook_loads(self, args, kwargs, result, dur, parent):
        self.counts["serialize.bytes_in"] += len(args[0])
