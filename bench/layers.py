"""Per-layer tracing of locmat from outside the library.

Each traced function is found by name and every binding of it in a locmat
module namespace (``from .saturated import contains`` copies the reference)
is replaced by a span wrapper; methods are patched on their class.  Spans
are aggregated in memory per (function, parent span), so millions of calls
cost a few dict entries.  A span's self time is its duration minus that of
its child spans.

Which end-to-end metric (run.py) each layer metric should move, and where:

* ``cli.import_ms`` and ``cli.run.self_us``: op_ms_* and ops_per_s on
  cli-oneshot, and setup_s on every workload.
* ``steinitz.valuation.calls``, ``ratio_if_connected``, ``mul_natural``,
  ``saturated.contains`` and ``density.cmp_density``: the op metrics of
  verify-corpus; less so those of decision-stream.
* ``steinitz.factorize.*``: the op metrics and peak_rss_mb of
  decision-stream; nothing on verify-corpus, where nearly every call hits.
* ``algebra.*`` and ``saturated.equals_extensional``: decision-stream, and
  the roundtrip part of ``check all`` on verify-corpus.
* ``oracle.*``: verify-corpus.
"""

from __future__ import annotations

import functools
import sys
import time

#: Traced functions per layer.  The metric name is ``<layer>.<function>``
#: wherever the function is defined, so moving it keeps the name.
LAYERS = {
    "steinitz": ["parse", "factorize", "ratio_if_connected", "mul_natural", "divide_by",
                 "omega_contains", "scale", "enumerate_omega"],
    "density": ["cmp_density", "floor_times"],
    "saturated": ["contains", "r_sub", "compare_inclusion", "equals_formal", "equals_extensional",
                  "sample_members", "mk_finite_type", "parse_set", "check_saturation_axioms"],
    "algebra": ["realize", "spectrum_of_chain", "parse_descriptor"],
    "oracle": ["r_sub_brute", "saturation_fuzz", "check_inequality_suite"],
    "cli": ["run"],
}
#: Called too often and too cheaply for a span: counted only.
COUNTED = {"steinitz": ["valuation"]}


def _namespaces():
    """Every locmat module, and every class defined in one."""
    for name, mod in sorted(sys.modules.items()):
        if name == "locmat" or name.startswith("locmat."):
            yield mod
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and getattr(obj, "__module__", "").startswith("locmat"):
                    yield obj


def _find(spaces: list, layer: str, name: str):
    """The function called ``name``: preferably the one the layer's module
    binds, else any locmat binding of that name."""
    home = sys.modules.get(f"locmat.{layer}")
    ordered = ([home] if home is not None else []) + spaces
    for ns in ordered:
        fn = vars(ns).get(name)
        if callable(fn) and not isinstance(fn, type):
            return fn
    return None


class Tracer:
    """Span aggregation for the functions in LAYERS, installed by rebinding."""

    def __init__(self, root: str = "op"):
        self.stack = [[root, 0]]
        self.agg: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[str, int] = {}
        self.patched: list[tuple[object, str, object]] = []
        self.factorize = None
        self.cache = [0, 0]
        self._cache_mark = (0, 0)

    def root(self, name: str) -> None:
        """Name the parent of top-level spans (the benchmark op kind)."""
        self.stack[0][0] = name

    def _span(self, name: str, fn):
        stack, agg, clock = self.stack, self.agg, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = agg.get((name, parent[0]))
                if rec is None:
                    rec = agg[(name, parent[0])] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if not ok:
                    rec[3] += 1
                elif result is True:
                    rec[4] += 1

        return span

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        spaces = list(_namespaces())
        for table, make in ((LAYERS, self._span), (COUNTED, self._counter)):
            for layer, names in table.items():
                for name in names:
                    fn = _find(spaces, layer, name)
                    if fn is None:
                        continue
                    wrapper = make(f"{layer}.{name}", fn)
                    for ns in spaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                self.patched.append((ns, attr, fn))
                                setattr(ns, attr, wrapper)
                    if name == "factorize":
                        self.factorize = fn
        self._cache_mark = self._cache_info()

    def uninstall(self) -> None:
        """Restore every binding and bank the factorize cache counts."""
        for ns, attr, fn in reversed(self.patched):
            setattr(ns, attr, fn)
        self.patched.clear()
        hits, misses = self._cache_info()
        self.cache = [self.cache[0] + hits - self._cache_mark[0], self.cache[1] + misses - self._cache_mark[1]]

    def _cache_info(self) -> tuple[int, int]:
        """factorize's (hits, misses) from its public cache_info, if it has one."""
        info = getattr(self.factorize, "cache_info", None)
        if info is None:
            return 0, 0
        info = info()
        return info.hits, info.misses

    def dump(self) -> dict:
        """A JSON-ready snapshot, taken after uninstall: spans as [name,
        parent, calls, ns, self_ns, errors, true_results], counters, and the
        factorize cache hits and misses while installed."""
        return {
            "spans": [[n, p, *rec] for (n, p), rec in sorted(self.agg.items())],
            "counts": dict(self.counts),
            "cache": list(self.cache),
        }


def merge(dumps: list[dict]) -> dict:
    """Sum several dumps (one per traced process)."""
    agg: dict[tuple[str, str], list[int]] = {}
    counts: dict[str, int] = {}
    cache = [0, 0]
    for d in dumps:
        for n, p, *rec in d["spans"]:
            acc = agg.setdefault((n, p), [0] * len(rec))
            for i, x in enumerate(rec):
                acc[i] += x
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
        cache = [cache[0] + d["cache"][0], cache[1] + d["cache"][1]]
    return {"spans": [[n, p, *rec] for (n, p), rec in sorted(agg.items())], "counts": counts, "cache": cache}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            base = f"{layer}.{name}"
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.self_us", "us", "lower"),
                    (f"{base}.us_per_call", "us", "lower"), (f"{base}.errors", "count", "lower")]
    out += [
        ("steinitz.valuation.calls", "count", "lower"),
        ("steinitz.factorize.hit_ratio", "ratio", "higher"),
        ("saturated.contains.true_ratio", "ratio", "higher"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-function totals over all parents, plus the derived ratios."""
    totals: dict[str, list[int]] = {}
    for n, _p, calls, ns, self_ns, errors, trues in dump["spans"]:
        acc = totals.setdefault(n, [0, 0, 0, 0, 0])
        for i, x in enumerate((calls, ns, self_ns, errors, trues)):
            acc[i] += x
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for name in names:
            calls, ns, self_ns, errors, _ = totals.get(f"{layer}.{name}", [0] * 5)
            base = f"{layer}.{name}"
            out[f"{base}.calls"] = calls
            out[f"{base}.self_us"] = self_ns / 1e3
            out[f"{base}.us_per_call"] = ns / calls / 1e3 if calls else 0.0
            out[f"{base}.errors"] = errors
    out["steinitz.valuation.calls"] = dump["counts"].get("steinitz.valuation", 0)
    hits, misses = dump["cache"]
    out["steinitz.factorize.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    contains = totals.get("saturated.contains", [0] * 5)
    out["saturated.contains.true_ratio"] = contains[4] / contains[0] if contains[0] else 0.0
    return out
