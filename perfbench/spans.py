"""Spans around the public functions of each linres module, from outside.

``Tracer.installed()`` replaces every public function of the linres
modules (and ``MonomialIdeal.power`` / ``polarize``) with a wrapper that
records a span and counts work, in every module namespace that holds it,
so calls made through ``from .betti import koszul_betti`` are traced too.
The wrappers hand arguments, results and exceptions through unchanged;
leaving the context puts the original functions back.

Span names are ``<layer>.<what>``; the layer is the linres module.  Spans
are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("monomials", "graphs", "quotients", "betti", "rank", "rees", "cli")

# span name for the public functions the metrics single out; the rest are
# "<layer>.<function name>"
NAMES = {
    ("betti", "koszul_betti"): "betti.koszul",
    ("betti", "homology_dims"): "betti.homology",
    ("betti", "is_linear_resolution"): "betti.linear",
    ("betti", "hochster_oracle"): "betti.hochster",
    ("rank", "rank_over_q"): "rank.q",
    ("rank", "rank_mod_p"): "rank.gfp",
    ("quotients", "construct_lq_order"): "quotients.construct",
    ("quotients", "find_lq_order"): "quotients.search",
    ("rees", "toric_ideal_basis"): "rees.toric",
    ("rees", "integer_kernel"): "rees.kernel",
    ("rees", "buchberger"): "rees.buchberger",
    ("rees", "groebner_vs_walks"): "rees.walks",
    ("rees", "x_degree_check"): "rees.xdeg",
    ("cli", "cmd_analyze"): "cli.analyze",
}

# the per-layer metrics, in the order BENCHMARK.json lists them
SPAN_METRICS = {
    # span key: which of calls / s (outermost inclusive) / self_s to report
    "monomials.power": ("calls", "s"),
    "monomials.polarize": ("calls", "s"),
    "graphs": ("calls", "s"),
    "quotients.construct": ("calls", "s"),
    "quotients.search": ("calls", "s"),
    "betti.koszul": ("calls", "s", "self_s"),
    "betti.homology": ("s",),
    "betti.linear": ("calls", "s"),
    "betti.hochster": ("calls", "s"),
    "rank.q": ("calls", "s"),
    "rank.gfp": ("calls", "s"),
    "rees.toric": ("calls", "s", "self_s"),
    "rees.kernel": ("s",),
    "rees.saturate": ("calls", "s"),
    "rees.final": ("s",),
    "rees.buchberger": ("calls", "s"),
    "rees.walks": ("calls", "s"),
    "rees.xdeg": ("s",),
    "cli.analyze": ("calls", "self_s"),
}
COUNTERS = (
    "monomials.power.gens_out",
    "betti.koszul.multidegrees",
    "betti.strands",
    "betti.strands_nonzero",
    "betti.faces",
    "rank.q.cells",
    "rank.gfp.cells",
    "rees.saturate.gens_in",
    "rees.saturate.gens_out",
    "rees.final.basis",
    "rees.buchberger.basis",
)
# exceptions counted where a search or stage runs out of budget
EXHAUSTED = {"quotients.search.exhausted": "quotients.search", "rees.exhausted": "rees.toric"}


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _box(ideal) -> int:
    box = 1
    for v in range(ideal.n):
        box *= 1 + max(g.exps[v] for g in ideal.gens)
    return box


def _reduced_groebner_name(args, kwargs) -> str:
    order = kwargs["order"] if "order" in kwargs else args[1]
    if order.name.startswith("grevlex-last-"):
        return "rees.saturate"
    if order.name == "edge-lex":
        return "rees.final"
    return "rees.reduced_groebner"


def _count(counts, name, args, kwargs, result) -> None:
    """Work done by one successful call, counted at the call."""
    if name == "betti.homology":
        counts["betti.strands"] += 1
        counts["betti.strands_nonzero"] += bool(result)
        counts["betti.faces"] += len(args[0])
    elif name in ("rank.q", "rank.gfp"):
        counts[name + ".cells"] += _cells(args[0])
    elif name == "betti.koszul":
        counts["betti.koszul.multidegrees"] += _box(args[0])
    elif name == "monomials.power":
        counts["monomials.power.gens_out"] += result.num_gens
    elif name == "rees.buchberger":
        counts["rees.buchberger.basis"] += len(result)
    elif name in ("rees.saturate", "rees.final", "rees.reduced_groebner"):
        counts["rees.reduced.basis"] += len(result)
        if name == "rees.saturate":
            counts["rees.saturate.gens_in"] += len(args[0])
            counts["rees.saturate.gens_out"] += len(result)
        elif name == "rees.final":
            counts["rees.final.basis"] += len(result)


class Tracer:
    """Spans as [name, parent index, start, end, exception name or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, name: str | None, namer=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            rec = [span_name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            _count(counts, span_name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every public linres function while the context is open."""
        modules = {m: sys.modules[f"linres.{m}"] for m in LAYERS}
        namespaces = [sys.modules["linres"], *modules.values()]
        replaced: list[tuple[object, str, object]] = []
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                namer = _reduced_groebner_name if (layer, attr) == ("rees", "reduced_groebner") else None
                originals[id(fn)] = (fn, self.wrap(fn, NAMES.get((layer, attr), f"{layer}.{attr}"), namer))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    replaced.append((ns, attr, value))
                    setattr(ns, attr, originals[id(value)][1])
        ideal_cls = modules["monomials"].MonomialIdeal
        for meth in ("power", "polarize"):
            fn = vars(ideal_cls)[meth]
            replaced.append((ideal_cls, meth, fn))
            setattr(ideal_cls, meth, self.wrap(fn, f"monomials.{meth}"))
        try:
            yield self
        finally:
            for ns, attr, value in reversed(replaced):
                setattr(ns, attr, value)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, inclusive and self times and counts over the spans."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        exc: dict[str, int] = defaultdict(int)
        root_s = 0.0
        keys_of = {}
        for i, (name, parent, t0, t1, err) in enumerate(spans):
            dur = t1 - t0
            if parent < 0:
                root_s += dur
            keys = keys_of.get(name)
            if keys is None:
                parts = name.split(".")
                keys = keys_of[name] = [".".join(parts[:k]) for k in range(1, len(parts) + 1)]
            # inclusive time counts a span only when no ancestor has the same key
            outer = set(keys)
            p = parent
            while p >= 0 and outer:
                outer.difference_update(keys_of[spans[p][0]])
                p = spans[p][1]
            for key in keys:
                calls[key] += 1
                self_s[key] += dur - child[i]
                if key in outer:
                    incl[key] += dur
            if err == "BudgetExhausted":
                exc[name] += 1
        out: dict[str, float] = {}
        for key, fields in SPAN_METRICS.items():
            for f in fields:
                src = {"calls": calls, "s": incl, "self_s": self_s}[f]
                out[f"{key}.{f}"] = src.get(key, 0)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        out["betti.useful_ratio"] = _ratio(out["betti.strands_nonzero"], out["betti.strands"])
        out["rees.useful_ratio"] = _ratio(self.counts.get("rees.reduced.basis", 0),
                                          out["rees.buchberger.basis"])
        for metric, span in EXHAUSTED.items():
            out[metric] = exc.get(span, 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out["outside.s"] = wall_s - root_s
        out["traced_wall_s"] = wall_s
        out["spans"] = n
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line: id, parent, name, start, end, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, err) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, round(t0, 9), round(t1, 9), err]))
                fh.write("\n")


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
