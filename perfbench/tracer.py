"""Per-layer tracing of hgfq, installed from outside the package at run time.

The layers are hgfq's modules.  Every public function and method of a layer
module is replaced, in every hgfq module that holds a reference to it, by a
wrapper that keeps a stack of active layers:

- a call that crosses into a layer from another layer (or from the
  benchmark) counts one ``<layer>.calls`` and charges its duration, minus the
  time spent in nested calls to other layers, to ``<layer>.self_s``;
- a call from a layer into itself costs one flag test and, for the named
  counters below, one increment.

``ffield``, ``cyclo`` and ``chars`` see millions of calls per pass, so they
are only aggregated.  Crossings into the other layers also record a span
``(id, parent, name, start, end)`` in memory, up to ``SPAN_CAP`` per pass.

Named counters (``cyclo.mul_calls`` ...) count the calls of the named
functions: every call for the plain counters (``ffield.op_calls`` ...), the
outermost call for the timed ones (``sums.jacobi_calls`` with ``sums.jacobi_s``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("ffield", "cyclo", "chars", "sums", "hgf", "genhgf", "varieties", "cli")
AGGREGATED = {"ffield", "cyclo", "chars"}
SPAN_CAP = 50_000

# Dunder methods that belong to a layer's public API.
_PUBLIC_DUNDERS = {
    "ffield": {"__init__"},
    "cyclo": {"__init__", "__add__", "__neg__", "__sub__", "__mul__", "__rmul__",
              "__truediv__", "__pow__", "__eq__"},
    "chars": {"__call__", "__mul__", "__pow__"},
}

# (layer, qualified name) -> counter group.  A group counts every call of its
# members as ``<group>_calls`` and, when it has a time key, the duration of
# its outermost calls as ``<group>_s``.
_GROUPS = {
    ("cyclo", "Cyclo.__mul__"): "cyclo.mul",
    ("cyclo", "Cyclo.__rmul__"): "cyclo.mul",
    ("cyclo", "Cyclo.__add__"): "cyclo.add",
    ("cyclo", "Cyclo.__eq__"): "cyclo.eq",
    ("cyclo", "Cyclo.invert"): "cyclo.invert",
    ("ffield", "Field.add"): "ffield.op",
    ("ffield", "Field.neg"): "ffield.op",
    ("ffield", "Field.sub"): "ffield.op",
    ("ffield", "Field.mul"): "ffield.op",
    ("ffield", "Field.inv"): "ffield.op",
    ("ffield", "Field.div"): "ffield.op",
    ("ffield", "Field.pow"): "ffield.op",
    ("ffield", "Field.trace_to_prime"): "ffield.trace",
    ("ffield", "Field.__init__"): "ffield.build",
    ("ffield", "ExtensionField.__init__"): "ffield.build",
    ("chars", "MulChar.eval"): "chars.eval",
    ("chars", "AddChar.eval"): "chars.eval",
    ("sums", "gauss"): "sums.gauss",
    ("sums", "jacobi"): "sums.jacobi",
    ("sums", "jacobi_direct"): "sums.jacobi",
    ("sums", "jacobi_product_formula"): "sums.jacobi",
    ("hgf", "hgf_eval"): "hgf.eval",
    ("hgf", "lauricella_eval"): "hgf.eval",
    ("hgf", "humbert_eval"): "hgf.eval",
    ("genhgf", "phi_delta"): "genhgf.phi",
    ("genhgf", "chi_of_sz"): "genhgf.char_evals",
    ("varieties", "Variety.n_chi"): "varieties.n_chi",
    ("varieties", "verify_iso"): "varieties.verify",
}
# Groups whose outermost calls are counted and timed; the others count every call.
_TIMED = {"cyclo.mul", "cyclo.add", "ffield.build", "sums.gauss", "sums.jacobi",
          "hgf.eval", "genhgf.phi", "varieties.n_chi", "varieties.verify"}


class Tracer:
    """Counters, timers and spans for one process; written out once, at the end."""

    def __init__(self):
        self.on = False
        self.stack = []  # frames [layer, child_seconds, span_id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.depth = defaultdict(int)
        self.spans = []
        self.spans_dropped = 0
        self._next_span = 1
        self.originals = {}

    # -- wrappers ------------------------------------------------------------

    def _hook(self, layer, qual):
        """Extra accounting for the counters that depend on arguments or results."""
        counts = self.counts
        if qual in ("Cyclo.__mul__", "Cyclo.__rmul__"):
            def hook(args, result):
                counts["cyclo.mul_m_sum"] += result.m
            return hook
        if qual == "hgf_eval":
            def hook(args, result):
                counts["hgf.terms"] += args[0].field.N
            return hook
        if qual == "lauricella_eval":
            def hook(args, result):
                counts["hgf.terms"] += args[0].field.N ** args[0].n
            return hook
        if qual == "humbert_eval":
            def hook(args, result):
                counts["hgf.terms"] += args[0].field.N ** 2
            return hook
        if qual == "phi_delta":
            def hook(args, result):
                counts["genhgf.s_points"] += args[0].field.q ** len(args[1])
            return hook
        return None

    def wrap(self, fn, layer, qual):
        group = _GROUPS.get((layer, qual))
        timed = group in _TIMED
        hook = self._hook(layer, qual)
        spans = layer not in AGGREGATED
        tr = self
        counts, times, depth = self.counts, self.times, self.depth
        calls, self_s, stack = self.calls, self.self_s, self.stack
        perf = time.perf_counter
        name = f"{layer}.{qual}"

        if qual.endswith(".support") and layer == "varieties":
            inner = fn

            def fn(obj, *a, **k):
                fresh = getattr(obj, "_support", None) is None
                result = inner(obj, *a, **k)
                if fresh and tr.on:
                    counts["varieties.support_size"] += len(result)
                return result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            outer_timed = timed and depth[group] == 0
            if outer_timed or (group is not None and not timed):
                counts[group + "_calls"] += 1
            crossing = not stack or stack[-1][0] != layer
            if not crossing and not outer_timed and hook is None:
                return fn(*args, **kwargs)
            if timed:
                depth[group] += 1
            frame = None
            if crossing:
                frame = [layer, 0.0, 0]
                if spans:
                    frame[2] = tr._next_span
                    tr._next_span += 1
                stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if timed:
                    depth[group] -= 1
                    if outer_timed:
                        times[group + "_s"] += dt
                if crossing:
                    stack.pop()
                    calls[layer] += 1
                    self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                    if spans:
                        tr._span(frame[2], name, t0, t0 + dt)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, layer, qual):
        """Generators run in their consumer's frame; count what they yield."""
        tr = self
        counts = self.counts
        key = "varieties.points" if (layer, qual.rsplit(".", 1)[-1]) == ("varieties", "points") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if key is None:
                return gen
            return _counted(gen, tr, counts, key)

        return wrapper

    def _span(self, span_id, name, start, end):
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        parent = 0
        for frame in reversed(self.stack):
            if frame[2]:
                parent = frame[2]
                break
        self.spans.append((span_id, parent, name, start, end))

    def run_op(self, name, fn):
        """Run one benchmark operation under a root span that parents its layer spans."""
        if not self.on:
            return fn()
        frame = ["op", 0.0, self._next_span]
        self._next_span += 1
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self._span(frame[2], "op." + name, t0, t1)

    def call_layer(self, layer, fn, *args, **kwargs):
        """Run fn as a crossing into ``layer`` (for entry points such as the CLI)."""
        return self.wrap(fn, layer, getattr(fn, "__name__", "call"))(*args, **kwargs)

    # -- installation --------------------------------------------------------

    def install(self, package="hgfq"):
        """Wrap the public API of every layer module of the imported package."""
        mods = {name: sys.modules[f"{package}.{name}"] for name in LAYERS
                if f"{package}.{name}" in sys.modules}
        replacements = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    replacements[id(obj)] = (obj, self._wrap_any(obj, layer, attr))
                    self.originals[f"{layer}.{attr}"] = obj
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None:
                    setattr(mod, attr, hit[1])

    def _wrap_any(self, fn, layer, qual):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, layer, qual)
        return self.wrap(fn, layer, qual)

    def _install_class(self, cls, layer):
        dunders = _PUBLIC_DUNDERS.get(layer, set())
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in dunders:
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap_any(obj.__func__, layer, qual)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap_any(obj, layer, qual))

    # -- results -------------------------------------------------------------

    def cache_totals(self):
        """Hits and misses of the memoized sums, read from their own caches."""
        hits = misses = 0
        for name in ("gauss", "jacobi", "pochhammer", "pochhammer_circ"):
            fn = self.originals.get(f"sums.{name}")
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
        return hits, misses

    def raw(self):
        """Plain counters, summable across processes."""
        hits, misses = self.cache_totals()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out.update(self.counts)
        out.update(self.times)
        out["sums.cache_hits"] = hits
        out["sums.cache_misses"] = misses
        return out


def _counted(gen, tr, counts, key):
    for item in gen:
        if tr.on:
            counts[key] += 1
        yield item


PER_LAYER_KEYS = (
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    + [
        "cyclo.mul_calls", "cyclo.mul_s", "cyclo.mul_m_mean",
        "cyclo.add_calls", "cyclo.add_s", "cyclo.eq_calls", "cyclo.invert_calls",
        "ffield.op_calls", "ffield.trace_calls", "ffield.build_calls", "ffield.build_s",
        "chars.eval_calls",
        "sums.gauss_calls", "sums.gauss_s", "sums.jacobi_calls", "sums.jacobi_s",
        "sums.cache_hit_ratio",
        "hgf.eval_calls", "hgf.eval_s", "hgf.terms",
        "genhgf.phi_calls", "genhgf.phi_s", "genhgf.s_points", "genhgf.char_evals",
        "varieties.support_size", "varieties.n_chi_calls", "varieties.n_chi_s",
        "varieties.points", "varieties.verify_s",
        "cli.import_s", "cli.output_bytes",
    ]
)


def layer_metrics(raw):
    """Per-layer metrics of one pass from summed raw counters."""
    out = {}
    for key in PER_LAYER_KEYS:
        out[key] = raw.get(key, 0)
    out["genhgf.char_evals"] = raw.get("genhgf.char_evals_calls", 0)  # chi_of_sz calls
    mul = raw.get("cyclo.mul_calls", 0)
    out["cyclo.mul_m_mean"] = raw.get("cyclo.mul_m_sum", 0) / mul if mul else 0.0
    lookups = raw.get("sums.cache_hits", 0) + raw.get("sums.cache_misses", 0)
    out["sums.cache_hit_ratio"] = raw.get("sums.cache_hits", 0) / lookups if lookups else 0.0
    return out
