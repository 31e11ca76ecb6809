"""Spans and counters around the public functions of each hytrex module.

The tracer replaces a function at every namespace that binds it (its own
module, the modules that imported it by name, and the ``hytrex`` package),
so calls made through any of those bindings are seen.  Nothing under
``src/`` changes.  Spans are aggregated in memory per layer name, as calls,
inclusive seconds (outermost span of that name only, so re-entry is not
counted twice) and self seconds (duration minus the time covered by direct
child spans); ``report`` returns the aggregates at the end of a run.

The hottest leaves, ``transfer`` as called from ``activity`` and the
component counters, are counted without a span.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

# layer name -> (module, function names) wrapped in a span
SPANS = {
    "hypertrees.enumerate": ("hypertrees", ("enumerate_hypertrees",)),
    "hypertrees.tree_search": ("hypertrees", ("find_realizing_tree",)),
    "hypertrees.brute_force": ("hypertrees", ("hypertrees_by_brute_force",)),
    "hypertrees.polymatroid": ("hypertrees", ("is_hypertree_by_polymatroid",)),
    "hypertrees.greedy": ("hypertrees", ("greedy_exterior_hypertree",)),
    "activity.flags": ("activity", ("internal_active_flags", "external_active_flags")),
    "poly.interior": ("poly", ("interior_polynomial",)),
    "poly.exterior": ("poly", ("exterior_polynomial",)),
    "poly.tutte": ("poly", ("tutte_polynomial",)),
    "graph.mu_table": ("graph", ("mu_table",)),
    "transforms": ("transforms", ("delete_valence1", "delete_vertex", "contract_vertex",
                                  "one_point_join", "edge_join",
                                  "add_parallel_pair_vertices", "identify_pair",
                                  "balanced_decomposition")),
    "families.generate": ("families", ("generate",)),
    "families.closed_form": ("families", ("closed_form_interior", "closed_form_exterior")),
    "verify.corpus": ("verify", ("default_corpus",)),
    "verify.census": ("verify", ("exhaustive_connected_bipartite",)),
}

# counter name -> (module, function names, only the defining module's binding)
COUNTERS = {
    # Only the binding inside activity: enumeration's own transfers are not probes.
    "activity.probes": ("activity", ("transfer",), True),
    "graph.components": ("graph", ("subgraph_components", "component_count"), False),
}


def _rebind(original, replacement, only=None) -> int:
    """Replace ``original`` by ``replacement`` in every hytrex namespace (or
    only in module ``only``); returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hytrex" or name.startswith("hytrex.")):
            continue
        if only is not None and name != only:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class Tracer:
    def __init__(self):
        self.spans = {}      # layer -> [calls, inclusive s, self s]
        self.counts = {name: 0 for name in COUNTERS}
        self.graphs = set()  # distinct graphs handed to enumerate_hypertrees
        self.cold = [0, 0]   # hypertrees emitted, tree searches, over cold enumerations
        self._children = []  # child-span seconds of each open span
        self._depth = {}

    def _span(self, layer, fn):
        stats = self.spans.setdefault(layer, [0, 0.0, 0.0])
        children, depth, clock = self._children, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            level = depth.get(layer, 0)
            depth[layer] = level + 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                depth[layer] = level
                stats[0] += 1
                stats[2] += elapsed - covered
                if level == 0:
                    stats[1] += elapsed
                if children:
                    children[-1] += elapsed

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerate_probe(self, fn):
        """Record distinct graphs and the yield of cold enumerations (those
        that made tree searches; warm ones are served by the cache)."""
        searches = self.spans.setdefault("hypertrees.tree_search", [0, 0.0, 0.0])
        graphs, cold = self.graphs, self.cold

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            before = searches[0]
            result = fn(g, *args, **kwargs)
            made = searches[0] - before
            graphs.add(g)
            if made:
                cold[0] += len(result)
                cold[1] += made
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; hytrex must already be imported."""
        import hytrex  # noqa: F401  (binds every submodule the tracer touches)

        for layer, (module, names) in SPANS.items():
            mod = sys.modules[f"hytrex.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                inner = original
                if layer == "hypertrees.enumerate":
                    inner = self._enumerate_probe(original)
                if not _rebind(original, self._span(layer, inner)):
                    raise RuntimeError(f"no binding of hytrex.{module}.{fname}")
        for name, (module, names, own_only) in COUNTERS.items():
            mod = sys.modules[f"hytrex.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                only = f"hytrex.{module}" if own_only else None
                if not _rebind(original, self._counter(name, original), only):
                    raise RuntimeError(f"no binding of hytrex.{module}.{fname}")

    def report(self) -> dict:
        """Aggregates in a form that can be merged across processes."""
        digests = sorted(
            hashlib.md5(repr((g.v_names, g.e_names, sorted(g.adj))).encode()).hexdigest()
            for g in self.graphs)
        return {"spans": self.spans, "counts": self.counts,
                "graphs": digests, "cold": self.cold}


def merge(reports) -> dict:
    """Sum the aggregates of several traced processes."""
    out = {"spans": {}, "counts": {name: 0 for name in COUNTERS},
           "graphs": set(), "cold": [0, 0]}
    for rep in reports:
        for layer, (calls, incl, own) in rep["spans"].items():
            acc = out["spans"].setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for name, n in rep["counts"].items():
            out["counts"][name] += n
        out["graphs"].update(rep["graphs"])
        out["cold"][0] += rep["cold"][0]
        out["cold"][1] += rep["cold"][1]
    out["graphs"] = sorted(out["graphs"])
    return out


def layer_metrics(raw) -> dict:
    """Per-layer metrics (name -> value) from merged aggregates."""
    def span(layer):
        return raw["spans"].get(layer, [0, 0.0, 0.0])

    enum, search = span("hypertrees.enumerate"), span("hypertrees.tree_search")
    flags = span("activity.flags")
    probes = raw["counts"]["activity.probes"]
    emitted, searches = raw["cold"]
    out = {
        "hypertrees.enumerate.calls": enum[0],
        "hypertrees.enumerate.self_s": enum[2],
        "hypertrees.enumerate.distinct_graphs": len(raw["graphs"]),
        "hypertrees.tree_search.calls": search[0],
        "hypertrees.tree_search.s": search[1],
        "hypertrees.tree_search.yield": emitted / searches if searches else 0.0,
        "hypertrees.brute_force.calls": span("hypertrees.brute_force")[0],
        "hypertrees.brute_force.self_s": span("hypertrees.brute_force")[2],
        "hypertrees.polymatroid.calls": span("hypertrees.polymatroid")[0],
        "hypertrees.polymatroid.s": span("hypertrees.polymatroid")[1],
        "hypertrees.greedy.calls": span("hypertrees.greedy")[0],
        "hypertrees.greedy.s": span("hypertrees.greedy")[1],
        "activity.flags.calls": flags[0],
        "activity.flags.s": flags[1],
        "activity.probes": probes,
        "activity.probes_per_flag": probes / flags[0] if flags[0] else 0.0,
        "poly.interior.calls": span("poly.interior")[0],
        "poly.exterior.calls": span("poly.exterior")[0],
        "poly.assembly.self_s": span("poly.interior")[2] + span("poly.exterior")[2],
        "poly.tutte.calls": span("poly.tutte")[0],
        "poly.tutte.s": span("poly.tutte")[1],
        "graph.mu_table.calls": span("graph.mu_table")[0],
        "graph.mu_table.s": span("graph.mu_table")[1],
        "graph.components.calls": raw["counts"]["graph.components"],
        "transforms.calls": span("transforms")[0],
        "transforms.s": span("transforms")[1],
        "families.generate.calls": span("families.generate")[0],
        "families.generate.s": span("families.generate")[1],
        "families.closed_form.s": span("families.closed_form")[1],
        "verify.corpus.s": span("verify.corpus")[1],
        "verify.census.s": span("verify.census")[1],
    }
    return out
