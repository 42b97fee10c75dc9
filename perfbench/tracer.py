"""Spans around calls into each wptrans module, from outside the package.

The tracer wraps every public function of every layer module, and
FiniteField.tables, and installs each wrapper wherever the original is
bound: in its own module, in every wptrans module that imported it by
name (pslgroups binds orbit_profile, solve_weight_equation, classify and
fixedpoints' functions; cli binds report.run and report.render) and in
the package namespace.  ``uninstall`` puts the originals back, so an
untraced replay runs the unmodified program.

A span is recorded when a call crosses into another layer, or into one
of the named buckets below from elsewhere in its own layer; other calls
inside a layer are part of the enclosing span.  A span's self time is its
duration minus its direct children's.  Spans stay in memory until
``write``.  Work counters are computed from each recorded call's
arguments and result.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("surfacecore", "platonic", "fixedpoints", "pslgroups", "orbitweights",
          "bielliptic", "fermat", "report", "cli")

BUCKETS = {
    "orbitweights.solve_weight_equation": "orbitweights.solve",
    "orbitweights.classify": "orbitweights.classify",
    "pslgroups.order_census": "pslgroups.census",
    "pslgroups.field_build": "pslgroups.field",
    "pslgroups.FiniteField.tables": "pslgroups.field",
    "pslgroups.is_hurwitz_psl2q": "pslgroups.verdict",
    "pslgroups.hurwitz_genus": "pslgroups.verdict",
    "pslgroups.psl2q_transitivity_verdict": "pslgroups.verdict",
    "pslgroups.modular_surface_verdict": "pslgroups.verdict",
    "bielliptic.scan_nontransitive": "bielliptic.scan",
    "fermat.orbit_enumerate": "fermat.orbit",
    "report.run": "report.run",
    "report.render": "report.render",
    "report.render_json": "report.render",
    "report.render_text": "report.render",
    "report.to_jsonable": "report.render",
    "cli.main": "cli.main",
}


def _classify_counts(args, kwargs):
    sol_set = args[0] if args else kwargs["sol_set"]
    mask = kwargs.get("zero_indices", args[1] if len(args) > 1 else ())
    survivors = sum(1 for v in sol_set.solutions if all(v[i] == 0 for i in mask))
    return {"orbitweights.materialised": len(sol_set.solutions),
            "orbitweights.survivors": survivors}


def _scan_counts(args, kwargs, result):
    g_from, g_to = args[0], args[1]
    return {"bielliptic.genera_scanned": g_to - g_from + 1,
            "bielliptic.survivors": len(result)}


# counters taken from a call's arguments and result; classify's is taken
# from the arguments alone, so a call that raises is counted too
COUNTERS = {
    "orbitweights.solve_weight_equation":
        lambda a, k, r: {"orbitweights.solutions": len(r.solutions)},
    "pslgroups.order_census":
        lambda a, k, r: {"pslgroups.census_elements": sum(r.counts.values())},
    "pslgroups.field_build": lambda a, k, r: {"pslgroups.field_builds": 1},
    "bielliptic.scan_nontransitive": _scan_counts,
    "fermat.orbit_enumerate": lambda a, k, r: {"fermat.orbit_points": r},
    "report.render": lambda a, k, r: {"report.bytes_out": len(r.encode())},
    "report.render_json": lambda a, k, r: {"report.bytes_out": len(r.encode())},
    "report.render_text": lambda a, k, r: {"report.bytes_out": len(r.encode())},
}


def _public_functions(module):
    for name, obj in list(vars(module).items()):
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        # span: [bucket, layer, start, end, parent index or -1, item id]
        self.spans = []
        self.counters = {}
        self.item = None
        self._open = []
        self._patches = []

    def _wrap(self, layer, qualname, fn):
        bucket = BUCKETS.get(qualname, layer)
        counter = COUNTERS.get(qualname)
        counts_args = qualname == "orbitweights.classify"
        spans, open_, counters = self.spans, self._open, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_:
                top = spans[open_[-1]]
                if top[1] == layer and (bucket == layer or bucket == top[0]):
                    return fn(*args, **kwargs)
            if counts_args:
                for k, v in _classify_counts(args, kwargs).items():
                    counters[k] = counters.get(k, 0) + v
            span = [bucket, layer, 0.0, 0.0, open_[-1] if open_ else -1, self.item]
            open_.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        return wrapper

    def install(self):
        """Wrap every layer's public functions at every import site."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["wptrans." + layer]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, "%s.%s" % (layer, name), fn))
        for modname, module in list(sys.modules.items()):
            if modname != "wptrans" and not modname.startswith("wptrans."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        field = sys.modules["wptrans.pslgroups"].FiniteField
        self._patch(field, "tables",
                    self._wrap("pslgroups", "pslgroups.FiniteField.tables", field.tables))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self):
        """{bucket: seconds} and {layer: seconds} of self time."""
        child = [0.0] * len(self.spans)
        for bucket, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_bucket, by_layer = {}, {}
        for (bucket, layer, start, end, _, _), inner in zip(self.spans, child):
            own = end - start - inner
            by_bucket[bucket] = by_bucket.get(bucket, 0.0) + own
            by_layer[layer] = by_layer.get(layer, 0.0) + own
        return by_bucket, by_layer

    def span_counts(self):
        """Spans recorded per bucket and per layer."""
        counts = {}
        for bucket, layer, *_ in self.spans:
            counts[bucket] = counts.get(bucket, 0) + 1
            if layer != bucket:
                counts[layer] = counts.get(layer, 0) + 1
        return counts

    def write(self, path):
        with open(path, "w") as fh:
            for bucket, layer, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": bucket, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
