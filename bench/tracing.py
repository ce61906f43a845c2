"""Spans at the boundaries between itrsbench's modules, for the traced run.

`Tracer.install` wraps, in each module's namespace, every public function
that the module imports from another itrsbench module, and every
itrsbench function in the benchmark's own `api` namespace.  A wrapper
records a span (name, start, end, parent) while the tracer is active.
Private helpers (`_canonical` and the like) are not wrapped, so their time
counts to the layer that calls them.  Generator functions are not
wrapped, since a span would end before their work is done.

`node_at` is not wrapped either: it walks one position, once per match
attempt, so its spans would outnumber all others ten to one and cost more
than the call; it counts to its caller.

A few counters need calls made inside one module (match and redexes in
rewriting, reduction_graph in convergence); those functions get a
counting wrapper without a span in their own module.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("terms", "rewriting", "metrics", "layers", "convergence", "itrsfile", "corpus")
TERM_BUILDERS = {"parse", "graph_term", "app", "replace", "substitute", "subterm", "to_text"}
UNTRACED = {"node_at"}


def _observe(counts: Counter, name: str, args, result):
    layer, func = name.split(".", 1)
    if layer == "terms" and func in TERM_BUILDERS:
        counts["terms.calls"] += 1
        if hasattr(result, "nodes"):
            counts["terms.nodes_out"] += len(result.nodes)
    elif name == "rewriting.match":
        counts["rewriting.match.calls"] += 1
        counts["rewriting.match.hits"] += result is not None
    elif name == "rewriting.redexes":
        counts["rewriting.redexes.found"] += len(result)
    elif name == "rewriting.successors":
        counts["rewriting.successors.calls"] += 1
    elif name == "metrics.distance":
        m, t, u = args[:3]
        counts["metrics.distance.calls"] += 1
        counts["metrics.distance.iterate"] += (
            t != u and not (t.is_finite and u.is_finite) and not m.is_granular
        )
        counts["metrics.distance.float"] += isinstance(result, float)
    elif name == "metrics.is_member":
        counts["metrics.is_member.calls"] += 1
    elif name == "convergence.reduction_graph":
        counts["convergence.graphs"] += 1
        counts["convergence.states_explored"] += len(result.edges)
        counts["convergence.graphs_exhausted"] += result.exhausted


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list = []
        self._undo: list = []

    def span(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            record = [name, clock(), 0.0, open_[-1] if open_ else -1]
            spans.append(record)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
            _observe(self.counts, name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                _observe(self.counts, name, args, result)
            return result

        return wrapper

    def _patch(self, namespace, attr: str, wrapper):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self, api):
        for layer in LAYERS:
            module = importlib.import_module(f"itrsbench.{layer}")
            for attr, obj in list(vars(module).items()):
                home = _home(obj)
                if attr.startswith("_") or attr in UNTRACED or home in (None, layer):
                    continue
                self._patch(module, attr, self.span(f"{home}.{attr}", obj))
        for layer, attr in (("rewriting", "match"), ("rewriting", "redexes"),
                            ("rewriting", "successors"), ("convergence", "reduction_graph")):
            module = importlib.import_module(f"itrsbench.{layer}")
            self._patch(module, attr, self.counter(f"{layer}.{attr}", getattr(module, attr)))
        for attr, obj in list(vars(api).items()):
            if _home(obj):
                self._patch(api, attr, self.span(f"{_home(obj)}.{attr}", obj))
        api.FIXTURES = {
            name: self.span(f"corpus.{fn.__name__}", fn) for name, fn in api.FIXTURES.items()
        }

    def uninstall(self):
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def self_times(self, since: int = 0) -> Counter:
        """Per-layer self time of the spans recorded from index `since` on."""
        spans = self.spans
        child = Counter()
        for name, start, end, parent in spans[since:]:
            if parent >= since:
                child[parent] += end - start
        out: Counter = Counter()
        for i in range(since, len(spans)):
            name, start, end, _parent = spans[i]
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def layer_calls(self, since: int = 0) -> Counter:
        return Counter(s[0].split(".", 1)[0] for s in self.spans[since:])

    def write(self, path: str):
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _home(obj):
    """The itrsbench layer a plain (non-generator) function is defined in."""
    if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
        return None
    package, _, layer = obj.__module__.partition(".")
    return layer if package == "itrsbench" and layer in LAYERS else None
