"""Spans recorded by the benchmark itself, around calls into ``repro``.

A traced run installs wrappers on the public functions and methods named
in :data:`TARGETS`; every call records one span (name, start, end,
parent, request id).  Spans stay in :attr:`Tracer.spans`, an unbounded
list owned by the run, and are written out as JSON lines at the end.
The program's own ``repro.obs`` ring buffer is never read.

A layer's self time is its spans' durations minus the part covered by
child spans.  ``other_s`` is the traced wall time outside every layer
span, measured from the union of span intervals, so

    sum(layer self times) + other_s == traced wall time

holds only when spans nest properly; :meth:`Tracer.reconcile` checks it.
That identity cannot see work outside every span, so the batch
workloads also compare the spans inside each op with the op's own,
independent timing (:meth:`Tracer.covered_seconds` with ``within``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

#: span name -> (module, attribute[, method]) of the wrapped callable.
#: Functions are swapped wherever a ``repro`` module holds a reference
#: (``from x import f`` bindings included); methods on their class.
TARGETS = {
    "circuit.parse": ("repro.circuit.bench", "parse_bench"),
    "circuit.flat": ("repro.circuit.flat", "FlatCircuit", "__init__"),
    "circuit.closures": ("repro.circuit.flat", "LiteralClosures", "__init__"),
    "store.fingerprint": ("repro.store.fingerprint", "canonical_form"),
    "store.get": ("repro.store.db", "ResultStore", "get"),
    "store.put": ("repro.store.db", "ResultStore", "put"),
    "paths.count": ("repro.paths.count", "count_paths"),
    "sorting.heu1": ("repro.sorting.heuristics", "heuristic1_sort"),
    "sorting.heu2": ("repro.sorting.heuristics", "heuristic2_analysis"),
    "classify.tables": ("repro.classify.session", "CircuitSession", "tables"),
    "classify.pass": ("repro.classify.session", "CircuitSession", "classify"),
    "classify.check": ("repro.classify.engine", "check_logical_path_tables"),
    "baseline.rd": ("repro.baseline.exact_assignment", "baseline_rd"),
    "timing.kpaths": ("repro.timing.kpaths", "iter_paths_by_delay"),
    "signoff.query": ("repro.signoff.query", "signoff"),
    "delaytest.tpg": ("repro.delaytest.tpg", "generate_test_set"),
    "delaytest.faultsim": ("repro.delaytest.simulator", "sensitized_paths"),
    "delaytest.robust_test": ("repro.delaytest.testability", "robust_test"),
    "verdict.row": ("repro.verdict.tightness", "tightness_row"),
    "incremental.cone_index": ("repro.incremental.conefp", "cone_index"),
}

#: spans the benchmark opens itself (no wrapped callable)
OWN_SPANS = ("service.request", "cli.run", "cli.import")

#: layer (module name) -> span names of that layer
LAYERS = {}
for _name in list(TARGETS) + list(OWN_SPANS):
    LAYERS.setdefault(_name.split(".")[0], []).append(_name)
del _name


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: each span: [name, start, end, parent index, request id, attrs]
        self.spans: list = []
        self._stack: list = []
        self.rid: "str | None" = None
        self._undo: list = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.rid, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs: "dict | None" = None) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter()
        record[5] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        if name == "classify.pass":
            def wrapper(*args, **kwargs):
                span = "classify.stream" if kwargs.get("on_path") else name
                index = tracer._open(span)
                attrs = None
                try:
                    result = fn(*args, **kwargs)
                    if args[0].store is None:  # a stored result did no work
                        attrs = {"edges": result.edges_visited,
                                 "accepted": result.accepted}
                    return result
                finally:
                    tracer._close(index, attrs)
        elif name == "timing.kpaths":
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def timed():
                    while True:
                        index = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer._close(index)
                            return
                        except BaseException:
                            tracer._close(index)
                            raise
                        tracer._close(index, {"yielded": 1})
                        yield item

                return timed()
        else:
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for name, target in TARGETS.items():
            module = importlib.import_module(target[0])
            if len(target) == 3:
                cls = getattr(module, target[1])
                original = cls.__dict__[target[2]]
                setattr(cls, target[2], self._wrap(name, original))
                self._undo.append((cls.__dict__, cls, target[2], original))
                continue
            original = getattr(module, target[1])
            wrapped = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                space = getattr(mod, "__dict__", None)
                if not getattr(mod, "__name__", "").startswith("repro") or not space:
                    continue
                for key, value in list(space.items()):
                    if value is original:
                        space[key] = wrapped
                        self._undo.append((space, None, key, original))

    def uninstall(self) -> None:
        for space, cls, key, original in reversed(self._undo):
            if cls is not None:
                setattr(cls, key, original)
            else:
                space[key] = original
        self._undo.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list:
        """Per-span self time (duration minus children's durations)."""
        selfs = [end - start for _n, start, end, _p, _r, _a in self.spans]
        for _n, start, end, parent, _r, _a in self.spans:
            if parent is not None:
                selfs[parent] -= end - start
        return selfs

    def covered_seconds(self, within: "list | None" = None) -> float:
        """Length of the union of all span intervals, or of its part
        inside the disjoint ``(start, end)`` intervals ``within``."""
        merged: list = []
        for start, end in sorted((s[1], s[2]) for s in self.spans):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        if within is None:
            return sum(end - start for start, end in merged)
        total = 0.0
        for low, high in within:
            for start, end in merged:
                if start < high and end > low:
                    total += min(end, high) - max(start, low)
        return total

    def reconcile(self, wall: float) -> "tuple[dict, float, float]":
        """``(layer self seconds, other_s, error)`` for a traced wall time;
        ``error`` is how far self times plus ``other_s`` miss ``wall``."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for record, own in zip(self.spans, self.self_times()):
            layer_self[record[0].split(".")[0]] += own
        other = wall - self.covered_seconds()
        return layer_self, other, sum(layer_self.values()) + other - wall

    def export(self, path, origin: float) -> None:
        """Write spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, rid, attrs) in enumerate(
                self.spans
            ):
                line = {
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "request": rid,
                }
                if attrs:
                    line["attrs"] = attrs
                out.write(json.dumps(line, sort_keys=True) + "\n")
