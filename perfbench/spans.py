"""Span recording around the public calls of each layer.

The benchmark does not trace from inside the program: :class:`SpanRecorder`
wraps the public functions and methods each layer exposes (the table in
:data:`LAYER_CALLS`) and records one span per call — name, layer, start,
end, parent span and op id — in memory.  Spans are written once, at the end
of the run, and a layer's self time is its spans' durations minus the part
of each interval covered by child spans.

Spans are recorded in the client process only; work inside process-pool
workers shows up as caller-side time of the ``parallel.pool`` layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (module, owner, attribute, layer) for every call the traced run wraps.
#: ``owner`` is a class name, or None for a module-level function; a
#: module-level function is also replaced wherever another ``repro`` module
#: imported it by name.
LAYER_CALLS = (
    ("repro.core.bounds", "PCBoundSolver", "plan", "plan"),
    ("repro.core.bounds", "PCBoundSolver", "decompose", "core.cells"),
    ("repro.core.cells", None, "decompose_cached", "core.cells"),
    ("repro.core.cells", "CellDecomposer", "decompose", "core.cells"),
    ("repro.plan.program", None, "compile_plan", "plan.program"),
    ("repro.plan.program", "BoundProgram", "bound", "solvers.milp"),
    ("repro.plan.program", "BoundProgram", "bound_batch", "solvers.milp"),
    ("repro.relational.query", "AggregateQuery", "execute", "relational"),
    ("repro.relational.relation", "Relation", "filter", "relational"),
    ("repro.relational.relation", "Relation", "append", "relational"),
    ("repro.service.fingerprint", None, "fingerprint_query",
     "service.fingerprint"),
    ("repro.service.fingerprint", None, "fingerprint_relation",
     "service.fingerprint"),
    ("repro.service.cache", "LRUCache", "get", "service.cache"),
    ("repro.service.cache", "LRUCache", "peek", "service.cache"),
    ("repro.service.cache", "LRUCache", "put", "service.cache"),
    ("repro.service.cache", "LRUCache", "get_or_compute", "service.cache"),
    ("repro.service.store", "PersistentStore", "read", "service.store"),
    ("repro.service.store", "PersistentStore", "write", "service.store"),
    ("repro.service.service", "ContingencyService", "analyze", "service"),
    ("repro.service.service", "ContingencyService", "execute_batch",
     "service"),
    ("repro.service.service", "ContingencyService", "append_rows", "service"),
    ("repro.service.batch", "BatchExecutor", "execute", "service.batch"),
    ("repro.parallel.pool", "WorkerPool", "warm", "parallel.pool"),
    ("repro.parallel.pool", "WorkerPool", "analyze", "parallel.pool"),
)

#: Layers in report order; ``unattributed`` is time in spans' glue code
#: (cache compute factories) that no listed layer owns.
LAYERS = ("plan", "core.cells", "plan.program", "solvers.milp", "relational",
          "service.fingerprint", "service.cache", "service.store", "service",
          "service.batch", "parallel.pool", "unattributed")


class SpanRecorder:
    """Records spans while :attr:`active`; wraps calls via :meth:`install`.

    A span opened on a thread with no open span of its own (a batch
    executor's warm-up thread) takes the client thread's innermost open
    span as its parent, so self time subtracts work fanned out to threads.
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        #: (op, cells) for every fresh enumeration.
        self.cells: list[tuple[int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._client_thread = threading.get_ident()
        self._pid = os.getpid()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, function, /, *args, **kwargs):
        """Run ``function`` inside a span (a plain call when not recording)."""
        if not self.active or os.getpid() != self._pid:
            return function(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, layer, start, end, parent,
                               self.op))

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for module_name, owner_name, attribute, layer in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attribute)
                wrapper = self._wrap(original, layer, attribute)
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and getattr(loaded, attribute, None) is original):
                        self._replace(loaded, attribute, wrapper)
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                name = f"{owner_name}.{attribute}"
                if (owner_name, attribute) == ("LRUCache", "get_or_compute"):
                    wrapper = self._wrap_get_or_compute(original, layer, name)
                elif (owner_name, attribute) == ("CellDecomposer",
                                                 "decompose"):
                    wrapper = self._wrap_decomposer(original, layer, name)
                else:
                    wrapper = self._wrap(original, layer, name)
                self._replace(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _replace(self, owner, attribute: str, wrapper) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, original, layer: str, name: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, original, *args, **kwargs)
        return wrapper

    def _wrap_get_or_compute(self, original, layer: str, name: str):
        """The compute factory runs as an ``unattributed`` child span, so
        cache self time excludes the work the cache stands in for."""
        @functools.wraps(original)
        def wrapper(cache, key, factory):
            def traced_factory():
                return self.call("unattributed", f"{cache.name}.compute",
                                 factory)
            return self.call(layer, name, original, cache, key,
                             traced_factory)
        return wrapper

    def _wrap_decomposer(self, original, layer: str, name: str):
        """Also tallies the cells each fresh enumeration produced."""
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            decomposition = self.call(layer, name, original, *args, **kwargs)
            if self.active:
                self.cells.append((self.op, len(decomposition.cells)))
            return decomposition
        return wrapper

    # ------------------------------------------------------------------ #
    # Analysis and output
    # ------------------------------------------------------------------ #
    def self_times(self, window: int) -> dict[str, float]:
        """Per-layer self milliseconds over ops < window.

        Self time is a span's duration minus the union of its children's
        intervals (clipped to the parent), so overlapping children fanned
        out to threads are not subtracted twice.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        self_ms = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, layer, start, end, _, op in self.spans:
            if op >= window:
                continue
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            self_ms[layer] += (end - start - covered) * 1e3
        return self_ms

    def count(self, name: str, window: int) -> int:
        return sum(1 for span in self.spans if span[1] == name
                   and span[6] < window)

    def cell_count(self, window: int) -> int:
        return sum(cells for op, cells in self.cells if op < window)

    def write(self, path: str) -> None:
        """Write every span as one gzip'd JSON line each."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, layer, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "layer": layer,
                     "start": start, "end": end, "parent": parent,
                     "op": op}) + "\n")
