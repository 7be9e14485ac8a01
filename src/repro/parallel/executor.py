"""The solve executor: fan independent program solves out over workers.

Two pool flavours behind one interface:

* **Threads** (default) — cheap to spin up, share the parent's warm caches,
  and correct for any backend.  On CPython they only buy wall-clock when the
  backend releases the GIL, so they are the right choice for coordination-
  heavy workloads (the service batch executor) and the safe fallback
  everywhere else.
* **Processes** — real CPU scale-out for GIL-bound solves.  Work crosses the
  boundary by pickling compiled :class:`~repro.plan.BoundProgram` skeletons
  (a few KB each; see ``BoundProgram.__getstate__``), so process mode is
  only offered for backends whose registry capability flags declare
  ``process_safe`` — a backend wrapping a persistent native solver handle
  cannot ship its state to another process and must stay on threads.

``mode="auto"`` resolves to threads: measurements show the scipy/HiGHS entry
point holds the GIL, but threads never *lose* correctness, and callers that
have verified their deployment benefits from processes opt in explicitly
(the fan-out benchmark does).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from ..exceptions import SolverError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..relational.aggregates import AggregateFunction
from ..solvers.registry import backend_capabilities

__all__ = ["SolveExecutor", "default_workers"]

_MODES = ("serial", "thread", "process", "auto")


def default_workers() -> int:
    """Default executor width (the worker pool's heuristic)."""
    return min(8, os.cpu_count() or 1)


def _bound_program_task(payload) -> tuple[float | None, float | None, bool]:
    """Process-pool entry point: solve one pickled program, return endpoints.

    Must stay a module-level function (picklable by reference).  The result
    is flattened to plain endpoints so workers never ship decomposition
    statistics objects back — the parent re-attaches metadata.
    """
    program, aggregate, known_sum, known_count = payload
    result = program.bound(aggregate, known_sum=known_sum,
                           known_count=known_count)
    return result.lower, result.upper, result.closed


class SolveExecutor:
    """Runs independent solve callables across a worker pool, in order.

    Parameters
    ----------
    max_workers:
        Pool width; ``1`` (or a ``serial`` mode) runs inline with zero pool
        overhead.
    mode:
        ``"thread"`` (default), ``"process"``, ``"serial"``, or ``"auto"``
        (currently threads; see the module docstring).
    backend:
        The MILP backend the solves will use.  Only consulted in process
        mode, where the backend's ``process_safe`` capability flag gates the
        pickle handoff.
    """

    def __init__(self, max_workers: int | None = None, mode: str = "thread",
                 backend: str | None = None):
        if mode not in _MODES:
            raise SolverError(
                f"unknown executor mode {mode!r}; expected one of {_MODES}")
        if max_workers is not None and max_workers <= 0:
            raise SolverError(
                f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers or default_workers()
        if mode == "auto":
            mode = "thread"
        if self._max_workers == 1:
            mode = "serial"
        if mode == "process" and backend is not None:
            if not backend_capabilities(backend).process_safe:
                raise SolverError(
                    f"backend {backend!r} is not process-safe (it holds "
                    "native solver state); use thread mode instead")
        self._mode = mode
        self._backend = backend
        self._pool: ThreadPoolExecutor | ProcessPoolExecutor | None = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def mode(self) -> str:
        return self._mode

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self):
        if self._pool is None:
            # The atexit reaper guarantees an interrupted run (e.g. a
            # killed pytest session) never strands worker processes, even
            # for callers that skip the context-manager protocol.
            from .pool import register_for_reaping

            register_for_reaping(self)
            if self._mode == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

    def shutdown(self) -> None:
        """Release the underlying pool; idempotent (and re-armable: the
        executor lazily rebuilds its pool if used again)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SolveExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable, items: Sequence | Iterable) -> list:
        """Apply ``fn`` to every item, returning results in input order.

        Serial mode (and width-1 pools) run inline so single-worker
        configurations degrade to exactly the sequential code path —
        the property the workers=1 CI configuration pins.
        """
        items = list(items)
        get_registry().counter("executor.tasks").inc(len(items))
        tracer = get_tracer()
        if self._mode == "serial" or len(items) <= 1:
            with tracer.span("executor.map"):
                tracer.annotate(mode="serial", items=len(items))
                return [fn(item) for item in items]
        pool = self._ensure_pool()
        chunksize = 1
        if self._mode == "process":
            # Amortise per-task IPC for large fan-outs.
            chunksize = max(1, len(items) // (self._max_workers * 4))
        with tracer.span("executor.map"):
            tracer.annotate(mode=self._mode, items=len(items))
            return list(pool.map(fn, items, chunksize=chunksize))

    def solve_programs(self, programs: Sequence, aggregate: AggregateFunction,
                       known_sum: float = 0.0, known_count: float = 0.0
                       ) -> list[tuple[float | None, float | None, bool]]:
        """Bound ``aggregate`` on every program, fanned across the pool.

        Returns plain ``(lower, upper, closed)`` endpoint triples in input
        order; callers re-wrap them (the shard merge only needs endpoints).
        In process mode each task pickles one compiled program to a worker —
        a few KB against solves that are orders of magnitude costlier.
        """
        payloads = [(program, aggregate, known_sum, known_count)
                    for program in programs]
        return self.map(_bound_program_task, payloads)
