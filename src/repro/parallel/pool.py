"""Persistent worker pools with warm per-worker program caches.

A pool built per call pays process fork, analyzer pickling and solver
warm-up on *every* batch.  This module is the long-lived runtime that
amortises those costs:

* **Worker-side warm caches.**  Each process worker owns a program cache
  keyed by the *parent's* program-cache keys (content fingerprints + region
  + attribute).  The first query for a key ships the compiled
  :class:`~repro.plan.BoundProgram` skeleton (a few KB); every later query
  ships only the key, and the worker patches parameters into its warm copy.
* **Fingerprint-affinity routing.**  A key is pinned to one worker
  (balanced on first sight, sticky afterwards), so repeated traffic for a
  program always lands where its warm copy lives instead of spraying cold
  misses across the pool.
* **Warm-up protocol.**  :meth:`WorkerPool.warm` pre-ships compiled
  skeletons to their affinity workers, and :meth:`WorkerPool.register_session`
  ships a whole analyzer once per worker, so batch phase 2 runs against warm
  worker state from the first query.
* **Explicit lifecycle.**  ``start`` / ``shutdown`` are idempotent, the pool
  is context-managed, dead workers are respawned (and their lost warm state
  re-shipped) transparently, and an ``atexit`` reaper guarantees interrupted
  test runs never strand worker processes.

Three modes share one interface: ``"process"`` (real CPU scale-out, gated on
the backend's ``process_safe`` capability — unsafe backends *fall back* to
threads instead of failing, the pool being infrastructure that outlives any
one backend choice), ``"thread"`` (shared-memory fan-out, the default), and
``"serial"`` (inline, the width-1 degeneration).  Nested use is safe: code
already running inside a pool worker (process or thread) executes inline
instead of re-entering a pool, so pooled work can never recurse into
worker-spawning.

The pool carries inter-query work only — warming programs, registering
sessions and answering batches of queries.  Each query itself is solved
serially by its one compiled program.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..exceptions import PoisonTaskError, QueryDeadlineError, SolverError
from ..faults import (apply_worker_fault, check_deadline, current_deadline,
                      resolve_faults)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..solvers.batching import adaptive_batch_size, chunked
from ..solvers.registry import backend_capabilities

__all__ = ["WorkerPool", "PoolStatistics", "POOL_MODES", "TASK_KINDS",
           "default_pool_mode", "default_pool_workers", "in_worker",
           "in_pool_thread", "register_for_reaping"]

POOL_MODES = ("serial", "thread", "process", "auto")


def default_pool_workers() -> int:
    """Default pool width: one worker per core, at most eight."""
    return min(8, os.cpu_count() or 1)


def default_pool_mode() -> str:
    """The service's default pool flavour; ``REPRO_POOL=1`` opts into
    process workers (the CI matrix leg that exercises the warm-pool path)."""
    return "process" if os.environ.get("REPRO_POOL") == "1" else "thread"


# --------------------------------------------------------------------- #
# Re-entrancy guards
# --------------------------------------------------------------------- #
_IN_WORKER = False
_POOL_THREAD = threading.local()


def in_worker() -> bool:
    """True inside a pool worker process (guards against nested fan-out)."""
    return _IN_WORKER


def in_pool_thread() -> bool:
    """True on a thread-mode pool worker thread (same nested-fan-out guard:
    waiting on our own executor from one of its threads would deadlock)."""
    return getattr(_POOL_THREAD, "active", False)


# --------------------------------------------------------------------- #
# The atexit reaper
# --------------------------------------------------------------------- #
_reap_lock = threading.Lock()
_reapable: "weakref.WeakSet" = weakref.WeakSet()
_reaper_installed = False


def register_for_reaping(pool) -> None:
    """Guarantee ``pool.shutdown()`` runs at interpreter exit.

    Registration is idempotent and weak: a garbage-collected pool never
    keeps the interpreter alive, and an interrupted pytest run still tears
    its worker processes down instead of stranding them.
    """
    global _reaper_installed
    with _reap_lock:
        _reapable.add(pool)
        if not _reaper_installed:
            atexit.register(_reap_all)
            _reaper_installed = True


def _reap_all() -> None:
    for pool in list(_reapable):
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


# --------------------------------------------------------------------- #
# Worker-side state and task handlers (process mode)
# --------------------------------------------------------------------- #
#: Per-worker warm program cache capacity.  Bounds worker memory the same
#: way the service's program LRU bounds the parent's; an evicted program is
#: recompiled by the worker-side solver (``get_or_compute``) on next use.
_WORKER_CACHE_ENTRIES = 1024


class _WorkerProgramCache:
    """The worker's warm program store: a bounded LRU satisfying the
    ``get_or_compute`` protocol so it can be attached to a worker-side
    solver as its shared program cache (single-threaded per worker, so no
    locking)."""

    def __init__(self, max_entries: int | None = None):
        from collections import OrderedDict

        self._max_entries = max_entries or _WORKER_CACHE_ENTRIES
        self._programs: "OrderedDict" = OrderedDict()

    def get_or_compute(self, key, factory):
        program = self.get(key)
        if program is None:
            program = factory()
            self.put(key, program)
        return program

    def get(self, key):
        program = self._programs.get(key)
        if program is not None:
            self._programs.move_to_end(key)
        return program

    def put(self, key, program) -> None:
        self._programs[key] = program
        self._programs.move_to_end(key)
        while len(self._programs) > self._max_entries:
            self._programs.popitem(last=False)

    def __len__(self) -> int:
        return len(self._programs)


def _handle_warm(programs, sessions, task):
    _, _, key, program = task
    programs.put(key, program)
    return len(programs)


def _handle_register(programs, sessions, task):
    _, _, session_key, analyzer = task
    # The pickled analyzer dropped its shared caches at the process
    # boundary; wiring the worker's own cache in their place is what makes
    # warmed skeletons visible to analyze() solves.
    analyzer.solver.attach_program_cache(programs)
    sessions[session_key] = analyzer
    return True


def _handle_analyze_batch(programs, sessions, task):
    """A batch of same-program queries against one registered session.

    One program ship (at most), one early-stop pin — the batch shares a
    program key, so every query resolves the same (region, attribute) pair.
    """
    _, _, session_key, program_key, program, queries, resolved_depth = task
    if program is not None:
        programs.put(program_key, program)
    analyzer = sessions.get(session_key)
    if analyzer is None:
        raise SolverError(
            "worker has no registered session for an analyze task "
            "(the parent must register before dispatching)")
    # Adopt the parent's adaptive early-stop resolution for this pair, so
    # this solver computes the parent's program key and finds the shipped
    # warm program (no-op outside adaptive budgeting).
    first = queries[0]
    analyzer.solver.pin_early_stop_depth(first.region, first.attribute,
                                         resolved_depth)
    get_tracer().annotate(cells=len(queries))
    return [analyzer.analyze(query) for query in queries]


#: Every query ships inside a batch: a single query is a one-entry
#: ``analyze_batch`` task.
_HANDLERS = {
    "warm": _handle_warm,
    "register": _handle_register,
    "analyze_batch": _handle_analyze_batch,
}

#: The pool's task kinds (what a fault plan's ``kind=`` may name).
TASK_KINDS = tuple(_HANDLERS)

#: Constant span names per task kind — instrumentation sites never build
#: names dynamically, so the tracing-disabled fast path allocates nothing.
_TASK_SPANS = {
    "warm": "pool.warm",
    "register": "pool.register",
    "analyze_batch": "pool.analyze_batch",
}


def _worker_main(index: int, connection) -> None:
    """One worker process: loop over tasks, keep program/session state warm.

    The transport is one duplex pipe per worker — deliberately not a shared
    queue: a queue's cross-process lock can be stranded by a worker killed
    mid-``put``, deadlocking every sibling, whereas a pipe has exactly one
    reader and one writer per direction and dies with its worker.

    Task payloads are ``(kind, task_id, trace_context, control, *args)``
    and replies ``(task_id, ok, payload, spans)``: the third payload slot
    carries the coordinator's (trace_id, parent_span_id) — or None when it
    is not tracing — and the handler runs under a tracer capture whose
    finished spans travel back in the reply for re-parenting into the
    coordinator's trace.  A killed worker simply never replies, so its
    spans are lost but the coordinator's trace stays structurally intact
    (the re-dispatched task reports from the replacement worker).

    The fourth slot is the fault-injection control directive (see
    :mod:`repro.faults`) — None outside chaos runs.  The *coordinator*
    decides which dispatch a fault fires on (it owns the deterministic
    dispatch ordinal); the worker only executes the shipped directive:
    ``kill`` hard-exits before the handler runs, ``delay`` sleeps,
    ``fail`` raises, ``drop_reply`` computes but never answers.
    """
    global _IN_WORKER
    _IN_WORKER = True
    programs = _WorkerProgramCache()
    sessions: dict = {}
    tracer = get_tracer()
    while True:
        try:
            task = connection.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if task is None:
            return
        kind, task_id, trace_context, control = (task[0], task[1], task[2],
                                                 task[3])
        task = (kind, task_id) + task[4:]
        capture = tracer.capture(_TASK_SPANS[kind], trace_context)
        try:
            drop_reply = apply_worker_fault(control)
            with capture:
                payload = _HANDLERS[kind](programs, sessions, task)
            if drop_reply:
                continue
            connection.send((task_id, True, payload, capture.export()))
        except BaseException as error:  # noqa: BLE001 - forwarded to parent
            try:
                connection.send((task_id, False, error, None))
            except Exception:  # unpicklable exception: ship a description
                try:
                    connection.send((task_id, False,
                                     SolverError(f"{type(error).__name__}: "
                                                 f"{error}"), None))
                except Exception:  # pragma: no cover - pipe gone
                    return


# --------------------------------------------------------------------- #
# Parent-side bookkeeping
# --------------------------------------------------------------------- #
@dataclass
class PoolStatistics:
    """What the pool has done so far (the warm-cache observables)."""

    rounds: int = 0
    tasks_dispatched: int = 0
    programs_shipped: int = 0
    warm_hits: int = 0
    sessions_shipped: int = 0
    #: Crash respawns only — a worker found dead mid-round.  Clean bounces
    #: via :meth:`WorkerPool.restart` count in :attr:`clean_restarts`, so a
    #: monitoring alert on crash loops never fires on deliberate restarts.
    worker_restarts: int = 0
    tasks_shipped: int = 0
    cells_solved: int = 0
    tasks_retried: int = 0
    tasks_quarantined: int = 0
    clean_restarts: int = 0
    breaker_trips: int = 0

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of program-addressed tasks served by a warm worker cache."""
        addressed = self.programs_shipped + self.warm_hits
        if not addressed:
            return 0.0
        return self.warm_hits / addressed

    @property
    def cells_per_task(self) -> float:
        """The batching amortization ratio: solves carried per pool entry."""
        if not self.tasks_shipped:
            return 0.0
        return self.cells_solved / self.tasks_shipped

    def as_dict(self) -> dict[str, float]:
        return {
            "rounds": self.rounds,
            "tasks_dispatched": self.tasks_dispatched,
            "programs_shipped": self.programs_shipped,
            "warm_hits": self.warm_hits,
            "warm_hit_rate": self.warm_hit_rate,
            "sessions_shipped": self.sessions_shipped,
            "worker_restarts": self.worker_restarts,
            "tasks_shipped": self.tasks_shipped,
            "cells_solved": self.cells_solved,
            "cells_per_task": self.cells_per_task,
            "tasks_retried": self.tasks_retried,
            "tasks_quarantined": self.tasks_quarantined,
            "clean_restarts": self.clean_restarts,
            "breaker_trips": self.breaker_trips,
        }

    def snapshot(self) -> "PoolStatistics":
        return PoolStatistics(self.rounds, self.tasks_dispatched,
                              self.programs_shipped, self.warm_hits,
                              self.sessions_shipped, self.worker_restarts,
                              self.tasks_shipped, self.cells_solved,
                              self.tasks_retried, self.tasks_quarantined,
                              self.clean_restarts, self.breaker_trips)


#: Registry counter names, precomputed so publishing never formats strings.
_POOL_METRICS = {field: f"pool.{field}"
                 for field in ("rounds", "tasks_dispatched",
                               "programs_shipped", "warm_hits",
                               "sessions_shipped", "worker_restarts",
                               "tasks_shipped", "cells_solved",
                               "tasks_retried", "tasks_quarantined",
                               "clean_restarts", "breaker_trips")}


class _ProcessWorker:
    """One worker process plus its private duplex pipe and warm-state view."""

    def __init__(self, index: int, context):
        self.index = index
        self.connection, child_connection = context.Pipe(duplex=True)
        self.warm_keys: set = set()
        self.sessions: set = set()
        self.process = context.Process(
            target=_worker_main, args=(index, child_connection),
            daemon=True, name=f"repro-pool-worker-{index}")
        self.process.start()
        child_connection.close()  # the parent keeps only its own end

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        try:
            self.connection.send(None)
        except Exception:  # pragma: no cover - pipe already broken
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.connection.close()


@dataclass
class _PendingTask:
    """Everything needed to re-dispatch a task if its worker dies."""

    position: int | tuple | None
    kind: str
    args: tuple
    worker_index: int
    attempts: int = 1


#: Crash-retry budget: how many times a task may *kill its worker* before it
#: is quarantined as poison instead of re-dispatched — a dead worker is
#: evidence the payload itself may be lethal.
_DEFAULT_TASK_RETRIES = 2

#: Respawn-storm controls.  More than ``_STORM_THRESHOLD`` respawns inside
#: ``_STORM_WINDOW`` seconds starts jittered backoff before each further
#: respawn (forking into a crash loop at full speed just burns CPU the
#: sibling workers need); more than the breaker threshold trips the pool's
#: circuit breaker, which routes new entry points inline (serial, in the
#: caller's process — always sound) for the cool-down period.
_STORM_WINDOW = 5.0
_STORM_THRESHOLD = 3
_BREAKER_THRESHOLD = 6
_BREAKER_COOLDOWN = 30.0

#: Cap on tasks in flight to one worker.  Bounds the bytes buffered in each
#: pipe direction (tasks inbound, results outbound) well below the kernel's
#: socketpair buffer, which is what makes arbitrarily large rounds
#: deadlock-free — see :meth:`WorkerPool._run_round`.
_MAX_IN_FLIGHT_PER_WORKER = 16

#: Cap on a worker's parent-side backlog deque.  Tasks beyond it land on the
#: round's shared overflow queue, which feeds whichever worker drains first —
#: so a round that concentrates on one affinity worker cannot park its whole
#: tail behind that worker while the rest of the pool idles.
_BACKLOG_LIMIT = 4 * _MAX_IN_FLIGHT_PER_WORKER


def _scatter(collected: dict, count: int) -> list:
    """Flatten a round's ``{position tuple: values}`` replies back into
    global position order."""
    results: list = [None] * count
    for positions, values in collected.items():
        for position, value in zip(positions, values):
            results[position] = value
    return results


class WorkerPool:
    """A long-lived pool of workers with warm program caches.

    Parameters
    ----------
    max_workers:
        Pool width (default ``min(8, cpu_count)``); ``1`` degrades to
        serial inline execution.
    mode:
        ``"thread"`` (default via ``"auto"``), ``"process"``, or
        ``"serial"``.  Process mode requires the backend's ``process_safe``
        capability; an unsafe backend falls back to threads (recorded in
        :attr:`requested_mode` vs :attr:`mode`).
    backend:
        The MILP backend the pooled solves will use; consulted only for the
        process-safety fallback.
    name:
        Label for diagnostics.
    task_retry_limit:
        How many times a task may kill its worker before it is quarantined
        as poison and failed with
        :class:`~repro.exceptions.PoisonTaskError` (default 2).  Sibling
        tasks of a quarantined task still complete before the error is
        raised, so one poison payload fails only its own query.
    breaker_threshold / breaker_cooldown:
        The circuit breaker: more than ``breaker_threshold`` crash
        respawns within a 5-second window routes new entry points inline
        (serial, in-process — slower but crash-immune) for
        ``breaker_cooldown`` seconds.

    The pool also consults :func:`repro.faults.resolve_faults` at
    construction: a non-empty ``REPRO_FAULTS`` plan makes the coordinator
    ship fault directives with deterministically selected dispatches (the
    chaos-testing hook — see :mod:`repro.faults`).

    The pool starts lazily on first use, restarts lazily after
    :meth:`shutdown`, and is safe to share across threads (process-mode
    dispatch rounds are serialised; thread-mode fan-out is concurrent).
    """

    def __init__(self, max_workers: int | None = None, mode: str = "auto",
                 backend: str | None = None, name: str = "worker-pool",
                 task_retry_limit: int | None = None,
                 breaker_threshold: int | None = None,
                 breaker_cooldown: float | None = None):
        if mode not in POOL_MODES:
            raise SolverError(
                f"unknown pool mode {mode!r}; expected one of {POOL_MODES}")
        if max_workers is not None and max_workers <= 0:
            raise SolverError(
                f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers or default_pool_workers()
        self._requested_mode = mode
        if mode == "auto":
            mode = "thread"
        if mode == "process" and backend is not None:
            if not backend_capabilities(backend).process_safe:
                mode = "thread"  # the documented thread fallback
        if self._max_workers == 1:
            mode = "serial"
        self._mode = mode
        self._backend = backend
        self._name = name
        if task_retry_limit is not None and task_retry_limit < 1:
            raise SolverError(
                f"task_retry_limit must be >= 1, got {task_retry_limit}")
        self._retry_limit = (task_retry_limit if task_retry_limit is not None
                             else _DEFAULT_TASK_RETRIES)
        self._breaker_threshold = breaker_threshold or _BREAKER_THRESHOLD
        self._breaker_cooldown = (breaker_cooldown if breaker_cooldown
                                  is not None else _BREAKER_COOLDOWN)
        self._breaker_until = 0.0
        self._restart_times: deque = deque(maxlen=32)
        self._faults = resolve_faults()
        self._quarantined: list = []
        self._closing = False
        self._live_tasks = 0
        self._round_lock = threading.RLock()
        self._lifecycle_lock = threading.Lock()
        self._affinity_lock = threading.Lock()
        self._statistics_lock = threading.Lock()
        self._affinity: dict = {}
        self._assigned = [0] * self._max_workers
        self._workers: list[_ProcessWorker] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._session_objects: dict = {}
        self._task_ids = itertools.count()
        self._statistics = PoolStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._name

    @property
    def mode(self) -> str:
        """The resolved mode (after the thread fallback, width-1 serial)."""
        return self._mode

    @property
    def requested_mode(self) -> str:
        return self._requested_mode

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def statistics(self) -> PoolStatistics:
        return self._statistics

    @property
    def breaker_tripped(self) -> bool:
        """Whether the crash-loop circuit breaker is currently open (new
        entry points run inline until the cool-down expires)."""
        return time.monotonic() < self._breaker_until

    @property
    def fault_plan(self):
        """The active :class:`~repro.faults.FaultPlan`, or None (chaos
        tests assert against its firing state)."""
        return self._faults

    @property
    def task_retry_limit(self) -> int:
        return self._retry_limit

    @property
    def live_tasks(self) -> int:
        """Work items currently executing or dispatched across every entry
        point (process rounds and thread fan-outs alike)."""
        with self._statistics_lock:
            return self._live_tasks

    def _note_live(self, delta: int) -> None:
        with self._statistics_lock:
            self._live_tasks += delta

    def _bump(self, field: str, amount: int = 1) -> None:
        """Advance one pool counter: the dataclass view (the historical
        surface callers snapshot/delta) and the shared registry together."""
        statistics = self._statistics
        setattr(statistics, field, getattr(statistics, field) + amount)
        get_registry().counter(_POOL_METRICS[field]).inc(amount)

    def _record_batch_traffic(self, tasks: int, cells: int) -> None:
        """Account one entry point's shipped-task vs solved-cell traffic —
        the ``pool.tasks_shipped`` / ``pool.cells_solved`` pair whose ratio
        is the batching amortization EXPLAIN ANALYZE reports."""
        with self._statistics_lock:
            self._bump("tasks_shipped", tasks)
            self._bump("cells_solved", cells)

    def alive_workers(self) -> int:
        """How many worker processes are currently alive (0 when not started
        or in thread/serial mode, where there is nothing to strand)."""
        with self._round_lock:
            if self._workers is None:
                return 0
            return sum(1 for worker in self._workers if worker.alive)

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (for tests that kill one)."""
        with self._round_lock:
            if self._workers is None:
                return []
            return [worker.process.pid for worker in self._workers
                    if worker.alive and worker.process.pid is not None]

    def warm_keys_on(self, worker_index: int) -> frozenset:
        """The program keys the parent believes ``worker_index`` holds warm."""
        with self._round_lock:
            if self._workers is None:
                return frozenset()
            return frozenset(self._workers[worker_index].warm_keys)

    def worker_for(self, key) -> int:
        """The affinity worker for ``key``: balanced on first sight, sticky
        afterwards, so one worker's cache stays warm for its keys."""
        with self._affinity_lock:
            index = self._affinity.get(key)
            if index is None:
                index = min(range(self._max_workers),
                            key=lambda candidate: self._assigned[candidate])
                self._affinity[key] = index
                self._assigned[index] += 1
            return index

    def retire_affinity(self, key) -> None:
        """Forget ``key``'s sticky placement and return its load credit.

        Callers that evict a program (or close a session) retire its key so
        the balanced-on-first-sight counters keep tracking *live* keys —
        without retirement the counters only ever grow, and a worker that
        once hosted a burst of short-lived keys looks permanently loaded.
        Unknown keys are ignored (retirement is advisory bookkeeping).
        """
        with self._affinity_lock:
            index = self._affinity.pop(key, None)
            if index is not None and self._assigned[index] > 0:
                self._assigned[index] -= 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spin the workers up now (otherwise they start on first use)."""
        with self._round_lock:
            self._ensure_started()

    def shutdown(self) -> None:
        """Stop every worker; idempotent, and the pool restarts lazily on
        next use (so a service can bounce its pool without re-creating it).

        Safe against an in-flight round and against concurrent callers
        (double ``shutdown()``, the atexit reaper overlapping an explicit
        one): the ``_closing`` flag asks any running round to unwind at its
        next poll tick (≤ 0.25 s) rather than blocking on ``_round_lock``
        forever, and the worker/executor handles are detached atomically
        under a separate lifecycle lock so exactly one caller tears each
        worker down.  If the round does not release the lock in time the
        teardown proceeds anyway — :meth:`_ProcessWorker.stop` joins with a
        timeout and then terminates, so a wedged worker cannot leak.
        """
        self._closing = True
        locked = self._round_lock.acquire(timeout=2.0)
        try:
            with self._lifecycle_lock:
                workers, self._workers = self._workers, None
                executor, self._executor = self._executor, None
        finally:
            if locked:
                self._round_lock.release()
            self._closing = False
        if workers is not None:
            for worker in workers:
                worker.stop()
        if executor is not None:
            executor.shutdown()

    def restart(self) -> None:
        """Bounce the pool: fresh workers, cold caches, same sticky map —
        but *reset* load counters.

        The sticky map survives so a key keeps landing on the same index
        (re-warming is cheapest where the key always lived), but the
        cumulative assignment counters describe the dead incarnation's
        history, not the fresh workers' load: carrying them over would skew
        balanced-on-first-sight placement for every key seen after the
        bounce toward whichever workers happened to be idle *before* it.

        Counts in :attr:`PoolStatistics.clean_restarts`, not
        ``worker_restarts`` — crash monitoring must never page on a
        deliberate bounce.
        """
        self._bump("clean_restarts")
        self.shutdown()
        with self._affinity_lock:
            self._assigned = [0] * self._max_workers
        self.start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _ensure_started(self):
        register_for_reaping(self)
        if self._mode == "process":
            if self._workers is None:
                context = multiprocessing.get_context()
                self._workers = [
                    _ProcessWorker(index, context)
                    for index in range(self._max_workers)]
            return self._workers
        if self._mode == "thread" and self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix=f"repro-{self._name}")
        return self._executor

    # ------------------------------------------------------------------ #
    # Warm-up protocol
    # ------------------------------------------------------------------ #
    def register_session(self, session_key, analyzer) -> None:
        """Make ``analyzer`` available to workers under ``session_key``.

        Process mode ships the analyzer lazily — once per worker, and only
        to workers that actually receive this session's queries.  Thread and
        serial modes share the parent's memory, so registration is pure
        bookkeeping.

        The pool keeps one reference per session key (for re-registration
        after a worker restart); re-registering a key replaces it, so the
        footprint tracks the *live* session set — the same lifetime the
        service registry already keeps these analyzers alive for.  Worker
        memory is bounded separately by the per-worker program LRU; the
        parent's warm-key/affinity bookkeeping is a few machine words per
        distinct program key.
        """
        self._session_objects[session_key] = analyzer

    def warm(self, entries: Mapping) -> None:
        """Pre-ship compiled programs to their affinity workers.

        ``entries`` maps parent program-cache keys to compiled
        :class:`~repro.plan.BoundProgram` objects.  Keys a worker already
        holds are skipped, so warming is idempotent and cheap on repeat.
        """
        if self._mode != "process" or not entries:
            return
        requests = []
        with self._round_lock:
            self._ensure_started()
            for key, program in entries.items():
                worker = self._workers[self.worker_for(key)]
                if key in worker.warm_keys:
                    continue
                requests.append(("warm", key, (key, program), None))
            if requests:
                self._run_round(requests)

    # ------------------------------------------------------------------ #
    # Execution entry points
    # ------------------------------------------------------------------ #
    def analyze(self, session_key, analyzer,
                keyed_queries: Sequence[tuple]) -> list:
        """Answer ``(program_key, program, query, resolved_depth)`` entries,
        in order.

        Thread/serial modes run ``analyzer.analyze`` directly (shared
        memory); inline execution checks the ambient deadline between
        queries.  Process mode registers the analyzer on each involved
        worker once, routes by program key so repeated traffic hits warm
        caches, and ships queries sharing a program key and depth
        resolution — the pair that must agree for one worker-side
        early-stop pin to serve them all — as ``analyze_batch`` tasks of up
        to the adaptive batch size.  The first entry's program rides along
        for the cold-cache case.
        """
        self.register_session(session_key, analyzer)
        entries = list(keyed_queries)
        if self._inline() or len(entries) <= 1:
            self._record_batch_traffic(len(entries), len(entries))
            reports = []
            for position, entry in enumerate(entries):
                check_deadline(position, len(entries))
                reports.append(analyzer.analyze(entry[2]))
            return reports
        if self._mode == "thread":
            self._record_batch_traffic(len(entries), len(entries))
            return self._thread_map(lambda entry: analyzer.analyze(entry[2]),
                                    entries, label="pool.analyze")
        size = adaptive_batch_size(len(entries), self._max_workers)
        groups: dict[tuple, list[tuple]] = {}
        for position, (program_key, program, query,
                       resolved_depth) in enumerate(entries):
            groups.setdefault((program_key, resolved_depth), []).append(
                (position, program, query))
        requests = []
        for (program_key, resolved_depth), members in groups.items():
            for chunk in chunked(members, size):
                program = next((candidate for _, candidate, _ in chunk
                                if candidate is not None), None)
                queries = tuple(query for _, _, query in chunk)
                positions = tuple(position for position, _, _ in chunk)
                requests.append(
                    ("analyze_batch", program_key,
                     (session_key, program_key, program, queries,
                      resolved_depth), positions))
        self._record_batch_traffic(len(requests), len(entries))
        return _scatter(self._locked_round(requests), len(entries))

    # ------------------------------------------------------------------ #
    # Thread-mode plumbing
    # ------------------------------------------------------------------ #
    def _inline(self) -> bool:
        if self._mode == "serial" or in_worker() or in_pool_thread():
            return True
        # A tripped circuit breaker routes new entry points inline: the
        # caller's process computes the same results serially, immune to
        # whatever is crash-looping the workers.
        return time.monotonic() < self._breaker_until

    def _thread_map(self, fn, items: list, label: str = "pool.task") -> list:
        with self._round_lock:
            executor = self._ensure_started()
        # Thread-mode rounds run concurrently (no round lock), so the
        # counters need their own lock to stay exact under shared use.
        with self._statistics_lock:
            self._bump("rounds")
            self._bump("tasks_dispatched", len(items))
        # Capture the caller's trace position before fanning out: worker
        # threads attach to it so the fan-out yields one tree.
        tracer = get_tracer()
        trace = tracer.current_trace
        parent = tracer.current_span
        parent_id = parent.span_id if parent is not None else None
        # The ambient deadline is thread-local to the *caller*; capture it
        # here so the executor threads can honour it.
        deadline = current_deadline()

        def guarded(item):
            # Nested pool use from inside a pool thread runs inline —
            # waiting on our own executor from one of its threads would
            # deadlock once every thread blocks.
            if deadline is not None and deadline.expired():
                raise QueryDeadlineError(
                    f"query deadline of {deadline.seconds:.3f}s expired "
                    f"during a pooled {label} fan-out",
                    deadline=deadline.seconds, elapsed=deadline.elapsed())
            _POOL_THREAD.active = True
            try:
                if trace is None:
                    return fn(item)
                with tracer.attach(trace, parent_id):
                    with tracer.span(label):
                        return fn(item)
            finally:
                _POOL_THREAD.active = False

        self._note_live(len(items))
        try:
            return list(executor.map(guarded, items))
        finally:
            self._note_live(-len(items))

    # ------------------------------------------------------------------ #
    # Process-mode dispatch/collect with restart-on-death
    # ------------------------------------------------------------------ #
    def _locked_round(self, requests: list):
        with self._round_lock:
            self._ensure_started()
            return self._run_round(requests)

    def _run_round(self, requests: list):
        """Dispatch one round of tasks and collect every result.

        Must run under ``_round_lock``: one dispatcher/collector at a time.
        Dead workers are respawned and their in-flight tasks re-dispatched
        (with programs re-shipped and sessions re-registered — the
        respawned worker is cold); a worker's death can never strand the
        round, because each worker has its own pipe and a broken pipe is a
        detectable event, not a shared lock left behind.

        Dispatch and collection interleave: at most
        :data:`_MAX_IN_FLIGHT_PER_WORKER` tasks are outstanding per worker,
        so the bytes buffered in any pipe direction stay bounded.  Sending
        a whole large round up-front would deadlock — the worker blocks
        sending results into a full outbound buffer and stops receiving,
        then the parent blocks sending into the worker's full inbound
        buffer, and both sides are alive so no recovery ever fires.

        Failure semantics.  The ambient query deadline is checked every
        loop tick: on expiry the round stops dispatching and abandons
        whatever is in flight (late replies land in a later round's recv
        and are dropped as stale).  A task whose crash-retry budget is
        exhausted is *quarantined* — not re-dispatched — and its siblings
        drain before :class:`~repro.exceptions.PoisonTaskError` is raised,
        so one poison payload fails exactly one round.
        """
        self._bump("rounds")
        deadline = current_deadline()
        self._quarantined = []
        pending: dict[int, _PendingTask] = {}
        backlogs: dict[int, deque] = {}
        overflow: deque = deque()
        for kind, key, args, position in requests:
            backlog = backlogs.setdefault(self.worker_for(key), deque())
            if len(backlog) < _BACKLOG_LIMIT:
                backlog.append((kind, args, position))
            else:
                overflow.append((kind, args, position))
        collected: dict = {}
        self._note_live(len(requests))
        try:
            while pending or overflow or any(backlogs.values()):
                if self._closing:
                    raise SolverError(
                        "worker pool shut down while a round was in flight")
                if deadline is not None and deadline.expired():
                    queued = (len(overflow)
                              + sum(len(b) for b in backlogs.values()))
                    abandoned = len(pending) + queued
                    get_tracer().annotate(deadline_abandoned=abandoned)
                    raise QueryDeadlineError(
                        f"query deadline of {deadline.seconds:.3f}s expired "
                        f"after {deadline.elapsed():.3f}s with "
                        f"{len(collected)} of {len(requests)} tasks complete "
                        f"({abandoned} abandoned)",
                        deadline=deadline.seconds,
                        elapsed=deadline.elapsed(),
                        completed=len(collected), pending=abandoned)
                self._feed_backlogs(backlogs, overflow, pending)
                if not pending:
                    continue
                connections = {}
                for task in pending.values():
                    worker = self._workers[task.worker_index]
                    connections[worker.connection] = task.worker_index
                ready = multiprocessing.connection.wait(list(connections),
                                                        timeout=0.25)
                if not ready:
                    self._recover(pending)
                    continue
                for connection in ready:
                    worker_index = connections[connection]
                    try:
                        task_id, ok, payload, spans = connection.recv()
                    except (EOFError, OSError):
                        self._respawn(worker_index, pending)
                        continue
                    task = pending.pop(task_id, None)
                    if task is None:
                        continue  # stale result from an abandoned round
                    if not ok:
                        raise payload if isinstance(payload, BaseException) \
                            else SolverError(str(payload))
                    self._adopt_spans(task, worker_index, spans)
                    if task.position is not None:
                        collected[task.position] = payload
        finally:
            self._note_live(-len(requests))
        quarantined, self._quarantined = self._quarantined, []
        if quarantined:
            self._bump("tasks_quarantined", len(quarantined))
            task, fingerprint = quarantined[0]
            raise PoisonTaskError(
                f"{task.kind!r} task (payload fingerprint {fingerprint}) "
                f"killed its worker {task.attempts} times and was "
                f"quarantined; {len(collected)} sibling tasks completed",
                kind=task.kind, fingerprint=fingerprint,
                attempts=task.attempts)
        return collected

    def _adopt_spans(self, task: _PendingTask, worker_index: int,
                     spans) -> None:
        """Splice a reply's worker spans into the coordinator's trace, its
        root tagged with the worker that ran the task."""
        if not spans:
            return
        root = get_tracer().adopt(spans)
        if root is None:
            return
        root.attributes.setdefault("worker", worker_index)
        if task.attempts > 1:
            # Crash-retried work is visible per task in EXPLAIN ANALYZE, not
            # just in the aggregate counters.
            root.attributes.setdefault("attempts", task.attempts)

    def _feed_backlogs(self, backlogs: dict, overflow: deque,
                       pending: dict) -> None:
        """Top workers up to the in-flight cap: own backlog first (affinity
        order), then the shared overflow onto the least loaded workers."""
        outstanding: dict[int, int] = {}
        for task in pending.values():
            outstanding[task.worker_index] = \
                outstanding.get(task.worker_index, 0) + 1
        for worker_index, backlog in backlogs.items():
            while (backlog and outstanding.get(worker_index, 0)
                   < _MAX_IN_FLIGHT_PER_WORKER):
                kind, args, position = backlog.popleft()
                self._dispatch(kind, args, position, pending,
                               worker_index=worker_index)
                outstanding[worker_index] = \
                    outstanding.get(worker_index, 0) + 1
        while overflow:
            target = min(range(self._max_workers),
                         key=lambda index: (outstanding.get(index, 0)
                                            + len(backlogs.get(index) or ())))
            if outstanding.get(target, 0) >= _MAX_IN_FLIGHT_PER_WORKER:
                break  # every worker saturated; retry after some replies
            kind, args, position = overflow.popleft()
            self._dispatch(kind, args, position, pending, worker_index=target)
            outstanding[target] = outstanding.get(target, 0) + 1

    def _fault_directive(self, worker_index: int, kind: str,
                         position) -> tuple | None:
        """Consult the fault plan for one dispatch (None without a plan).

        Batch positions are tuples; the plan's ``shard`` selector matches
        their first position in the call, so a plan keyed on a position
        fires however many queries its batch carries.
        """
        if self._faults is None:
            return None
        if isinstance(position, tuple):
            position = position[0] if position else -1
        elif position is None:
            position = -1
        return self._faults.on_dispatch(worker_index, kind, position)

    def _dispatch(self, kind: str, args: tuple,
                  position: int | tuple | None, pending: dict,
                  worker_index: int, attempts: int = 1) -> None:
        if self._workers is None:
            raise SolverError("worker pool is shut down")
        worker = self._workers[worker_index]
        if not worker.alive:
            worker = self._respawn(worker_index, pending)
        if kind == "analyze_batch":
            session_key = args[0]
            if session_key not in worker.sessions:
                self._dispatch("register", (session_key,
                                            self._session_objects[session_key]),
                               None, pending, worker_index)
                worker = self._workers[worker_index]
        task_id = next(self._task_ids)
        payload = self._build_payload(kind, task_id, worker, args)
        # Trace context rides in slot 2 of every payload, the fault
        # directive in slot 3; None (the common untraced / unfaulted case)
        # tells the worker to skip the respective machinery entirely.
        payload = (payload[0], payload[1], get_tracer().context(),
                   self._fault_directive(worker_index, kind,
                                         position)) + payload[2:]
        pending[task_id] = _PendingTask(position=position, kind=kind,
                                       args=args, worker_index=worker_index,
                                       attempts=attempts)
        try:
            worker.connection.send(payload)
        except (BrokenPipeError, OSError):
            # The worker died under us; respawn re-dispatches everything
            # pending on it, including the entry just recorded.
            self._respawn(worker_index, pending)
            return
        self._bump("tasks_dispatched")

    def _build_payload(self, kind: str, task_id: int,
                       worker: _ProcessWorker, args: tuple) -> tuple:
        if kind == "register":
            session_key, analyzer = args
            worker.sessions.add(session_key)
            self._bump("sessions_shipped")
            return ("register", task_id, session_key, analyzer)
        if kind == "warm":
            key, program = args
            worker.warm_keys.add(key)
            self._bump("programs_shipped")
            return ("warm", task_id, key, program)
        assert kind == "analyze_batch"
        session_key, program_key, program, queries, resolved_depth = args
        shipped = self._maybe_ship(worker, program_key, program)
        return ("analyze_batch", task_id, session_key, program_key,
                shipped, queries, resolved_depth)

    def _maybe_ship(self, worker: _ProcessWorker, key, program):
        """Ship ``program`` only if ``worker`` does not hold ``key`` warm."""
        if key in worker.warm_keys:
            self._bump("warm_hits")
            return None
        worker.warm_keys.add(key)
        self._bump("programs_shipped")
        return program

    def _recover(self, pending: dict) -> None:
        """Respawn dead workers and re-dispatch their in-flight tasks."""
        dead = sorted({task.worker_index for task in pending.values()
                       if not self._workers[task.worker_index].alive})
        for worker_index in dead:
            self._respawn(worker_index, pending)

    @staticmethod
    def _task_fingerprint(task: _PendingTask) -> str:
        """A stable short hash of a task's identity (kind, routing key,
        position) — what the quarantine message carries so a recurring
        poison payload is recognisable across incidents without shipping
        the payload itself into logs."""
        key = task.args[0] if task.args else None
        token = f"{task.kind}:{key!r}:{task.position!r}"
        return hashlib.blake2b(token.encode(), digest_size=6).hexdigest()

    def _note_respawn_storm(self) -> None:
        """Storm accounting before a respawn: jittered backoff once
        respawns come faster than ``_STORM_THRESHOLD`` per window (forking
        into a crash loop at full speed starves the surviving workers),
        and the circuit breaker past ``breaker_threshold`` (subsequent
        entry points run inline until the cool-down expires).  The jitter
        is seeded from the restart counter, so chaos runs stay
        reproducible.
        """
        now = time.monotonic()
        recent = sum(1 for stamp in self._restart_times
                     if now - stamp < _STORM_WINDOW) + 1
        self._restart_times.append(now)
        if (recent >= self._breaker_threshold
                and now >= self._breaker_until):
            self._breaker_until = now + self._breaker_cooldown
            self._bump("breaker_trips")
        if recent >= _STORM_THRESHOLD:
            rng = random.Random(self._statistics.worker_restarts)
            delay = min(0.4, 0.05 * (2 ** (recent - _STORM_THRESHOLD)))
            time.sleep(delay * (0.75 + 0.5 * rng.random()))

    def _respawn(self, worker_index: int, pending: dict) -> _ProcessWorker:
        if self._workers is None:
            raise SolverError("worker pool is shut down")
        self._bump("worker_restarts")
        self._note_respawn_storm()
        old = self._workers[worker_index]
        try:
            old.process.join(timeout=0.5)
            old.connection.close()
        except Exception:  # pragma: no cover - pipe already broken
            pass
        context = multiprocessing.get_context()
        self._workers[worker_index] = _ProcessWorker(worker_index, context)
        # Re-dispatch everything that was queued on the dead worker, in the
        # original order (task ids are monotone).  The fresh worker is cold:
        # _build_payload re-ships programs and the analyze path re-registers
        # sessions because the new warm/session sets start empty.
        stale = sorted((task_id, task) for task_id, task in pending.items()
                       if task.worker_index == worker_index)
        for task_id, task in stale:
            pending.pop(task_id, None)
        for _, task in stale:
            if task.kind == "register":
                continue  # re-registration happens on demand
            if task.attempts >= self._retry_limit:
                # Poison: this payload has now killed a worker on every
                # dispatch in its budget.  Quarantine it (no re-dispatch)
                # and let the round drain its siblings before raising —
                # raising here would abandon every other stale task
                # mid-loop, failing work that would have succeeded.
                self._quarantined.append((task,
                                          self._task_fingerprint(task)))
                continue
            self._bump("tasks_retried")
            self._dispatch(task.kind, task.args, task.position, pending,
                           worker_index=worker_index,
                           attempts=task.attempts + 1)
        return self._workers[worker_index]

    def __repr__(self) -> str:
        return (f"WorkerPool({self._name!r}, mode={self._mode!r}, "
                f"workers={self._max_workers}, alive={self.alive_workers()})")
