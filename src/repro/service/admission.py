"""Program-aware admission control: price queries from their plans.

A production service must refuse work it cannot afford *before* paying for
it.  The plan pipeline makes that possible: ``plan_for(query)`` plus the
sharding pass expose — without decomposing or solving anything — exactly the
quantities that predict a query's cost: the optimized constraint count, the
estimated satisfiable-cell count (observed-density-scaled through the same
:class:`~repro.plan.passes.ObservedCellStatistics` feed strategy selection
uses), the sharded layout (strategy and shard count), whether the compiled
program is already warm in the cache, and the worker pool's warm-hit rate.

:func:`price_query` folds those signals into a scalar unit count
(:class:`QueryCost`), and :class:`AdmissionController` enforces an
:class:`AdmissionPolicy` over it:

* a **per-query budget** (``max_query_cost``) — queries priced above it are
  shed immediately with :class:`~repro.exceptions.QueryRejectedError`;
* a **concurrent capacity** (``capacity``) with a **bounded queue**
  (``max_pending``) — queries that fit the budget but not the currently
  free capacity are *deferred* on the queue until running work releases
  units, and rejected only when the queue itself is full or the wait
  exceeds ``max_wait_seconds``.

The deferred queue is **not** FIFO: released capacity goes to the
*shortest-priced* waiter first (small queries never stall behind a giant
one), tempered by two fairness rules.  A session never jumps its own work
past another session's indefinitely — when the last admission went to the
same session and somebody else is waiting, that somebody wins the tie —
and a newcomer never bypasses the queue while anyone is waiting, so a
large waiter always sees capacity drain toward it instead of being
starved by a stream of small arrivals.

Everything happens at the plan stage: a rejected query never touches the
decomposition cache, never compiles a program, and never dispatches a pool
task.  Report-cache hits bypass admission entirely — answering from cache
costs nothing worth metering.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..exceptions import QueryDeadlineError, QueryRejectedError
from ..faults import current_deadline
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..plan.passes import ObservedCellStatistics, estimated_cell_count
from ..relational.aggregates import AggregateFunction

__all__ = ["QueryCost", "price_query", "admissible_cell_budget",
           "AdmissionPolicy", "AdmissionStatistics", "AdmissionTicket",
           "AdmissionController"]

#: Registry counter names, precomputed so the mutation hot path never
#: formats strings (mirrors the worker pool's ``_POOL_METRICS`` idiom).
_ADMISSION_METRICS = {
    field: f"admission.{field}"
    for field in ("priced", "admitted", "deferred", "rejected_over_budget",
                  "rejected_queue_full", "rejected_timeout", "units_admitted")
}


@dataclass(frozen=True)
class QueryCost:
    """One query's priced execution, with the signals behind the number.

    ``units`` is the scalar the controller meters; the remaining fields
    record how it was derived so rejections are explainable (``describe``)
    and monitoring can aggregate by cause.
    """

    units: float
    aggregate: str
    constraint_count: int
    estimated_cells: int
    shard_count: int
    strategy: str
    program_warm: bool
    pool_warm_hit_rate: float

    def describe(self) -> str:
        warmth = "warm" if self.program_warm else "cold"
        return (f"{self.aggregate} priced at {self.units:.1f} unit(s) "
                f"({self.constraint_count} constraint(s), "
                f"~{self.estimated_cells} cell(s), {self.strategy} x "
                f"{self.shard_count} shard(s), {warmth} program)")

    def as_dict(self) -> dict[str, object]:
        return {
            "units": self.units,
            "aggregate": self.aggregate,
            "constraint_count": self.constraint_count,
            "estimated_cells": self.estimated_cells,
            "shard_count": self.shard_count,
            "strategy": self.strategy,
            "program_warm": self.program_warm,
            "pool_warm_hit_rate": self.pool_warm_hit_rate,
        }


#: Patched solves :func:`price_query` charges per side of an AVG search
#: (derivation in its docstring).
AVG_SOLVES_PER_SIDE = 3


def price_query(solver, query, *, pool_statistics=None,
                cell_statistics: ObservedCellStatistics | None = None
                ) -> QueryCost:
    """Price ``query`` against ``solver``'s plan — no decomposition, no solve.

    The model is deliberately simple, monotone, and sourced entirely from
    plan-stage quantities (one unit ≈ one satisfiability check or one
    patched-objective solve over one cell):

    * **build cost** — a cold (region, attribute) pair pays the enumeration
      plus compilation, ``estimated_cells + constraints``; a warm pair pays
      nothing.  The worker pool's warm-hit rate discounts the cold cost —
      a pool that has been answering this workload likely holds the
      per-shard skeletons already.
    * **solve cost** — one objective patch over the estimated cells, divided
      by the shard count (shards solve concurrently).  AVG runs a certified
      Dinkelbach search per side, one patched solve per step, so it pays
      ``2 · min(AVG_SOLVES_PER_SIDE, avg_max_iterations)`` solves instead of
      one.  The per-side count is measured, not the iteration budget: over
      the cold-mixed benchmark window (seed 1) the search took 240 HiGHS
      solves for 100 search sides, ~2.4 per side, because Dinkelbach
      steps converge superlinearly.  Rounding up to 3 keeps the typical
      query inside its price; charging the 64-step budget would overprice
      AVG ~20x and shed queries that run in a few solves.

    Monotone by construction: more constraints or more estimated cells can
    only raise the price, warmth and sharding can only lower it.
    """
    sharded = solver.sharded_plan(query.region, query.attribute)
    plan = sharded.parent
    estimate, _ = estimated_cell_count(plan, cell_statistics)
    cells = max(1, estimate)
    constraints = len(plan.pcset)
    # The sharded layout only discounts the price when the solver will
    # actually execute it — a session without fan-out runs serially no
    # matter how the plan could have been split.
    workers = getattr(solver.options, "solve_workers", None)
    fans_out = (workers is not None and workers > 1) and sharded.is_sharded
    shard_count = len(sharded) if fans_out else 1
    strategy = sharded.strategy if fans_out else "serial"
    # Warmth is probed against the programs the chosen layout will actually
    # look up: component-sharded execution compiles only shard-token keys
    # (the unsharded pair key stays forever cold there), while serial and
    # region-sharded execution compile the pair program itself.
    if fans_out and sharded.strategy == "component":
        warm = all(solver.has_cached_program(query.region, query.attribute,
                                             shard=shard)
                   for shard in sharded)
    else:
        warm = solver.has_cached_program(query.region, query.attribute)
    warm_hit_rate = 0.0
    if pool_statistics is not None:
        warm_hit_rate = min(1.0, max(0.0, pool_statistics.warm_hit_rate))

    build = 0.0
    if not warm:
        build = float(cells + constraints)
        # Sharded builds fan out; pool warmth means skeletons are likely
        # already resident worker-side.
        build = build / shard_count * (1.0 - 0.5 * warm_hit_rate)
    probes = 1
    if query.aggregate is AggregateFunction.AVG:
        probes = 2 * min(AVG_SOLVES_PER_SIDE,
                         getattr(solver.options, "avg_max_iterations",
                                 AVG_SOLVES_PER_SIDE))
    solve = probes * float(cells) / shard_count
    return QueryCost(units=build + solve,
                     aggregate=query.aggregate.value,
                     constraint_count=constraints,
                     estimated_cells=cells,
                     shard_count=shard_count,
                     strategy=strategy,
                     program_warm=warm,
                     pool_warm_hit_rate=warm_hit_rate)


def admissible_cell_budget(cost: QueryCost, budget: float) -> int:
    """The largest estimated-cell count that would clear ``budget``.

    Inverts :func:`price_query` for a query with ``cost``'s shape (same
    aggregate, constraint count, sharded layout and warmth): the price is
    linear in the estimated cells, so solving ``price(cells) <= budget``
    for ``cells`` gives rejected callers a concrete downscoping target —
    "tighten your region below this many estimated cells and the query
    fits" — instead of an opaque unit total.
    """
    shard_count = max(1, cost.shard_count)
    cells = max(1, cost.estimated_cells)
    discount = 0.0
    if not cost.program_warm:
        discount = (1.0 - 0.5 * cost.pool_warm_hit_rate) / shard_count
    # Recover the probe multiplier from the priced total — the only term
    # price_query derives from options rather than recording on the cost.
    build = (cells + cost.constraint_count) * discount
    probes = max((cost.units - build) * shard_count / cells, 1.0)
    per_cell = probes / shard_count + discount
    base = cost.constraint_count * discount
    if budget <= base:
        return 0
    return max(0, int((budget - base) / per_cell))


@dataclass
class AdmissionPolicy:
    """The budgets an :class:`AdmissionController` enforces.

    ``max_query_cost``
        Per-query ceiling in cost units; ``None`` disables shedding by size.
    ``capacity``
        Total units allowed in flight at once; ``None`` disables capacity
        metering (every admitted query runs immediately).
    ``max_pending``
        How many queries may *wait* for capacity (the bounded admission
        queue).  ``0`` rejects immediately when capacity is exhausted.
    ``max_wait_seconds``
        Deadline for a deferred query; waiting past it rejects with reason
        ``"timeout"`` so callers never hang on an overloaded deployment.
    """

    max_query_cost: float | None = None
    capacity: float | None = None
    max_pending: int = 0
    max_wait_seconds: float = 30.0


@dataclass
class AdmissionStatistics:
    """What the controller has decided so far."""

    priced: int = 0
    admitted: int = 0
    deferred: int = 0
    rejected_over_budget: int = 0
    rejected_queue_full: int = 0
    rejected_timeout: int = 0
    units_admitted: float = 0.0
    units_in_flight: float = 0.0
    pending: int = 0

    @property
    def rejected(self) -> int:
        return (self.rejected_over_budget + self.rejected_queue_full
                + self.rejected_timeout)

    def as_dict(self) -> dict[str, float]:
        return {
            "priced": self.priced,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "rejected_over_budget": self.rejected_over_budget,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_timeout": self.rejected_timeout,
            "units_admitted": self.units_admitted,
            "units_in_flight": self.units_in_flight,
            "pending": self.pending,
        }

    def snapshot(self) -> "AdmissionStatistics":
        return AdmissionStatistics(
            self.priced, self.admitted, self.deferred,
            self.rejected_over_budget, self.rejected_queue_full,
            self.rejected_timeout, self.units_admitted,
            self.units_in_flight, self.pending)


class AdmissionTicket:
    """Admitted capacity that must be released when the work finishes.

    Context-managed; ``release`` is idempotent so error paths can release
    defensively.  Releasing wakes deferred queries waiting for capacity.
    """

    def __init__(self, controller: "AdmissionController", units: float):
        self._controller = controller
        self._units = units
        self._released = False

    @property
    def units(self) -> float:
        return self._units

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self._units)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class _Waiter:
    """One deferred query parked on the admission queue.

    ``seq`` is the arrival order (the final tiebreaker, so equal-priced
    waiters from one session still admit FIFO); ``units`` and ``session``
    feed the head-selection ordering in
    :meth:`AdmissionController._select_head`.
    """

    __slots__ = ("units", "session", "seq")

    def __init__(self, units: float, session, seq: int):
        self.units = units
        self.session = session
        self.seq = seq


class AdmissionController:
    """Thread-safe enforcement of one :class:`AdmissionPolicy`.

    ``admit`` either returns an :class:`AdmissionTicket` (possibly after a
    bounded wait on the admission queue) or raises
    :class:`~repro.exceptions.QueryRejectedError`.  The controller never
    runs queries itself — the service holds the ticket across the solve and
    releases it in a ``finally``.

    Deferred queries admit in shortest-priced-first order with a
    per-session fairness penalty, and only ever through the selected queue
    head — a waiter that is not the head stays parked even when its units
    would fit, which is what lets a large waiter accumulate the capacity
    it needs instead of starving behind smaller arrivals.
    """

    def __init__(self, policy: AdmissionPolicy | None = None):
        self._policy = policy or AdmissionPolicy()
        self._condition = threading.Condition()
        self._in_flight = 0.0
        self._pending = 0
        self._statistics = AdmissionStatistics()
        self._waiters: list[_Waiter] = []
        self._seq = 0
        self._last_session = None

    def _bump(self, field: str, amount: float = 1) -> None:
        """Advance one decision counter in the dataclass snapshot *and* the
        process-wide metrics registry (``admission.*``)."""
        statistics = self._statistics
        setattr(statistics, field, getattr(statistics, field) + amount)
        get_registry().counter(_ADMISSION_METRICS[field]).inc(amount)

    @property
    def policy(self) -> AdmissionPolicy:
        return self._policy

    @property
    def statistics(self) -> AdmissionStatistics:
        with self._condition:
            snapshot = self._statistics.snapshot()
            snapshot.units_in_flight = self._in_flight
            snapshot.pending = self._pending
            return snapshot

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def admit(self, cost: QueryCost, enforce_budget: bool = True,
              session=None, *, already_priced: bool = False
              ) -> AdmissionTicket:
        """Admit ``cost`` units, deferring on the bounded queue if needed.

        ``session`` is an opaque caller identity (the service passes the
        session fingerprint); it only feeds the per-session fairness rule
        in head selection, never pricing.  ``enforce_budget`` is disabled
        by :meth:`admit_many`, which has already applied the per-query
        ceiling to each member — the combined reservation is only metered
        against capacity; ``already_priced`` likewise skips the priced
        counter when the batch path has already counted every member.
        """
        policy = self._policy
        with self._condition:
            if not already_priced:
                self._bump("priced")
            budget = policy.max_query_cost if enforce_budget else None
            if budget is not None and cost.units > budget:
                self._bump("rejected_over_budget")
                fitting = admissible_cell_budget(cost, budget)
                raise QueryRejectedError(
                    f"query rejected before any solve was dispatched: "
                    f"{cost.describe()} exceeds the per-query budget of "
                    f"{budget:.1f} unit(s); a same-shaped query of at most "
                    f"~{fitting} estimated cell(s) would fit",
                    cost=cost.units, limit=budget, reason="over-budget",
                    cell_budget=fitting)
            capacity = policy.capacity
            if capacity is not None:
                # A newcomer never bypasses parked waiters, even when its
                # own units would fit — otherwise a stream of small
                # arrivals starves whoever is queued.
                must_wait = bool(self._waiters) or not self._fits(cost.units,
                                                                  capacity)
                if must_wait:
                    if self._pending >= policy.max_pending:
                        self._bump("rejected_queue_full")
                        raise QueryRejectedError(
                            f"query rejected: {cost.describe()} cannot run "
                            f"now ({self._in_flight:.1f}/{capacity:.1f} "
                            f"unit(s) in flight) and the admission queue is "
                            f"full ({policy.max_pending} pending)",
                            cost=cost.units, limit=capacity,
                            reason="queue-full")
                    waiter = _Waiter(cost.units, session, self._seq)
                    self._seq += 1
                    self._waiters.append(waiter)
                    self._pending += 1
                    deferred = False
                    try:
                        # The query's ambient deadline keeps ticking while
                        # the query is parked: the effective wait is the
                        # smaller of the policy's patience and whatever
                        # budget the deadline has left, and an expiry caused
                        # by the *query deadline* surfaces as
                        # QueryDeadlineError rather than an admission
                        # rejection — the query ran out of time, the
                        # service did not shed it.
                        query_deadline = current_deadline()
                        deadline = time.monotonic() + policy.max_wait_seconds
                        # Head-only admission: a waiter admits only while it
                        # is the selected head AND its units fit — a
                        # non-head waiter stays parked even if it would fit,
                        # so capacity drains toward the head.
                        while not (self._select_head() is waiter
                                   and self._fits(cost.units, capacity)):
                            if not deferred:
                                deferred = True
                                self._bump("deferred")
                                get_tracer().annotate(admission="deferred")
                            remaining = deadline - time.monotonic()
                            if query_deadline is not None:
                                remaining = min(remaining,
                                                query_deadline.remaining())
                            if remaining <= 0 or \
                                    not self._condition.wait(remaining):
                                if query_deadline is not None and \
                                        query_deadline.expired():
                                    raise QueryDeadlineError(
                                        f"query deadline of "
                                        f"{query_deadline.seconds:.3f}s "
                                        f"expired after "
                                        f"{query_deadline.elapsed():.3f}s "
                                        f"while deferred in the admission "
                                        f"queue ({cost.describe()})",
                                        deadline=query_deadline.seconds,
                                        elapsed=query_deadline.elapsed())
                                self._bump("rejected_timeout")
                                raise QueryRejectedError(
                                    f"query rejected: {cost.describe()} "
                                    f"waited "
                                    f"{policy.max_wait_seconds:.1f}s for "
                                    f"capacity",
                                    cost=cost.units, limit=capacity,
                                    reason="timeout")
                    finally:
                        self._waiters.remove(waiter)
                        self._pending -= 1
                        # Whether admitted or timed out, the head changed —
                        # re-run head selection in the remaining waiters.
                        self._condition.notify_all()
            self._in_flight += cost.units
            self._last_session = session
            self._bump("admitted")
            self._bump("units_admitted", cost.units)
            return AdmissionTicket(self, cost.units)

    def admit_many(self, costs: list[QueryCost],
                   session=None) -> AdmissionTicket:
        """Admit a batch: per-query budget checks, one combined capacity ask.

        Each query must individually clear ``max_query_cost`` (a batch is
        not a loophole around the per-query ceiling); the batch then
        occupies the *sum* of its units until released, reflecting that its
        queries run concurrently.

        Every member is counted as priced exactly once, up front — the
        earlier scheme counted only the offending member on rejection and
        only the combined reservation on success, so the ``priced`` counter
        under-reported batch traffic on both paths.
        """
        policy = self._policy
        with self._condition:
            self._bump("priced", len(costs))
        budget = policy.max_query_cost
        if budget is not None:
            for cost in costs:
                if cost.units > budget:
                    with self._condition:
                        self._bump("rejected_over_budget")
                    fitting = admissible_cell_budget(cost, budget)
                    raise QueryRejectedError(
                        f"batch rejected before any solve was dispatched: "
                        f"{cost.describe()} exceeds the per-query budget of "
                        f"{budget:.1f} unit(s); a same-shaped query of at "
                        f"most ~{fitting} estimated cell(s) would fit",
                        cost=cost.units, limit=budget, reason="over-budget",
                        cell_budget=fitting)
        total = sum(cost.units for cost in costs)
        combined = QueryCost(units=total, aggregate="batch",
                             constraint_count=max((c.constraint_count
                                                   for c in costs), default=0),
                             estimated_cells=max((c.estimated_cells
                                                  for c in costs), default=0),
                             shard_count=max((c.shard_count for c in costs),
                                             default=1),
                             strategy="batch",
                             program_warm=all(c.program_warm for c in costs),
                             pool_warm_hit_rate=max((c.pool_warm_hit_rate
                                                     for c in costs),
                                                    default=0.0))
        return self.admit(combined, enforce_budget=False, session=session,
                          already_priced=True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _select_head(self) -> _Waiter | None:
        """The waiter next in line: shortest-priced first, fairness-aware.

        Ordering key is ``(penalty, units, seq)``: the penalty is 1 only
        when the waiter belongs to the session that got the *previous*
        admission while some other session is also waiting — so one
        session's flood of cheap queries alternates with everyone else
        instead of monopolizing released capacity.  Must be called with
        the condition lock held.
        """
        if not self._waiters:
            return None

        def key(waiter: _Waiter):
            penalty = 0
            if waiter.session == self._last_session and any(
                    other.session != waiter.session
                    for other in self._waiters):
                penalty = 1
            return (penalty, waiter.units, waiter.seq)

        return min(self._waiters, key=key)

    def _fits(self, units: float, capacity: float) -> bool:
        # A query bigger than the whole capacity may still run alone —
        # otherwise it could never run at all; the per-query ceiling is
        # max_query_cost's job, not capacity's.
        return self._in_flight + units <= capacity or self._in_flight == 0.0

    def _release(self, units: float) -> None:
        with self._condition:
            self._in_flight = max(0.0, self._in_flight - units)
            self._condition.notify_all()
