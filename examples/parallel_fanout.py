"""Walkthrough: batch fan-out on the persistent worker pool, verification.

Run with::

    PYTHONPATH=src python examples/parallel_fanout.py

Builds a chain of overlapping windows (one overlap component, so every
solve is a coupled MILP), fans a batch of all five aggregates over several
regions out on a process pool, and checks that every answer comes back
bit-identical to the serial path: each query is answered by its one
compiled program, wherever it runs.  It then reuses one persistent
process pool across repeated service batches to show the warm worker
caches at work, and demonstrates the cross-backend verification oracle,
including what the alarm looks like when a backend is deliberately broken.
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BoundOptions,
    ContingencyQuery,
    ContingencyService,
    PCAnalyzer,
    PCBoundSolver,
    Predicate,
    PredicateConstraintSet,
    Relation,
    Schema,
)
from repro.core.builders import build_partition_pcs
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.exceptions import DisjointRangeError
from repro.relational.aggregates import AggregateFunction
from repro.relational.schema import ColumnType
from repro.solvers.lp import LPSolution, SolutionStatus
from repro.solvers.registry import register_backend


def chained_windows(windows: int = 6, bands: int = 3
                    ) -> PredicateConstraintSet:
    """Windows overlapping along ``t``, each with overlapping ``u``-bands."""
    constraints = []
    for window in range(windows):
        for band in range(bands):
            predicate = Predicate.range("t", 15.0 * window,
                                        15.0 * window + 18.0) \
                .with_range("u", 20.0 * band, 20.0 * band + 35.0)
            constraints.append(PredicateConstraint(
                predicate, ValueConstraint({"v": (1.0, 60.0)}),
                FrequencyConstraint(2, 20), name=f"w{window}b{band}"))
    return PredicateConstraintSet(constraints)


def build_scenario():
    rng = np.random.default_rng(1234)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 100.0, 2000),
                            rng.uniform(1.0, 60.0, 2000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="telemetry")
    pcset = build_partition_pcs(relation, ["t"], 32, exact_counts=True)
    return relation, pcset


def main() -> None:
    # --- batch fan-out == serial ----------------------------------------
    # Every query, pooled or not, is answered by its one compiled program,
    # so the process-pool batch must match the serial analyzer exactly.
    chain = chained_windows()
    options = BoundOptions(check_closure=False)
    serial = PCAnalyzer(chain, options=options)
    regions = [Predicate.range("t", 15.0 * i, 15.0 * i + 40.0)
               for i in range(3)]
    makers = [(AggregateFunction.COUNT, lambda r: ContingencyQuery.count(r)),
              (AggregateFunction.SUM, lambda r: ContingencyQuery.sum("v", r)),
              (AggregateFunction.MIN, lambda r: ContingencyQuery.min("v", r)),
              (AggregateFunction.MAX, lambda r: ContingencyQuery.max("v", r)),
              (AggregateFunction.AVG, lambda r: ContingencyQuery.avg("v", r))]
    batch_queries = [make(region) for _, make in makers for region in regions]
    with ContingencyService(max_workers=3, pool_mode="process") as service:
        service.register("chain", chain, options=options)
        started = time.perf_counter()
        batch = service.execute_batch("chain", batch_queries)
        pooled_ms = (time.perf_counter() - started) * 1000
    started = time.perf_counter()
    expected = [serial.analyze(query) for query in batch_queries]
    serial_ms = (time.perf_counter() - started) * 1000
    for (aggregate, _), offset in zip(makers, range(0, len(batch_queries),
                                                    len(regions))):
        pooled = batch.reports[offset:offset + len(regions)]
        reference = expected[offset:offset + len(regions)]
        identical = all((report.lower, report.upper)
                        == (want.lower, want.upper)
                        for report, want in zip(pooled, reference))
        print(f"  {aggregate.value:>5s} over {len(regions)} regions: "
              f"bit-identical to serial: {identical}")
    print(f"batch of {len(batch_queries)}: process pool {pooled_ms:.1f} ms "
          f"(including worker start-up), serial {serial_ms:.1f} ms")

    _, pcset = build_scenario()

    # --- pool reuse across batches --------------------------------------
    # One persistent process pool serves every batch: the first batch
    # registers the session on each worker and ships compiled skeletons to
    # their affinity workers; later batches ship only keys and queries.
    queries = [ContingencyQuery.sum("v", Predicate.range("t", 10.0 * i,
                                                         10.0 * i + 20.0))
               for i in range(5)]
    queries += [ContingencyQuery.avg("v", Predicate.range("t", 10.0 * i,
                                                          10.0 * i + 20.0))
                for i in range(5)]
    with ContingencyService(max_workers=4, pool_mode="process") as pooled:
        pooled.register("telemetry", pcset)
        for round_number in (1, 2, 3):
            pooled.report_cache.clear()  # re-solve; only the pool stays warm
            started = time.perf_counter()
            batch = pooled.execute_batch("telemetry", queries)
            elapsed_ms = (time.perf_counter() - started) * 1000
            traffic = batch.statistics.pool_statistics
            print(f"batch {round_number}: {elapsed_ms:.1f} ms — "
                  f"{traffic['programs_shipped']} program(s) shipped, "
                  f"{traffic['warm_hits']} warm hit(s), "
                  f"{traffic['sessions_shipped']} session ship(s)")
        print(f"pool after 3 batches: "
              f"{pooled.worker_pool.statistics.warm_hit_rate:.0%} warm-hit "
              f"rate over {pooled.worker_pool.max_workers} workers")

    # --- cross-backend verification ------------------------------------
    service = ContingencyService(verify="cross-backend")
    service.register("telemetry", pcset)
    report = service.analyze("telemetry",
                             ContingencyQuery.sum("v",
                                                  Predicate.range("t", 10, 60)))
    print(f"verified SUM range: [{report.lower}, {report.upper}] "
          "(scipy ∩ branch-and-bound)")

    # --- what the alarm looks like --------------------------------------
    def lying_backend(model, time_limit=None):
        from repro.solvers.milp import _solve_scipy

        solution = _solve_scipy(model)
        if solution.status is not SolutionStatus.OPTIMAL:
            return solution
        return LPSolution(SolutionStatus.OPTIMAL,
                          (solution.objective or 0.0) * 7.0, solution.values)

    register_backend("example-lying-backend", lying_backend, replace=True)
    broken = PCBoundSolver(pcset, BoundOptions(
        verify_backend="example-lying-backend"))
    try:
        broken.bound(AggregateFunction.COUNT)
    except DisjointRangeError as error:
        print(f"alarm fired as expected:\n  {error}")


if __name__ == "__main__":
    main()
