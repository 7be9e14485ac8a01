"""Benchmark: persistent warm worker pool vs. a per-call process pool.

PR 4's acceptance claim: for *small* warm queries — where the solve itself
is cheap and a per-call process pool spends its time forking workers and
pickling the analyzer into every task — repeated batches on the persistent
pool finish faster on 4 process workers: at least half of
``min(workers, cores)`` faster — 2x with 4 or more cores, parity on 2.  The pool pays fork
once at start-up, ships each compiled program and the session analyzer
once per affinity worker, and from then on moves only keys and queries; the
per-call baseline — a stdlib ``concurrent.futures.ProcessPoolExecutor``
built for each batch — re-pays everything on every batch, which is what
`repro.service.batch` did before the persistent pool existed.

Range equality between the two paths is asserted unconditionally.  The
speedup assertion needs hardware parallelism plus real fork costs to
amortise, so it skips on single-core runners instead of reporting a number
no machine could achieve.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.bounds import BoundOptions
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.parallel.pool import WorkerPool
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service.batch import BatchExecutor

WORKERS = 4
ROUNDS = 4


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def small_query_scenario() -> tuple[PCAnalyzer, list[ContingencyQuery]]:
    """Many cheap queries over a modest partition: overhead-dominated."""
    rng = np.random.default_rng(29)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 48.0, 1200),
                            rng.uniform(1.0, 120.0, 1200)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="pool-bench")
    pcset = build_partition_pcs(relation, ["t"], 12)
    observed_rows = np.column_stack([rng.uniform(0.0, 48.0, 200),
                                     rng.uniform(1.0, 120.0, 200)])
    observed = Relation.from_rows(schema,
                                  [tuple(row) for row in observed_rows],
                                  name="observed")
    analyzer = PCAnalyzer(pcset, observed=observed,
                          options=BoundOptions(check_closure=False))
    regions = [Predicate.range("t", 4.0 * index, 4.0 * index + 8.0)
               for index in range(12)]
    queries = [ContingencyQuery.sum("v", region) for region in regions]
    queries += [ContingencyQuery.avg("v", region) for region in regions]
    return analyzer, queries


def test_bench_persistent_pool_vs_per_call_executor(report_artifact,
                                                    bench_record):
    """Warm small-query batches: persistent pool >= 2x the per-call path."""
    analyzer, queries = small_query_scenario()
    # Warm the parent's programs outside every timed section — both paths
    # start from the same warm parent state; the contrast is purely
    # per-batch runtime overhead.
    for query in queries:
        analyzer.prepare(query.region, query.attribute)

    # Per-call path (the pre-PR4 behaviour): a fresh process pool per
    # batch, the analyzer pickled into every task.
    def per_call_batch():
        with ProcessPoolExecutor(max_workers=WORKERS) as per_call:
            return list(per_call.map(analyzer.analyze, queries))

    # Persistent-pool path: one long-lived pool; the first batch ships
    # programs and the session, later batches ship keys only.
    pool = WorkerPool(max_workers=WORKERS, mode="process", name="bench")
    executor = BatchExecutor(max_workers=WORKERS, pool=pool)

    try:
        per_call_reports = per_call_batch()  # warm the OS page cache too
        pooled_reports = executor.execute(analyzer, queries).reports

        started = time.perf_counter()
        for _ in range(ROUNDS):
            per_call_reports = per_call_batch()
        per_call_seconds = (time.perf_counter() - started) / ROUNDS

        started = time.perf_counter()
        for _ in range(ROUNDS):
            pooled_reports = executor.execute(analyzer, queries).reports
        pooled_seconds = (time.perf_counter() - started) / ROUNDS
    finally:
        pool.shutdown()

    per_call_ranges = [(r.lower, r.upper) for r in per_call_reports]
    pooled_ranges = [(r.lower, r.upper) for r in pooled_reports]
    # Identical ranges come first: the pool changes cost, never results.
    assert pooled_ranges == per_call_ranges

    ratio = per_call_seconds / max(pooled_seconds, 1e-9)
    cores = available_cores()
    statistics = pool.statistics
    report_artifact(
        "Warm small-query batches: persistent pool vs per-call pool\n"
        f"  queries per batch    : {len(queries)} (batches of cheap solves)\n"
        f"  available cores      : {cores}\n"
        f"  per-call pool        : {per_call_seconds * 1000:.1f} ms/batch\n"
        f"  persistent pool      : {pooled_seconds * 1000:.1f} ms/batch\n"
        f"  speedup              : {ratio:.2f}x "
        f"(gate {0.5 * min(WORKERS, cores):.2f}x)\n"
        f"  pool warm-hit rate   : {statistics.warm_hit_rate:.1%} "
        f"({statistics.programs_shipped} program(s) shipped total)")
    bench_record(per_call_seconds=per_call_seconds,
                 pooled_seconds=pooled_seconds,
                 speedup=ratio, workers=WORKERS, cores=cores,
                 queries_per_batch=len(queries), rounds=ROUNDS,
                 warm_hit_rate=statistics.warm_hit_rate)
    if cores < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores, found {cores}; "
                    "range-equality was still asserted")
    # Acceptance: half the hardware ceiling min(workers, cores) — 2x on 4
    # process workers with >= 4 cores, parity on 2.
    assert ratio >= 0.5 * min(WORKERS, cores)
