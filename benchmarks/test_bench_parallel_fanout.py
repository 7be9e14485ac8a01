"""Benchmark: parallel solve fan-out vs. serial on a warm multi-region batch.

The acceptance claim: once programs are compiled (warm), a multi-region
batch fanned out over 4 process workers beats the same batch on 1 worker
— while returning byte-identical ranges.  Process mode is the honest
configuration to pin: the scipy/HiGHS entry point holds the GIL (measured —
thread pools do not speed MILP solves up on CPython), so real scale-out
means pickling warm compiled skeletons to worker processes.

Both sides run one untimed batch on their executor first, so the timed
batch finds the workers forked and their sessions and programs shipped.

The gate is derived from the hardware: a fan-out can never beat
``min(workers, cores)``, so it must reach half of that — 2x on hosts with
at least 4 cores, and on 2 cores at least parity (fan-out must not lose to
serial).  Next to the speedup the benchmark prints two explanations of the
gap to that bound: the skew ceiling (total work over the most loaded
worker's share, as in "Skew in Parallel Query Processing") and the
per-task pickle+pipe time the fan-out pays on top of the work.

Range equality is asserted unconditionally.  The speedup assertion needs
hardware parallelism, so the benchmark skips on single-core runners instead
of reporting a number no machine could achieve.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions
from repro.core.builders import build_random_overlapping_boxes
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service.batch import BatchExecutor

WORKERS = 4
REGIONS = 16


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def coupled_scenario() -> tuple[PCAnalyzer, list[ContingencyQuery]]:
    """Heavily-overlapping constraints: every solve is a real coupled MILP."""
    rng = np.random.default_rng(7)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    rows = np.column_stack([rng.uniform(0.0, 34.0, 3000),
                            rng.uniform(1.0, 200.0, 3000)])
    relation = Relation.from_rows(schema, [tuple(row) for row in rows],
                                  name="fanout")
    pcset = build_random_overlapping_boxes(relation, ["t"], 12, rng=rng)
    # An observed partition makes every AVG query a real parametric search
    # (known_count > 0 disables the extreme-cell fast path): each query is
    # then several coupled MILP solves, the workload worth fanning out.
    observed_rows = np.column_stack([rng.uniform(0.0, 34.0, 400),
                                     rng.uniform(1.0, 200.0, 400)])
    observed = Relation.from_rows(schema, [tuple(row) for row in observed_rows],
                                  name="observed")
    analyzer = PCAnalyzer(pcset, observed=observed,
                          options=BoundOptions(check_closure=False))
    regions = [Predicate.range("t", 2.0 * index, 2.0 * index + 6.0)
               for index in range(REGIONS)]
    # AVG dominates: each query is a search over coupled MILP solves, the
    # production-shaped "expensive dashboard" workload.
    queries = [ContingencyQuery.avg("v", region) for region in regions]
    queries += [ContingencyQuery.sum("v", region) for region in regions]
    return analyzer, queries


def run_batch(analyzer: PCAnalyzer, queries: list[ContingencyQuery],
              workers: int, mode: str):
    """Time one batch on a warm executor; also return the worker each query
    was routed to.

    The first batch on a fresh executor forks the workers and ships them
    the session and every program.  It runs untimed, so the timed batch
    measures the warm pool the claim is about.
    """
    executor = BatchExecutor(max_workers=workers, mode=mode)
    try:
        executor.execute(analyzer, queries)
        started = time.perf_counter()
        result = executor.execute(analyzer, queries)
        elapsed = time.perf_counter() - started
        solver = analyzer.solver
        routes = [executor.pool.worker_for(
            solver.program_key(query.region, query.attribute))
            for query in queries]
    finally:
        executor.close()
    return result, elapsed, routes


def skew_ceiling(query_seconds: list[float], routes: list[int]) -> float:
    """Total work over the most loaded worker's share of it: the best
    speedup this routing allows, however many cores there are."""
    loads: dict[int, float] = {}
    for seconds, worker in zip(query_seconds, routes):
        loads[worker] = loads.get(worker, 0.0) + seconds
    return sum(query_seconds) / max(max(loads.values()), 1e-12)


def transport_seconds_per_task(analyzer: PCAnalyzer,
                               queries: list[ContingencyQuery],
                               reports: list) -> float:
    """Mean time to pickle one task (program + its queries) and its reply
    and move both through a pipe — the cost a process fan-out adds on top
    of the work itself.  Queries sharing a program ship as one task."""
    solver = analyzer.solver
    tasks: dict[tuple, tuple[list, list]] = {}
    for query, report in zip(queries, reports):
        key = solver.program_key(query.region, query.attribute)
        members = tasks.setdefault(key, ([], []))
        members[0].append(query)
        members[1].append(report)
    sender, receiver = multiprocessing.Pipe()
    try:
        started = time.perf_counter()
        for key, (members, replies) in tasks.items():
            program = solver.program(key[-2], key[-1])
            sender.send((key, program, tuple(members)))
            receiver.recv()
            receiver.send(replies)
            sender.recv()
        elapsed = time.perf_counter() - started
    finally:
        sender.close()
        receiver.close()
    return elapsed / len(tasks)


def test_bench_warm_multi_region_batch_fanout(report_artifact, bench_record):
    """Warm batch, workers=4 process fan-out vs workers=1: >= 2x, same ranges."""
    analyzer, queries = coupled_scenario()
    # Warm every program outside the timed sections: the claim is about
    # solve fan-out, not compilation.
    for query in queries:
        analyzer.prepare(query.region, query.attribute)

    serial_result, serial_seconds, _ = run_batch(analyzer, queries, 1,
                                                 "thread")
    fanout_result, fanout_seconds, routes = run_batch(analyzer, queries,
                                                      WORKERS, "process")
    query_seconds = []
    for query in queries:
        started = time.perf_counter()
        analyzer.analyze(query)
        query_seconds.append(time.perf_counter() - started)

    serial_ranges = [(r.lower, r.upper) for r in serial_result.reports]
    fanout_ranges = [(r.lower, r.upper) for r in fanout_result.reports]
    # Identical ranges come first: fan-out changes cost, never results.
    assert fanout_ranges == serial_ranges

    ratio = serial_seconds / max(fanout_seconds, 1e-9)
    cores = available_cores()
    core_ceiling = min(WORKERS, cores)
    skew = skew_ceiling(query_seconds, routes)
    transport = transport_seconds_per_task(analyzer, queries,
                                           serial_result.reports)
    required = 0.5 * core_ceiling
    report_artifact(
        "Warm multi-region batch: process fan-out vs serial\n"
        f"  queries              : {len(queries)} over {REGIONS} regions\n"
        f"  available cores      : {cores}\n"
        f"  workers=1 (serial)   : {serial_seconds:.2f} s\n"
        f"  workers={WORKERS} (process)  : {fanout_seconds:.2f} s\n"
        f"  speedup              : {ratio:.2f}x (gate {required:.2f}x)\n"
        f"  ceiling              : {min(core_ceiling, skew):.2f}x "
        f"(min(workers, cores) {core_ceiling}, skew {skew:.2f}x)\n"
        f"  pickle+pipe per task : {transport * 1000:.3f} ms")
    bench_record(serial_seconds=serial_seconds, fanout_seconds=fanout_seconds,
                 speedup=ratio, workers=WORKERS, cores=cores,
                 required_speedup=required, skew_ceiling=skew,
                 transport_seconds_per_task=transport)
    if cores < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores, found {cores}; "
                    "range-equality was still asserted")
    # Acceptance: half the hardware ceiling — 2x with >= 4 cores, parity
    # with serial on 2.
    assert ratio >= required
