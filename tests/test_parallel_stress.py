"""Concurrency stress: hammer the caches and the service from many threads.

The parallel fan-out work leans on two concurrency invariants that single-
threaded tests cannot falsify:

* **compile-once** — no matter how many threads race on the same (region,
  attribute) pair, the program cache's per-key locking admits exactly one
  compilation per distinct key (duplicate compiles beyond genuine cache
  misses are a correctness bug in the locking, not just wasted work);
* **range stability** — concurrent execution returns ranges identical to a
  serial run of the same queries, on every path (service batch, one solver
  shared across threads, raw cache traffic).

The quick variants run in tier-1; the heavier ``stress``-marked variants
(deselected by default, selected by the CI stress job via ``-m stress``)
push thread counts and iteration counts high enough to give races a real
chance to interleave.

The thread width honours the ``REPRO_TEST_WORKERS`` environment variable so
CI can pin the suite on multiple worker configurations.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery
from repro.core.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService, LRUCache


def worker_width(default: int = 4) -> int:
    """Thread width for this run (CI pins it via REPRO_TEST_WORKERS)."""
    value = os.environ.get("REPRO_TEST_WORKERS", "")
    return int(value) if value.isdigit() and int(value) > 0 else default


def stress_pcset() -> tuple[Relation, object]:
    rng = np.random.default_rng(42)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    t = rng.uniform(0.0, 60.0, 300)
    v = np.round(rng.uniform(1.0, 90.0, 300), 3)
    relation = Relation.from_rows(schema, list(zip(t.tolist(), v.tolist())),
                                  name="stress")
    return relation, build_partition_pcs(relation, ["t"], 8)


def mixed_queries(regions: int) -> list[ContingencyQuery]:
    queries: list[ContingencyQuery] = []
    for index in range(regions):
        region = Predicate.range("t", 6.0 * index, 6.0 * index + 12.0)
        queries.extend([
            ContingencyQuery.count(region),
            ContingencyQuery.sum("v", region),
            ContingencyQuery.avg("v", region),
            ContingencyQuery.min("v", region),
            ContingencyQuery.max("v", region),
        ])
    return queries


def run_service_rounds(threads: int, rounds: int,
                       queries: list[ContingencyQuery]):
    """Fire ``rounds`` concurrent batches and return (service, all results)."""
    _, pcset = stress_pcset()
    service = ContingencyService(max_workers=threads)
    service.register("stress", pcset)
    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(service.execute_batch, "stress", queries)
                   for _ in range(rounds)]
        results = [future.result() for future in futures]
    return service, results


def distinct_program_groups(queries: list[ContingencyQuery]) -> int:
    return len({(query.region, query.attribute) for query in queries})


# --------------------------------------------------------------------- #
# Tier-1 variants
# --------------------------------------------------------------------- #
def test_concurrent_batches_compile_each_program_once():
    """Many concurrent batches, one compilation per distinct program key."""
    queries = mixed_queries(regions=4)
    service, results = run_service_rounds(threads=worker_width(), rounds=4,
                                          queries=queries)
    statistics = service.statistics()
    assert statistics.programs_compiled == distinct_program_groups(queries)
    # Every concurrent round produced byte-identical ranges.
    reference = [(r.lower, r.upper) for r in results[0].reports]
    for result in results[1:]:
        assert [(r.lower, r.upper) for r in result.reports] == reference


def test_concurrent_ranges_match_serial_run():
    queries = mixed_queries(regions=3)
    _, pcset = stress_pcset()
    serial_service = ContingencyService(max_workers=1)
    serial_service.register("stress", pcset)
    serial = serial_service.execute_batch("stress", queries)
    _, results = run_service_rounds(threads=worker_width(), rounds=2,
                                    queries=queries)
    expected = [(r.lower, r.upper) for r in serial.reports]
    for result in results:
        assert [(r.lower, r.upper) for r in result.reports] == expected


def test_lru_cache_deduplicates_racing_factories():
    """The per-key lock admits one factory call per key under contention."""
    cache = LRUCache(max_entries=64)
    calls: dict[int, int] = {}
    calls_lock = threading.Lock()

    def factory_for(key: int):
        def factory():
            with calls_lock:
                calls[key] = calls.get(key, 0) + 1
            return key * 2
        return factory

    def hammer(_worker: int):
        for key in range(16):
            assert cache.get_or_compute(key, factory_for(key)) == key * 2

    with ThreadPoolExecutor(max_workers=worker_width()) as pool:
        list(pool.map(hammer, range(worker_width() * 2)))
    assert calls == {key: 1 for key in range(16)}


def test_shared_solver_is_thread_safe():
    """Concurrent bounds on one shared solver agree with each other and
    with a serial solver's."""
    _, pcset = stress_pcset()
    serial = PCBoundSolver(pcset, BoundOptions())
    shared = PCBoundSolver(pcset, BoundOptions())
    queries = mixed_queries(regions=3)

    def solve_all(_worker: int):
        return [shared.bound(q.aggregate, q.attribute, q.region)
                for q in queries]

    with ThreadPoolExecutor(max_workers=worker_width()) as pool:
        outcomes = list(pool.map(solve_all, range(worker_width())))
    expected = [serial.bound(q.aggregate, q.attribute, q.region)
                for q in queries]
    for ranges in outcomes:
        assert [(r.lower, r.upper) for r in ranges] == \
            [(r.lower, r.upper) for r in expected]


# --------------------------------------------------------------------- #
# Stress variants (deselected by default; CI runs them with `-m stress`)
# --------------------------------------------------------------------- #
@pytest.mark.stress
def test_stress_many_threads_many_rounds():
    """High-contention soak: wide pools, repeated rounds, one compile per key."""
    queries = mixed_queries(regions=8)
    threads = max(worker_width(), 8)
    service, results = run_service_rounds(threads=threads, rounds=12,
                                          queries=queries)
    statistics = service.statistics()
    assert statistics.programs_compiled == distinct_program_groups(queries)
    reference = [(r.lower, r.upper) for r in results[0].reports]
    for result in results[1:]:
        assert [(r.lower, r.upper) for r in result.reports] == reference


@pytest.mark.stress
def test_stress_program_cache_thrash_stays_consistent():
    """Under forced LRU eviction, re-compiles happen but ranges never drift."""
    _, pcset = stress_pcset()
    # A program cache far smaller than the working set: every round evicts.
    service = ContingencyService(program_cache_entries=2,
                                 report_cache_entries=1,
                                 max_workers=worker_width())
    service.register("thrash", pcset)
    queries = mixed_queries(regions=6)
    serial_service = ContingencyService(max_workers=1)
    serial_service.register("thrash", pcset)
    expected = [(r.lower, r.upper)
                for r in serial_service.execute_batch("thrash", queries).reports]
    for _ in range(4):
        result = service.execute_batch("thrash", queries)
        assert [(r.lower, r.upper) for r in result.reports] == expected
    statistics = service.statistics()
    # Evictions force re-compiles, but never more than one per cache miss.
    cache_statistics = statistics.program_cache
    assert statistics.programs_compiled <= cache_statistics.misses
    assert cache_statistics.evictions > 0


@pytest.mark.stress
def test_stress_decomposition_counters_stay_exact():
    """Counter accounting stays exact under maximal interleaving."""
    queries = mixed_queries(regions=5)
    service, _ = run_service_rounds(threads=max(worker_width(), 8), rounds=8,
                                    queries=queries)
    statistics = service.statistics()
    distinct_regions = len({query.region for query in queries})
    assert statistics.decompositions_computed == distinct_regions
