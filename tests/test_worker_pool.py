"""Lifecycle, affinity and warm-cache behaviour of the persistent pool.

The pool's contract has three legs the soundness harness cannot see:

* **lifecycle** — idempotent shutdown, context management, lazy restart,
  and transparent recovery when a worker process is killed mid-service;
* **affinity** — a program key is pinned to one worker, so its warm cache
  is actually reused (observable as warm hits without program re-ships);
* **equivalence** — every mode (serial / thread / process) returns the
  reports the direct in-process calls produce.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.parallel.pool import WorkerPool
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService
from repro.solvers.registry import BackendCapabilities, register_backend

# Width-1 pools degrade to serial by design (pinned in TestModesAndFallbacks),
# so the lifecycle/affinity tests need at least two real workers even on the
# REPRO_TEST_WORKERS=1 CI leg.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))


def make_relation(rows: int = 240, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    data = np.column_stack([rng.uniform(0.0, 40.0, rows),
                            rng.uniform(1.0, 60.0, rows)])
    return Relation.from_rows(schema, [tuple(row) for row in data],
                              name="pool-test")


def keyed_queries(analyzer: PCAnalyzer, queries) -> list[tuple]:
    """``pool.analyze`` entries: (program key, program, query, depth)."""
    solver = analyzer.solver
    return [(solver.program_key(query.region, query.attribute),
             solver.program(query.region, query.attribute), query,
             solver.resolved_early_stop_depth(query.region, query.attribute))
            for query in queries]


def window_queries(maker=ContingencyQuery.sum, count: int = 4) -> list:
    """One query per distinct region, so every entry has its own program."""
    attribute = () if maker == ContingencyQuery.count else ("v",)
    return [maker(*attribute, Predicate.range("t", 8.0 * i, 8.0 * i + 12.0))
            for i in range(count)]


def endpoints(reports) -> list[tuple]:
    return [(report.lower, report.upper) for report in reports]


def direct_endpoints(analyzer: PCAnalyzer, queries) -> list[tuple]:
    """The reference: each query answered serially in-process."""
    return endpoints(analyzer.analyze(query) for query in queries)


def single_query_requests(session_key, analyzer: PCAnalyzer, queries,
                          key=None) -> list[tuple]:
    """One ``analyze_batch`` round request per query, in order — the shape
    that ships each query as its own task.  ``key`` overrides every
    request's routing key (a hot key concentrates the round on one
    worker)."""
    requests = []
    for position, (program_key, program, query, depth) in enumerate(
            keyed_queries(analyzer, queries)):
        requests.append(("analyze_batch", key or program_key,
                         (session_key, program_key, program, (query,),
                          depth), (position,)))
    return requests


def round_endpoints(collected: dict) -> list[tuple]:
    """A round's ``{(position,): [report]}`` replies in position order."""
    return [(reports[0].lower, reports[0].upper)
            for _position, reports in sorted(collected.items())]


@pytest.fixture
def analyzer() -> PCAnalyzer:
    pcset = build_partition_pcs(make_relation(), ["t"], 6)
    return PCAnalyzer(pcset, options=BoundOptions(check_closure=False))


class TestLifecycle:
    def test_shutdown_is_idempotent_and_context_managed(self, analyzer):
        queries = window_queries()
        keyed = keyed_queries(analyzer, queries)
        with WorkerPool(max_workers=WORKERS, mode="process") as pool:
            reports = pool.analyze("lifecycle", analyzer, keyed)
            assert endpoints(reports) == direct_endpoints(analyzer, queries)
            assert pool.alive_workers() == WORKERS
        assert pool.alive_workers() == 0
        pool.shutdown()  # second shutdown: no-op, no error
        pool.shutdown()

    def test_pool_restarts_lazily_after_shutdown(self, analyzer):
        keyed = keyed_queries(analyzer, window_queries())
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        first = endpoints(pool.analyze("lazy", analyzer, keyed))
        pool.shutdown()
        assert pool.alive_workers() == 0
        second = endpoints(pool.analyze("lazy", analyzer, keyed))
        assert first == second
        pool.shutdown()

    def test_restart_bounces_workers(self, analyzer):
        keyed = keyed_queries(analyzer, window_queries())
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        pool.analyze("bounce", analyzer, keyed)
        pids = set(pool.worker_pids())
        pool.restart()
        assert pool.alive_workers() == WORKERS
        assert set(pool.worker_pids()).isdisjoint(pids)
        pool.shutdown()

    def test_killed_worker_is_respawned_and_round_completes(self, analyzer):
        # One query per worker, so the killed worker always has work in
        # the next round.
        queries = window_queries(count=WORKERS)
        keyed = keyed_queries(analyzer, queries)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            baseline = endpoints(pool.analyze("kill", analyzer, keyed))
            assert baseline == direct_endpoints(analyzer, queries)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            recovered = endpoints(pool.analyze("kill", analyzer, keyed))
            assert recovered == baseline
            assert pool.statistics.worker_restarts >= 1
            assert pool.alive_workers() == WORKERS
        finally:
            pool.shutdown()

    def test_worker_failure_propagates_as_exception(self):
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            pool.start()
            # The parent believes a session is registered that no worker
            # holds: the worker-side handler raises and the error crosses
            # the pipe to the caller.
            for worker in pool._workers:
                worker.sessions.add("ghost")
            query = ContingencyQuery.count()
            with pytest.raises(SolverError, match="no registered session"):
                pool._locked_round([
                    ("analyze_batch", "key-a",
                     ("ghost", "key-a", None, (query,), None), (0,)),
                    ("analyze_batch", "key-b",
                     ("ghost", "key-b", None, (query,), None), (1,))])
        finally:
            pool.shutdown()

    def test_large_rounds_do_not_deadlock(self, analyzer):
        """Rounds far larger than a pipe buffer complete: the in-flight cap
        keeps dispatch and collection interleaved, so a worker can never
        block sending results while the parent blocks sending tasks."""
        queries = window_queries(ContingencyQuery.count)
        big = [queries[index % len(queries)] for index in range(1000)]
        expected = direct_endpoints(analyzer, queries)
        with WorkerPool(max_workers=2, mode="process") as pool:
            pool.register_session("big", analyzer)
            collected = pool._locked_round(
                single_query_requests("big", analyzer, big))
        assert round_endpoints(collected) == [expected[index % len(expected)]
                                              for index in range(1000)]


class TestModesAndFallbacks:
    def test_mode_validation(self):
        with pytest.raises(SolverError, match="unknown pool mode"):
            WorkerPool(mode="quantum")
        with pytest.raises(SolverError, match="must be positive"):
            WorkerPool(max_workers=0)

    def test_width_one_degrades_to_serial(self):
        assert WorkerPool(max_workers=1, mode="process").mode == "serial"

    def test_process_unsafe_backend_falls_back_to_threads(self):
        register_backend(
            "test-pool-native-handle",
            lambda model, time_limit=None: None,
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        pool = WorkerPool(max_workers=2, mode="process",
                          backend="test-pool-native-handle")
        assert pool.mode == "thread"
        assert pool.requested_mode == "process"

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_pool_matches_direct_calls(self, analyzer, mode):
        workers = 1 if mode == "serial" else WORKERS
        with WorkerPool(max_workers=workers, mode=mode) as pool:
            for maker in (ContingencyQuery.count, ContingencyQuery.sum,
                          ContingencyQuery.avg, ContingencyQuery.min,
                          ContingencyQuery.max):
                queries = window_queries(maker, count=2)
                reports = pool.analyze(f"modes-{mode}", analyzer,
                                       keyed_queries(analyzer, queries))
                assert endpoints(reports) == \
                    direct_endpoints(analyzer, queries)


class TestAffinityAndWarmCaches:
    def test_affinity_is_sticky_and_balanced(self):
        pool = WorkerPool(max_workers=3, mode="process")
        keys = [f"key-{index}" for index in range(9)]
        first = [pool.worker_for(key) for key in keys]
        # Sticky: the same key always routes to the same worker.
        assert [pool.worker_for(key) for key in keys] == first
        # Balanced: 9 fresh keys over 3 workers land 3 per worker.
        assert sorted(first.count(index) for index in range(3)) == [3, 3, 3]
        pool.shutdown()

    def test_warm_cache_hits_skip_program_shipping(self, analyzer):
        queries = window_queries()
        keyed = keyed_queries(analyzer, queries)
        programs = {key: program for key, program, _, _ in keyed}
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm(programs)
            shipped_after_warm = pool.statistics.programs_shipped
            assert shipped_after_warm == len(programs)
            # Warming again is a no-op.
            pool.warm(programs)
            assert pool.statistics.programs_shipped == shipped_after_warm
            # Queries for warmed keys ship no programs: warm hits only.
            for _ in range(3):
                reports = pool.analyze("warm-test", analyzer, keyed)
                assert endpoints(reports) == \
                    direct_endpoints(analyzer, queries)
            assert pool.statistics.programs_shipped == shipped_after_warm
            assert pool.statistics.warm_hits >= 3 * len(keyed)
            assert pool.statistics.warm_hit_rate > 0.5
            # Every key is warm on exactly its affinity worker.
            for key in programs:
                assert key in pool.warm_keys_on(pool.worker_for(key))
        finally:
            pool.shutdown()

    def test_worker_lru_eviction_recovers_by_reshipping(self, analyzer,
                                                        monkeypatch):
        """Warm-key bookkeeping is advisory: a worker that evicted a
        program under memory pressure recompiles it, and the answer does
        not change."""
        import repro.parallel.pool as pool_module
        from repro.obs.trace import get_tracer

        monkeypatch.setattr(pool_module, "_WORKER_CACHE_ENTRIES", 1)
        queries = window_queries()
        keyed = keyed_queries(analyzer, queries)
        baseline = direct_endpoints(analyzer, queries)
        # Width 2: each worker holds several keys but caches only one, so
        # round-robin traffic forces evictions on every round.
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            first = pool.analyze("lru-test", analyzer, keyed)
            shipped = pool.statistics.programs_shipped
            with get_tracer().trace("lru", force=True) as trace:
                second = pool.analyze("lru-test", analyzer, keyed)
            assert endpoints(first) == baseline
            assert endpoints(second) == baseline
            # The parent still believed every key warm, so nothing was
            # re-shipped: the evicted programs were compiled worker-side.
            assert pool.statistics.programs_shipped == shipped
            assert any(span.name == "compile" for span in trace)
        finally:
            pool.shutdown()

    def test_respawned_worker_is_rewarmed_transparently(self, analyzer):
        queries = window_queries()
        keyed = keyed_queries(analyzer, queries)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm({key: program for key, program, _, _ in keyed})
            baseline = endpoints(pool.analyze("respawn-test", analyzer,
                                              keyed))
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.1)
            shipped_before = pool.statistics.programs_shipped
            recovered = endpoints(pool.analyze("respawn-test", analyzer,
                                               keyed))
            assert recovered == baseline
            # Cold respawned workers were re-shipped their programs.  Only
            # workers with affinity keys had tasks to recover, so only they
            # are guaranteed a respawn.
            involved = {pool.worker_for(key) for key, _, _, _ in keyed}
            assert pool.statistics.programs_shipped > shipped_before
            assert pool.statistics.worker_restarts >= len(involved)
        finally:
            pool.shutdown()


class TestServiceIntegration:
    def make_service_scenario(self):
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        queries = [ContingencyQuery.sum("v", Predicate.range("t", 5.0 * i,
                                                             5.0 * i + 10.0))
                   for i in range(4)]
        queries += [ContingencyQuery.avg("v", Predicate.range("t", 5.0 * i,
                                                              5.0 * i + 10.0))
                    for i in range(4)]
        return relation, pcset, queries

    def test_process_pool_batches_reuse_warm_workers(self, monkeypatch):
        # This pins the warm-*worker* path: clearing the report cache must
        # re-dispatch to the pool.  A persistent tier (the REPRO_CACHE_DIR
        # CI leg) would answer the second batch from the store instead.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        relation, pcset, queries = self.make_service_scenario()
        with ContingencyService(max_workers=WORKERS,
                                pool_mode="process") as service:
            service.register("pool", pcset, observed=relation)
            first = service.execute_batch("pool", queries)
            service.report_cache.clear()
            second = service.execute_batch("pool", queries)
            assert [(r.lower, r.upper) for r in first.reports] == \
                [(r.lower, r.upper) for r in second.reports]
            # The second batch found every program warm on its affinity
            # worker: keys only, no skeleton pickling, no re-registration.
            assert second.statistics.pool_statistics["programs_shipped"] == 0
            assert second.statistics.pool_statistics["sessions_shipped"] == 0
            assert second.statistics.pool_statistics["warm_hits"] > 0
            # And the reports match a plain serial analyzer.
            analyzer = PCAnalyzer(pcset, observed=relation)
            for query, report in zip(queries, first.reports):
                serial = analyzer.analyze(query)
                assert report.lower == pytest.approx(serial.lower, rel=1e-9)
                assert report.upper == pytest.approx(serial.upper, rel=1e-9)
        assert service.worker_pool.alive_workers() == 0

    def test_service_batches_survive_worker_kill(self, monkeypatch):
        # Same pin as above: the recovery batch must reach the (restarted)
        # pool rather than be served from a persistent store.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        relation, pcset, queries = self.make_service_scenario()
        with ContingencyService(max_workers=WORKERS,
                                pool_mode="process") as service:
            service.register("pool", pcset, observed=relation)
            first = service.execute_batch("pool", queries)
            victim = service.worker_pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            service.report_cache.clear()
            recovered = service.execute_batch("pool", queries)
            assert [(r.lower, r.upper) for r in first.reports] == \
                [(r.lower, r.upper) for r in recovered.reports]
            assert service.worker_pool.statistics.worker_restarts >= 1

    def test_injected_process_pool_gated_for_unsafe_backend(self):
        """A process-unsafe backend never reaches the service's process
        pool: its batches run on a thread pool instead (the same fallback
        the pool applies when it knows the backend at construction)."""
        from repro.solvers.milp import _solve_scipy

        register_backend(
            "test-pool-unsafe-solver",
            lambda model, time_limit=None: _solve_scipy(model),
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        relation, pcset, queries = self.make_service_scenario()
        options = BoundOptions(milp_backend="test-pool-unsafe-solver")
        with ContingencyService(max_workers=WORKERS,
                                pool_mode="process") as service:
            service.register("gated", pcset, observed=relation,
                             options=options)
            result = service.execute_batch("gated", queries)
            assert result.statistics.executor_mode == "thread"
            serial = PCAnalyzer(pcset, observed=relation, options=options)
            for query, report in zip(queries, result.reports):
                expected = serial.analyze(query)
                assert (report.lower, report.upper) == \
                    (expected.lower, expected.upper)
            # The process pool never saw the unsafe backend's work.
            assert service.worker_pool.statistics.tasks_dispatched == 0


class TestAffinityRouting:
    """Sticky affinity placement, its load credits, and the skewed round
    it produces when every task shares one key."""

    def test_hot_key_round_matches_serial_endpoints(self, analyzer):
        """All 40 tasks share one affinity key, so routing concentrates the
        round on one worker — the synthetic worst case of skew.  With one
        query per task that worker runs 16 tasks in flight over a deep
        backlog; the round must complete and every answer must equal the
        serial one."""
        queries = window_queries(count=4)
        hot = [queries[index % len(queries)] for index in range(40)]
        expected = direct_endpoints(analyzer, queries)
        with WorkerPool(max_workers=WORKERS, mode="process") as pool:
            pool.register_session("hot", analyzer)
            collected = pool._locked_round(
                single_query_requests("hot", analyzer, hot, key="hot-key"))
        assert len(collected) == len(hot)
        assert round_endpoints(collected) == [expected[index % len(expected)]
                                              for index in range(40)]

    def test_restart_resets_load_counters_but_keeps_sticky_map(self):
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            indexes = {key: pool.worker_for(key)
                       for key in ("k0", "k1", "k2", "k3")}
            assert sum(pool._assigned) == 4
            pool.restart()
            # The dead incarnation's load history is gone...
            assert pool._assigned == [0] * WORKERS
            # ...but sticky placement survives the bounce.
            for key, index in indexes.items():
                assert pool.worker_for(key) == index
        finally:
            pool.shutdown()

    def test_retire_affinity_returns_the_load_credit(self):
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        index = pool.worker_for("transient")
        assert pool._assigned[index] == 1
        pool.retire_affinity("transient")
        assert pool._assigned[index] == 0
        assert "transient" not in pool._affinity
        pool.retire_affinity("transient")  # advisory: unknown keys ignored
        assert pool._assigned[index] == 0


class TestLiveTasks:
    def test_thread_fanout_occupies_live_slots(self):
        import threading

        pool = WorkerPool(max_workers=4, mode="thread")
        release = threading.Event()

        def blocked(_item):
            release.wait(10.0)
            return True

        worker = threading.Thread(
            target=lambda: pool._thread_map(blocked, [0, 1, 2],
                                            label="pool.block"))
        worker.start()
        try:
            deadline = time.time() + 5.0
            while pool.live_tasks != 3 and time.time() < deadline:
                time.sleep(0.005)
            assert pool.live_tasks == 3
        finally:
            release.set()
            worker.join(timeout=10.0)
            pool.shutdown()
        assert pool.live_tasks == 0
