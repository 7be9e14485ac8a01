"""Lifecycle, affinity and warm-cache behaviour of the persistent pool.

The pool's contract has three legs the soundness harness cannot see:

* **lifecycle** — idempotent shutdown, context management, lazy restart,
  and transparent recovery when a worker process is killed mid-service;
* **affinity** — a program key is pinned to one worker, so its warm cache
  is actually reused (observable as warm hits without program re-ships);
* **equivalence** — every mode (serial / thread / process) returns the
  endpoints and reports the direct in-process calls produce.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.exceptions import SolverError
from repro.parallel.pool import WorkerPool, shared_pool, shutdown_shared_pools
from repro.relational.aggregates import AggregateFunction
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


def keyed_shard_programs(solver: PCBoundSolver, attribute: str = "v",
                         shards: int = 3) -> list[tuple]:
    sharded = solver.sharded_plan(None, attribute, max_shards=shards)
    assert sharded.is_sharded
    return [(solver.shard_program_key(shard, None, attribute),
             solver.shard_program(shard, None, attribute))
            for shard in sharded]


@pytest.fixture
def solver() -> PCBoundSolver:
    pcset = build_partition_pcs(make_relation(), ["t"], 6)
    return PCBoundSolver(pcset, BoundOptions(check_closure=False))


def direct_endpoints(keyed, aggregate):
    return [(r.lower, r.upper, r.closed)
            for r in (program.bound(aggregate) for _, program in keyed)]


class TestLifecycle:
    def test_shutdown_is_idempotent_and_context_managed(self, solver):
        keyed = keyed_shard_programs(solver)
        with WorkerPool(max_workers=WORKERS, mode="process") as pool:
            endpoints = pool.solve_programs(keyed, AggregateFunction.SUM)
            assert endpoints == direct_endpoints(keyed, AggregateFunction.SUM)
            assert pool.alive_workers() == WORKERS
        assert pool.alive_workers() == 0
        pool.shutdown()  # second shutdown: no-op, no error
        pool.shutdown()

    def test_pool_restarts_lazily_after_shutdown(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        first = pool.solve_programs(keyed, AggregateFunction.COUNT)
        pool.shutdown()
        assert pool.alive_workers() == 0
        second = pool.solve_programs(keyed, AggregateFunction.COUNT)
        assert first == second
        pool.shutdown()

    def test_restart_bounces_workers(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        pool.solve_programs(keyed, AggregateFunction.SUM)
        pids = set(pool.worker_pids())
        pool.restart()
        assert pool.alive_workers() == WORKERS
        assert set(pool.worker_pids()).isdisjoint(pids)
        pool.shutdown()

    def test_killed_worker_is_respawned_and_round_completes(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            baseline = pool.solve_programs(keyed, AggregateFunction.SUM)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
            recovered = pool.solve_programs(keyed, AggregateFunction.SUM)
            assert recovered == baseline
            assert pool.statistics.worker_restarts >= 1
            assert pool.alive_workers() == WORKERS
        finally:
            pool.shutdown()

    def test_worker_failure_propagates_as_exception(self, solver):
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            with pytest.raises(SolverError, match="cache miss"):
                # A bare key with no program: the worker cannot resolve it.
                pool._locked_round([
                    ("solve", "no-such-key",
                     ("no-such-key", None, AggregateFunction.COUNT, 0.0, 0.0),
                     0),
                    ("solve", "no-such-key-2",
                     ("no-such-key-2", None, AggregateFunction.COUNT, 0.0, 0.0),
                     1)])
        finally:
            pool.shutdown()

    def test_large_rounds_do_not_deadlock(self, solver):
        """Rounds far larger than a pipe buffer complete: the in-flight cap
        keeps dispatch and collection interleaved, so a worker can never
        block sending results while the parent blocks sending tasks."""
        keyed = keyed_shard_programs(solver)
        big = [keyed[index % len(keyed)] for index in range(4000)]
        with WorkerPool(max_workers=2, mode="process") as pool:
            endpoints = pool.solve_programs(big, AggregateFunction.MIN)
        expected = direct_endpoints(keyed, AggregateFunction.MIN)
        assert endpoints == [expected[index % len(expected)]
                             for index in range(4000)]

    def test_shared_pools_are_reused_and_reaped(self):
        first = shared_pool(mode="thread", max_workers=WORKERS)
        second = shared_pool(mode="thread", max_workers=WORKERS)
        assert first is second
        other = shared_pool(mode="thread", max_workers=WORKERS + 1)
        assert other is not first
        shutdown_shared_pools()
        third = shared_pool(mode="thread", max_workers=WORKERS)
        assert third is not first

    def test_shared_pool_keyed_by_resolved_mode(self):
        """A process request that falls back to threads shares the thread
        registry entry instead of creating a duplicate thread pool."""
        register_backend(
            "test-shared-pool-unsafe",
            lambda model, time_limit=None: None,
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        fallback = shared_pool(mode="process", max_workers=WORKERS,
                               backend="test-shared-pool-unsafe")
        assert fallback.mode == "thread"
        assert shared_pool(mode="thread", max_workers=WORKERS) is fallback


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
    def test_solve_programs_matches_direct_bounds(self, solver, mode):
        keyed = keyed_shard_programs(solver)
        workers = 1 if mode == "serial" else WORKERS
        with WorkerPool(max_workers=workers, mode=mode) as pool:
            for aggregate in (AggregateFunction.COUNT, AggregateFunction.SUM,
                              AggregateFunction.MIN, AggregateFunction.MAX):
                assert pool.solve_programs(keyed, aggregate) == \
                    direct_endpoints(keyed, aggregate)


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

    def test_warm_cache_hits_skip_program_shipping(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm(dict(keyed))
            shipped_after_warm = pool.statistics.programs_shipped
            assert shipped_after_warm == len(keyed)
            # Warming again is a no-op.
            pool.warm(dict(keyed))
            assert pool.statistics.programs_shipped == shipped_after_warm
            # Solves for warmed keys ship no programs: warm hits only.
            for _ in range(3):
                pool.solve_programs(keyed, AggregateFunction.SUM)
            assert pool.statistics.programs_shipped == shipped_after_warm
            assert pool.statistics.warm_hits >= 3 * len(keyed)
            assert pool.statistics.warm_hit_rate > 0.5
            # Every key is warm on exactly its affinity worker.
            for key, _ in keyed:
                assert key in pool.warm_keys_on(pool.worker_for(key))
        finally:
            pool.shutdown()

    def test_worker_lru_eviction_recovers_by_reshipping(self, solver,
                                                        monkeypatch):
        """Warm-key bookkeeping is advisory: a worker that evicted a
        program under memory pressure gets it re-shipped, not an error."""
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module, "_WORKER_CACHE_ENTRIES", 1)
        keyed = keyed_shard_programs(solver)
        # Width 2: each worker holds several keys but caches only one, so
        # round-robin traffic forces evictions on every round.
        pool = WorkerPool(max_workers=2, mode="process")
        try:
            baseline = direct_endpoints(keyed, AggregateFunction.SUM)
            first = pool.solve_programs(keyed, AggregateFunction.SUM)
            shipped = pool.statistics.programs_shipped
            second = pool.solve_programs(keyed, AggregateFunction.SUM)
            assert first == baseline and second == baseline
            # The second round hit evicted entries: programs were
            # re-shipped instead of raising WorkerCacheMiss at the caller.
            assert pool.statistics.programs_shipped > shipped
        finally:
            pool.shutdown()

    def test_respawned_worker_is_rewarmed_transparently(self, solver):
        keyed = keyed_shard_programs(solver)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            pool.warm(dict(keyed))
            baseline = pool.solve_programs(keyed, AggregateFunction.SUM)
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.1)
            shipped_before = pool.statistics.programs_shipped
            recovered = pool.solve_programs(keyed, AggregateFunction.SUM)
            assert recovered == baseline
            # Cold respawned workers were re-shipped their programs.  Only
            # workers with affinity keys had tasks to recover, so only they
            # are guaranteed a respawn.
            involved = {pool.worker_for(key) for key, _ in keyed}
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
        """A process-unsafe backend never reaches an injected process pool:
        the solver borrows a shared thread pool instead (same fallback the
        pool applies when it knows the backend at construction)."""
        from repro.solvers.milp import _solve_scipy

        register_backend(
            "test-pool-unsafe-solver",
            lambda model, time_limit=None: _solve_scipy(model),
            replace=True,
            capabilities=BackendCapabilities(process_safe=False))
        relation, pcset, _ = self.make_service_scenario()
        pool = WorkerPool(max_workers=WORKERS, mode="process", name="gated")
        try:
            solver = PCBoundSolver(
                pcset, BoundOptions(check_closure=False, solve_workers=2,
                                    milp_backend="test-pool-unsafe-solver"),
                worker_pool=pool)
            borrowed = solver.borrow_pool(2)
            assert borrowed is not pool
            assert borrowed.mode == "thread"
            serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
            pooled_range = solver.bound(AggregateFunction.SUM, "v")
            serial_range = serial.bound(AggregateFunction.SUM, "v")
            assert pooled_range.lower == pytest.approx(serial_range.lower,
                                                       rel=1e-9)
            assert pooled_range.upper == pytest.approx(serial_range.upper,
                                                       rel=1e-9)
            # The process pool never saw the unsafe backend's work.
            assert pool.statistics.tasks_dispatched == 0
        finally:
            pool.shutdown()

    def test_sharded_solver_borrows_injected_pool(self):
        relation, pcset, _ = self.make_service_scenario()
        pool = WorkerPool(max_workers=WORKERS, mode="process", name="injected")
        try:
            solver = PCBoundSolver(
                pcset, BoundOptions(check_closure=False, solve_workers=3),
                worker_pool=pool)
            serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
            for aggregate, attribute in [(AggregateFunction.COUNT, None),
                                         (AggregateFunction.SUM, "v"),
                                         (AggregateFunction.AVG, "v")]:
                pooled_range = solver.bound(aggregate, attribute)
                serial_range = serial.bound(aggregate, attribute)
                assert pooled_range.lower == pytest.approx(serial_range.lower,
                                                           rel=1e-9)
                assert pooled_range.upper == pytest.approx(serial_range.upper,
                                                           rel=1e-9)
            assert pool.statistics.tasks_dispatched > 0
        finally:
            pool.shutdown()


class TestWorkStealing:
    """Elastic re-routing of queued tasks from loaded workers to idle ones.

    All tasks are keyed to one affinity key, so routing concentrates the
    round on a single worker — the synthetic worst case of skew.  With
    stealing on, idle peers must take over the queued tail (and split a
    queued batch when idle workers outnumber queued tasks); with stealing
    off, the counters stay at zero.  Either way the results must equal the
    serial enumeration — stealing moves where a task runs, never what it
    computes.
    """

    def skewed_tasks(self, count: int) -> list[tuple]:
        from repro.core.cells import DecompositionStrategy

        pcset = build_partition_pcs(make_relation(), ["t"], 4)
        return [("hot-key", pcset, None, DecompositionStrategy.DFS_REWRITE,
                 None)] * count

    def serial_coverings(self, tasks):
        from repro.core.cells import CellDecomposer

        return {cell.covering
                for cell in CellDecomposer(tasks[0][1]).decompose().cells}

    def test_idle_workers_steal_queued_tasks(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL", raising=False)
        # batch_size=1 forces one single-shard task per entry: 40 tasks on
        # one affinity worker, capped at 16 in flight, leaves a deep queue
        # the idle workers must drain.
        tasks = self.skewed_tasks(40)
        expected = self.serial_coverings(tasks)
        with WorkerPool(max_workers=WORKERS, mode="process",
                        steal=True) as pool:
            results = pool.decompose_shards(tasks, batch_size=1)
            stolen = pool.statistics.tasks_stolen
        assert stolen > 0
        assert len(results) == len(tasks)
        assert all({cell.covering for cell in result.cells} == expected
                   for result in results)

    def test_stealing_off_keeps_affinity_routing(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL", raising=False)
        tasks = self.skewed_tasks(40)
        expected = self.serial_coverings(tasks)
        with WorkerPool(max_workers=WORKERS, mode="process",
                        steal=False) as pool:
            assert not pool.stealing
            results = pool.decompose_shards(tasks, batch_size=1)
            statistics = pool.statistics
        assert statistics.tasks_stolen == 0
        assert statistics.batches_split == 0
        assert all({cell.covering for cell in result.cells} == expected
                   for result in results)

    def test_environment_wins_over_pool_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL", "0")
        assert not WorkerPool(max_workers=2, mode="process",
                              steal=True).stealing
        monkeypatch.setenv("REPRO_STEAL", "1")
        assert WorkerPool(max_workers=2, mode="process",
                          steal=False).stealing
        monkeypatch.delenv("REPRO_STEAL", raising=False)
        assert WorkerPool(max_workers=2, mode="process").stealing

    def test_queued_batch_splits_when_thieves_outnumber_tasks(self,
                                                              monkeypatch):
        # The split needs batching on and at least two idle thieves, so the
        # test sets both up itself rather than reading them from the CI leg.
        monkeypatch.delenv("REPRO_STEAL", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_BATCH", raising=False)
        # batch_size=4 over 68 same-key tasks makes 17 decompose_batch
        # requests for one worker: 16 in flight, exactly one queued — fewer
        # queued tasks than the two idle workers, so the queued batch must
        # split.
        tasks = self.skewed_tasks(68)
        expected = self.serial_coverings(tasks)
        with WorkerPool(max_workers=3, mode="process",
                        steal=True) as pool:
            results = pool.decompose_shards(tasks, batch_size=4)
            statistics = pool.statistics
        assert statistics.batches_split >= 1
        assert statistics.tasks_stolen >= 1
        assert len(results) == len(tasks)
        assert all({cell.covering for cell in result.cells} == expected
                   for result in results)

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
