"""Chaos suite: deterministic fault injection against the fault-tolerance
contract.

Every scenario scripts its failure through ``REPRO_FAULTS`` (see
:mod:`repro.faults`) so the exact same recovery path runs on every
machine, every time:

* **kill mid-batch** — a worker dies holding dispatched tasks; the round
  retries them elsewhere and the surviving results are bit-identical to
  the serial path, for all five aggregates;
* **poison quarantine** — a task that kills its worker twice is
  quarantined and fails *only its own query* with
  :class:`~repro.exceptions.PoisonTaskError` while sibling tasks and
  concurrent queries complete;
* **deadlines** — delayed replies past the query deadline abandon the
  round and raise :class:`~repro.exceptions.QueryDeadlineError` carrying
  partial progress, well under the injected delay's total cost;
* **graceful degradation** — under ``degrade="worst-case"`` a solve that
  fails returns the program's worst-case range instead: the range stays a
  sound superset of the exact one and the result is stamped as degraded.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import build_partition_pcs
from repro.core.cells import CellDecomposer
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.exceptions import (
    PoisonTaskError,
    QueryDeadlineError,
    ReproError,
    SolverError,
)
from repro.faults import (
    FAULTS_ENV,
    Deadline,
    FaultPlan,
    current_deadline,
    deadline_scope,
    parse_faults,
    resolve_faults,
)
from repro.obs.metrics import get_registry
from repro.parallel.pool import WorkerPool
from repro.plan.program import BoundProgram
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    QueryCost,
)

WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "3")))

ALL_AGGREGATES = (AggregateFunction.COUNT, AggregateFunction.SUM,
                  AggregateFunction.AVG, AggregateFunction.MIN,
                  AggregateFunction.MAX)


@pytest.fixture(autouse=True)
def _isolated_fault_env(monkeypatch):
    """Each test states its own fault plan; the chaos CI leg's global
    ``REPRO_FAULTS`` must not leak into scenarios scripted differently."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield


def make_relation(rows: int = 240, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("v", ColumnType.FLOAT)])
    data = np.column_stack([rng.uniform(0.0, 40.0, rows),
                            rng.uniform(1.0, 60.0, rows)])
    return Relation.from_rows(schema, [tuple(row) for row in data],
                              name="chaos-test")


def make_solver(**options) -> PCBoundSolver:
    """A solver over six disjoint windows of ``t``."""
    pcset = build_partition_pcs(make_relation(), ["t"], 6)
    return PCBoundSolver(pcset, BoundOptions(check_closure=False, **options))


def make_analyzer() -> PCAnalyzer:
    return PCAnalyzer(make_solver().pcset,
                      options=BoundOptions(check_closure=False))


REGIONS = [None, Predicate.range("t", 0.0, 20.0),
           Predicate.range("t", 15.0, 40.0)]


def aggregate_queries(aggregate) -> list[ContingencyQuery]:
    attribute = None if aggregate is AggregateFunction.COUNT else "v"
    return [ContingencyQuery(aggregate, attribute, region)
            for region in REGIONS]


def keyed_queries(analyzer: PCAnalyzer, queries) -> list[tuple]:
    """``pool.analyze`` entries: (program key, program, query, depth)."""
    solver = analyzer.solver
    return [(solver.program_key(query.region, query.attribute),
             solver.program(query.region, query.attribute), query,
             solver.resolved_early_stop_depth(query.region, query.attribute))
            for query in queries]


def endpoints(reports) -> list[tuple]:
    return [(report.lower, report.upper) for report in reports]


def serial_endpoints(analyzer: PCAnalyzer, queries) -> list[tuple]:
    """The reference: each query answered serially in-process."""
    return endpoints(analyzer.analyze(query) for query in queries)


def slow_decompositions(monkeypatch, seconds: float = 0.2) -> None:
    """Make every cell enumeration take at least ``seconds``."""
    original = CellDecomposer.decompose

    def slow(decomposer, *args, **kwargs):
        time.sleep(seconds)
        return original(decomposer, *args, **kwargs)

    monkeypatch.setattr(CellDecomposer, "decompose", slow)


def fail_every_solve(monkeypatch) -> None:
    """Make every program solve raise, as a dying backend would."""
    def broken(program, requests):
        raise SolverError("injected solve failure")

    monkeypatch.setattr(BoundProgram, "bound_batch", broken)


def counter_value(name: str) -> float:
    return get_registry().counter(name).value


# --------------------------------------------------------------------- #
# Plan grammar
# --------------------------------------------------------------------- #
class TestFaultPlanParsing:
    def test_readme_example_parses(self):
        plan = parse_faults(
            "kill:worker=1,task=7;delay:shard=2,ms=500;drop_reply:nth=3")
        assert bool(plan)
        assert plan.spec.startswith("kill:")

    def test_selectors_fire_deterministically(self):
        plan = parse_faults("delay:worker=0,nth=2,ms=5")
        # nth counts only dispatches matching the other selectors.
        assert plan.on_dispatch(1, "analyze_batch", 0) is None
        assert plan.on_dispatch(0, "analyze_batch", 0) is None  # 1st match
        assert plan.on_dispatch(0, "analyze_batch", 1) == ("delay", 5.0)
        assert plan.on_dispatch(0, "analyze_batch", 2) is None  # count exhausted
        assert plan.fired() == 1
        plan.reset()
        assert plan.fired() == 0

    def test_count_caps_firings(self):
        plan = parse_faults("fail:shard=0,count=2,message=boom")
        assert plan.on_dispatch(0, "analyze_batch", 0) == ("fail", "boom")
        assert plan.on_dispatch(1, "analyze_batch", 0) == ("fail", "boom")
        assert plan.on_dispatch(2, "analyze_batch", 0) is None

    def test_first_matching_clause_wins(self):
        plan = parse_faults("delay:ms=1;kill:worker=0")
        assert plan.on_dispatch(0, "analyze_batch", 0) == ("delay", 1.0)

    def test_every_pool_task_kind_is_selectable(self):
        from repro.parallel.pool import TASK_KINDS

        for kind in TASK_KINDS:
            plan = parse_faults(f"fail:kind={kind}")
            assert plan.on_dispatch(0, kind, 0) == ("fail", "injected fault")

    @pytest.mark.parametrize("spec", [
        "explode:worker=1",          # unknown action
        "kill:worker",               # malformed pair
        "kill:worker=x",             # non-integer selector
        "kill:bogus=1",              # unknown selector
        "kill:count=0",              # count below 1
        "kill:kind=solv",            # unknown task kind
        "kill:kind=solve",           # single-item kinds ship as *_batch
    ])
    def test_malformed_plans_fail_loudly(self, spec):
        with pytest.raises(ReproError):
            parse_faults(spec)

    def test_environment_wins_over_configured(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        plan = resolve_faults("delay:ms=1")
        assert isinstance(plan, FaultPlan)
        assert plan.spec == "kill:task=1"
        monkeypatch.delenv(FAULTS_ENV)
        assert resolve_faults(None) is None


# --------------------------------------------------------------------- #
# Deadline primitives
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ReproError):
            Deadline(0.0)

    def test_scope_nests_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(60.0)
        inner = Deadline(30.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):  # no-op scope
                assert current_deadline() is outer
        assert current_deadline() is None

    def test_inline_round_honours_expired_deadline(self):
        analyzer = make_analyzer()
        keyed = keyed_queries(analyzer,
                              aggregate_queries(AggregateFunction.SUM))
        pool = WorkerPool(max_workers=WORKERS, mode="serial")
        with deadline_scope(Deadline(1e-9)):
            with pytest.raises(QueryDeadlineError) as excinfo:
                pool.analyze("inline", analyzer, keyed)
        assert excinfo.value.pending > 0

    def test_deferred_admission_respects_query_deadline(self):
        controller = AdmissionController(AdmissionPolicy(
            capacity=1.0, max_pending=4, max_wait_seconds=30.0))
        cost = QueryCost(units=1.0, aggregate="sum", constraint_count=1,
                         estimated_cells=1, program_warm=False,
                         pool_warm_hit_rate=0.0)
        blocker = controller.admit(cost)
        started = time.monotonic()
        # Parked behind the blocker with a 50 ms budget: the expiry must
        # surface as the query's deadline, not an admission timeout, and
        # far sooner than the policy's 30 s patience.
        with deadline_scope(Deadline(0.05)):
            with pytest.raises(QueryDeadlineError, match="admission"):
                controller.admit(cost)
        assert time.monotonic() - started < 1.0
        blocker.release()
        controller.admit(cost).release()  # capacity freed; admits again


# --------------------------------------------------------------------- #
# Crash recovery: kill mid-batch
# --------------------------------------------------------------------- #
class TestKillRecovery:
    def test_kill_mid_batch_bit_identical_all_aggregates(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        analyzer = make_analyzer()
        retried_before = counter_value("pool.tasks_retried")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            assert pool.fault_plan is not None
            for aggregate in ALL_AGGREGATES:
                # Re-arm the plan so the first dispatch of *every* round
                # dies: each aggregate exercises kill -> respawn -> retry.
                pool.fault_plan.reset()
                queries = aggregate_queries(aggregate)
                recovered = pool.analyze("chaos", analyzer,
                                         keyed_queries(analyzer, queries))
                assert endpoints(recovered) == \
                    serial_endpoints(analyzer, queries)
            statistics = pool.statistics
            assert statistics.tasks_retried >= len(ALL_AGGREGATES)
            assert statistics.worker_restarts >= len(ALL_AGGREGATES)
            assert statistics.tasks_quarantined == 0
        finally:
            pool.shutdown()
        # The retries surfaced on the shared metrics registry (the feed
        # `repro stats` renders).
        assert counter_value("pool.tasks_retried") >= \
            retried_before + len(ALL_AGGREGATES)

    def test_injected_failure_propagates_once(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV,
                           "fail:kind=analyze_batch,message=chaos-proof")
        analyzer = make_analyzer()
        queries = aggregate_queries(AggregateFunction.SUM)
        keyed = keyed_queries(analyzer, queries)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with pytest.raises(Exception, match="chaos-proof"):
                pool.analyze("fail", analyzer, keyed)
            # The plan is exhausted: the next round is clean and serial-
            # identical — an injected error never sticks to the pool.
            assert endpoints(pool.analyze("fail", analyzer, keyed)) == \
                serial_endpoints(analyzer, queries)
        finally:
            pool.shutdown()

    def test_dropped_reply_is_surfaced_by_the_deadline(self, monkeypatch):
        # A dropped reply is a *silent* worker, not a dead one: liveness
        # checks see nothing wrong, so the loss is detected by the query
        # deadline, which abandons the round with partial progress instead
        # of hanging forever.
        monkeypatch.setenv(FAULTS_ENV, "drop_reply:kind=analyze_batch")
        analyzer = make_analyzer()
        queries = aggregate_queries(AggregateFunction.SUM)
        keyed = keyed_queries(analyzer, queries)
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            started = time.monotonic()
            with deadline_scope(Deadline(0.75)):
                with pytest.raises(QueryDeadlineError) as excinfo:
                    pool.analyze("drop", analyzer, keyed)
            assert time.monotonic() - started < 5.0
            assert excinfo.value.pending >= 1
            # The plan is exhausted; the next round answers clean.
            assert endpoints(pool.analyze("drop", analyzer, keyed)) == \
                serial_endpoints(analyzer, queries)
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Poison-task quarantine
# --------------------------------------------------------------------- #
class TestPoisonQuarantine:
    """Every query below has its own region, hence its own program key, so
    each ships as its own ``analyze_batch`` task whose position is the
    query's index in the call."""

    def test_poison_task_quarantined_siblings_survive(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV,
                           "kill:kind=analyze_batch,shard=1,count=2")
        analyzer = make_analyzer()
        queries = aggregate_queries(AggregateFunction.SUM)
        keyed = keyed_queries(analyzer, queries)
        quarantined_before = counter_value("pool.tasks_quarantined")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with pytest.raises(PoisonTaskError) as excinfo:
                # Query 1 is its own (poison) task.
                pool.analyze("poison", analyzer, keyed)
            error = excinfo.value
            assert error.fingerprint is not None
            assert error.fingerprint in str(error)
            assert error.attempts == pool.task_retry_limit
            # Sibling tasks drained before the round failed.
            assert "sibling" in str(error)
            statistics = pool.statistics
            assert statistics.tasks_quarantined >= 1
            assert statistics.tasks_retried >= 1
            # The poison plan is exhausted: the same round now completes
            # identically to the serial answers on the same pool.
            assert endpoints(pool.analyze("poison", analyzer, keyed)) == \
                serial_endpoints(analyzer, queries)
        finally:
            pool.shutdown()
        assert counter_value("pool.tasks_quarantined") >= \
            quarantined_before + 1

    def test_poison_fails_only_its_own_query(self, monkeypatch):
        # Position 2 exists only in the wide call: the fault can never
        # touch the narrow one, however the rounds interleave.
        monkeypatch.setenv(FAULTS_ENV,
                           "kill:kind=analyze_batch,shard=2,count=2")
        analyzer = make_analyzer()
        wide = keyed_queries(analyzer,
                             aggregate_queries(AggregateFunction.SUM))
        narrow_queries = aggregate_queries(AggregateFunction.COUNT)[:2]
        narrow = keyed_queries(analyzer, narrow_queries)
        assert len(wide) >= 3 and len(narrow) == 2
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            with ThreadPoolExecutor(max_workers=2) as executor:
                poisoned = executor.submit(pool.analyze, "wide", analyzer,
                                           wide)
                healthy = executor.submit(pool.analyze, "narrow", analyzer,
                                          narrow)
                with pytest.raises(PoisonTaskError):
                    poisoned.result(timeout=60)
                assert endpoints(healthy.result(timeout=60)) == \
                    serial_endpoints(analyzer, narrow_queries)
        finally:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Deadlines end to end
# --------------------------------------------------------------------- #
class TestDeadlineEndToEnd:
    def test_delayed_replies_past_deadline_abandon_round(self, monkeypatch):
        # Every dispatch sleeps 400 ms; with a 50 ms budget the round must
        # abandon its in-flight tasks and raise far sooner than the
        # injected delays could ever finish.
        monkeypatch.setenv(FAULTS_ENV, "delay:ms=400,count=99")
        analyzer = make_analyzer()
        keyed = keyed_queries(analyzer,
                              aggregate_queries(AggregateFunction.SUM))
        exceeded_before = counter_value("queries.deadline_exceeded")
        pool = WorkerPool(max_workers=WORKERS, mode="process")
        try:
            started = time.monotonic()
            with deadline_scope(Deadline(0.05)):
                with pytest.raises(QueryDeadlineError) as excinfo:
                    pool.analyze("delay", analyzer, keyed)
            assert time.monotonic() - started < 1.0
            error = excinfo.value
            assert error.deadline == pytest.approx(0.05)
            assert error.elapsed >= 0.05
            assert error.pending > 0
        finally:
            pool.shutdown()
        # The ambient-scope path raises below the solver, so the
        # queries.* counter is untouched here (it belongs to bound()).
        assert counter_value("queries.deadline_exceeded") == exceeded_before

    def test_solver_deadline_option(self, monkeypatch):
        # The enumeration alone outlasts the budget, so the solver's
        # pre-solve check fires instead of solving.
        slow_decompositions(monkeypatch)
        solver = make_solver(deadline_seconds=0.05)
        exceeded_before = counter_value("queries.deadline_exceeded")
        started = time.monotonic()
        with pytest.raises(QueryDeadlineError):
            solver.bound(AggregateFunction.SUM, "v")
        assert time.monotonic() - started < 1.0
        assert counter_value("queries.deadline_exceeded") == \
            exceeded_before + 1


# --------------------------------------------------------------------- #
# Graceful degradation
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_worst_case_range_is_superset_for_all_aggregates(self):
        solver = make_solver()
        for region in REGIONS:
            program = solver.program(region, "v")
            for aggregate in ALL_AGGREGATES:
                exact = program.bound(aggregate)
                worst = program.worst_case_range(aggregate)
                if worst.lower is not None:
                    assert exact.lower is not None
                    assert worst.lower <= exact.lower + 1e-9
                if worst.upper is not None:
                    assert exact.upper is not None
                    assert worst.upper >= exact.upper - 1e-9

    def test_poisoned_shard_degrades_to_sound_range(self, monkeypatch):
        """A solve that raises degrades to the program's worst-case range."""
        exact = make_solver().bound(AggregateFunction.SUM, "v")
        degraded_before = counter_value("queries.degraded")
        solver = make_solver(degrade="worst-case")
        fail_every_solve(monkeypatch)
        result = solver.bound(AggregateFunction.SUM, "v")
        # Sound: the degraded range contains the exact one.
        assert result.lower <= exact.lower + 1e-9
        assert result.upper >= exact.upper - 1e-9
        # And the result is stamped as degraded...
        assert result.statistics is not None
        assert tuple(result.statistics.degraded_shards) == (0,)
        assert counter_value("queries.degraded") == degraded_before + 1
        # ...on a copy: the cached decomposition's record stays clean.
        program = solver.program(None, "v")
        assert program.decomposition.statistics.degraded_shards == ()
        # Without the policy the failure surfaces.
        with pytest.raises(SolverError, match="injected solve failure"):
            make_solver().bound(AggregateFunction.SUM, "v")

    def test_unknown_degrade_policy_rejected(self):
        solver = make_solver(degrade="optimistic")
        with pytest.raises(ReproError, match="degrade"):
            solver.bound(AggregateFunction.SUM, "v")


# --------------------------------------------------------------------- #
# Service integration: counters, summary, reports
# --------------------------------------------------------------------- #
class TestServiceFaultTolerance:
    def make_scenario(self):
        relation = make_relation(seed=11)
        pcset = build_partition_pcs(relation, ["t"], 6)
        return relation, pcset

    def test_service_deadline_counted_and_summarised(self, monkeypatch):
        slow_decompositions(monkeypatch)
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False, deadline_seconds=0.05)
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            started = time.monotonic()
            with pytest.raises(QueryDeadlineError):
                service.analyze("chaos", ContingencyQuery.sum("v"))
            assert time.monotonic() - started < 1.0
            statistics = service.statistics()
            assert statistics.deadline_exceeded == 1
            assert statistics.as_dict()["deadline_exceeded"] == 1
            assert "1 deadline(s) exceeded" in statistics.summary()

    def test_service_degraded_report_counted(self, monkeypatch):
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False, degrade="worst-case")
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            with monkeypatch.context() as patch:
                fail_every_solve(patch)
                report = service.analyze("chaos", ContingencyQuery.sum("v"))
            assert report.degraded_shards == (0,)
            assert "degraded shards" in report.summary()
            # Exact twin for comparison (no pool, no faults): sound
            # containment holds through the full analyzer stack.
            exact = PCAnalyzer(pcset, observed=relation).analyze(
                ContingencyQuery.sum("v"))
            assert report.lower <= exact.lower + 1e-9
            assert report.upper >= exact.upper - 1e-9
            statistics = service.statistics()
            assert statistics.degraded == 1
            assert "1 degraded answer(s)" in statistics.summary()

    def test_pool_fault_counters_reach_service_summary(self, monkeypatch):
        # The pinned path is the batch's trip through the process pool; a
        # persistent tier would answer it without dispatching.
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv(FAULTS_ENV, "kill:task=1")
        relation, pcset = self.make_scenario()
        options = BoundOptions(check_closure=False)
        queries = aggregate_queries(AggregateFunction.SUM)
        with ContingencyService(max_workers=WORKERS, pool_mode="process",
                                default_options=options) as service:
            service.register("chaos", pcset, observed=relation)
            reports = service.execute_batch("chaos", queries).reports
            exact = PCAnalyzer(pcset, observed=relation, options=options)
            for query, report in zip(queries, reports):
                expected = exact.analyze(query)
                assert report.lower == pytest.approx(expected.lower,
                                                     rel=1e-9)
                assert report.upper == pytest.approx(expected.upper,
                                                     rel=1e-9)
            statistics = service.statistics()
            assert statistics.worker_pool["tasks_retried"] >= 1
            assert statistics.worker_pool["worker_restarts"] >= 1
            summary = statistics.summary()
            assert "task(s) retried" in summary
            assert "breaker trip(s)" in summary

    def test_fingerprints_separate_degraded_sessions(self):
        relation, pcset = self.make_scenario()
        with ContingencyService() as service:
            plain = service.register("plain", pcset, observed=relation,
                                     options=BoundOptions(
                                         check_closure=False))
            degraded = service.register("degraded", pcset, observed=relation,
                                        options=BoundOptions(
                                            check_closure=False,
                                            degrade="worst-case"))
            # A degraded session must never share report-cache entries
            # with an exact one; a deadline changes failure behaviour
            # only, so it keeps the fingerprint.
            assert plain.fingerprint != degraded.fingerprint
            deadline = service.register("deadline", pcset, observed=relation,
                                        options=BoundOptions(
                                            check_closure=False,
                                            deadline_seconds=30.0))
            assert deadline.fingerprint == plain.fingerprint
            described = deadline.describe()
            assert described["deadline_seconds"] == 30.0
            assert described["degrade"] is None
