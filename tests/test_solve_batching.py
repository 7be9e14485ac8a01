"""Unit coverage for the batched-solve machinery around the kernel.

The bit-identity of batched vs per-cell *results* lives in
``test_property_soundness.py``; this module pins the plumbing: batch
sizing (:mod:`repro.solvers.batching`), the pool's batched task kind and
traffic counters, the admission price inversion, and the profile's batch
accounting.
"""

from __future__ import annotations

import pytest

from repro.solvers.batching import MAX_BATCH_SIZE, adaptive_batch_size, chunked


class TestKnobs:
    def test_adaptive_targets_one_batch_per_worker(self):
        assert adaptive_batch_size(12, 4) == 3
        assert adaptive_batch_size(13, 4) == 4
        assert adaptive_batch_size(1, 4) == 1
        assert adaptive_batch_size(0, 4) == 1

    def test_adaptive_clamps_to_max_batch_size(self):
        # One worker and 1000 tasks still caps at MAX_BATCH_SIZE.
        assert adaptive_batch_size(1000, 1) == MAX_BATCH_SIZE
        assert adaptive_batch_size(1000, 8) == MAX_BATCH_SIZE

    def test_chunked(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert chunked([], 3) == []
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestPoolBatchTraffic:
    def test_statistics_record_tasks_vs_cells(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(max_workers=1, mode="serial", name="traffic-test")
        pool._record_batch_traffic(2, 10)
        assert pool.statistics.tasks_shipped == 2
        assert pool.statistics.cells_solved == 10
        assert pool.statistics.cells_per_task == 5.0
        snapshot = pool.statistics.snapshot()
        assert snapshot.as_dict()["cells_per_task"] == 5.0

    def test_every_process_pool_task_is_a_batch(self):
        """Two entries over two workers make the adaptive batch size 1, yet
        every query still ships as a one-entry ``analyze_batch`` task, and
        every result equals the serial one."""
        import os

        from repro.core.bounds import BoundOptions
        from repro.core.engine import ContingencyQuery, PCAnalyzer
        from repro.core.predicates import Predicate
        from repro.obs.trace import get_tracer
        from repro.parallel.pool import WorkerPool

        from test_property_soundness import scenario

        _, _, _, pcset, _ = scenario(818, "disjoint")
        analyzer = PCAnalyzer(pcset, options=BoundOptions())
        solver = analyzer.solver
        regions = [Predicate.range("t", 0.0, 40.0),
                   Predicate.range("t", 30.0, 100.0)]
        queries = [ContingencyQuery.sum("v", region) for region in regions]
        keyed_queries = [
            (solver.program_key(query.region, query.attribute),
             solver.program(query.region, query.attribute), query,
             solver.resolved_early_stop_depth(query.region, query.attribute))
            for query in queries]

        tracer = get_tracer()
        with WorkerPool(max_workers=2, mode="process",
                        name="batch-only-test") as pool:
            with tracer.trace("round", force=True) as trace:
                reports = pool.analyze("batch-only", analyzer, keyed_queries)

        coordinator = f"{os.getpid():x}-"
        spans = list(trace)
        worker_ids = {span.span_id for span in spans
                      if not span.span_id.startswith(coordinator)}
        roots = [span for span in spans if span.span_id in worker_ids
                 and span.parent_id not in worker_ids]
        # Session registration is the only non-work task a round may ship.
        work = [span.name for span in roots if span.name != "pool.register"]
        assert work == ["pool.analyze_batch"] * 2
        for query, report in zip(queries, reports):
            want = analyzer.analyze(query)
            assert (report.lower, report.upper) == (want.lower, want.upper)


class TestAdmissionInversion:
    def _cost(self, units, cells, constraints=10, warm=False, hit_rate=0.0):
        from repro.service.admission import QueryCost

        return QueryCost(units=units, aggregate="count",
                         constraint_count=constraints, estimated_cells=cells,
                         program_warm=warm, pool_warm_hit_rate=hit_rate)

    def test_inversion_recovers_the_fitting_cell_count(self):
        """price(cell_budget) <= budget < price(cell_budget + 1)."""
        from repro.service.admission import admissible_cell_budget

        # Serial cold COUNT: units = (cells + constraints) + cells.
        cells, constraints = 500, 20
        cost = self._cost(units=float(2 * cells + constraints), cells=cells,
                          constraints=constraints)
        budget = 300.0
        fitting = admissible_cell_budget(cost, budget)
        assert fitting == 140  # 2 * 140 + 20 == 280 <= 300 < 2 * 141 + 20

    def test_inversion_warm_query_prices_solve_only(self):
        from repro.service.admission import admissible_cell_budget

        cost = self._cost(units=500.0, cells=500, warm=True)
        assert admissible_cell_budget(cost, 123.0) == 123

    def test_inversion_zero_when_nothing_fits(self):
        from repro.service.admission import admissible_cell_budget

        cost = self._cost(units=1020.0, cells=500, constraints=20)
        assert admissible_cell_budget(cost, 10.0) == 0

    def test_rejection_carries_cell_budget_and_message(self):
        from repro.exceptions import QueryRejectedError
        from repro.service.admission import (
            AdmissionController,
            AdmissionPolicy,
        )

        controller = AdmissionController(AdmissionPolicy(max_query_cost=50.0))
        cost = self._cost(units=220.0, cells=100, constraints=10)
        with pytest.raises(QueryRejectedError) as caught:
            controller.admit(cost)
        error = caught.value
        assert error.reason == "over-budget"
        assert error.cell_budget is not None and error.cell_budget > 0
        assert f"~{error.cell_budget} estimated cell(s)" in str(error)

    def test_batch_rejection_carries_cell_budget(self):
        from repro.exceptions import QueryRejectedError
        from repro.service.admission import (
            AdmissionController,
            AdmissionPolicy,
        )

        controller = AdmissionController(AdmissionPolicy(max_query_cost=50.0))
        costs = [self._cost(units=10.0, cells=5),
                 self._cost(units=220.0, cells=100)]
        with pytest.raises(QueryRejectedError) as caught:
            controller.admit_many(costs)
        assert caught.value.cell_budget is not None


class TestProfileBatchAccounting:
    def _node(self, name, duration, attributes=None, children=None):
        from repro.obs.profile import ProfileNode

        return ProfileNode(name=name, span_id=name, start=0.0,
                           duration=duration,
                           attributes=dict(attributes or {}),
                           children=list(children or []))

    def test_batch_counts_and_render(self):
        from repro.obs.profile import QueryProfile

        profile = QueryProfile(trace_id="t4", root=self._node(
            "bound", 1.0, children=[
                self._node("pool.analyze_batch", 0.2, {"cells": 4}),
                self._node("pool.analyze_batch", 0.2, {"cells": 6}),
                self._node("pool.register", 0.2, {}),
            ]))
        counts = profile.batch_counts()
        assert counts == {"batched_tasks": 2.0, "batched_cells": 10.0}
        rendered = profile.render()
        assert "batched 10 cell(s) in 2 task(s)" in rendered
        payload = profile.to_dict()
        assert payload["batched_tasks"] == 2.0
        assert payload["batched_cells"] == 10.0

    def test_solver_batch_size_histogram_observes(self):
        """The kernel layer records batch widths into solver.batch_size."""
        from repro.core.bounds import BoundOptions, PCBoundSolver
        from repro.obs.metrics import get_registry
        from repro.relational.aggregates import AggregateFunction

        from test_property_soundness import scenario

        _, _, _, pcset, _ = scenario(818, "disjoint")
        program = PCBoundSolver(pcset, BoundOptions()).program(None, "v")
        before = get_registry().histogram("solver.batch_size").count
        program.bound_batch([(AggregateFunction.COUNT, 0.0, 0),
                             (AggregateFunction.SUM, 0.0, 0)])
        after = get_registry().histogram("solver.batch_size").count
        assert after > before
