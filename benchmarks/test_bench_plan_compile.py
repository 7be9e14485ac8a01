"""Benchmark: compiled bound programs vs. per-solve MILP rebuilding.

The plan pipeline's acceptance claim: materializing the MILP skeleton once
and patching parameters makes (a) AVG's parametric search and (b) warm batch
traffic at least 2x faster than the pre-pipeline behaviour of rebuilding a
fresh MILP for every solve — while returning identical ranges.  The
``program_reuse=False`` option preserves that old behaviour exactly, so
both sides of the comparison run through the same public API.
"""

from __future__ import annotations

import time

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.engine import ContingencyQuery
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService


def partition_pcset(count: int = 200) -> PredicateConstraintSet:
    """A ``count``-window partition (the paper's disjoint fast path)."""
    constraints = []
    for index in range(count):
        constraints.append(PredicateConstraint(
            Predicate.range("t", float(index), index + 1.0),
            ValueConstraint({"v": (float(index % 7), float(10 + index % 13))}),
            FrequencyConstraint(0, 50 + index % 10), name=f"p{index}"))
    pcset = PredicateConstraintSet(constraints)
    pcset.mark_disjoint(True)
    return pcset


def observed_relation() -> Relation:
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    rows = [(float(i % 50), 5.0 + (i % 9)) for i in range(100)]
    return Relation.from_rows(schema, rows, name="observed")


def batch_queries() -> list[ContingencyQuery]:
    """30 mixed queries over three recurring WHERE regions."""
    queries: list[ContingencyQuery] = []
    for index in range(30):
        region = Predicate.range("t", float(index % 3) * 20.0,
                                 float(index % 3) * 20.0 + 80.0)
        kind = index % 5
        if kind == 0:
            queries.append(ContingencyQuery.count(region))
        elif kind == 1:
            queries.append(ContingencyQuery.sum("v", region))
        elif kind == 2:
            queries.append(ContingencyQuery.avg("v", region))
        elif kind == 3:
            queries.append(ContingencyQuery.min("v", region))
        else:
            queries.append(ContingencyQuery.max("v", region))
    return queries


@pytest.mark.paper_artifact("plan-compile")
def test_bench_avg_search_program_reuse(benchmark, report_artifact,
                                        bench_record):
    """AVG search steps against a compiled skeleton vs. rebuilt MILPs."""

    def solver(reuse: bool) -> PCBoundSolver:
        built = PCBoundSolver(partition_pcset(), BoundOptions(
            check_closure=False, program_reuse=reuse))
        built.program(None, "v")  # compile outside the timed sections
        return built

    def run_avg(bound_solver: PCBoundSolver):
        return bound_solver.bound(AggregateFunction.AVG, "v",
                                  known_sum=500.0, known_count=100.0)

    rebuilding = solver(reuse=False)
    started = time.perf_counter()
    rebuild_rounds = 3
    for _ in range(rebuild_rounds):
        rebuilt_range = run_avg(rebuilding)
    rebuild_seconds = (time.perf_counter() - started) / rebuild_rounds

    compiled = solver(reuse=True)
    compiled_range = benchmark.pedantic(run_avg, args=(compiled,),
                                        rounds=5, iterations=1)
    compiled_seconds = benchmark.stats.stats.mean

    # Identical ranges: the skeleton patching changes cost, never results.
    assert compiled_range.lower == pytest.approx(rebuilt_range.lower, rel=1e-6)
    assert compiled_range.upper == pytest.approx(rebuilt_range.upper, rel=1e-6)

    ratio = rebuild_seconds / max(compiled_seconds, 1e-9)
    report_artifact(
        "AVG parametric search: compiled-program reuse vs per-step rebuild\n"
        f"  constraints          : {len(partition_pcset())} (disjoint windows)\n"
        f"  rebuild per step     : {rebuild_seconds * 1000:.1f} ms per bound\n"
        f"  compiled + patched   : {compiled_seconds * 1000:.2f} ms per bound\n"
        f"  speedup              : {ratio:.0f}x")
    bench_record(rebuild_seconds=rebuild_seconds,
                 compiled_seconds=compiled_seconds, speedup=ratio)
    # Acceptance: >= 2x; observed speedups are an order of magnitude larger.
    assert ratio >= 2.0


@pytest.mark.paper_artifact("plan-compile")
def test_bench_warm_batch_program_reuse(benchmark, report_artifact,
                                        bench_record):
    """Warm batches solve through cached programs vs. rebuilding every MILP."""
    queries = batch_queries()

    def warm_service(reuse: bool) -> ContingencyService:
        service = ContingencyService(max_workers=2)
        service.register("bench", partition_pcset(),
                         observed=observed_relation(),
                         options=BoundOptions(check_closure=False,
                                              program_reuse=reuse))
        service.execute_batch("bench", queries)  # warm caches + programs
        return service

    def warm_round(service: ContingencyService):
        # Clear only the report cache: every query must actually solve, but
        # decompositions and compiled programs stay warm — this isolates the
        # compiled-program effect from report memoisation.
        service.report_cache.clear()
        return service.execute_batch("bench", queries)

    rebuilding = warm_service(reuse=False)
    started = time.perf_counter()
    rebuild_rounds = 3
    for _ in range(rebuild_rounds):
        rebuilt = warm_round(rebuilding)
    rebuild_seconds = (time.perf_counter() - started) / rebuild_rounds

    compiled_service = warm_service(reuse=True)
    compiled = benchmark.pedantic(warm_round, args=(compiled_service,),
                                  rounds=5, iterations=1)
    compiled_seconds = benchmark.stats.stats.mean

    assert len(compiled.reports) == len(queries)
    for fast, slow in zip(compiled.reports, rebuilt.reports):
        assert fast.result_range.lower == pytest.approx(
            slow.result_range.lower, rel=1e-6)
        assert fast.result_range.upper == pytest.approx(
            slow.result_range.upper, rel=1e-6)

    ratio = rebuild_seconds / max(compiled_seconds, 1e-9)
    report_artifact(
        "Warm batch: compiled-program reuse vs per-solve rebuild\n"
        f"  batch size           : {len(queries)} queries "
        f"({compiled.statistics.program_groups} program groups)\n"
        f"  rebuild every solve  : {rebuild_seconds * 1000:.1f} ms per batch\n"
        f"  compiled + patched   : {compiled_seconds * 1000:.2f} ms per batch\n"
        f"  speedup              : {ratio:.0f}x\n"
        + compiled_service.statistics().summary())
    bench_record(rebuild_seconds=rebuild_seconds,
                 compiled_seconds=compiled_seconds, speedup=ratio,
                 batch_size=len(queries))
    # Acceptance: >= 2x faster with compiled-program reuse.
    assert ratio >= 2.0
