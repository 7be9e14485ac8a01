"""Randomized soundness properties of the bounding pipeline, all paths.

The framework's one non-negotiable contract is *soundness*: whenever the
missing partition satisfies the predicate-constraint set, the true aggregate
answer lies inside the returned result range.  This harness generates seeded
synthetic datasets, derives constraint sets from the missing partition (so
satisfaction holds by construction), fires randomized queries across every
aggregate, and asserts the contract on every execution path:

* the serial compiled-program pipeline (the baseline),
* the worker pool (batches of queries answered on process workers) — which
  additionally must return ranges *bit-identical* to serial,
* the service batch executor (thread fan-out through the caches),
* the cross-backend verification path (ranges intersected across two
  backends must still contain the truth and equal the serial range).

Scenarios deliberately cover the three structural regimes: disjoint
partitions (the fast greedy path), overlapping boxes (coupled MILPs,
usually one overlap component), and mandatory-row partitions (exact counts,
non-trivial lower bounds and forced extrema).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.builders import (
    build_partition_pcs,
    build_random_overlapping_boxes,
)
from repro.core.engine import ContingencyQuery, PCAnalyzer
from repro.core.predicates import Predicate
from repro.plan.program import BoundProgram
from repro.relational.aggregates import AggregateFunction
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema
from repro.service import ContingencyService

AGGREGATES = [
    (AggregateFunction.COUNT, None),
    (AggregateFunction.SUM, "v"),
    (AggregateFunction.AVG, "v"),
    (AggregateFunction.MIN, "v"),
    (AggregateFunction.MAX, "v"),
]


def make_relation(rng: np.random.Generator, rows: int) -> Relation:
    """A synthetic two-column relation: a dimension ``t`` and a measure ``v``."""
    schema = Schema.from_pairs([("t", ColumnType.FLOAT), ("v", ColumnType.FLOAT)])
    t = rng.uniform(0.0, 100.0, rows)
    v = np.round(rng.normal(50.0, 25.0, rows), 3)
    return Relation.from_rows(schema, list(zip(t.tolist(), v.tolist())),
                              name="synthetic")


def split_missing(relation: Relation,
                  rng: np.random.Generator) -> tuple[Relation, Relation]:
    """Randomly split into (observed, missing) partitions."""
    mask = rng.random(relation.num_rows) < 0.5
    observed = relation.take(np.flatnonzero(mask).tolist())
    missing = relation.take(np.flatnonzero(~mask).tolist())
    return observed, missing


def random_queries(rng: np.random.Generator,
                   per_aggregate: int) -> list[ContingencyQuery]:
    """Randomized regions (plus the unrestricted query) for every aggregate."""
    queries: list[ContingencyQuery] = []
    for aggregate, attribute in AGGREGATES:
        queries.append(ContingencyQuery(aggregate, attribute, None))
        for _ in range(per_aggregate):
            low = float(rng.uniform(0.0, 80.0))
            width = float(rng.uniform(5.0, 40.0))
            region = Predicate.range("t", low, low + width)
            queries.append(ContingencyQuery(aggregate, attribute, region))
    return queries


def scenario(seed: int, kind: str):
    """One (missing, pcset, queries) soundness scenario."""
    rng = np.random.default_rng(seed)
    relation = make_relation(rng, rows=400)
    observed, missing = split_missing(relation, rng)
    if kind == "disjoint":
        pcset = build_partition_pcs(missing, ["t"], 8)
    elif kind == "mandatory":
        pcset = build_partition_pcs(missing, ["t"], 6, exact_counts=True)
    else:
        pcset = build_random_overlapping_boxes(missing, ["t"], 5, rng=rng)
    queries = random_queries(rng, per_aggregate=2)
    return relation, observed, missing, pcset, queries


def assert_contains(result_range, truth, query, label: str) -> None:
    assert result_range.contains(truth), (
        f"{label}: {query.describe()} returned "
        f"[{result_range.lower}, {result_range.upper}] "
        f"which does not contain the true answer {truth}")


def _assert_endpoint(first: float | None, second: float | None,
                     detail: tuple) -> None:
    if first is None or second is None:
        assert first == second, detail
    else:
        assert first == pytest.approx(second, rel=1e-9, abs=1e-9), detail


def assert_same_range(first, second, query, label: str) -> None:
    detail = (label, query.describe(), str(first), str(second))
    _assert_endpoint(first.lower, second.lower, detail)
    _assert_endpoint(first.upper, second.upper, detail)


def assert_identical_range(first, second, query, label: str) -> None:
    """Bit-identical endpoints: every pool path solves the serial program."""
    assert (first.lower, first.upper) == (second.lower, second.upper), (
        label, query.describe(), str(first), str(second))


def assert_serial_sound(seed: int, kind: str) -> None:
    """Truth ∈ range on the serial path, for every scenario query."""
    _, _, missing, pcset, queries = scenario(seed, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    for query in queries:
        truth = query.ground_truth(missing)
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        assert_contains(serial_range, truth, query, "serial")


@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_serial_and_sharded_ranges_sound_and_identical(seed, kind):
    """Truth ∈ range on the serial path (the one path every query takes)."""
    assert_serial_sound(seed, kind)


@pytest.mark.parametrize("seed", [303])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
def test_combined_ranges_contain_full_relation_truth(seed, kind):
    """With an observed partition, reported ranges cover the full relation."""
    relation, observed, _, pcset, queries = scenario(seed, kind)
    analyzer = PCAnalyzer(pcset, observed=observed, options=BoundOptions())
    for query in queries:
        truth = query.ground_truth(relation)
        report = analyzer.analyze(query)
        assert_contains(report.result_range, truth, query, "serial analyze")


@pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
def test_batch_fanout_matches_serial_and_stays_sound(kind):
    """The service batch fan-out returns the same sound ranges as serial."""
    relation, observed, _, pcset, queries = scenario(404, kind)
    analyzer = PCAnalyzer(pcset, observed=observed, options=BoundOptions())
    service = ContingencyService(max_workers=4)
    service.register("soundness", pcset, observed=observed)
    result = service.execute_batch("soundness", queries)
    for query, report in zip(queries, result.reports):
        truth = query.ground_truth(relation)
        assert_contains(report.result_range, truth, query, "batch fan-out")
        serial_report = analyzer.analyze(query)
        assert_same_range(serial_report.result_range, report.result_range,
                          query, "batch fan-out vs serial")


@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_cross_backend_verification_sound_and_identical(kind):
    """Verified ranges (scipy ∩ branch-and-bound) equal serial and hold truth.

    The intersection of two sound ranges can only tighten, and on exact
    backends both ranges are equal, so verification must be a behavioural
    no-op on healthy solvers — while still exercising the full alarm path.
    """
    _, _, missing, pcset, queries = scenario(505, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    verified = PCBoundSolver(pcset, BoundOptions(
        verify_backend="branch-and-bound"))
    for query in queries:
        truth = query.ground_truth(missing)
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        verified_range = verified.bound(query.aggregate, query.attribute,
                                        query.region)
        assert_contains(verified_range, truth, query, "cross-backend")
        assert_same_range(serial_range, verified_range, query,
                          "cross-backend vs serial")


@pytest.mark.parametrize("seed", [707, 808])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_sharded_avg_matches_serial_and_stays_sound(seed, kind):
    """AVG ranges on the serial path contain the truth.

    Covered regimes: no observed partition (the floored search), an
    observed partition (``known_count > 0``), and randomized regions.
    """
    relation, observed, missing, pcset, _ = scenario(seed, kind)
    serial = PCBoundSolver(pcset, BoundOptions())
    rng = np.random.default_rng(seed)
    regions = [None] + [Predicate.range("t", low, low + 30.0)
                        for low in rng.uniform(0.0, 60.0, 3)]
    for region in regions:
        query = ContingencyQuery.avg("v", region)
        truth = query.ground_truth(missing)
        serial_range = serial.bound(AggregateFunction.AVG, "v", region)
        assert_contains(serial_range, truth, query, "serial AVG")
    # With an observed partition the search carries (known_sum, known_count)
    # — the unfloored regime, whose certified endpoint divides by
    # known_count rather than by the floor row's 1.
    serial_analyzer = PCAnalyzer(pcset, observed=observed,
                                 options=BoundOptions())
    for region in regions:
        query = ContingencyQuery.avg("v", region)
        truth = query.ground_truth(relation)
        serial_report = serial_analyzer.analyze(query)
        assert_contains(serial_report.result_range, truth, query,
                        "serial AVG analyze")


def pooled_reports(pool, analyzer: PCAnalyzer, queries) -> list:
    """``queries`` answered through ``pool`` (one program per pair)."""
    solver = analyzer.solver
    keyed = [(solver.program_key(query.region, query.attribute),
              solver.program(query.region, query.attribute), query,
              solver.resolved_early_stop_depth(query.region,
                                               query.attribute))
             for query in queries]
    return pool.analyze("soundness", analyzer, keyed)


def test_sharded_avg_through_process_pool_matches_serial():
    """AVG answered on a process worker equals the serial solver's AVG."""
    from repro.parallel.pool import WorkerPool

    _, _, missing, pcset, _ = scenario(909, "mandatory")
    serial = PCBoundSolver(pcset, BoundOptions())
    analyzer = PCAnalyzer(pcset, options=BoundOptions())
    queries = [ContingencyQuery.avg("v", None),
               ContingencyQuery.avg("v", Predicate.range("t", 20.0, 60.0))]
    with WorkerPool(max_workers=3, mode="process", name="avg-test") as pool:
        reports = pooled_reports(pool, analyzer, queries)
        assert pool.statistics.tasks_dispatched > 0
    for query, report in zip(queries, reports):
        truth = query.ground_truth(missing)
        serial_range = serial.bound(AggregateFunction.AVG, "v", query.region)
        assert_contains(report.missing_range, truth, query,
                        "process-pool AVG")
        assert_identical_range(serial_range, report.missing_range, query,
                               "process-pool AVG vs serial")


@pytest.mark.parametrize("seed", [111, 222])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_region_sharded_matches_serial(seed, kind):
    """Truth ∈ range on the serial path, on two more seeds."""
    assert_serial_sound(seed, kind)


def test_sharded_verified_combination_is_sound():
    """Verified ranges (scipy ∩ branch-and-bound) hold the truth and equal
    the serial ones on a disjoint partition."""
    _, _, missing, pcset, queries = scenario(606, "disjoint")
    verified = PCBoundSolver(pcset, BoundOptions(
        verify_backend="branch-and-bound"))
    serial = PCBoundSolver(pcset, BoundOptions())
    for query in queries:
        truth = query.ground_truth(missing)
        verified_range = verified.bound(query.aggregate, query.attribute,
                                        query.region)
        assert_contains(verified_range, truth, query, "verified")
        serial_range = serial.bound(query.aggregate, query.attribute,
                                    query.region)
        assert_same_range(serial_range, verified_range, query,
                          "verified vs serial")


# --------------------------------------------------------------------- #
# Batched multi-solve kernel equivalence (PR 7)
# --------------------------------------------------------------------- #
def _random_compiled_milp(rng, *, pure_box: bool):
    """A random compiled skeleton shaped like the cell-allocation programs."""
    from repro.solvers.milp import CompiledMILP, MILPModel

    model = MILPModel()
    count = int(rng.integers(2, 7))
    for index in range(count):
        model.add_variable(f"x{index}", 0, float(rng.integers(1, 9)),
                           objective=0.0, is_integer=True)
    if not pure_box:
        for _ in range(int(rng.integers(1, 4))):
            members = rng.choice(count, size=max(2, count // 2), replace=False)
            model.add_constraint({f"x{int(m)}": 1.0 for m in members},
                                 upper=float(rng.integers(2, 12)))
    return CompiledMILP(model), count


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("pure_box", [True, False])
def test_solve_objectives_matches_row_by_row(seed, pure_box):
    """The kernel contract: one matrix call == the per-row scalar calls.

    Bit-identical, not approximately equal: the batched path must use the
    same endpoint selection and the same dot-product summation order as
    ``solve_objective``, on both the vectorized-greedy (pure box) and the
    prebuilt-scipy (constrained) paths.
    """
    from repro.solvers.lp import Sense

    rng = np.random.default_rng(seed)
    compiled, count = _random_compiled_milp(rng, pure_box=pure_box)
    matrix = rng.normal(0.0, 5.0, size=(7, count))
    matrix[0] = 0.0  # the all-zero objective row
    for sense in (Sense.MAXIMIZE, Sense.MINIMIZE):
        batch = compiled.solve_objectives(matrix, sense)
        assert len(batch) == matrix.shape[0]
        for row, (status, value) in enumerate(batch):
            want_status, want_value = compiled.solve_objective(
                matrix[row], sense)
            assert status is want_status, (sense, row)
            assert value == want_value, (sense, row, value, want_value)


@pytest.mark.parametrize("backend", ["scipy", "branch-and-bound",
                                     "relaxation"])
def test_bound_batch_matches_per_request_across_backends(backend):
    """``bound_batch`` == per-request ``bound`` on every backend's path.

    scipy exercises the compiled multi-RHS kernel, branch-and-bound and
    relaxation the materialize-once dispatch loop — all three must be
    endpoint-identical to the per-cell path on all five aggregates.
    """
    _, _, _, pcset, _ = scenario(606, "mandatory")
    solver = PCBoundSolver(pcset, BoundOptions(milp_backend=backend))
    program = solver.program(None, "v")
    requests = [(aggregate, 0.0, 0) for aggregate, _ in AGGREGATES]
    requests.append((AggregateFunction.AVG, 42.0, 11))
    batch = program.bound_batch(requests)
    for (aggregate, known_sum, known_count), got in zip(requests, batch):
        want = program.bound(aggregate, known_sum=known_sum,
                             known_count=known_count)
        assert (got.lower, got.upper, got.closed) == \
            (want.lower, want.upper, want.closed), (backend, aggregate)


def per_request_bound_batch(program, requests):
    """``bound_batch`` answered by one per-cell ``bound`` call per request:
    patched in, it turns every solver path into the per-cell reference."""
    return [program.bound(aggregate, known_sum=known_sum,
                          known_count=known_count)
            for aggregate, known_sum, known_count in requests]


@pytest.mark.parametrize("seed", [515, 616])
@pytest.mark.parametrize("kind", ["disjoint", "overlapping", "mandatory"])
def test_batched_solves_identical_to_unbatched(seed, kind, monkeypatch):
    """Batched kernel vs per-request ``program.bound``: endpoint-identical.

    The batched kernel's hard constraint — it must never move an endpoint
    away from the per-cell solves, for all five aggregates.
    """
    _, _, missing, pcset, queries = scenario(seed, kind)

    def ranges():
        solver = PCBoundSolver(pcset, BoundOptions())
        results = []
        for query in queries:
            result = solver.bound(query.aggregate, query.attribute,
                                  query.region)
            results.append((result.lower, result.upper, result.closed))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(BoundProgram, "bound_batch", per_request_bound_batch)
        baseline = ranges()
    assert ranges() == baseline


def test_batched_process_pool_matches_serial(monkeypatch):
    """``analyze_batch`` tasks through real process workers == serial.

    Every query is answered on a worker against a per-cell serial baseline
    (per-request ``program.bound``) on the same constraint set, plus AVG;
    the worker runs every aggregate on the serial program and must answer
    bit-identically.
    """
    from repro.parallel.pool import WorkerPool

    _, _, missing, pcset, queries = scenario(505, "mandatory")
    serial = PCBoundSolver(pcset, BoundOptions())
    baseline = {}
    with monkeypatch.context() as patch:
        patch.setattr(BoundProgram, "bound_batch", per_request_bound_batch)
        for query in queries:
            result = serial.bound(query.aggregate, query.attribute,
                                  query.region)
            baseline[id(query)] = result
            truth = query.ground_truth(missing)
            assert_contains(result, truth, query, "serial baseline")
    analyzer = PCAnalyzer(pcset, options=BoundOptions())
    avg = ContingencyQuery.avg("v", None)
    with WorkerPool(max_workers=3, mode="process", name="batch-test") as pool:
        reports = pooled_reports(pool, analyzer, list(queries) + [avg])
        for query, report in zip(queries, reports):
            assert_identical_range(baseline[id(query)], report.missing_range,
                                   query, "batched process pool vs serial")
        assert_identical_range(serial.bound(AggregateFunction.AVG, "v", None),
                               reports[-1].missing_range, avg,
                               "batched process AVG vs serial")
        assert pool.statistics.cells_solved >= pool.statistics.tasks_shipped
