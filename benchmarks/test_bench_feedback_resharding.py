"""Benchmark: feedback resharding on a deliberately hot workload.

The workload concentrates enumeration work in a narrow slice of the
partition attribute: a *hot zone* of a few ``t``-windows crossed with a
pile of mutually overlapping ``u``-bands (few distinct midpoints, most of
the cells) chained to a *cold tail* of single-band windows (many
midpoints, few cells).  Midpoint-count cut placement — the only signal
available before anything has run — spreads the cuts along the cold tail
and leaves the hot zone inside one shard, so the fan-out's critical path
is one straggler worker.

**Feedback resharding** flattens it: the first run's observed per-shard
cell loads feed a shared :class:`~repro.plan.passes.ShardLoadMemo`, and
the next solver's cut placement weights midpoints by measured cells and
pulls cuts into the hot zone.  Asserted deterministically: the profiled
``shard_cell_skew`` with feedback must be *strictly lower* than the
uniform-cut run's.

Results stay bit-identical to serial across every aggregate — cut
placement moves *where* work runs, never what it computes.  Wall-clock
speedup is asserted only on >= 4 cores (the usual convention); skew
reduction and equality are asserted everywhere.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.bounds import BoundOptions, PCBoundSolver
from repro.core.constraints import (
    FrequencyConstraint,
    PredicateConstraint,
    ValueConstraint,
)
from repro.core.pcset import PredicateConstraintSet
from repro.core.predicates import Predicate
from repro.obs.profile import QueryProfile
from repro.obs.trace import get_tracer
from repro.plan.passes import ShardLoadMemo
from repro.relational.aggregates import AggregateFunction

AGGREGATES = [(AggregateFunction.COUNT, None), (AggregateFunction.SUM, "v"),
              (AggregateFunction.MIN, "v"), (AggregateFunction.MAX, "v"),
              (AggregateFunction.AVG, "v")]

WORKERS = 4
HOT_BANDS = 3
COLD_WINDOWS = 14


def skewed_pcset() -> PredicateConstraintSet:
    """One overlap component with a hot head and a long cold tail.

    Hot zone (t in [0, 12]): two overlapping windows x HOT_BANDS mutually
    overlapping u-bands — six constraints whose mutual overlap breeds most
    of the satisfiable cells, but only six of the set's twenty interval
    midpoints.  Cold tail (t in [10, 140]): COLD_WINDOWS chained
    single-band windows — fourteen midpoints, a couple of cells each.
    Midpoint-*count* quantiles therefore spend their cuts on the tail and
    leave the hot zone inside one shard; the observed cell loads are what
    reveal where the work actually lives.  The tail's first window
    overlaps the hot zone in both dimensions, so the whole set is one
    overlap component.
    """
    bands = [(0.0, 40.0), (15.0, 55.0), (30.0, 70.0)]
    constraints = []
    for window, (t_low, t_high) in enumerate([(0.0, 8.0), (4.0, 12.0)]):
        for band in range(HOT_BANDS):
            u_low, u_high = bands[band % len(bands)]
            predicate = Predicate.range("t", t_low, t_high) \
                .with_range("u", u_low, u_high)
            constraints.append(PredicateConstraint(
                predicate, ValueConstraint({"v": (0.0, 100.0)}),
                FrequencyConstraint(0, 50), name=f"hot{window}b{band}"))
    for window in range(COLD_WINDOWS):
        predicate = Predicate.range("t", 10.0 + 9.0 * window,
                                    10.0 + 9.0 * window + 10.0) \
            .with_range("u", 0.0, 100.0)
        constraints.append(PredicateConstraint(
            predicate, ValueConstraint({"v": (0.0, 100.0)}),
            FrequencyConstraint(0, 50), name=f"cold{window}"))
    return PredicateConstraintSet(constraints)


def profiled_cold_bound(solver, pool):
    """Time and profile one cold COUNT bound; returns (profile, seconds)."""
    pool.start()  # exclude worker fork from the timed section
    tracer = get_tracer()
    started = time.perf_counter()
    with tracer.trace("query", force=True) as handle:
        solver.bound(AggregateFunction.COUNT)
    seconds = time.perf_counter() - started
    profile = QueryProfile.from_trace(handle)
    assert profile is not None
    return profile, seconds


def test_feedback_resharding_flattens_skew(bench_record):
    from repro.parallel.pool import WorkerPool

    pcset = skewed_pcset()

    serial = PCBoundSolver(pcset, BoundOptions(check_closure=False))
    started = time.perf_counter()
    serial_results = {aggregate: serial.bound(aggregate, attribute)
                      for aggregate, attribute in AGGREGATES}
    serial_seconds = time.perf_counter() - started

    options = BoundOptions(check_closure=False, solve_workers=WORKERS,
                           shard_strategy="region")
    memo = ShardLoadMemo()

    # --- pre: uniform midpoint-count cuts ------------------------------- #
    with WorkerPool(max_workers=WORKERS, mode="process",
                    name="bench-reshard-pre") as pre_pool:
        pre_solver = PCBoundSolver(pcset, options, worker_pool=pre_pool,
                                   shard_loads=memo)
        pre_profile, pre_seconds = profiled_cold_bound(pre_solver, pre_pool)
        for aggregate, attribute in AGGREGATES:
            actual = pre_solver.bound(aggregate, attribute)
            expected = serial_results[aggregate]
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper), aggregate
    pre_skew = pre_profile.shard_cell_skew()
    assert pre_skew is not None and pre_skew > 1.0
    assert memo.version >= 1  # the pre run fed the memo

    # --- post: load-weighted cuts from the memo -------------------------- #
    with WorkerPool(max_workers=WORKERS, mode="process",
                    name="bench-reshard-post") as post_pool:
        post_solver = PCBoundSolver(pcset, options, worker_pool=post_pool,
                                    shard_loads=memo)
        post_profile, post_seconds = profiled_cold_bound(post_solver,
                                                         post_pool)
        for aggregate, attribute in AGGREGATES:
            actual = post_solver.bound(aggregate, attribute)
            expected = serial_results[aggregate]
            assert (actual.lower, actual.upper) == \
                (expected.lower, expected.upper), aggregate
    post_skew = post_profile.shard_cell_skew()
    assert post_skew is not None

    # The tentpole claim, deterministic on any machine: feeding observed
    # loads back into cut placement strictly flattens the cell skew.
    assert post_skew < pre_skew, (
        f"feedback resharding did not flatten the hot shard: "
        f"{post_skew:.2f}x (with feedback) vs {pre_skew:.2f}x (uniform)")

    speedup = pre_seconds / post_seconds if post_seconds else 0.0
    bench_record(
        constraints=len(pcset),
        workers=WORKERS,
        cores=os.cpu_count(),
        serial_seconds=serial_seconds,
        pre_shard_cell_skew=pre_skew,
        post_shard_cell_skew=post_skew,
        pre_critical_path_seconds=pre_seconds,
        post_critical_path_seconds=post_seconds,
        skew_speedup=speedup,
        pre_shard_cells=pre_profile.shard_cell_loads(),
        post_shard_cells=post_profile.shard_cell_loads(),
    )
    print(f"\nfeedback resharding: serial {serial_seconds * 1000:.0f} ms; "
          f"pre skew {pre_skew:.2f}x in {pre_seconds * 1000:.0f} ms, "
          f"post skew {post_skew:.2f}x in {post_seconds * 1000:.0f} ms "
          f"({speedup:.2f}x)")
    if (os.cpu_count() or 1) >= 4:
        assert speedup > 0.9, (
            f"flattened run should not be slower: {speedup:.2f}x")
    else:
        pytest.skip(f"{os.cpu_count()} core(s): skew reduction and "
                    "equality asserted; wall-clock speedup not meaningful")
