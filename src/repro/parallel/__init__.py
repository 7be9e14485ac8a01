"""Parallel solve fan-out: plan sharding, worker pools, cross-backend checks.

This package scales the bound-plan pipeline out instead of up.  PR 2 made
:class:`~repro.plan.BoundProgram` solves pure parameter patches against
immutable compiled skeletons, which is exactly the precondition for three
features that previously had no safe seam:

``sharding``
    A compatibility shim: sharding is now a plan-pipeline pass
    (:mod:`repro.plan.sharding`), with a pluggable
    :class:`~repro.plan.sharding.ShardingStrategy` interface behind two
    splitters — constraint-component splitting (independent overlap
    components solve as separate programs and merge ranges exactly) and
    region-level splitting (one-component constraint sets fan their cell
    enumeration out across sub-regions of a partition attribute and merge
    cells into the serial-identical program).  The names re-exported here
    keep historical imports working.
``executor``
    :class:`SolveExecutor` fans independent program solves out over a thread
    pool or — for backends whose capability flags declare their compiled
    skeletons pickle-safe — a process pool, the route to real CPU scale-out
    on GIL-bound backends.
``pool``
    :class:`WorkerPool`, the persistent runtime on top of those ideas:
    long-lived workers with warm per-worker program caches keyed by the
    parent's fingerprints, affinity routing, a warm-up protocol and restart
    on worker death.  The service owns one; bare solvers and the CLI borrow
    process-global shared pools.
``verify``
    Cross-backend verification: solve one program on two registry backends
    and intersect the ranges.  Two sound ranges always intersect, so a
    :class:`~repro.exceptions.DisjointRangeError` is a high-signal alarm
    that one backend is defective.

Layering: ``repro.parallel`` sits above ``repro.plan`` and ``repro.core``'s
data types but below the service layer; :class:`repro.core.bounds.
PCBoundSolver` drives it when ``BoundOptions.solve_workers`` asks for
fan-out, and the service batch executor reuses :class:`SolveExecutor` for
its phase-2 solves.
"""

from .executor import SolveExecutor
from .pool import (
    PoolStatistics,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from .sharding import (
    SHARDABLE_AGGREGATES,
    ConstraintComponentSharding,
    PlanShard,
    RegionSharding,
    ShardedBoundPlan,
    ShardingStrategy,
    merge_shard_decompositions,
    merge_shard_ranges,
    partition_constraint_indices,
    select_sharding,
    shard_plan,
)
from .verify import cross_check_ranges

__all__ = [
    "SolveExecutor",
    "WorkerPool",
    "PoolStatistics",
    "shared_pool",
    "shutdown_shared_pools",
    "SHARDABLE_AGGREGATES",
    "ShardingStrategy",
    "ConstraintComponentSharding",
    "RegionSharding",
    "PlanShard",
    "ShardedBoundPlan",
    "merge_shard_ranges",
    "merge_shard_decompositions",
    "partition_constraint_indices",
    "select_sharding",
    "shard_plan",
    "cross_check_ranges",
]
