"""Parallel solve fan-out: worker pools and cross-backend checks.

This package scales the bound-plan pipeline out instead of up.
:class:`~repro.plan.BoundProgram` solves are pure parameter patches against
immutable compiled skeletons, which is what makes them safe to fan out.
The plans it fans out come from the sharding pass in
:mod:`repro.plan.sharding` — constraint-component splitting (independent
overlap components solve as separate programs and merge ranges exactly)
and region-level splitting (one-component constraint sets fan their cell
enumeration out across sub-regions of a partition attribute and merge
cells into the serial-identical program).  Its public names are
re-exported here, next to the runtime that executes them:

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
fan-out, and the service batch executor runs its phase-2 solves on a
:class:`WorkerPool`.
"""

from .executor import SolveExecutor
from .pool import (
    PoolStatistics,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from ..plan.sharding import (
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
