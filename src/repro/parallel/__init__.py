"""Parallel fan-out: the persistent worker pool and cross-backend checks.

This package scales the bound-plan pipeline out instead of up.  The plans
it fans out come from the sharding pass in :mod:`repro.plan.sharding` —
region-level splitting, which fans a plan's cell enumeration out across
sub-regions of a partition attribute and merges the cells back into the
serial-identical program.  Every query is still solved by that one
program.  The pass's public names are re-exported here, next to the
runtime that executes them:

``pool``
    :class:`WorkerPool`, the persistent runtime: long-lived workers with
    warm per-worker program caches keyed by the parent's fingerprints,
    affinity routing, a warm-up protocol and restart on worker death.  The
    service owns one; bare solvers and the CLI borrow process-global
    shared pools.
``verify``
    Cross-backend verification: solve one program on two registry backends
    and intersect the ranges.  Two sound ranges always intersect, so a
    :class:`~repro.exceptions.DisjointRangeError` is a high-signal alarm
    that one backend is defective.

Layering: ``repro.parallel`` sits above ``repro.plan`` and ``repro.core``'s
data types but below the service layer; :class:`repro.core.bounds.
PCBoundSolver` drives it when ``BoundOptions.solve_workers`` asks for
fan-out, and the service batch executor runs its phase-2 queries on a
:class:`WorkerPool`.
"""

from .pool import (
    PoolStatistics,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)
from ..plan.sharding import (
    PlanShard,
    RegionSharding,
    ShardedBoundPlan,
    merge_shard_decompositions,
    select_sharding,
)
from .verify import cross_check_ranges

__all__ = [
    "WorkerPool",
    "PoolStatistics",
    "shared_pool",
    "shutdown_shared_pools",
    "RegionSharding",
    "PlanShard",
    "ShardedBoundPlan",
    "merge_shard_decompositions",
    "select_sharding",
    "cross_check_ranges",
]
