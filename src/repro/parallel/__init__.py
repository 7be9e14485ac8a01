"""Inter-query fan-out: the persistent worker pool and cross-backend checks.

Every query is answered by one serial :class:`~repro.plan.BoundProgram`;
this package scales *batches* of queries out instead of up:

``pool``
    :class:`WorkerPool`, the persistent runtime: long-lived workers with
    warm per-worker program caches keyed by the parent's fingerprints,
    affinity routing, a warm-up protocol and restart on worker death.  The
    service owns one and runs batch phase 2 on it.
``verify``
    Cross-backend verification: solve one program on two registry backends
    and intersect the ranges.  Two sound ranges always intersect, so a
    :class:`~repro.exceptions.DisjointRangeError` is a high-signal alarm
    that one backend is defective.

Layering: ``repro.parallel`` sits above ``repro.plan`` and ``repro.core``'s
data types but below the service layer, whose batch executor dispatches
its phase-2 queries onto a :class:`WorkerPool`.
"""

from .pool import PoolStatistics, WorkerPool
from .verify import cross_check_ranges

__all__ = [
    "WorkerPool",
    "PoolStatistics",
    "cross_check_ranges",
]
