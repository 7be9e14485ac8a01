"""Batch sizing for the worker pool.

The batched multi-solve kernel (:meth:`repro.solvers.milp.CompiledMILP.
solve_objectives`) amortises the per-call solver floor across a matrix of
objective rows, and the worker pool amortises the per-task dispatch floor
by shipping one task per *batch* of queries.  Batching is the only path:
batched results are bit-identical to per-query solves, so there is nothing
to switch off.  What varies is how many queries one pool task carries —
:func:`adaptive_batch_size` picks it from pool depth.  The size never
influences *what* is computed, so it takes no part in program keys or
artifact fingerprints.
"""

from __future__ import annotations

import math

__all__ = ["MAX_BATCH_SIZE", "adaptive_batch_size", "chunked"]

#: Upper clamp on any adaptive batch: large enough to amortise the per-task
#: floor many times over, small enough that one straggler batch cannot hold
#: a whole round hostage (the skew lesson of the PR5/PR6 benchmarks).
MAX_BATCH_SIZE = 64


def adaptive_batch_size(task_count: int, workers: int) -> int:
    """How many work items one pool task should carry.

    One batch per worker (``ceil(task_count / workers)`` — the smallest
    size that still fills the pool), clamped to [1, :data:`MAX_BATCH_SIZE`].
    """
    if task_count <= 0:
        return 1
    size = math.ceil(task_count / max(1, workers))
    return max(1, min(size, MAX_BATCH_SIZE))


def chunked(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [items[start:start + size] for start in range(0, len(items), size)]
