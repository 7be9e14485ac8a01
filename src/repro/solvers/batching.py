"""Batch sizing shared by the pool and the planner.

The batched multi-solve kernel (:meth:`repro.solvers.milp.CompiledMILP.
solve_objectives`) amortises the per-call solver floor across a matrix of
objective rows, and the worker pool amortises the per-task dispatch floor
by shipping one task per *batch* of work items.  Batching is the only
path: batched results are bit-identical to per-cell solves, so there is
nothing to switch off.  What varies is how many items one pool task
carries — :func:`adaptive_batch_size` picks it from pool depth and the
observed-density feed unless the caller's ``BoundOptions.solve_batch_size``
fixes it.  The size never influences *what* is computed, so it takes no
part in program keys or artifact fingerprints.
"""

from __future__ import annotations

import math

__all__ = ["MAX_BATCH_SIZE", "adaptive_batch_size", "chunked"]

#: Upper clamp on any adaptive batch: large enough to amortise the per-task
#: floor many times over, small enough that one straggler batch cannot hold
#: a whole round hostage (the skew lesson of the PR5/PR6 benchmarks).
MAX_BATCH_SIZE = 64

#: Estimated cells above which a batch is considered "full" of enumeration
#: work: adaptive sizing shrinks batches so no single task carries more than
#: roughly this much predicted work, keeping load balance under density skew.
_HEAVY_CELLS_PER_BATCH = 256


def adaptive_batch_size(task_count: int, workers: int,
                        estimated_cells: int | None = None,
                        configured: int | None = None) -> int:
    """How many work items one pool task should carry.

    A configured size (``BoundOptions.solve_batch_size``) wins outright.
    Otherwise the batch size targets one batch per worker
    (``ceil(task_count / workers)`` — the smallest size that still fills
    the pool), shrunk when the observed-density feed predicts heavy
    per-item enumeration (so one batch never concentrates more than
    ~:data:`_HEAVY_CELLS_PER_BATCH` estimated cells) and clamped to
    [1, :data:`MAX_BATCH_SIZE`].
    """
    if configured is not None and configured >= 1:
        return configured
    if task_count <= 0:
        return 1
    size = math.ceil(task_count / max(1, workers))
    if estimated_cells is not None and estimated_cells > 0:
        per_item = max(1.0, estimated_cells / task_count)
        size = min(size, max(1, int(_HEAVY_CELLS_PER_BATCH // per_item)))
    return max(1, min(size, MAX_BATCH_SIZE))


def chunked(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [items[start:start + size] for start in range(0, len(items), size)]
