"""Sharding as a plan-pipeline pass: region splitting, one contract.

The sharding pass maps one optimized :class:`~repro.plan.ir.BoundPlan` to a
:class:`ShardedBoundPlan`, and every downstream consumer — the bound
solver, the worker pool, the service layer, the CLI — sees the same
sharded-plan contract.  One strategy ships:

**Region-level splitting** (:class:`RegionSharding`).  The region splitter
partitions the query region along a *partition attribute* into sub-regions
covering the attribute's whole line, and each shard is the parent plan with
the sub-region pushed down.  Because frequency budgets do **not** decompose
across a region cut (a constraint straddling the cut could spend its whole
``ku`` on either side, so summing per-sub-region optima would double-count
it), region shards deliberately merge *below* ranges: each shard
contributes its sub-region's satisfiable **cells**, and
:func:`merge_shard_decompositions` unions them into a decomposition that is
provably identical to the serial one —

* the sub-region boxes cover the attribute line, so a cell satisfiable
  inside the query region is satisfiable inside at least one sub-region
  (completeness), and conjoining a sub-region box only restricts, so every
  shard cell is a serial cell (soundness);
* DFS rewriting is an exact implication and early stopping assumes the same
  below-depth subtrees in whichever shard reaches them, so the equality
  holds for every enumeration strategy and depth;
* the union is put back in the order the serial enumerator emits cells, so
  the compiled program sees its columns in serial order too.

The compiled program over the merged decomposition *is* the serial
program, so all five aggregates return bit-identical ranges while the
enumeration work fans out across the worker pool.  Every query is then
solved by that one program.

Strategy selection (:func:`select_sharding`) is gated — under the default
``auto`` preference — on the estimated cell count (observed-density-scaled
when an :class:`~repro.plan.passes.ObservedCellStatistics` feed is
supplied), so trivially small decompositions never pay fan-out overhead.
The preference comes from ``BoundOptions.shard_strategy`` /
``--shard-strategy`` / the ``REPRO_SHARD_STRATEGY`` environment toggle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from ..core.cells import (
    CellDecomposition,
    DecompositionStatistics,
    DecompositionStrategy,
    decomposition_cache_key,
)
from ..core.pcset import PredicateConstraintSet
from ..core.predicates import Predicate
from ..exceptions import PredicateError, SolverError
from .ir import BoundPlan, BoundQuery
from .passes import ObservedCellStatistics, ShardLoadMemo, estimated_cell_count

__all__ = ["SHARD_STRATEGIES", "PlanShard", "ShardedBoundPlan",
           "RegionSharding", "default_shard_strategy",
           "select_sharding", "merge_shard_statistics",
           "merge_shard_decompositions", "slice_cache_keys"]

_INF = float("inf")

#: The recognised shard-strategy preferences (``BoundOptions.shard_strategy``).
SHARD_STRATEGIES = ("auto", "region")

#: Estimated satisfiable cells below which ``auto`` skips region splitting —
#: decompositions this small finish faster inline than any fan-out round.
REGION_SHARDING_MIN_CELLS = 16


def default_shard_strategy() -> str:
    """The default preference: ``REPRO_SHARD_STRATEGY`` or ``auto``.

    The environment toggle backs the CI matrix leg that runs the whole
    tier-1 suite with region splitting preferred; unrecognised values fall
    back to ``auto`` so a stray variable can never break a deployment.
    """
    value = os.environ.get("REPRO_SHARD_STRATEGY", "auto").strip().lower()
    return value if value in SHARD_STRATEGIES else "auto"


@dataclass(frozen=True)
class PlanShard:
    """One slice of a region-sharded plan.

    The constraint set is the parent's in full and ``plan`` narrows the
    *query region* to this shard's slice of the partition attribute;
    ``partition_attribute`` and ``bounds`` record the slice.  The shard plan
    decomposes through the ordinary cell enumerator.
    """

    shard_index: int
    shard_count: int
    plan: BoundPlan
    partition_attribute: str | None = None
    bounds: tuple[float, float] | None = None

    @property
    def pcset(self) -> PredicateConstraintSet:
        return self.plan.pcset

    def cache_token(self) -> tuple:
        """A key suffix distinguishing this shard from its pair's program.

        Appended to the (namespace, region, attribute) program key to route
        the shard's enumeration to a sticky pool worker; keyed by the
        partition slice, so a shard never aliases the unsharded program.
        """
        return ("region-shard", self.shard_count, self.shard_index,
                self.partition_attribute, self.bounds)

    def describe(self) -> str:
        if self.bounds is None:
            return (f"shard {self.shard_index + 1}/{self.shard_count}: "
                    f"whole region ({len(self.pcset)} constraint(s))")
        low, high = self.bounds
        return (f"shard {self.shard_index + 1}/{self.shard_count}: "
                f"{self.partition_attribute} in [{low}, {high}] "
                f"({len(self.pcset)} constraint(s))")


@dataclass(frozen=True)
class ShardedBoundPlan:
    """A bound plan split into independently-decomposable shards.

    Region shards decompose independently and merge *cells*
    (:func:`merge_shard_decompositions`) into the serial program.  A plan
    the strategy could not split yields exactly one shard, which callers
    should treat as "do not shard" (:attr:`is_sharded` is False).
    """

    parent: BoundPlan
    shards: tuple[PlanShard, ...]
    strategy: str = "region"

    @property
    def is_sharded(self) -> bool:
        return len(self.shards) > 1

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def describe(self) -> str:
        lines = [f"sharded plan: {self.parent.query.describe()} "
                 f"({self.strategy} strategy, {len(self.shards)} shard(s))"]
        lines.extend(f"  {shard.describe()}" for shard in self.shards)
        return "\n".join(lines)


def _single_shard(plan: BoundPlan) -> ShardedBoundPlan:
    """The degenerate "do not shard" layout (one full-plan shard)."""
    shard = PlanShard(shard_index=0, shard_count=1, plan=plan)
    return ShardedBoundPlan(parent=plan, shards=(shard,))


class RegionSharding:
    """Split a plan's query region along a partition attribute.

    The attribute is chosen automatically (the numeric attribute bounded by
    the most constraint predicates, ties broken lexicographically) unless
    pinned at construction.  Cut points are placed between quantile chunks
    of the constraints' interval midpoints on that attribute, so each
    sub-region attracts a balanced share of the enumeration work; the
    outermost sub-regions extend to ±∞ so the slices cover the whole
    attribute line (the completeness half of the cell-union equality in the
    module docstring).  Every shard keeps the parent's full constraint set —
    cells index into the parent's constraint order, which is what lets
    :func:`merge_shard_decompositions` reassemble the serial decomposition.

    ``split`` is pure: it may not solve, decompose, or mutate the plan — it
    only *proposes* a layout, which is what lets the service layer price a
    query from its sharded plan before any work is dispatched.  A plan it
    cannot usefully split comes back as a single shard (``is_sharded``
    False) rather than an error.
    """

    def __init__(self, attribute: str | None = None,
                 shard_loads: ShardLoadMemo | None = None):
        self._attribute = attribute
        self._shard_loads = shard_loads

    def split(self, plan: BoundPlan,
              max_shards: int | None = None) -> ShardedBoundPlan:
        if max_shards is not None and max_shards < 1:
            raise SolverError(f"max_shards must be positive, got {max_shards}")
        if max_shards is None:
            max_shards = 2
        if max_shards < 2 or len(plan.pcset) == 0:
            return _single_shard(plan)
        attribute = self._attribute or self.partition_attribute(plan)
        if attribute is None:
            return _single_shard(plan)
        slice_loads = None
        if self._shard_loads is not None:
            slice_loads = self._shard_loads.slice_loads(plan.query.region,
                                                        attribute)
        cuts = self.cut_points(plan, attribute, max_shards,
                               slice_loads=slice_loads)
        if not cuts:
            return _single_shard(plan)
        edges = [-_INF, *cuts, _INF]
        slices = list(zip(edges[:-1], edges[1:]))
        region = plan.query.region
        kept: list[tuple[tuple[float, float], Predicate]] = []
        for low, high in slices:
            window = Predicate.range(attribute, low, high)
            try:
                sub_region = window if region is None else region.conjoin(window)
            except PredicateError:
                continue  # the slice misses the query region entirely
            kept.append(((low, high), sub_region))
        if len(kept) < 2:
            return _single_shard(plan)
        shards = []
        for shard_index, (bounds, sub_region) in enumerate(kept):
            query = BoundQuery(plan.query.aggregate, plan.query.attribute,
                               sub_region)
            shard_plan_ir = plan.amended(query=query).annotated(
                f"sharding: region slice {shard_index + 1}/{len(kept)} "
                f"({attribute} in [{bounds[0]}, {bounds[1]}])")
            shards.append(PlanShard(shard_index=shard_index,
                                    shard_count=len(kept),
                                    plan=shard_plan_ir,
                                    partition_attribute=attribute,
                                    bounds=bounds))
        return ShardedBoundPlan(parent=plan, shards=tuple(shards))

    # ------------------------------------------------------------------ #
    # Partition-attribute and cut-point selection (pure predicate math)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _interval_midpoints(plan: BoundPlan, attribute: str) -> list[float]:
        """Midpoints of the constraints' intervals on ``attribute``.

        Intervals are clipped to the query region's range on the attribute
        first (a constraint's slice outside the region attracts no cells),
        and constraints that leave the attribute unbounded on both sides
        contribute nothing — they straddle every cut regardless.
        """
        region = plan.query.region
        region_range = None if region is None else region.range_for(attribute)
        midpoints: list[float] = []
        for pc in plan.pcset:
            interval = pc.predicate.range_for(attribute)
            if interval is None:
                continue
            low, high = interval.low, interval.high
            if region_range is not None:
                low = max(low, region_range.low)
                high = min(high, region_range.high)
            if low > high:
                continue
            if math.isinf(low) and math.isinf(high):
                continue
            if math.isinf(low):
                midpoints.append(high)
            elif math.isinf(high):
                midpoints.append(low)
            else:
                midpoints.append((low + high) / 2.0)
        midpoints.sort()
        return midpoints

    @classmethod
    def partition_attribute(cls, plan: BoundPlan) -> str | None:
        """The attribute the splitter will cut, or None when none qualifies.

        A qualifying attribute is numerically bounded by at least one
        predicate and shows at least two distinct interval midpoints (one
        midpoint means every constraint sits on top of the cut, which can
        prune nothing).  Among qualifiers the most-constrained attribute
        wins — more bounded intervals mean more subtrees the sub-region
        pushdown can prune — with lexicographic tie-breaking for
        determinism.
        """
        best: tuple[int, str] | None = None
        attributes = {attribute
                      for pc in plan.pcset
                      for attribute in pc.predicate.ranges}
        for attribute in sorted(attributes):
            midpoints = cls._interval_midpoints(plan, attribute)
            if len(set(midpoints)) < 2:
                continue
            score = (len(midpoints), attribute)
            if best is None or score[0] > best[0]:
                best = score
        return None if best is None else best[1]

    @staticmethod
    def _midpoint_weights(midpoints: list[float],
                          slice_loads) -> list[float] | None:
        """Per-midpoint enumeration weights from observed slice loads.

        Each observed slice's measured cell count is spread evenly over the
        midpoints the slice contains, so a hot slice's midpoints weigh more
        and the weighted quantiles pull cuts *into* it.  Midpoints no slice
        covers (the previous layout dropped their window) fall back to the
        mean observed weight.  ``None`` — the uniform-weights signal — when
        there is nothing usable to learn from.
        """
        if not slice_loads or not midpoints:
            return None
        weights: list[float | None] = [None] * len(midpoints)
        for (low, high), cells in slice_loads:
            members = [index for index, midpoint in enumerate(midpoints)
                       if weights[index] is None and low <= midpoint <= high]
            if not members:
                continue
            share = max(0.0, float(cells)) / len(members)
            for index in members:
                weights[index] = share
        assigned = [weight for weight in weights if weight is not None]
        if not assigned or sum(assigned) <= 0.0:
            return None
        fallback = sum(assigned) / len(assigned)
        return [fallback if weight is None else weight for weight in weights]

    @classmethod
    def cut_points(cls, plan: BoundPlan, attribute: str, max_shards: int,
                   slice_loads=None) -> list[float]:
        """Strictly increasing cut values between balanced midpoint chunks.

        Cuts can only fall in *gaps* — positions where adjacent sorted
        midpoints strictly increase (cutting through a pile of equal
        midpoints buys nothing).  Each of the ``max_shards - 1`` quantile
        boundaries snaps to its nearest unused gap, so duplicated
        structures (several constraints sharing an interval) still split
        into balanced slices, and fewer gaps gracefully produce fewer
        shards.

        Without ``slice_loads`` the quantiles are midpoint-*count*
        quantiles — each slice attracts an equal share of constraint
        structure, the only signal available before anything has run.  With
        ``slice_loads`` (a :class:`~repro.plan.passes.ShardLoadMemo`
        observation from a previous run of this (region, attribute) pair)
        they become midpoint-*weight* quantiles: midpoints are weighted by
        their slice's measured cells, so a slice that produced most of the
        enumeration work attracts proportionally more cuts the next time.
        Uniform weights reproduce the unweighted placement exactly —
        feedback refines the balance, never the contract.
        """
        midpoints = cls._interval_midpoints(plan, attribute)
        gaps = [index for index in range(1, len(midpoints))
                if midpoints[index - 1] < midpoints[index]]
        if not gaps:
            return []
        weights = cls._midpoint_weights(midpoints, slice_loads)
        if weights is None:
            weights = [1.0] * len(midpoints)
        prefix = [0.0]
        for weight in weights:
            prefix.append(prefix[-1] + weight)
        total = prefix[-1]
        shards = min(max_shards, len(gaps) + 1)
        chosen: set[int] = set()
        for boundary in range(1, shards):
            target = boundary * total / shards
            free = [gap for gap in gaps if gap not in chosen]
            if not free:
                break
            chosen.add(min(free, key=lambda gap: abs(prefix[gap] - target)))
        return [(midpoints[gap - 1] + midpoints[gap]) / 2.0
                for gap in sorted(chosen)]



def select_sharding(plan: BoundPlan, max_shards: int | None = None,
                    cell_statistics: ObservedCellStatistics | None = None,
                    shard_loads: ShardLoadMemo | None = None
                    ) -> ShardedBoundPlan:
    """Choose and apply the sharding layout for ``plan``.

    The preference comes from ``plan.shard_strategy`` (lowered from
    ``BoundOptions.shard_strategy`` by :func:`~repro.plan.ir.build_plan`):

    * ``"region"`` — region splitting, unconditionally.
    * ``"auto"`` (default) — region splitting only when the estimated cell
      count (observed-density-scaled when a feed is supplied — the same
      signal budget-driven strategy selection uses) reaches
      :data:`REGION_SHARDING_MIN_CELLS`; tiny enumerations run inline
      faster than any fan-out round.

    A plan the region splitter cannot cut comes back as one shard.
    ``shard_loads`` feeds observed per-slice cell loads back into region
    cut placement (see :class:`~repro.plan.passes.ShardLoadMemo`); it can
    move cuts, never change what a merged decomposition contains.
    """
    preference = plan.shard_strategy
    if preference not in SHARD_STRATEGIES:
        raise SolverError(
            f"unknown shard strategy {preference!r}; expected one of "
            f"{SHARD_STRATEGIES}")
    if preference == "auto":
        estimate, _ = estimated_cell_count(plan, cell_statistics)
        if estimate < REGION_SHARDING_MIN_CELLS:
            return _single_shard(plan)
    return RegionSharding(shard_loads=shard_loads).split(plan, max_shards)


# --------------------------------------------------------------------- #
# Merge contracts
# --------------------------------------------------------------------- #
def merge_shard_statistics(statistics_list) -> DecompositionStatistics:
    """Sum per-shard decomposition counters into one batch-level record.

    Keeps the sharded path's observability on par with serial execution:
    the merged range reports the total enumeration work its shards paid,
    exactly as a single monolithic decomposition would.
    """
    merged = DecompositionStatistics()
    for statistics in statistics_list:
        if statistics is None:
            continue
        merged.num_constraints += statistics.num_constraints
        merged.cells_evaluated += statistics.cells_evaluated
        merged.solver_calls += statistics.solver_calls
        merged.rewrites_saved += statistics.rewrites_saved
        merged.subtrees_pruned += statistics.subtrees_pruned
        merged.satisfiable_cells += statistics.satisfiable_cells
        merged.assumed_satisfiable += statistics.assumed_satisfiable
    return merged


def slice_cache_keys(sharded: ShardedBoundPlan, namespace: object) -> list[tuple]:
    """Per-shard decomposition-cache keys for a region-sharded plan.

    A region shard's decomposition is *exactly* the decomposition of its
    sub-region predicate: shard plans carry the parent's full constraint
    set, strategy and early-stop depth, and differ only in the conjoined
    slice window.  Each slice is therefore keyed like an ordinary
    whole-region entry — ``(namespace, sub_region)`` via
    :func:`repro.core.cells.decomposition_cache_key` — which is what makes
    slice-level reuse sound by construction:

    * Two overlapping query regions that share interior cut points produce
      *identical* sub-region predicates for the shared slices (predicates
      hash by content, and ``conjoin`` normalises range intersection), so
      the second query hits the first query's slice entries and recomputes
      only its uncovered slices.
    * Moved cut points (e.g. after :class:`~repro.plan.passes.ShardLoadMemo`
      feedback re-cuts a region) change the sub-region predicates, which is
      simply a cache miss — never a wrong hit.

    The key embeds the partition attribute and slice interval through the
    sub-region predicate itself, and the relation/options identity through
    ``namespace`` (see ``PCBoundSolver._plan_namespace``).
    """
    return [decomposition_cache_key(namespace, shard.plan.query.region)
            for shard in sharded]


def _serial_order(strategy: DecompositionStrategy, count: int):
    """The sort key that puts cells in the serial enumerator's order.

    The DFS strategies recurse include-first by constraint index, so cells
    come out lexicographically by "is constraint ``i`` excluded?"; ``NAIVE``
    walks covering bitmasks in ascending order.  The pairwise-disjoint
    fast path emits singletons by index, which both keys reproduce.
    """
    if strategy is DecompositionStrategy.NAIVE:
        return lambda cell: sum(1 << index for index in cell.covering)
    return lambda cell: tuple(index not in cell.covering
                              for index in range(count))


def merge_shard_decompositions(plan: BoundPlan,
                               decompositions: list[CellDecomposition]
                               ) -> CellDecomposition:
    """Union region shards' cells into the parent plan's decomposition.

    Cells are deduplicated by covering set (a cell satisfiable on both
    sides of a cut — e.g. one containing the cut point — appears in two
    shards) and sorted into the serial enumerator's order, so the merged
    decomposition equals the serial one cell for cell, whatever order the
    shards completed in.  Counters are summed — the merged record reports
    the total work the shards paid, matching :func:`merge_shard_statistics`
    semantics — while ``num_constraints`` and ``satisfiable_cells``
    describe the merged artifact itself, which keeps the observed-density
    feed (:class:`~repro.plan.passes.ObservedCellStatistics`) exact:
    density is *deduplicated* cells over the worst case for the *parent's*
    constraint count.
    """
    seen: dict[frozenset, object] = {}
    for decomposition in decompositions:
        for cell in decomposition.cells:
            seen.setdefault(cell.covering, cell)
    cells = sorted(seen.values(),
                   key=_serial_order(plan.strategy, len(plan.pcset)))
    statistics = merge_shard_statistics(
        decomposition.statistics for decomposition in decompositions)
    statistics.num_constraints = len(plan.pcset)
    statistics.satisfiable_cells = len(cells)
    return CellDecomposition(list(cells), statistics, plan.query.region)
