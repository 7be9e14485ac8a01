"""Cell decomposition of overlapping predicate-constraints (paper §4.1).

A *cell* is a maximal region of the attribute domain covered by exactly one
subset of the predicate-constraints' predicates::

    cell(P) = AND_{i in P} psi_i  AND  AND_{j not in P} NOT psi_j

For ``n`` predicate-constraints there are up to ``2^n`` cells, most of which
are unsatisfiable in practice.  This module enumerates the satisfiable cells
with the paper's four optimisations:

1. **Predicate pushdown** — the query's own predicate is conjoined into every
   cell, so cells that cannot contain query-relevant rows are pruned.
2. **DFS pruning** — cells are enumerated by a depth-first search over
   prefixes; an unsatisfiable prefix prunes its whole subtree.
3. **Expression rewriting** — if a prefix ``X`` is satisfiable and ``X ∧ ψ``
   is not, then ``X ∧ ¬ψ`` is satisfiable without another solver call.
   ``DFS_REWRITE`` generalises this with a *witness*: each DFS node carries
   a point of its prefix (found by the search that proved the prefix).  If
   the point lies in ``ψ`` it proves ``X ∧ ψ``, otherwise it proves
   ``X ∧ ¬ψ``; only the other child runs a search, so each node makes one
   search, not two.  (If ``X ∧ ψ`` is UNSAT the point must lie outside
   ``ψ`` — the rewriting rule.)  The node also carries the positive
   intersection and the excluded boxes that still meet it, so no check
   rebuilds them from the domain.
4. **Approximate early stopping** — below a configurable depth, prefixes are
   assumed satisfiable; this can only add cells (loosening but never
   invalidating the bound).

The decomposition reports statistics that back the paper's Figure 7:
``cells_evaluated``/``solver_calls`` count every satisfiability decision
that was made by checking (cheap empty-intersection checks included), and
``rewrites_saved`` the children a witness or rewriting proved satisfiable.
``NAIVE`` and ``DFS`` decide every child, so only ``DFS_REWRITE`` saves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..exceptions import ConstraintError
from ..solvers.sat import AttributeDomain, Box, BoxSolver, CategoricalSet
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = ["Cell", "DecompositionStrategy", "DecompositionStatistics",
           "CellDecomposition", "CellDecomposer", "decompose_cached",
           "decomposition_cache_key", "estimate_cell_count",
           "worst_case_cell_count"]

_CELL_ESTIMATE_CAP = 1 << 62


def worst_case_cell_count(num_constraints: int) -> int:
    """Worst-case covered cells for ``num_constraints`` overlapping
    predicates: ``2^n - 1``, capped so very large sets never overflow into
    bignum territory.  The single source of truth for this formula — the
    strategy-selection pass and its observed-density feed both scale it.
    """
    if num_constraints <= 0:
        return 0
    if num_constraints >= 62:
        return _CELL_ESTIMATE_CAP
    return (1 << num_constraints) - 1


def estimate_cell_count(pcset: PredicateConstraintSet) -> int:
    """Worst-case number of satisfiable cells for ``pcset``.

    Pairwise-disjoint predicates decompose into exactly one cell each; in
    general up to ``2^n - 1`` covered cells exist (see
    :func:`worst_case_cell_count`).
    """
    count = len(pcset)
    if count == 0:
        return 0
    if pcset.is_pairwise_disjoint():
        return count
    return worst_case_cell_count(count)


@dataclass(frozen=True)
class Cell:
    """One satisfiable cell: the indices of the predicate-constraints covering it."""

    covering: frozenset[int]

    def __post_init__(self) -> None:
        if not self.covering:
            raise ConstraintError("a cell must be covered by at least one constraint")

    @property
    def size(self) -> int:
        return len(self.covering)

    def is_covered_by(self, index: int) -> bool:
        return index in self.covering

    def __repr__(self) -> str:
        return f"Cell({sorted(self.covering)})"


class DecompositionStrategy(enum.Enum):
    """How the satisfiable cells are enumerated."""

    NAIVE = "naive"
    DFS = "dfs"
    DFS_REWRITE = "dfs-rewrite"

    @classmethod
    def parse(cls, text: str) -> "DecompositionStrategy":
        for member in cls:
            if member.value == text or member.name.lower() == text.lower():
                return member
        raise ConstraintError(
            f"unknown decomposition strategy {text!r}; expected one of "
            f"{[member.value for member in cls]}"
        )


@dataclass
class DecompositionStatistics:
    """Counters behind the paper's Figure 7."""

    num_constraints: int = 0
    cells_evaluated: int = 0
    solver_calls: int = 0
    rewrites_saved: int = 0
    subtrees_pruned: int = 0
    satisfiable_cells: int = 0
    assumed_satisfiable: int = 0
    #: Shard positions whose exact solve was replaced by the precomputed
    #: worst-case range under ``degrade="worst-case"`` (empty outside
    #: degraded executions) — the result-side stamp that a range is sound
    #: but looser than the exact answer.
    degraded_shards: tuple = ()

    def as_dict(self) -> dict[str, int]:
        result = {
            "num_constraints": self.num_constraints,
            "cells_evaluated": self.cells_evaluated,
            "solver_calls": self.solver_calls,
            "rewrites_saved": self.rewrites_saved,
            "subtrees_pruned": self.subtrees_pruned,
            "satisfiable_cells": self.satisfiable_cells,
            "assumed_satisfiable": self.assumed_satisfiable,
        }
        if self.degraded_shards:
            result["degraded_shards"] = list(self.degraded_shards)
        return result


@dataclass
class CellDecomposition:
    """The result of decomposing a predicate-constraint set."""

    cells: list[Cell]
    statistics: DecompositionStatistics
    query_region: Predicate | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def cells_covered_by(self, index: int) -> list[int]:
        """Positions (into ``cells``) of the cells covered by constraint ``index``."""
        return [position for position, cell in enumerate(self.cells)
                if cell.is_covered_by(index)]


class CellDecomposer:
    """Enumerates the satisfiable cells of a predicate-constraint set.

    Parameters
    ----------
    pcset:
        The predicate-constraint set to decompose.
    strategy:
        Which enumeration strategy to use (see :class:`DecompositionStrategy`).
    early_stop_depth:
        If set, prefixes longer than this depth are assumed satisfiable
        without a solver call (Optimisation 4).  ``None`` disables the
        approximation.
    """

    def __init__(self, pcset: PredicateConstraintSet,
                 strategy: DecompositionStrategy = DecompositionStrategy.DFS_REWRITE,
                 early_stop_depth: int | None = None):
        self._pcset = pcset
        self._strategy = strategy
        self._early_stop_depth = early_stop_depth
        self._solver: BoxSolver = pcset.solver()
        self._boxes: list[Box] = [pc.predicate.to_box() for pc in pcset]
        domains = pcset.domains
        self._witness_exact = _witness_exact(self._boxes, domains)
        #: Attributes no domain declares: witnesses get a value for them, so
        #: membership tests against every box are total.
        self._free_attributes = sorted({
            attribute for box in self._boxes for attribute in box.attributes()
            if attribute not in domains})

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def decompose(self, query_region: Predicate | None = None) -> CellDecomposition:
        """Enumerate satisfiable cells, optionally pushing down a query region."""
        statistics = DecompositionStatistics(num_constraints=len(self._pcset))
        query_box = query_region.to_box() if query_region is not None else None
        if len(self._pcset) == 0:
            return CellDecomposition([], statistics, query_region)
        if self._pcset.is_pairwise_disjoint():
            cells = self._decompose_disjoint(query_box, statistics)
        elif self._strategy is DecompositionStrategy.NAIVE:
            cells = self._decompose_naive(query_box, statistics)
        else:
            use_rewrite = self._strategy is DecompositionStrategy.DFS_REWRITE
            cells = self._decompose_dfs(query_box, statistics, use_rewrite)
        statistics.satisfiable_cells = len(cells)
        # The tally lives at the enumeration site — not at the cache/merge
        # layers above — so serial, thread-pooled and process-pooled
        # enumerations all charge their satisfiability-solver calls to
        # whichever span actually ran them, exactly once.
        from ..obs.trace import get_tracer

        get_tracer().add("solver_calls", statistics.solver_calls)
        return CellDecomposition(cells, statistics, query_region)

    # ------------------------------------------------------------------ #
    # Disjoint fast path (paper §4.2, "Faster Algorithm in Special Cases")
    # ------------------------------------------------------------------ #
    def _decompose_disjoint(self, query_box: Box | None,
                            statistics: DecompositionStatistics) -> list[Cell]:
        cells: list[Cell] = []
        for index, box in enumerate(self._boxes):
            statistics.cells_evaluated += 1
            positives = [box] if query_box is None else [box, query_box]
            statistics.solver_calls += 1
            if self._solver.is_satisfiable(positives, []):
                cells.append(Cell(frozenset({index})))
        return cells

    # ------------------------------------------------------------------ #
    # Naive enumeration: one full satisfiability check per subset
    # ------------------------------------------------------------------ #
    def _decompose_naive(self, query_box: Box | None,
                         statistics: DecompositionStatistics) -> list[Cell]:
        count = len(self._boxes)
        cells: list[Cell] = []
        for bitmask in range(1, 1 << count):
            covering = frozenset(
                index for index in range(count) if bitmask & (1 << index)
            )
            statistics.cells_evaluated += 1
            statistics.solver_calls += 1
            if self._check(covering, query_box):
                cells.append(Cell(covering))
        # The all-negated cell is also "evaluated" by the naive scheme even
        # though it can never contribute to a bound (no covering constraint).
        statistics.cells_evaluated += 1
        statistics.solver_calls += 1
        self._check(frozenset(), query_box)
        return cells

    # ------------------------------------------------------------------ #
    # DFS enumeration with optional rewriting and early stopping
    # ------------------------------------------------------------------ #
    def _decompose_dfs(self, query_box: Box | None,
                       statistics: DecompositionStatistics,
                       use_rewrite: bool) -> list[Cell]:
        boxes = self._boxes
        count = len(boxes)
        solver = self._solver
        stop_depth = count if self._early_stop_depth is None else min(
            count, max(self._early_stop_depth, 0))
        use_witness = use_rewrite and self._witness_exact
        free = self._free_attributes
        cells: list[Cell] = []

        def complete(witness: dict[str, object] | None
                     ) -> dict[str, object] | None:
            if witness is None or not use_witness:
                return None
            for attribute in free:
                witness.setdefault(attribute, 0.0)
            return witness

        def decide(region: Box, relevant: list[Box]
                   ) -> tuple[bool, dict[str, object] | None]:
            statistics.cells_evaluated += 1
            statistics.solver_calls += 1
            satisfiable, witness = solver.decide(region, relevant)
            return satisfiable, complete(witness)

        def assume(depth: int, included: tuple[int, ...]) -> None:
            # Early stopping (Optimisation 4): every prefix is satisfiable.
            if depth == count:
                if included:
                    cells.append(Cell(frozenset(included)))
                return
            statistics.assumed_satisfiable += 2
            assume(depth + 1, included + (depth,))
            assume(depth + 1, included)

        # ``region`` is domain ∧ query ∧ the included boxes; ``relevant``
        # holds the excluded boxes that intersect it, in index order; and
        # ``witness`` (when known) is a point of the region outside them.
        def recurse(depth: int, included: tuple[int, ...], region: Box,
                    relevant: list[Box],
                    witness: dict[str, object] | None) -> None:
            if depth == count:
                if included:
                    cells.append(Cell(frozenset(included)))
                return
            if depth >= stop_depth:
                assume(depth, included)
                return
            box = boxes[depth]
            inside = witness is not None and box.contains_point(witness)

            # Branch 1: include psi_depth.
            with_included = included + (depth,)
            inner = region.intersect(box)
            inner_empty = not inside and inner.is_empty()
            inner_relevant = [] if inner_empty else [
                other for other in relevant if inner.intersects(other)]
            if inside:
                statistics.rewrites_saved += 1
                self._on_witness(with_included, depth + 1, witness)
                include_satisfiable, include_witness = True, witness
            elif inner_empty:
                # Empty intersection: still a decision, just a cheap one.
                statistics.cells_evaluated += 1
                statistics.solver_calls += 1
                include_satisfiable, include_witness = False, None
            else:
                include_satisfiable, include_witness = decide(
                    inner, inner_relevant)
            if include_satisfiable:
                recurse(depth + 1, with_included, inner, inner_relevant,
                        include_witness)
            else:
                statistics.subtrees_pruned += 1

            # Branch 2: exclude psi_depth (i.e. conjoin its negation).
            outer_relevant = (relevant + [box]
                              if inside or region.intersects(box) else relevant)
            if witness is not None and not inside:
                # The witness lies outside psi_depth, so it proves the
                # exclude child — the rewriting rule is the special case
                # where the include child is UNSAT.
                statistics.rewrites_saved += 1
                self._on_witness(included, depth + 1, witness)
                exclude_satisfiable, exclude_witness = True, witness
            elif use_rewrite and not include_satisfiable:
                # Rewriting without a witness: the parent prefix was
                # satisfiable (otherwise we would not be here) and adding
                # psi made it unsatisfiable, hence adding NOT psi keeps it
                # satisfiable.
                statistics.rewrites_saved += 1
                exclude_satisfiable, exclude_witness = True, None
            else:
                exclude_satisfiable, exclude_witness = decide(
                    region, outer_relevant)
            if exclude_satisfiable:
                recurse(depth + 1, included, region, outer_relevant,
                        exclude_witness)
            else:
                statistics.subtrees_pruned += 1

        root = solver.domain_box()
        if query_box is not None:
            root = root.intersect(query_box)
        recurse(0, (), root, [],
                None if root.is_empty() else complete(root.sample_point()))
        return cells

    def _on_witness(self, included: tuple[int, ...], decided: int,
                    witness: dict[str, object]) -> None:
        """Hook: ``witness`` settled the child that includes exactly
        ``included`` among the first ``decided`` constraints.

        A no-op; tests override it to audit every certificate the DFS
        trusts in place of a solver call.
        """

    # ------------------------------------------------------------------ #
    # Satisfiability helpers
    # ------------------------------------------------------------------ #
    def _check(self, covering: frozenset[int], query_box: Box | None) -> bool:
        included = tuple(sorted(covering))
        excluded = tuple(index for index in range(len(self._boxes))
                         if index not in covering)
        return self._check_partial(included, excluded, query_box)

    def _check_partial(self, included: Sequence[int], excluded: Sequence[int],
                       query_box: Box | None) -> bool:
        positives = [self._boxes[index] for index in included]
        if query_box is not None:
            positives.append(query_box)
        negatives = [self._boxes[index] for index in excluded]
        return self._solver.is_satisfiable(positives, negatives)


def _witness_exact(boxes: Sequence[Box],
                   domains: Mapping[str, AttributeDomain]) -> bool:
    """Whether a witness point settles a check exactly as the solver would.

    The solver's split of ``region ∧ ¬C`` is the pointwise difference of
    the two boxes when every integral interval of ``C`` has integer (or
    infinite) bounds on an integral-domain attribute — so regions are
    integral there too — and every categorical set of ``C`` lies on a
    categorical-domain attribute.  Other sets (mixed integrality,
    fractional integral bounds, undeclared categoricals) keep the plain
    rewriting rule.
    """
    for box in boxes:
        for attribute, constraint in box.constraints.items():
            domain = domains.get(attribute)
            if isinstance(constraint, CategoricalSet):
                if domain is None or domain.is_numeric:
                    return False
            elif domain is not None and not domain.is_numeric:
                return False
            elif constraint.integral and not (
                    domain is not None and domain.interval.integral
                    and _exact_integer(constraint.low)
                    and _exact_integer(constraint.high)):
                return False
    return True


def _exact_integer(bound: float) -> bool:
    return math.isinf(bound) or (float(bound).is_integer()
                                 and abs(bound) < 2 ** 53)


# --------------------------------------------------------------------- #
# Reusable decompositions
# --------------------------------------------------------------------- #
def decomposition_cache_key(namespace: object,
                            query_region: Predicate | None) -> tuple:
    """The cache key under which one decomposition is stored.

    ``namespace`` identifies the constraint set *and* the decomposition
    strategy (the service layer derives it from content fingerprints so
    equal constraint sets share entries across analyzers); the query region
    completes the key because predicate pushdown makes the cell list
    region-specific.  :class:`~repro.core.predicates.Predicate` hashes by
    content, so syntactically equal regions collide as intended.

    Region *slices* share this key space: the region-sharded fan-out stores
    each shard's decomposition under ``(namespace, sub_region)`` (see
    :func:`repro.plan.sharding.slice_cache_keys`), because a shard's
    decomposition is definitionally the decomposition of its sub-region.
    Whole-region entries and slice entries may therefore serve each other —
    an overlapping query recomputes only uncovered slices, and a query
    whose region happens to equal a previous slice reuses it outright.
    """
    return ("decomposition", namespace, query_region)


def _structural_namespace(pcset: PredicateConstraintSet,
                          strategy: DecompositionStrategy,
                          early_stop_depth: int | None) -> tuple:
    """A content-derived namespace for callers that did not supply one.

    Built purely from hashable-by-content pieces (predicates, value and
    frequency constraints, domains, strategy knobs), so two equal constraint
    sets share cache entries while *any* difference — including the
    decomposition strategy — keys separately.  Keying by object identity
    instead would be unsound: a shared cache would hand one set's cells to
    another.
    """
    constraints = tuple((pc.predicate, pc.values, pc.frequency)
                        for pc in pcset)
    domains = frozenset(pcset.domains.items())
    return (constraints, domains, strategy, early_stop_depth)


def decompose_cached(
    pcset: PredicateConstraintSet,
    query_region: Predicate | None = None,
    *,
    strategy: DecompositionStrategy = DecompositionStrategy.DFS_REWRITE,
    early_stop_depth: int | None = None,
    cache=None,
    namespace: object = None,
    on_compute: Callable[[CellDecomposition], None] | None = None,
    compute_override: Callable[[], CellDecomposition] | None = None,
) -> CellDecomposition:
    """Decompose ``pcset``, reusing a previously computed decomposition.

    This is the single entry point through which the bounding engine and the
    service layer obtain decompositions: callers that pass a ``cache`` (any
    object with ``get_or_compute(key, factory)``, e.g.
    :class:`repro.service.LRUCache`) skip the exponential cell enumeration
    whenever an equal (namespace, region) pair was decomposed before —
    across queries, analyzers and threads.  ``on_compute`` fires only for
    fresh decompositions, which is how callers keep exact solver-call
    accounting even when most traffic is cache hits.

    ``compute_override`` swaps in an alternative way of *producing* the same
    decomposition on a cache miss — the region-sharded fan-out passes one
    that unions pool-computed sub-region cells — while caching, keying and
    ``on_compute`` accounting stay exactly as for an inline enumeration.
    The override must return a decomposition equal to what the inline path
    would compute (the region splitter's cell-union equality is argued in
    :mod:`repro.plan.sharding`); anything else would poison shared caches.

    ``namespace`` defaults to a structural key derived from the constraint
    set's content and the strategy knobs, so omitting it is always sound;
    pass one explicitly (e.g. a service-layer fingerprint) only to make the
    key cheaper or stable across processes.
    """

    def compute() -> CellDecomposition:
        if compute_override is not None:
            decomposition = compute_override()
        else:
            decomposer = CellDecomposer(pcset, strategy, early_stop_depth)
            decomposition = decomposer.decompose(query_region)
        if on_compute is not None:
            on_compute(decomposition)
        return decomposition

    if cache is None:
        return compute()
    if namespace is None:
        namespace = _structural_namespace(pcset, strategy, early_stop_depth)
    return cache.get_or_compute(decomposition_cache_key(namespace, query_region),
                                compute)
