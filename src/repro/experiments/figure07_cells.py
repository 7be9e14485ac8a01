"""Figure 7: cell-decomposition optimisations.

Twenty heavily overlapping random predicate-constraints are decomposed with
three strategies — naive enumeration, DFS pruning, and DFS pruning plus
expression rewriting — and the number of satisfiability checks each strategy
issues is recorded.  Expected shape: DFS prunes the overwhelming majority of
the ``2^n`` cells and rewriting removes a further constant fraction of the
remaining solver calls (the paper reports >1000x fewer cells evaluated).

Naive and DFS decide every child, as in the paper.  Our ``dfs-rewrite``
generalises rewriting with a carried witness point that settles one of the
two children of every DFS node, where the paper's rule saves only the
exclude children of UNSAT include children.  Its ``solver_calls +
rewrites_saved`` equals DFS's ``solver_calls``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.builders import build_random_overlapping_boxes
from ..core.cells import CellDecomposer, DecompositionStrategy
from ..datasets.intel_wireless import generate_intel_wireless
from ..relational.relation import Relation
from .reporting import format_mapping_table

__all__ = ["Figure7Config", "Figure7Result", "run_figure7"]


@dataclass
class Figure7Config:
    """Scale knobs for the Figure 7 reproduction.

    The naive strategy enumerates ``2^n`` cells, so its cost grows quickly;
    14 constraints keeps the comparison faithful (16k cells) while finishing
    in seconds.  Increase ``num_constraints`` to 20 for the paper's setting.
    """

    num_constraints: int = 14
    num_rows: int = 5_000
    seed: int = 7
    include_naive: bool = True


@dataclass
class Figure7Result:
    """Cells evaluated / solver calls per decomposition strategy."""

    rows: list[dict[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        return ("Figure 7 — cells evaluated during decomposition\n"
                + format_mapping_table(self.rows))

    def cells_evaluated(self, strategy: str) -> int:
        for row in self.rows:
            if row["strategy"] == strategy:
                return int(row["cells_evaluated"])
        raise KeyError(strategy)


def _overlapping_constraints(config: Figure7Config) -> tuple[Relation, object]:
    relation = generate_intel_wireless(num_rows=config.num_rows, seed=config.seed)
    pcset = build_random_overlapping_boxes(
        relation, ["device_id", "time"], config.num_constraints,
        value_attributes=["light"], rng=np.random.default_rng(config.seed),
        include_catch_all=False)
    # The stress test wants the overlapping structure analysed in full, so
    # drop the structural hints a builder might have set.
    pcset.mark_disjoint(False)
    return relation, pcset


def run_figure7(config: Figure7Config | None = None) -> Figure7Result:
    """Reproduce Figure 7: number of cells evaluated per strategy."""
    config = config or Figure7Config()
    _, pcset = _overlapping_constraints(config)
    strategies = []
    if config.include_naive:
        strategies.append(DecompositionStrategy.NAIVE)
    strategies.extend([DecompositionStrategy.DFS, DecompositionStrategy.DFS_REWRITE])

    result = Figure7Result()
    for strategy in strategies:
        decomposer = CellDecomposer(pcset, strategy)
        decomposition = decomposer.decompose()
        stats = decomposition.statistics
        result.rows.append({
            "strategy": strategy.value,
            "cells_evaluated": stats.cells_evaluated,
            "solver_calls": stats.solver_calls,
            "rewrites_saved": stats.rewrites_saved,
            "satisfiable_cells": stats.satisfiable_cells,
        })
    return result


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_figure7().to_text())
