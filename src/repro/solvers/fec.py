"""Fractional edge cover LP for join bounds (paper §5.2).

A natural-join query is modelled as a hypergraph: each relation is a
hyper-edge over the set of join attributes it contains.  A *fractional edge
cover* assigns a non-negative weight ``c_i`` to every relation such that
every attribute is covered with total weight at least one.  The paper's
Generalised Weighted Entropy bound then reads::

    SUM(A) over the join  <=  SUM(A) on R_a  *  prod_{i != a} COUNT(R_i)^{c_i}

with ``c_a`` fixed to 1 for the relation ``R_a`` carrying the aggregated
attribute (for COUNT bounds no relation is pinned).  Taking logarithms makes
the tightest-bound problem a linear program: minimise
``sum_i c_i * log(COUNT_i)`` subject to the cover constraints.

This module provides the hypergraph model and the LP solve.  The AGM-style
count bound (no pinned relation) and the GWE sum bound (pinned relation) are
both supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..exceptions import JoinBoundError
from .lp import LinearProgram, Sense

__all__ = ["Hyperedge", "JoinHypergraph", "FractionalEdgeCover", "solve_fractional_edge_cover"]


@dataclass(frozen=True)
class Hyperedge:
    """One relation in the join hypergraph.

    ``attributes`` are the join-relevant attribute names; attributes shared
    by several relations are considered identical (the natural-join
    convention the paper adopts).
    """

    name: str
    attributes: frozenset[str]

    @classmethod
    def of(cls, name: str, attributes: Iterable[str]) -> "Hyperedge":
        attrs = frozenset(attributes)
        if not attrs:
            raise JoinBoundError(f"relation {name!r} must span at least one attribute")
        return cls(name, attrs)


@dataclass
class FractionalEdgeCover:
    """A fractional edge cover and the bound value it certifies."""

    weights: dict[str, float]
    log_bound: float
    pinned_relation: str | None = None

    @property
    def bound(self) -> float:
        """The multiplicative bound ``prod_i count_i ** c_i`` (may overflow to inf)."""
        try:
            return math.exp(self.log_bound)
        except OverflowError:
            return float("inf")

    def weight(self, relation: str) -> float:
        return self.weights.get(relation, 0.0)


class JoinHypergraph:
    """The hypergraph of a natural-join query."""

    def __init__(self, edges: Sequence[Hyperedge] | None = None):
        self._edges: list[Hyperedge] = list(edges or [])
        self._validate()

    @classmethod
    def from_mapping(cls, relations: Mapping[str, Iterable[str]]) -> "JoinHypergraph":
        """Build from ``{relation_name: [attribute, ...]}``."""
        return cls([Hyperedge.of(name, attrs) for name, attrs in relations.items()])

    def _validate(self) -> None:
        names = [edge.name for edge in self._edges]
        if len(names) != len(set(names)):
            raise JoinBoundError(f"duplicate relation names in hypergraph: {names}")

    def add_relation(self, name: str, attributes: Iterable[str]) -> None:
        self._edges.append(Hyperedge.of(name, attributes))
        self._validate()

    @property
    def edges(self) -> tuple[Hyperedge, ...]:
        return tuple(self._edges)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(edge.name for edge in self._edges)

    @property
    def attributes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for edge in self._edges:
            for attribute in sorted(edge.attributes):
                seen.setdefault(attribute, None)
        return tuple(seen)

    def relations_covering(self, attribute: str) -> tuple[str, ...]:
        return tuple(edge.name for edge in self._edges if attribute in edge.attributes)

    def __len__(self) -> int:
        return len(self._edges)


def solve_fractional_edge_cover(
    hypergraph: JoinHypergraph,
    log_sizes: Mapping[str, float],
    pinned_relation: str | None = None,
) -> FractionalEdgeCover:
    """Find the fractional edge cover minimising the certified bound.

    Parameters
    ----------
    hypergraph:
        The join structure.
    log_sizes:
        ``log`` of the (bounded) cardinality of every relation.  For the GWE
        sum bound the pinned relation's entry should be ``log`` of its
        bounded SUM rather than its COUNT.
    pinned_relation:
        If given, that relation's weight is fixed to 1 (the relation that
        carries the aggregated attribute, §5.2).

    Returns
    -------
    FractionalEdgeCover
        The optimal weights and the log of the certified bound.
    """
    if len(hypergraph) == 0:
        raise JoinBoundError("cannot compute an edge cover of an empty hypergraph")
    missing = [name for name in hypergraph.relation_names if name not in log_sizes]
    if missing:
        raise JoinBoundError(f"missing log-size entries for relations: {missing}")
    if pinned_relation is not None and pinned_relation not in hypergraph.relation_names:
        raise JoinBoundError(
            f"pinned relation {pinned_relation!r} is not part of the hypergraph"
        )

    program = LinearProgram(sense=Sense.MINIMIZE, name="fractional-edge-cover")
    for name in hypergraph.relation_names:
        if pinned_relation is not None and name == pinned_relation:
            program.add_variable(name, lower=1.0, upper=1.0)
        else:
            program.add_variable(name, lower=0.0)
    for attribute in hypergraph.attributes:
        covering = hypergraph.relations_covering(attribute)
        if not covering:
            raise JoinBoundError(f"attribute {attribute!r} is not covered by any relation")
        program.add_constraint({name: 1.0 for name in covering}, lower=1.0,
                               name=f"cover[{attribute}]")
    program.set_objective({name: float(log_sizes[name])
                           for name in hypergraph.relation_names})
    solution = program.solve().raise_for_status()
    assert solution.objective is not None
    weights = {name: max(0.0, solution.value(name))
               for name in hypergraph.relation_names}
    return FractionalEdgeCover(weights=weights, log_bound=solution.objective,
                               pinned_relation=pinned_relation)


def fractional_edge_cover_number(hypergraph: JoinHypergraph) -> float:
    """The classic fractional edge cover number ``rho*`` (unit log-sizes).

    ``N ** rho*`` is the AGM bound for relations of uniform size ``N``;
    e.g. the triangle query has ``rho* = 3/2``.
    """
    uniform = {name: 1.0 for name in hypergraph.relation_names}
    return solve_fractional_edge_cover(hypergraph, uniform).log_bound
