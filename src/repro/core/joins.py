"""Bounds for aggregate queries over natural joins (paper §5).

Two bounding strategies are implemented:

* :func:`naive_join_bound` — treat the join as a Cartesian product of
  per-relation bounds (§5.1).  Always valid, often very loose, and the
  baseline our experiments compare against.
* :func:`fec_join_bound` — the paper's tighter bound built on Friedgut's
  Generalised Weighted Entropy inequality and a fractional edge cover of the
  join hypergraph (§5.2).  For a COUNT query this reduces to an AGM-style
  bound ``prod_i COUNT_i ** c_i``; for SUM(A) the relation carrying ``A`` is
  pinned with weight 1 and contributes its SUM bound instead of its COUNT
  bound.

Both strategies consume per-relation :class:`JoinRelationSpec` descriptions:
the relation's predicate-constraint set and the join attributes it spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ..exceptions import JoinBoundError
from ..relational.aggregates import AggregateFunction
from ..solvers.fec import FractionalEdgeCover, JoinHypergraph, solve_fractional_edge_cover
from .bounds import BoundOptions, PCBoundSolver
from .pcset import PredicateConstraintSet
from .predicates import Predicate

__all__ = ["JoinRelationSpec", "JoinBound", "naive_join_bound", "fec_join_bound",
           "JoinBoundAnalyzer"]

_INF = float("inf")


@dataclass
class JoinRelationSpec:
    """One relation participating in a natural-join query.

    Parameters
    ----------
    name:
        The relation's name (unique within the join).
    pcset:
        Predicate-constraints describing the relation's (missing) rows.
    join_attributes:
        The attributes this relation contributes to the join hypergraph.
        Attributes with equal names join naturally.
    region:
        Optional per-relation selection predicate pushed into the bound.
    """

    name: str
    pcset: PredicateConstraintSet
    join_attributes: tuple[str, ...]
    region: Predicate | None = None

    def __post_init__(self) -> None:
        if not self.join_attributes:
            raise JoinBoundError(
                f"relation {self.name!r} must declare at least one join attribute"
            )
        self.join_attributes = tuple(self.join_attributes)


@dataclass(frozen=True)
class JoinBound:
    """The result of bounding an aggregate over a join."""

    upper: float
    method: str
    per_relation_counts: dict[str, float] = field(default_factory=dict)
    per_relation_sums: dict[str, float] = field(default_factory=dict)
    edge_cover: FractionalEdgeCover | None = None

    def __str__(self) -> str:
        return f"JoinBound({self.method}: {self.upper})"


def _relation_count_upper(spec: JoinRelationSpec, options: BoundOptions) -> float:
    solver = PCBoundSolver(spec.pcset, options)
    bound = solver.bound(AggregateFunction.COUNT, None, spec.region)
    return bound.upper if bound.upper is not None else _INF


def _relation_sum_upper(spec: JoinRelationSpec, attribute: str,
                        options: BoundOptions) -> float:
    solver = PCBoundSolver(spec.pcset, options)
    bound = solver.bound(AggregateFunction.SUM, attribute, spec.region)
    return bound.upper if bound.upper is not None else _INF


def naive_join_bound(specs: Sequence[JoinRelationSpec],
                     aggregate: AggregateFunction = AggregateFunction.COUNT,
                     attribute: str | None = None,
                     attribute_relation: str | None = None,
                     options: BoundOptions | None = None) -> JoinBound:
    """Cartesian-product bound (paper §5.1).

    For COUNT the bound is the product of per-relation COUNT upper bounds;
    for SUM(A) it is SUM(A)'s bound on its home relation multiplied by the
    COUNT bounds of every other relation.
    """
    _validate_specs(specs)
    options = options or BoundOptions()
    counts = {spec.name: _relation_count_upper(spec, options) for spec in specs}
    sums: dict[str, float] = {}
    if aggregate is AggregateFunction.COUNT:
        upper = _product(counts.values())
    elif aggregate is AggregateFunction.SUM:
        home = _resolve_home_relation(specs, attribute, attribute_relation)
        sums[home.name] = _relation_sum_upper(home, attribute, options)
        upper = sums[home.name]
        for spec in specs:
            if spec.name != home.name:
                upper *= counts[spec.name]
    else:
        raise JoinBoundError(
            f"join bounds support COUNT and SUM, not {aggregate.value}"
        )
    return JoinBound(upper=upper, method="naive", per_relation_counts=counts,
                     per_relation_sums=sums)


def fec_join_bound(specs: Sequence[JoinRelationSpec],
                   aggregate: AggregateFunction = AggregateFunction.COUNT,
                   attribute: str | None = None,
                   attribute_relation: str | None = None,
                   options: BoundOptions | None = None) -> JoinBound:
    """Fractional-edge-cover / GWE bound (paper §5.2).

    The per-relation COUNT (and, for SUM, the home relation's SUM) upper
    bounds are first computed with the single-table machinery of §4; the LP
    then finds the fractional edge cover minimising the certified product
    bound.
    """
    _validate_specs(specs)
    options = options or BoundOptions()
    hypergraph = JoinHypergraph.from_mapping(
        {spec.name: spec.join_attributes for spec in specs})
    counts = {spec.name: _relation_count_upper(spec, options) for spec in specs}
    sums: dict[str, float] = {}

    pinned: str | None = None
    log_sizes: dict[str, float] = {}
    if aggregate is AggregateFunction.SUM:
        home = _resolve_home_relation(specs, attribute, attribute_relation)
        pinned = home.name
        sums[home.name] = _relation_sum_upper(home, attribute, options)
    elif aggregate is not AggregateFunction.COUNT:
        raise JoinBoundError(
            f"join bounds support COUNT and SUM, not {aggregate.value}"
        )

    for spec in specs:
        size = sums[spec.name] if spec.name == pinned else counts[spec.name]
        if size <= 0:
            # A relation bounded at zero rows (or zero sum) forces the whole
            # join (or the whole SUM) to zero.
            return JoinBound(upper=0.0, method="fractional-edge-cover",
                             per_relation_counts=counts, per_relation_sums=sums)
        if math.isinf(size):
            return JoinBound(upper=_INF, method="fractional-edge-cover",
                             per_relation_counts=counts, per_relation_sums=sums)
        log_sizes[spec.name] = math.log(size)

    cover = solve_fractional_edge_cover(hypergraph, log_sizes, pinned_relation=pinned)
    return JoinBound(upper=cover.bound, method="fractional-edge-cover",
                     per_relation_counts=counts, per_relation_sums=sums,
                     edge_cover=cover)


class JoinBoundAnalyzer:
    """Facade for bounding COUNT/SUM aggregates over a natural join."""

    def __init__(self, specs: Sequence[JoinRelationSpec],
                 options: BoundOptions | None = None):
        _validate_specs(specs)
        self._specs = list(specs)
        self._options = options or BoundOptions()

    @property
    def specs(self) -> tuple[JoinRelationSpec, ...]:
        return tuple(self._specs)

    def count_bound(self, method: str = "fec") -> JoinBound:
        """Upper bound on the join cardinality."""
        if method == "naive":
            return naive_join_bound(self._specs, AggregateFunction.COUNT,
                                    options=self._options)
        return fec_join_bound(self._specs, AggregateFunction.COUNT,
                              options=self._options)

    def sum_bound(self, attribute: str, relation: str | None = None,
                  method: str = "fec") -> JoinBound:
        """Upper bound on SUM(attribute) over the join result."""
        if method == "naive":
            return naive_join_bound(self._specs, AggregateFunction.SUM,
                                    attribute=attribute,
                                    attribute_relation=relation,
                                    options=self._options)
        return fec_join_bound(self._specs, AggregateFunction.SUM,
                              attribute=attribute, attribute_relation=relation,
                              options=self._options)

    def compare(self, aggregate: AggregateFunction = AggregateFunction.COUNT,
                attribute: str | None = None,
                relation: str | None = None) -> dict[str, JoinBound]:
        """Both bounds side by side (used by the Figure 12 experiments)."""
        if aggregate is AggregateFunction.COUNT:
            return {"naive": self.count_bound("naive"),
                    "fec": self.count_bound("fec")}
        if attribute is None:
            raise JoinBoundError("SUM comparison requires an attribute")
        return {"naive": self.sum_bound(attribute, relation, "naive"),
                "fec": self.sum_bound(attribute, relation, "fec")}


# ------------------------------------------------------------------ #
# Helpers
# ------------------------------------------------------------------ #
def _validate_specs(specs: Sequence[JoinRelationSpec]) -> None:
    if not specs:
        raise JoinBoundError("a join bound needs at least one relation")
    names = [spec.name for spec in specs]
    if len(names) != len(set(names)):
        raise JoinBoundError(f"duplicate relation names in join: {names}")


def _resolve_home_relation(specs: Sequence[JoinRelationSpec],
                           attribute: str | None,
                           attribute_relation: str | None) -> JoinRelationSpec:
    if attribute is None:
        raise JoinBoundError("SUM join bounds require the aggregated attribute")
    if attribute_relation is not None:
        for spec in specs:
            if spec.name == attribute_relation:
                return spec
        raise JoinBoundError(
            f"relation {attribute_relation!r} not found among join inputs")
    owners = [spec for spec in specs
              if attribute in spec.pcset.attributes()
              or attribute in spec.join_attributes]
    if len(owners) != 1:
        raise JoinBoundError(
            f"cannot infer which relation carries attribute {attribute!r}; "
            "pass attribute_relation explicitly"
        )
    return owners[0]


def _product(values) -> float:
    result = 1.0
    for value in values:
        if math.isinf(value):
            return _INF
        result *= value
    return result
