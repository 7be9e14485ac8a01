"""Predicate-constraints: value constraints, frequency constraints and the
three-tuple that combines them with a predicate (paper §3.1).

A :class:`PredicateConstraint` states that, over the unknown partition of a
relation, *every row satisfying the predicate has attribute values inside
the value constraint, and the number of such rows lies inside the frequency
constraint*.  The satisfaction relation ``R |= pi`` of Definition 3.1 is
implemented by :meth:`PredicateConstraint.is_satisfied_by`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..exceptions import ConstraintError
from ..relational.relation import Relation
from .predicates import Predicate

__all__ = ["ValueConstraint", "FrequencyConstraint", "PredicateConstraint",
           "ConstraintViolation"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class ValueConstraint:
    """Per-attribute value ranges for rows matching a predicate.

    ``nu = {(l1, h1), ..., (lp, hp)}`` in the paper's notation.  Attributes
    not mentioned are unconstrained (their range is the full real line).
    """

    def __init__(self, bounds: Mapping[str, tuple[float, float]] | None = None):
        self._bounds: dict[str, tuple[float, float]] = {}
        for attribute, (low, high) in (bounds or {}).items():
            if low > high:
                raise ConstraintError(
                    f"value constraint on {attribute!r} has low {low} > high {high}"
                )
            self._bounds[attribute] = (float(low), float(high))

    @classmethod
    def unconstrained(cls) -> "ValueConstraint":
        return cls()

    @property
    def bounds(self) -> dict[str, tuple[float, float]]:
        return dict(self._bounds)

    def attributes(self) -> set[str]:
        return set(self._bounds)

    def constrains(self, attribute: str) -> bool:
        return attribute in self._bounds

    def lower(self, attribute: str) -> float:
        """The lower value bound for ``attribute`` (-inf when unconstrained)."""
        return self._bounds.get(attribute, (_NEG_INF, _POS_INF))[0]

    def upper(self, attribute: str) -> float:
        """The upper value bound for ``attribute`` (+inf when unconstrained)."""
        return self._bounds.get(attribute, (_NEG_INF, _POS_INF))[1]

    def interval(self, attribute: str) -> tuple[float, float]:
        return self._bounds.get(attribute, (_NEG_INF, _POS_INF))

    def satisfied_by_row(self, row: Mapping[str, object]) -> bool:
        """Whether a concrete row respects every declared range."""
        for attribute, (low, high) in self._bounds.items():
            if attribute not in row:
                return False
            value = row[attribute]
            if not isinstance(value, (int, float)):
                return False
            if not low <= float(value) <= high:
                return False
        return True

    def intersect(self, other: "ValueConstraint") -> "ValueConstraint":
        """The most restrictive combination of two value constraints.

        Used during cell decomposition: a cell covered by several
        predicate-constraints inherits the tightest range on every attribute.
        The result may be empty on some attribute; we keep the raw
        ``(low, high)`` pair and let the caller decide (an empty value range
        forces the cell's allocation to zero).
        """
        merged: dict[str, tuple[float, float]] = dict(self._bounds)
        for attribute, (low, high) in other._bounds.items():
            if attribute in merged:
                current_low, current_high = merged[attribute]
                merged[attribute] = (max(current_low, low), min(current_high, high))
            else:
                merged[attribute] = (low, high)
        constraint = ValueConstraint()
        constraint._bounds = merged
        return constraint

    def is_empty_on(self, attribute: str) -> bool:
        low, high = self.interval(attribute)
        return low > high

    def widened(self, delta: Mapping[str, float]) -> "ValueConstraint":
        """Return a copy with each attribute's range widened by ``delta``.

        Used by the noise-injection workload (paper §6.3.2) and by users who
        want safety margins on hand-written constraints.
        """
        widened: dict[str, tuple[float, float]] = {}
        for attribute, (low, high) in self._bounds.items():
            amount = float(delta.get(attribute, 0.0))
            widened[attribute] = (low - amount, high + amount)
        return ValueConstraint(widened)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueConstraint):
            return NotImplemented
        return self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash(frozenset(self._bounds.items()))

    def __repr__(self) -> str:
        if not self._bounds:
            return "ValueConstraint(unconstrained)"
        parts = ", ".join(
            f"{low} <= {attribute} <= {high}"
            for attribute, (low, high) in sorted(self._bounds.items())
        )
        return f"ValueConstraint({parts})"


@dataclass(frozen=True)
class FrequencyConstraint:
    """Bounds on how many unknown rows match the predicate.

    ``kappa = (kl, ku)`` in the paper: at least ``lower`` and at most
    ``upper`` matching rows.
    """

    lower: int = 0
    upper: int = 0

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < 0:
            raise ConstraintError(
                f"frequency bounds must be non-negative, got ({self.lower}, {self.upper})"
            )
        if self.lower > self.upper:
            raise ConstraintError(
                f"frequency lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @classmethod
    def at_most(cls, upper: int) -> "FrequencyConstraint":
        return cls(0, upper)

    @classmethod
    def exactly(cls, count: int) -> "FrequencyConstraint":
        return cls(count, count)

    @classmethod
    def between(cls, lower: int, upper: int) -> "FrequencyConstraint":
        return cls(lower, upper)

    def contains(self, count: int) -> bool:
        return self.lower <= count <= self.upper

    def scaled(self, factor: float) -> "FrequencyConstraint":
        """A copy with both bounds scaled (floor/ceil to stay conservative)."""
        if factor < 0:
            raise ConstraintError("frequency scale factor must be non-negative")
        return FrequencyConstraint(int(math.floor(self.lower * factor)),
                                   int(math.ceil(self.upper * factor)))

    def __repr__(self) -> str:
        return f"({self.lower}, {self.upper})"


@dataclass(frozen=True)
class ConstraintViolation:
    """A single way in which observed rows violated a predicate-constraint."""

    constraint_name: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.constraint_name}] {self.kind}: {self.detail}"


class PredicateConstraint:
    """The paper's three-tuple ``pi = (psi, nu, kappa)``.

    Parameters
    ----------
    predicate:
        Which unknown rows the constraint talks about.
    values:
        Attribute ranges those rows must respect.
    frequency:
        How many such rows may exist.
    name:
        Optional label used in reports and error messages.
    """

    def __init__(self, predicate: Predicate, values: ValueConstraint,
                 frequency: FrequencyConstraint, name: str | None = None):
        self.predicate = predicate
        self.values = values
        self.frequency = frequency
        self.name = name or "pc"

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, predicate: Predicate,
              value_bounds: Mapping[str, tuple[float, float]],
              max_rows: int, min_rows: int = 0,
              name: str | None = None) -> "PredicateConstraint":
        """Terse constructor used throughout the examples and tests."""
        return cls(predicate, ValueConstraint(value_bounds),
                   FrequencyConstraint(min_rows, max_rows), name=name)

    # ------------------------------------------------------------------ #
    # Satisfaction (Definition 3.1)
    # ------------------------------------------------------------------ #
    def is_satisfied_by(self, relation: Relation) -> bool:
        """``R |= pi``: check the definition directly against a relation."""
        return not self.violations(relation)

    def violations(self, relation: Relation) -> list[ConstraintViolation]:
        """All the ways ``relation`` violates this constraint (possibly empty).

        This is the "efficiently testable on historical data" property the
        paper emphasises: users can check whether their constraints held in
        the past before trusting them about the future.
        """
        found: list[ConstraintViolation] = []
        mask = self.predicate.to_expression().evaluate(relation)
        matching = relation.filter(mask)
        count = matching.num_rows
        if not self.frequency.contains(count):
            found.append(ConstraintViolation(
                self.name, "frequency",
                f"{count} matching rows, allowed {self.frequency!r}"))
        for attribute, (low, high) in self.values.bounds.items():
            if attribute not in relation.schema:
                found.append(ConstraintViolation(
                    self.name, "schema",
                    f"value-constrained attribute {attribute!r} missing from relation"))
                continue
            if matching.num_rows == 0:
                continue
            observed_low = matching.column_min(attribute)
            observed_high = matching.column_max(attribute)
            if observed_low < low or observed_high > high:
                found.append(ConstraintViolation(
                    self.name, "value",
                    f"{attribute!r} observed in [{observed_low}, {observed_high}], "
                    f"allowed [{low}, {high}]"))
        return found

    # ------------------------------------------------------------------ #
    # Accessors used by the bounding engine
    # ------------------------------------------------------------------ #
    def max_rows(self) -> int:
        return self.frequency.upper

    def min_rows(self) -> int:
        return self.frequency.lower

    def value_upper(self, attribute: str) -> float:
        """Upper value bound for ``attribute`` considering predicate equalities.

        If the predicate itself pins the attribute to a range (e.g. a
        histogram-style tautology ``a in [2, 4] => a in [2, 4]``), that range
        also bounds the attribute's value even when the value constraint does
        not mention it.
        """
        bound = self.values.upper(attribute)
        predicate_range = self.predicate.range_for(attribute)
        if predicate_range is not None:
            bound = min(bound, predicate_range.high)
        return bound

    def value_lower(self, attribute: str) -> float:
        """Lower value bound for ``attribute`` (see :meth:`value_upper`)."""
        bound = self.values.lower(attribute)
        predicate_range = self.predicate.range_for(attribute)
        if predicate_range is not None:
            bound = max(bound, predicate_range.low)
        return bound

    def rename(self, name: str) -> "PredicateConstraint":
        return PredicateConstraint(self.predicate, self.values, self.frequency, name)

    def __repr__(self) -> str:
        return (f"PredicateConstraint({self.name!r}: {self.predicate!r} => "
                f"{self.values!r}, {self.frequency!r})")
