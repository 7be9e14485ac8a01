"""Box predicates: the predicate language of predicate-constraints.

The paper restricts predicates to *conjunctions of ranges and equalities*
(§3.1) so that satisfiability testing during cell decomposition stays
tractable.  A :class:`Predicate` is therefore an axis-aligned box over a
mixed numeric/categorical attribute space:

* numeric attributes are constrained to closed intervals
  (``low <= a <= high``), optionally integral;
* categorical attributes are constrained to finite value sets
  (``a = 'Chicago'`` or ``a IN {...}``).

Predicates compile both to :class:`repro.solvers.sat.Box` (for the cell
decomposition's satisfiability checks) and to
:class:`repro.relational.expressions.Expression` (for exact evaluation
against relations when validating constraints or computing ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..exceptions import PredicateError
from ..relational.expressions import (
    Between,
    Expression,
    IsIn,
    TrueExpression,
    conjunction,
)
from ..solvers.sat import Box, CategoricalSet, Interval

__all__ = ["AttributeRange", "AttributeMembership", "Predicate"]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class AttributeRange:
    """A closed numeric range constraint on one attribute."""

    attribute: str
    low: float = _NEG_INF
    high: float = _POS_INF
    integral: bool = False

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise PredicateError(
                f"range on {self.attribute!r} has low {self.low} > high {self.high}"
            )

    def to_interval(self) -> Interval:
        return Interval(self.low, self.high, self.integral)

    def contains(self, value: float) -> bool:
        return self.to_interval().contains(value)

    def intersect(self, other: "AttributeRange") -> "AttributeRange":
        if other.attribute != self.attribute:
            raise PredicateError(
                f"cannot intersect ranges on different attributes "
                f"({self.attribute!r} vs {other.attribute!r})"
            )
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            raise PredicateError(
                f"intersection of ranges on {self.attribute!r} is empty"
            )
        return AttributeRange(self.attribute, low, high,
                              self.integral or other.integral)


@dataclass(frozen=True)
class AttributeMembership:
    """A finite-set membership constraint on one (categorical) attribute."""

    attribute: str
    values: frozenset

    def __post_init__(self) -> None:
        if not self.values:
            raise PredicateError(
                f"membership constraint on {self.attribute!r} must list at least "
                "one value"
            )

    @classmethod
    def of(cls, attribute: str, values: Iterable) -> "AttributeMembership":
        return cls(attribute, frozenset(values))

    def to_set(self) -> CategoricalSet:
        return CategoricalSet(self.values)

    def contains(self, value) -> bool:
        return value in self.values

    def intersect(self, other: "AttributeMembership") -> "AttributeMembership":
        if other.attribute != self.attribute:
            raise PredicateError(
                f"cannot intersect memberships on different attributes "
                f"({self.attribute!r} vs {other.attribute!r})"
            )
        shared = self.values & other.values
        if not shared:
            raise PredicateError(
                f"intersection of membership sets on {self.attribute!r} is empty"
            )
        return AttributeMembership(self.attribute, shared)


class Predicate:
    """A conjunction of per-attribute range/membership constraints.

    The empty conjunction is the tautology ``TRUE`` (matches every row),
    mirroring the paper's ``TRUE => ...`` predicate-constraints.

    Instances are immutable; the fluent builders (:meth:`with_range`,
    :meth:`with_equals`, :meth:`with_membership`) return new predicates with
    the additional conjunct merged in (taking the intersection when the
    attribute is already constrained).
    """

    def __init__(self,
                 ranges: Mapping[str, AttributeRange] | None = None,
                 memberships: Mapping[str, AttributeMembership] | None = None):
        self._ranges: dict[str, AttributeRange] = dict(ranges or {})
        self._memberships: dict[str, AttributeMembership] = dict(memberships or {})
        overlap = set(self._ranges) & set(self._memberships)
        if overlap:
            raise PredicateError(
                f"attributes {sorted(overlap)} have both range and membership "
                "constraints; an attribute is either numeric or categorical"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def true(cls) -> "Predicate":
        """The tautology predicate (matches every possible row)."""
        return cls()

    @classmethod
    def range(cls, attribute: str, low: float = _NEG_INF, high: float = _POS_INF,
              integral: bool = False) -> "Predicate":
        """``low <= attribute <= high``."""
        return cls({attribute: AttributeRange(attribute, low, high, integral)})

    @classmethod
    def equals(cls, attribute: str, value) -> "Predicate":
        """``attribute = value`` (categorical equality)."""
        return cls(memberships={attribute: AttributeMembership.of(attribute, [value])})

    @classmethod
    def isin(cls, attribute: str, values: Iterable) -> "Predicate":
        """``attribute IN (values...)``."""
        return cls(memberships={attribute: AttributeMembership.of(attribute, values)})

    @classmethod
    def box(cls, ranges: Mapping[str, tuple[float, float]],
            memberships: Mapping[str, Iterable] | None = None) -> "Predicate":
        """Build a predicate from plain ``{attr: (low, high)}`` mappings."""
        range_constraints = {
            attribute: AttributeRange(attribute, low, high)
            for attribute, (low, high) in ranges.items()
        }
        membership_constraints = {
            attribute: AttributeMembership.of(attribute, values)
            for attribute, values in (memberships or {}).items()
        }
        return cls(range_constraints, membership_constraints)

    # ------------------------------------------------------------------ #
    # Fluent builders
    # ------------------------------------------------------------------ #
    def with_range(self, attribute: str, low: float = _NEG_INF,
                   high: float = _POS_INF, integral: bool = False) -> "Predicate":
        """Return this predicate with an extra range conjunct."""
        addition = AttributeRange(attribute, low, high, integral)
        ranges = dict(self._ranges)
        if attribute in ranges:
            ranges[attribute] = ranges[attribute].intersect(addition)
        else:
            ranges[attribute] = addition
        return Predicate(ranges, self._memberships)

    def with_equals(self, attribute: str, value) -> "Predicate":
        """Return this predicate with an extra equality conjunct."""
        return self.with_membership(attribute, [value])

    def with_membership(self, attribute: str, values: Iterable) -> "Predicate":
        """Return this predicate with an extra membership conjunct."""
        addition = AttributeMembership.of(attribute, values)
        memberships = dict(self._memberships)
        if attribute in memberships:
            memberships[attribute] = memberships[attribute].intersect(addition)
        else:
            memberships[attribute] = addition
        return Predicate(self._ranges, memberships)

    def conjoin(self, other: "Predicate") -> "Predicate":
        """The conjunction of two predicates.

        Raises
        ------
        PredicateError
            If the conjunction is syntactically empty (disjoint ranges or
            membership sets on a shared attribute).
        """
        result = self
        for attribute, constraint in other._ranges.items():
            result = result.with_range(attribute, constraint.low, constraint.high,
                                       constraint.integral)
        for attribute, constraint in other._memberships.items():
            result = result.with_membership(attribute, constraint.values)
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def ranges(self) -> dict[str, AttributeRange]:
        return dict(self._ranges)

    @property
    def memberships(self) -> dict[str, AttributeMembership]:
        return dict(self._memberships)

    def attributes(self) -> set[str]:
        return set(self._ranges) | set(self._memberships)

    def is_tautology(self) -> bool:
        return not self._ranges and not self._memberships

    def range_for(self, attribute: str) -> AttributeRange | None:
        return self._ranges.get(attribute)

    def membership_for(self, attribute: str) -> AttributeMembership | None:
        return self._memberships.get(attribute)

    # ------------------------------------------------------------------ #
    # Compilation targets
    # ------------------------------------------------------------------ #
    def to_box(self) -> Box:
        """Compile to the SAT solver's box representation."""
        constraints: dict[str, Interval | CategoricalSet] = {}
        for attribute, constraint in self._ranges.items():
            constraints[attribute] = constraint.to_interval()
        for attribute, constraint in self._memberships.items():
            constraints[attribute] = constraint.to_set()
        return Box(constraints)

    def to_expression(self) -> Expression:
        """Compile to a relational WHERE-clause expression."""
        conjuncts: list[Expression] = []
        for attribute, constraint in sorted(self._ranges.items()):
            conjuncts.append(Between(attribute, constraint.low, constraint.high))
        for attribute, constraint in sorted(self._memberships.items()):
            conjuncts.append(IsIn(attribute, constraint.values))
        if not conjuncts:
            return TrueExpression()
        return conjunction(conjuncts)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def matches_row(self, row: Mapping[str, object]) -> bool:
        """Whether a concrete row satisfies the predicate."""
        for attribute, constraint in self._ranges.items():
            if attribute not in row or not constraint.contains(row[attribute]):
                return False
        for attribute, constraint in self._memberships.items():
            if attribute not in row or not constraint.contains(row[attribute]):
                return False
        return True

    def overlaps(self, other: "Predicate") -> bool:
        """Syntactic overlap test: whether the two boxes intersect.

        Exact for box predicates (the only kind the framework supports).
        """
        return self.to_box().intersects(other.to_box())

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._ranges == other._ranges and self._memberships == other._memberships

    def __hash__(self) -> int:
        return hash((frozenset(self._ranges.items()),
                     frozenset(self._memberships.items())))

    def __repr__(self) -> str:
        if self.is_tautology():
            return "Predicate(TRUE)"
        parts: list[str] = []
        for attribute, constraint in sorted(self._ranges.items()):
            parts.append(f"{constraint.low} <= {attribute} <= {constraint.high}")
        for attribute, constraint in sorted(self._memberships.items()):
            rendered = ", ".join(repr(v) for v in sorted(constraint.values, key=repr))
            parts.append(f"{attribute} IN {{{rendered}}}")
        return "Predicate(" + " AND ".join(parts) + ")"
