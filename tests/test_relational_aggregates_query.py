"""Unit tests for repro.relational.aggregates and repro.relational.query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError, UnsupportedAggregateError
from repro.relational.aggregates import AggregateFunction, compute_aggregate
from repro.relational.expressions import And, Between, IsIn, TrueExpression
from repro.relational.query import AggregateQuery
from repro.relational.relation import Relation
from repro.relational.schema import ColumnType, Schema


class TestAggregateFunction:
    def test_parse(self):
        assert AggregateFunction.parse("sum") is AggregateFunction.SUM
        assert AggregateFunction.parse(" Count ") is AggregateFunction.COUNT
        with pytest.raises(UnsupportedAggregateError):
            AggregateFunction.parse("median")

    def test_needs_attribute(self):
        assert not AggregateFunction.COUNT.needs_attribute
        assert AggregateFunction.SUM.needs_attribute

    def test_monotonicity_flags(self):
        assert AggregateFunction.COUNT.is_monotone_in_rows
        assert AggregateFunction.SUM.is_monotone_in_rows
        assert not AggregateFunction.MIN.is_monotone_in_rows


class TestComputeAggregate:
    def test_on_values(self):
        values = [1.0, 2.0, 3.0]
        assert compute_aggregate(AggregateFunction.COUNT, values) == 3.0
        assert compute_aggregate(AggregateFunction.SUM, values) == 6.0
        assert compute_aggregate(AggregateFunction.AVG, values) == 2.0
        assert compute_aggregate(AggregateFunction.MIN, values) == 1.0
        assert compute_aggregate(AggregateFunction.MAX, values) == 3.0

    def test_empty_semantics(self):
        assert compute_aggregate(AggregateFunction.COUNT, []) == 0.0
        assert compute_aggregate(AggregateFunction.SUM, []) == 0.0
        assert compute_aggregate(AggregateFunction.AVG, []) is None
        assert compute_aggregate(AggregateFunction.MIN, []) is None
        assert compute_aggregate(AggregateFunction.MAX, []) is None


@pytest.fixture
def orders() -> Relation:
    schema = Schema.from_pairs([("day", ColumnType.FLOAT),
                                ("branch", ColumnType.STRING),
                                ("price", ColumnType.FLOAT)])
    rows = [
        (1.0, "Chicago", 10.0),
        (1.0, "New York", 20.0),
        (2.0, "Chicago", 30.0),
        (2.0, "Chicago", 40.0),
        (3.0, "Trenton", 50.0),
    ]
    return Relation.from_rows(schema, rows, name="orders")


class TestAggregateQuery:
    def test_constructor_validation(self):
        with pytest.raises(QueryError):
            AggregateQuery(AggregateFunction.SUM, None)
        with pytest.raises(QueryError):
            AggregateQuery(AggregateFunction.COUNT, "price")

    def test_count_star(self, orders):
        assert AggregateQuery.count().scalar(orders) == 5.0

    def test_sum_with_predicate(self, orders):
        query = AggregateQuery.sum("price", where=IsIn("branch", ["Chicago"]))
        assert query.scalar(orders) == 80.0

    def test_avg_min_max(self, orders):
        assert AggregateQuery.avg("price").scalar(orders) == 30.0
        assert AggregateQuery.min("price").scalar(orders) == 10.0
        assert AggregateQuery.max("price").scalar(orders) == 50.0

    def test_empty_predicate_result(self, orders):
        query = AggregateQuery.avg("price", where=Between("day", 10.0, 20.0))
        assert query.scalar(orders) is None
        count = AggregateQuery.count(where=Between("day", 10.0, 20.0))
        assert count.scalar(orders) == 0.0

    def test_group_by(self, orders):
        query = AggregateQuery.sum("price", group_by=["branch"])
        result = query.execute(orders)
        assert result.is_grouped
        assert result.groups[("Chicago",)] == 80.0
        assert result.groups[("Trenton",)] == 50.0
        with pytest.raises(QueryError):
            query.scalar(orders)

    def test_group_by_matches_union_of_filters(self, orders):
        """GROUP BY is a union of per-group queries (paper §2)."""
        grouped = AggregateQuery.count(group_by=["branch"]).execute(orders).groups
        for (branch,), value in grouped.items():
            filtered = AggregateQuery.count(where=IsIn("branch", [branch]))
            assert filtered.scalar(orders) == value

    def test_non_numeric_aggregate_rejected(self, orders):
        query = AggregateQuery.sum("branch")
        with pytest.raises(Exception):
            query.execute(orders)

    def test_describe_and_referenced_attributes(self, orders):
        query = AggregateQuery.sum("price", where=Between("day", 1.0, 2.0),
                                   group_by=["branch"])
        description = query.describe()
        assert "SUM(price)" in description
        assert "GROUP BY branch" in description
        assert query.referenced_attributes() == {"price", "day", "branch"}

    def test_matching_rows_reported(self, orders):
        result = AggregateQuery.sum("price", where=Between("day", 2.0, 3.0)).execute(orders)
        assert result.matching_rows == 3


def filtered_reference(query: AggregateQuery, relation: Relation
                       ) -> tuple[float | None, int, float]:
    """The known part evaluated the way it was before ``execute`` used one
    mask: copy every matching row with ``filter``, aggregate the copy, then
    filter again for the count and ``column_sum``."""
    matching = relation.filter(query.where)
    if query.attribute is None:
        return (compute_aggregate(query.aggregate, np.zeros(matching.num_rows)),
                matching.num_rows, 0.0)
    values = matching.column(query.attribute).astype(np.float64)
    total = matching.column_sum(query.attribute) if matching.num_rows else 0.0
    return compute_aggregate(query.aggregate, values), matching.num_rows, total


def random_relation(seed: int, rows: int) -> Relation:
    """Integer and float measures (float values are not integral, so any
    change of summation order would show in the low bits)."""
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs([("t", ColumnType.FLOAT),
                                ("hour", ColumnType.INT),
                                ("device", ColumnType.STRING),
                                ("price", ColumnType.FLOAT),
                                ("units", ColumnType.INT)])
    return Relation(schema, {
        "t": rng.uniform(0.0, 100.0, rows),
        "hour": rng.integers(0, 24, rows),
        "device": rng.choice(["alpha", "beta", "gamma", "delta"], rows),
        "price": rng.normal(50.0, 30.0, rows) * np.pi,
        "units": rng.integers(-1000, 100000, rows),
    }, name="observed")


def where_clauses(relation: Relation) -> dict[str, object]:
    single = float(relation.column("t")[relation.num_rows // 2])
    return {
        "true": TrueExpression(),
        "float-range": Between("t", 20.0, 70.0),
        "int-range": Between("hour", 3, 9),
        "categorical": IsIn("device", ["beta", "delta"]),
        "conjunction": And([IsIn("device", ["alpha", "gamma"]),
                            Between("t", 10.0, 90.0)]),
        "empty": Between("t", 200.0, 300.0),
        "single-row": Between("t", single, single),
    }


class TestOneMaskExecution:
    """``execute`` evaluates the WHERE clause once and gathers one column;
    it must agree bit for bit with the filter-then-aggregate evaluation."""

    @pytest.mark.parametrize("seed,rows", [(0, 1), (1, 37), (2, 1000),
                                           (3, 16384)])
    @pytest.mark.parametrize("attribute", ["price", "units"])
    @pytest.mark.parametrize("aggregate", list(AggregateFunction))
    def test_matches_filtered_evaluation(self, seed, rows, attribute,
                                         aggregate):
        relation = random_relation(seed, rows)
        target = None if aggregate is AggregateFunction.COUNT else attribute
        for name, where in where_clauses(relation).items():
            query = AggregateQuery(aggregate, target, where)
            result = query.execute(relation)
            value, matching_rows, matching_sum = filtered_reference(
                query, relation)
            assert result.value == value, name
            assert result.matching_rows == matching_rows, name
            assert result.matching_sum == matching_sum, name
            assert result.groups is None

    def test_edge_clauses_cover_what_they_name(self):
        relation = random_relation(2, 1000)
        clauses = where_clauses(relation)
        count = AggregateQuery.count
        assert count(clauses["true"]).execute(relation).matching_rows == 1000
        assert count(clauses["empty"]).execute(relation).matching_rows == 0
        assert count(clauses["single-row"]).execute(relation).matching_rows == 1
        empty = AggregateQuery.sum("price", clauses["empty"]).execute(relation)
        assert empty.value == 0.0 and empty.matching_sum == 0.0
        assert AggregateQuery.max("price", clauses["empty"]).scalar(
            relation) is None
        assert count().execute(relation).matching_sum == 0.0

    @pytest.mark.parametrize("aggregate", list(AggregateFunction))
    def test_group_by_results_unchanged(self, aggregate):
        relation = random_relation(4, 2000)
        target = None if aggregate is AggregateFunction.COUNT else "price"
        where = Between("t", 15.0, 85.0)
        result = AggregateQuery(aggregate, target, where,
                                group_by=("device",)).execute(relation)
        assert result.value is None
        assert result.matching_rows == relation.filter(where).num_rows
        for (device,), value in result.groups.items():
            per_group = AggregateQuery(
                aggregate, target, And([where, IsIn("device", [device])]))
            assert value == filtered_reference(per_group, relation)[0]

    def test_mask_is_the_filter_mask(self):
        relation = random_relation(5, 500)
        where = IsIn("device", ["gamma"])
        mask = relation.mask(where)
        assert mask.dtype == bool and mask.shape == (500,)
        assert int(mask.sum()) == relation.filter(where).num_rows
        np.testing.assert_array_equal(relation.filter(mask).column("price"),
                                      relation.filter(where).column("price"))
