"""Shared sweep used by Figures 3 and 4: failure rate and over-estimation
versus the fraction of data that is missing.

For each missing fraction the harness removes rows correlated with the
aggregate, fits every estimator on the missing partition, runs a random
query workload, and records failure rate and median over-estimation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational.aggregates import AggregateFunction
from ..workloads.missing import remove_correlated
from ..workloads.queries import QueryWorkloadSpec, generate_query_workload
from .common import DatasetSetup, standard_estimators
from .harness import evaluate_estimators
from .reporting import format_mapping_table

__all__ = ["MissingRatioSweepConfig", "MissingRatioSweepResult", "run_missing_ratio_sweep"]


@dataclass
class MissingRatioSweepConfig:
    """Parameters shared by the Figure 3 / Figure 4 style sweeps."""

    aggregate: AggregateFunction = AggregateFunction.COUNT
    missing_fractions: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    num_queries: int = 200
    estimators: tuple[str, ...] = ("Corr-PC", "Rand-PC", "US-1n", "ST-1n", "Histogram")
    query_seed: int = 23


@dataclass
class MissingRatioSweepResult:
    """One row per (missing fraction, estimator)."""

    title: str
    rows: list[dict[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        return f"{self.title}\n" + format_mapping_table(self.rows)

    def series(self, estimator: str, metric: str) -> list[tuple[float, float]]:
        """The (fraction, metric) series for one estimator, e.g. for plotting."""
        return [(row["missing_fraction"], row[metric]) for row in self.rows
                if row["estimator"] == estimator]


def run_missing_ratio_sweep(setup: DatasetSetup,
                            config: MissingRatioSweepConfig
                            ) -> MissingRatioSweepResult:
    """Run the sweep for one dataset and one aggregate."""
    attribute = None if config.aggregate is AggregateFunction.COUNT else setup.target
    workload_spec = QueryWorkloadSpec(
        aggregate=config.aggregate,
        attribute=attribute,
        predicate_attributes=setup.predicate_attributes,
        num_queries=config.num_queries,
    )
    queries = generate_query_workload(setup.relation, workload_spec,
                                      seed=config.query_seed)
    title = (f"{setup.name}: {config.aggregate.value} failure/over-estimation vs "
             "missing fraction")
    result = MissingRatioSweepResult(title=title)
    for fraction in config.missing_fractions:
        scenario = remove_correlated(setup.relation, fraction, setup.target,
                                     highest=True)
        estimators = standard_estimators(setup, include=config.estimators)
        metrics = evaluate_estimators(estimators, queries, scenario.missing)
        for name, metric in metrics.items():
            row = {"missing_fraction": fraction}
            row.update(metric.as_row())
            result.rows.append(row)
    return result
