"""Tests for the experiment harness and tiny-scale runs of every experiment.

Each paper figure/table has a smoke test at a very small scale that checks
the *shape* the paper reports (hard-bound methods never fail, informed PCs
are tighter than random ones, the edge-cover bound beats elastic
sensitivity, DFS prunes cells, ...).  The benchmarks re-run the same
entry points at a larger scale.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    Figure1Config,
    Figure3Config,
    Figure5Config,
    Figure6Config,
    Figure7Config,
    Figure8Config,
    Figure9Config,
    Figure10Config,
    Figure12Config,
    MissingRatioSweepConfig,
    Table1Config,
    Table2Config,
    airbnb_setup,
    border_setup,
    evaluate_estimator,
    intel_setup,
    run_figure1,
    run_figure3,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure12,
    run_missing_ratio_sweep,
    run_table1,
    run_table2,
    standard_estimators,
)
from repro.experiments.estimators import CorrPCEstimator, RandPCEstimator
from repro.experiments.harness import EvaluationMetrics
from repro.experiments.reporting import format_mapping_table, format_series, format_table
from repro.core.engine import ContingencyQuery
from repro.relational.aggregates import AggregateFunction
from repro.workloads.missing import remove_correlated
from repro.workloads.queries import QueryWorkloadSpec, generate_query_workload


# --------------------------------------------------------------------- #
# Harness and reporting
# --------------------------------------------------------------------- #
class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", math.inf]])
        assert "a" in text and "inf" in text and "|" in text

    def test_format_mapping_table(self):
        text = format_mapping_table([{"k": 1, "v": 2}, {"k": 3, "v": 4}])
        assert "k" in text and "3" in text
        assert format_mapping_table([]) == "(no rows)"

    def test_format_series(self):
        text = format_series("demo", [1, 2], [3, 4])
        assert text.startswith("# demo")


class TestHarness:
    @pytest.fixture(scope="class")
    def workload(self):
        setup = intel_setup(num_rows=2_000, num_constraints=36)
        scenario = remove_correlated(setup.relation, 0.4, setup.target)
        spec = QueryWorkloadSpec(AggregateFunction.SUM, setup.target,
                                 setup.predicate_attributes, num_queries=15)
        queries = generate_query_workload(setup.relation, spec, seed=3)
        return setup, scenario, queries

    def test_metrics_accumulate(self, workload):
        setup, scenario, queries = workload
        estimator = CorrPCEstimator(setup.target, setup.num_constraints,
                                    candidates=list(setup.pc_attributes))
        estimator.fit(scenario.missing)
        metrics = evaluate_estimator(estimator, queries, scenario.missing)
        assert metrics.num_queries == len(queries)
        assert metrics.num_failures == 0
        assert metrics.median_over_estimation >= 1.0
        assert metrics.seconds_per_query >= 0.0
        row = metrics.as_row()
        assert row["failures"] == 0

    def test_empty_metrics_defaults(self):
        metrics = EvaluationMetrics(estimator="none")
        assert metrics.failure_rate == 0.0
        assert metrics.median_over_estimation == 1.0
        assert metrics.seconds_per_query == 0.0

    def test_standard_estimator_lineup(self):
        setup = intel_setup(num_rows=1_000, num_constraints=16)
        estimators = standard_estimators(setup, include=("Corr-PC", "US-1n", "Gen"))
        assert set(estimators) == {"Corr-PC", "US-1n", "Gen"}
        with pytest.raises(KeyError):
            standard_estimators(setup, include=("Unknown",))

    def test_pc_estimators_never_fail_and_corr_is_tighter(self, workload):
        """The paper's central claims at miniature scale."""
        setup, scenario, queries = workload
        corr = CorrPCEstimator(setup.target, setup.num_constraints,
                               candidates=list(setup.pc_attributes))
        rand = RandPCEstimator(setup.pc_attributes, setup.num_constraints,
                               target=setup.target, seed=11)
        corr.fit(scenario.missing)
        rand.fit(scenario.missing)
        corr_metrics = evaluate_estimator(corr, queries, scenario.missing)
        rand_metrics = evaluate_estimator(rand, queries, scenario.missing)
        assert corr_metrics.num_failures == 0
        assert rand_metrics.num_failures == 0
        assert corr_metrics.median_over_estimation <= \
            rand_metrics.median_over_estimation * 1.5


# --------------------------------------------------------------------- #
# Per-figure smoke tests (tiny scale)
# --------------------------------------------------------------------- #
class TestFigureRuns:
    def test_figure1_error_grows_with_missingness(self):
        result = run_figure1(Figure1Config(num_rows=2_000,
                                           missing_fractions=(0.1, 0.5, 0.9)))
        errors = [row["relative_error"] for row in result.rows]
        assert errors[0] < errors[-1]
        assert errors[-1] > 0.5
        assert "Figure 1" in result.to_text()

    def test_figure3_hard_bounds_never_fail(self):
        config = Figure3Config(num_rows=2_000, num_constraints=36, num_queries=12,
                               missing_fractions=(0.3, 0.7))
        result = run_figure3(config)
        for row in result.rows:
            if row["estimator"] in ("Corr-PC", "Rand-PC", "Histogram"):
                assert row["failures"] == 0
        assert result.series("Corr-PC", "failure_%")

    def test_missing_ratio_sweep_sum(self):
        setup = intel_setup(num_rows=2_000, num_constraints=36)
        result = run_missing_ratio_sweep(
            setup, MissingRatioSweepConfig(aggregate=AggregateFunction.SUM,
                                           missing_fractions=(0.5,),
                                           num_queries=10,
                                           estimators=("Corr-PC", "US-1n")))
        assert len(result.rows) == 2

    def test_table1_tradeoff(self):
        result = run_table1(Table1Config(confidence_levels=(0.8, 0.9999),
                                         num_queries=20, num_rows=2_000,
                                         num_constraints=36))
        assert result.corr_pc_failure_percent == 0.0
        low_conf, high_conf = result.sampling_rows
        assert low_conf["over_estimation"] <= high_conf["over_estimation"] + 1e-9
        assert "Table 1" in result.to_text()

    def test_figure5_sampling_tightens_with_size(self):
        result = run_figure5(Figure5Config(sample_multipliers=(1, 10),
                                           num_queries=15, num_rows=2_000,
                                           num_constraints=36))
        sum_rows = [row for row in result.rows if row["aggregate"] == "SUM"
                    and row["estimator"].startswith("US")]
        assert sum_rows[0]["median_overest"] >= sum_rows[-1]["median_overest"] - 1e-9

    def test_figure6_noise_increases_failures(self):
        result = run_figure6(Figure6Config(noise_levels=(0.0, 3.0), num_queries=15,
                                           num_rows=2_000, num_constraints=25,
                                           overlapping_constraints=6))
        clean = [row for row in result.rows if row["noise_sd"] == 0.0]
        noisy = [row for row in result.rows if row["noise_sd"] == 3.0]
        assert all(row["failure_%"] == 0.0 for row in clean
                   if row["technique"] != "US-10n")
        assert sum(row["failure_%"] for row in noisy) >= \
            sum(row["failure_%"] for row in clean)

    def test_figure7_optimisations_prune(self):
        result = run_figure7(Figure7Config(num_constraints=8, num_rows=1_000))
        naive = result.cells_evaluated("naive")
        dfs = result.cells_evaluated("dfs")
        rewrite = result.cells_evaluated("dfs-rewrite")
        assert naive == 2 ** 8
        assert rewrite <= dfs
        # All strategies agree on the satisfiable cells.
        satisfiable = {row["satisfiable_cells"] for row in result.rows}
        assert len(satisfiable) == 1

    def test_figure7_naive_and_dfs_counts_are_pinned(self):
        # The witness rule applies only under dfs-rewrite, so the NAIVE and
        # DFS columns of Figure 7 keep counting one decision per child.
        result = run_figure7(Figure7Config(num_constraints=16, num_rows=4_000))
        rows = {row["strategy"]: row for row in result.rows}
        assert rows["naive"] == {
            "strategy": "naive", "cells_evaluated": 65536,
            "solver_calls": 65536, "rewrites_saved": 0,
            "satisfiable_cells": 103}
        assert rows["dfs"] == {
            "strategy": "dfs", "cells_evaluated": 882, "solver_calls": 882,
            "rewrites_saved": 0, "satisfiable_cells": 103}
        rewrite = rows["dfs-rewrite"]
        assert rewrite["satisfiable_cells"] == 103
        assert rewrite["solver_calls"] + rewrite["rewrites_saved"] == 882

    def test_figure8_latency_grows_with_partitions(self):
        result = run_figure8(Figure8Config(partition_sizes=(25, 100), num_queries=4,
                                           num_rows=2_000))
        assert len(result.rows) == 2
        assert all(row["ms_per_query"] > 0 for row in result.rows)

    def test_figure9_min_max_optimal(self):
        result = run_figure9(Figure9Config(num_queries=10, num_rows=2_000,
                                           num_constraints=36))
        by_aggregate = {row["aggregate"]: row for row in result.rows}
        assert by_aggregate["MIN"]["failure_%"] == 0.0
        assert by_aggregate["MAX"]["failure_%"] == 0.0
        assert by_aggregate["AVG"]["failure_%"] == 0.0
        assert by_aggregate["MAX"]["median_overest"] >= 1.0

    def test_figure10_airbnb_shapes(self):
        config = Figure10Config(num_rows=2_000, num_constraints=36, num_queries=12)
        result = run_figure10(config)
        corr = result.median_overestimation("SUM", "Corr-PC")
        rand = result.median_overestimation("SUM", "Rand-PC")
        assert corr <= rand * 1.5
        for row in result.rows:
            if row["estimator"] in ("Corr-PC", "Rand-PC", "Histogram"):
                assert row["failures"] == 0

    def test_figure12_fec_tighter_than_elastic(self):
        result = run_figure12(Figure12Config(table_sizes=(10, 1000),
                                             exact_join_limit=100))
        for rows in (result.triangle_rows, result.chain_rows):
            for row in rows:
                assert row["fec_bound"] <= row["elastic_bound"] + 1e-9
        # The gap grows with the table size (orders of magnitude at 1000).
        large_triangle = result.bound("triangle", 1000, "elastic_bound") / \
            result.bound("triangle", 1000, "fec_bound")
        small_triangle = result.bound("triangle", 10, "elastic_bound") / \
            result.bound("triangle", 10, "fec_bound")
        assert large_triangle > small_triangle
        # True counts (when computed) are dominated by every bound.
        for row in result.triangle_rows:
            if "true_count" in row:
                assert row["true_count"] <= row["fec_bound"] + 1e-9

    def test_table2_hard_bounds_have_zero_failures(self):
        config = Table2Config(datasets=("intel_wireless",), num_queries=10,
                              num_rows=2_000, num_constraints=36,
                              estimators=("Corr-PC", "Histogram", "US-1p", "US-1n"))
        result = run_table2(config)
        assert len(result.rows) == 6  # 2 query types x 3 predicate-attribute sets
        for row in result.rows:
            assert row["Corr-PC"] == 0
            assert row["Histogram"] == 0
        assert "Table 2" in result.to_text()
        assert result.failures("intel_wireless", "COUNT(*)", "device_id", "Corr-PC") == 0
