"""Tests for the paper-expectation checking logic."""

import pytest

from repro.experiments.paper_reference import PAPER_EXPECTATIONS, PanelExpectation
from repro.simulation.results import ExperimentRecord, ResultTable


def table_from_series(series, experiment_id="exp", runtimes=None):
    """Build a ResultTable from {algorithm: [(x, latency), ...]}."""
    table = ResultTable(experiment_id, "x")
    runtimes = runtimes or {}
    for algorithm, points in series.items():
        for x, latency in points:
            table.add(ExperimentRecord(
                experiment_id=experiment_id,
                sweep_parameter="x",
                sweep_value=x,
                algorithm=algorithm,
                repetition=0,
                max_latency=latency,
                completed=True,
                runtime_seconds=runtimes.get(algorithm, 0.1),
                peak_memory_mb=1.0,
            ))
    return table


class TestPanelExpectation:
    def test_matching_table_has_no_violations(self):
        expectation = PanelExpectation(
            experiment_id="exp",
            latency_better=[("AAM", "Random")],
            latency_trend="increasing",
            trend_algorithms=("AAM",),
            runtime_slowest="MCF-LTC",
        )
        table = table_from_series(
            {
                "AAM": [(1, 100), (2, 150)],
                "Random": [(1, 130), (2, 190)],
                "MCF-LTC": [(1, 90), (2, 140)],
            },
            runtimes={"MCF-LTC": 5.0, "AAM": 0.5, "Random": 0.2},
        )
        assert expectation.check(table) == []

    def test_pairwise_violation_reported(self):
        expectation = PanelExpectation(
            experiment_id="exp", latency_better=[("AAM", "Random")],
            runtime_slowest=None,
        )
        table = table_from_series({
            "AAM": [(1, 200)],
            "Random": [(1, 100)],
        })
        problems = expectation.check(table)
        assert len(problems) == 1
        assert "AAM" in problems[0]

    def test_trend_violation_reported(self):
        expectation = PanelExpectation(
            experiment_id="exp", latency_trend="decreasing",
            trend_algorithms=("LAF",), runtime_slowest=None,
        )
        table = table_from_series({"LAF": [(1, 100), (2, 200)]})
        problems = expectation.check(table)
        assert any("decrease" in p for p in problems)

    def test_runtime_violation_reported(self):
        expectation = PanelExpectation(
            experiment_id="exp", runtime_slowest="MCF-LTC",
        )
        table = table_from_series(
            {"MCF-LTC": [(1, 10)], "LAF": [(1, 10)]},
            runtimes={"MCF-LTC": 0.1, "LAF": 5.0},
        )
        problems = expectation.check(table)
        assert any("slowest" in p for p in problems)

    def test_missing_algorithms_are_ignored(self):
        expectation = PanelExpectation(
            experiment_id="exp", latency_better=[("AAM", "Random")],
            latency_trend="increasing", runtime_slowest="MCF-LTC",
        )
        table = table_from_series({"LAF": [(1, 10), (2, 20)]})
        assert expectation.check(table) == []

    def test_tolerance_allows_small_regressions(self):
        expectation = PanelExpectation(
            experiment_id="exp", latency_better=[("AAM", "Random")],
            runtime_slowest=None, tolerance=1.05,
        )
        table = table_from_series({
            "AAM": [(1, 103)],
            "Random": [(1, 100)],
        })
        assert expectation.check(table) == []


class TestRegisteredExpectations:
    def test_every_figure_experiment_has_an_expectation(self):
        for experiment_id in (
            "fig3_tasks", "fig3_capacity", "fig3_accuracy_normal",
            "fig3_accuracy_uniform", "fig4_epsilon", "fig4_scalability",
            "fig4_newyork", "fig4_tokyo",
        ):
            expectation = PAPER_EXPECTATIONS[experiment_id]
            assert expectation.experiment_id == experiment_id
            # The paper's headline claims are always present.
            pairs = set(expectation.latency_better)
            assert ("AAM", "Random") in pairs
            assert expectation.runtime_slowest == "MCF-LTC"

    def test_capacity_and_epsilon_sweeps_expect_decreasing_latency(self):
        assert PAPER_EXPECTATIONS["fig3_capacity"].latency_trend == "decreasing"
        assert PAPER_EXPECTATIONS["fig4_epsilon"].latency_trend == "decreasing"

    def test_task_sweeps_expect_increasing_latency(self):
        assert PAPER_EXPECTATIONS["fig3_tasks"].latency_trend == "increasing"
        assert PAPER_EXPECTATIONS["fig4_scalability"].latency_trend == "increasing"


class TestPairedOutcomes:
    @staticmethod
    def paired_table(latencies):
        """``{(x, repetition): {algorithm: latency}}`` as a ResultTable."""
        table = ResultTable("exp", "x")
        for (x, repetition), by_algorithm in latencies.items():
            for algorithm, latency in by_algorithm.items():
                table.add(ExperimentRecord(
                    experiment_id="exp", sweep_parameter="x", sweep_value=x,
                    algorithm=algorithm, repetition=repetition,
                    max_latency=latency, completed=True,
                    runtime_seconds=0.1, peak_memory_mb=1.0,
                ))
        return table

    def test_counts_wins_ties_and_losses_per_instance(self):
        # Six instances: AAM lower on 3, equal on 2, higher on 1.  The sweep
        # means (AAM 105 vs Random 113.3) would hide the loss.
        table = self.paired_table({
            (1, 0): {"AAM": 90, "Random": 100},
            (1, 1): {"AAM": 80, "Random": 120},
            (1, 2): {"AAM": 100, "Random": 100},
            (2, 0): {"AAM": 110, "Random": 140},
            (2, 1): {"AAM": 120, "Random": 120},
            (2, 2): {"AAM": 130, "Random": 100},
        })
        expectation = PanelExpectation(
            experiment_id="exp", latency_better=[("AAM", "Random")],
            runtime_slowest=None,
        )
        assert expectation.paired_outcomes(table) == {
            "AAM vs Random": {"wins": 3, "ties": 2, "losses": 1},
        }
        assert expectation.check(table) == []

    def test_each_pair_is_counted_from_its_own_side(self):
        table = self.paired_table({
            (1, 0): {"AAM": 90, "LAF": 95, "Random": 100},
            (1, 1): {"AAM": 90, "LAF": 90, "Random": 80},
        })
        expectation = PanelExpectation(
            experiment_id="exp",
            latency_better=[("AAM", "Random"), ("LAF", "AAM")],
            runtime_slowest=None,
        )
        assert expectation.paired_outcomes(table) == {
            "AAM vs Random": {"wins": 1, "ties": 0, "losses": 1},
            "LAF vs AAM": {"wins": 0, "ties": 1, "losses": 1},
        }

    def test_instances_missing_an_algorithm_are_skipped(self):
        table = self.paired_table({
            (1, 0): {"AAM": 90, "Random": 100},
            (2, 0): {"AAM": 90},
        })
        expectation = PanelExpectation(
            experiment_id="exp",
            latency_better=[("AAM", "Random"), ("AAM", "MCF-LTC")],
            runtime_slowest=None,
        )
        assert expectation.paired_outcomes(table) == {
            "AAM vs Random": {"wins": 1, "ties": 0, "losses": 0},
        }
