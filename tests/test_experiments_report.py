"""Tests for the textual experiment report rendering."""

from repro.experiments.report import (
    render_claims,
    render_mean_series,
    render_series,
    render_summary,
    render_table,
)
from repro.simulation.results import ExperimentRecord, ResultTable


def small_table():
    table = ResultTable("fig_demo", "|T|")
    for value in (10.0, 20.0):
        for algorithm, latency in (("LAF", 100.0), ("AAM", 90.0)):
            table.add(ExperimentRecord(
                experiment_id="fig_demo",
                sweep_parameter="|T|",
                sweep_value=value,
                algorithm=algorithm,
                repetition=0,
                max_latency=latency + value,
                completed=True,
                runtime_seconds=0.25,
                peak_memory_mb=12.5,
            ))
    return table


class TestRenderSeries:
    def test_contains_header_algorithms_and_values(self):
        text = render_series(small_table(), "max_latency")
        assert "fig_demo" in text
        assert "LAF" in text and "AAM" in text
        assert "10" in text and "20" in text
        assert "110" in text  # LAF at |T| = 10

    def test_runtime_formatting(self):
        text = render_series(small_table(), "runtime_seconds")
        assert "0.250" in text

    def test_memory_formatting(self):
        text = render_series(small_table(), "peak_memory_mb")
        assert "12.50" in text

    def test_missing_cells_render_as_dash(self):
        table = ResultTable("fig_demo", "|T|")
        table.add(ExperimentRecord(
            experiment_id="fig_demo", sweep_parameter="|T|", sweep_value=10.0,
            algorithm="LAF", repetition=0, max_latency=5.0, completed=True,
            runtime_seconds=0.1, peak_memory_mb=1.0,
        ))
        table.add(ExperimentRecord(
            experiment_id="fig_demo", sweep_parameter="|T|", sweep_value=20.0,
            algorithm="AAM", repetition=0, max_latency=6.0, completed=True,
            runtime_seconds=0.1, peak_memory_mb=1.0,
        ))
        text = render_series(table, "max_latency")
        assert "-" in text


class TestRenderTableAndSummary:
    def test_render_table_includes_all_three_panels(self):
        text = render_table(small_table())
        assert "Max index of worker" in text
        assert "Running time" in text
        assert "Peak memory" in text

    def test_render_table_with_custom_metrics(self):
        text = render_table(small_table(), metrics=["max_latency"])
        assert "Running time" not in text

    def test_render_summary_orders_by_experiment_id(self):
        tables = {"b_exp": small_table(), "a_exp": small_table()}
        tables["b_exp"].experiment_id = "fig_demo"
        text = render_summary({"a": small_table(), "b": small_table()})
        assert text.index("=== a ===") < text.index("=== b ===")


class TestRenderClaims:
    def expectation(self, **kwargs):
        from repro.experiments.paper_reference import PanelExpectation

        defaults = dict(experiment_id="fig_demo",
                        latency_better=[("AAM", "LAF")],
                        latency_trend="increasing", trend_algorithms=("AAM",))
        return PanelExpectation(**{**defaults, **kwargs})

    def test_latency_claims_carry_their_paired_outcomes(self):
        text = render_claims(self.expectation(), [],
                             {"AAM vs LAF": {"wins": 2, "ties": 1, "losses": 0}})
        assert "Claims checked (sweep means, 5% slack):" in text
        assert ("- AAM latency <= LAF (paired over 3 instances: "
                "2 lower, 1 equal, 0 higher)") in text
        assert "- AAM latency increasing over the sweep" in text
        assert "- MCF-LTC has the largest mean runtime" in text
        assert text.endswith("Measured shapes match the paper's qualitative claims.")

    def test_deviations_are_listed_after_the_claims(self):
        text = render_claims(self.expectation(), ["AAM lost"], {})
        assert text.index("- AAM latency <= LAF (not both run)\n") < text.index(
            "Deviations from the paper's qualitative claims:\n\n- AAM lost")

    def test_a_panel_without_claims_says_so(self):
        expectation = self.expectation(latency_better=(), latency_trend=None,
                                       runtime_slowest=None)
        assert render_claims(expectation, [], {}) == (
            "No paper claims are recorded for this panel.")

    def test_table_and_mean_series_render_identically(self):
        # BENCH_all.json stores the series with lists for tuples.
        table = small_table()
        series = {algorithm: [list(point) for point in points]
                  for algorithm, points in table.mean_series("max_latency").items()}
        assert render_mean_series("fig_demo", "|T|", "max_latency", series) == (
            render_series(table, "max_latency"))
