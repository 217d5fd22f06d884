"""Tests for the experiment harness and its command-line interface.

These run real (but drastically scaled-down) experiments, so they are the
slowest tests in the suite; they double as integration tests of datagen +
algorithms + simulation + reporting.
"""

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.harness import run_experiment
from repro.experiments.paper_reference import PAPER_EXPECTATIONS
from repro.experiments.report import render_table


TINY = dict(scale=0.004, repetitions=1, track_memory=False)


class TestRunExperiment:
    def test_fig3_tasks_produces_full_table(self):
        table = run_experiment("fig3_tasks", sweep_values=[1000, 3000],
                               algorithms=["LAF", "AAM", "Random"], **TINY)
        assert len(table) == 2 * 3
        assert table.completion_rate() == 1.0
        text = render_table(table)
        assert "LAF" in text and "AAM" in text

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig9_unknown")

    def test_ablation_batch_size_overrides_solver(self):
        table = run_experiment("ablation_batch_size", sweep_values=[0.5, 2.0], **TINY)
        assert set(table.algorithms()) == {"MCF-LTC"}
        batch_sizes = {
            record.sweep_value: record.extra.get("batch_size")
            for record in table.records
        }
        assert batch_sizes[0.5] < batch_sizes[2.0]

    def test_ablation_sweep_survives_explicit_algorithms(self):
        # A requested bare name picks up the sweep's parameters, exactly as
        # the pre-spec harness override did.
        table = run_experiment("ablation_batch_size", sweep_values=[0.5, 2.0],
                               algorithms=["MCF-LTC"], **TINY)
        assert set(table.algorithms()) == {"MCF-LTC"}
        # Labels are stable regardless of how many sweep values a run covers,
        # so partial runs stay mergeable into one series.
        single = run_experiment("ablation_batch_size", sweep_values=[2.0], **TINY)
        assert set(single.algorithms()) == {"MCF-LTC"}
        batch_sizes = {
            record.sweep_value: record.extra["batch_size"]
            for record in table.records
        }
        assert batch_sizes[0.5] < batch_sizes[2.0]

    def test_explicit_parameters_override_the_ablation_sweep(self):
        table = run_experiment(
            "ablation_batch_size", sweep_values=[0.5, 2.0],
            algorithms=["MCF-LTC?batch_multiplier=1.0"], **TINY)
        batch_sizes = {
            record.extra["batch_size"] for record in table.records
        }
        assert len(batch_sizes) == 1  # pinned multiplier, no sweep
        # A pinned spec keeps its full label: the table must not show a bare
        # name next to a sweep column its parameters did not follow.
        assert set(table.algorithms()) == {"MCF-LTC?batch_multiplier=1.0"}

    def test_algorithms_accept_spec_strings(self):
        table = run_experiment(
            "fig3_tasks", sweep_values=[1000],
            algorithms=["LAF", "MCF-LTC?batch_multiplier=2.0"], **TINY)
        assert set(table.algorithms()) == {"LAF", "MCF-LTC?batch_multiplier=2.0"}
        batch_records = [
            record for record in table.records
            if record.algorithm.startswith("MCF-LTC")
        ]
        assert batch_records and all(
            record.extra["batch_size"] > 0 for record in batch_records
        )

    def test_checkin_experiment_runs(self):
        table = run_experiment("fig4_newyork", sweep_values=[0.22],
                               algorithms=["LAF", "Random"], **TINY)
        assert len(table) == 2
        assert table.completion_rate() == 1.0

    def test_expectations_exist_for_every_experiment(self):
        from repro.experiments.configs import list_experiments

        for experiment_id in list_experiments():
            assert experiment_id in PAPER_EXPECTATIONS


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig3_tasks", "--scale", "0.01"])
        assert args.experiment == "fig3_tasks"
        assert args.scale == 0.01
        assert not args.check

    def test_list_option_prints_experiments(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig3_tasks" in output
        assert "fig4_tokyo" in output

    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        assert "fig3_capacity" in capsys.readouterr().out

    def test_running_an_experiment_prints_tables(self, capsys):
        exit_code = main([
            "fig3_tasks", "--scale", "0.004", "--repetitions", "1",
            "--algorithms", "LAF", "AAM", "--no-memory", "--quiet",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Max index of worker" in output
        assert "LAF" in output and "AAM" in output

    def test_check_prints_claims_with_paired_outcomes(self, capsys):
        exit_code = main([
            "fig3_tasks", "--scale", "0.004", "--repetitions", "2",
            "--algorithms", "AAM", "Random", "--no-memory", "--quiet",
            "--check",
        ])
        output = capsys.readouterr().out
        assert "Claims checked (sweep means, 5% slack):" in output
        assert "- AAM latency <= Random (paired over 10 instances: " in output
        assert "- MCF-LTC latency <= Base-off (not both run)" in output
        assert exit_code == (0 if "Measured shapes match" in output else 1)
