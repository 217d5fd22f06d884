"""Tests for repro.simulation.metrics."""

import tracemalloc

import pytest

from repro.algorithms.baselines import RandomOnlineSolver
from repro.algorithms.laf import LAFSolver
from repro.simulation.metrics import SolveMeasurement, measure_solver


class TestMeasureSolver:
    def test_measures_runtime_and_memory(self, tiny_instance):
        measurement = measure_solver(LAFSolver(), tiny_instance)
        assert measurement.result.completed
        assert measurement.runtime_seconds > 0
        assert measurement.peak_memory_bytes > 0
        assert measurement.peak_memory_mb == pytest.approx(
            measurement.peak_memory_bytes / (1024 * 1024)
        )

    def test_memory_tracking_can_be_disabled(self, tiny_instance):
        measurement = measure_solver(LAFSolver(), tiny_instance, track_memory=False)
        assert measurement.peak_memory_bytes == 0
        assert measurement.runtime_seconds > 0

    def test_summary_merges_result_and_efficiency(self, tiny_instance):
        measurement = measure_solver(LAFSolver(), tiny_instance)
        summary = measurement.summary()
        assert summary["max_latency"] == float(measurement.result.max_latency)
        assert "runtime_seconds" in summary
        assert "peak_memory_mb" in summary

    def test_does_not_leave_tracemalloc_running(self, tiny_instance):
        was_tracing = tracemalloc.is_tracing()
        measure_solver(LAFSolver(), tiny_instance)
        assert tracemalloc.is_tracing() == was_tracing

    def test_timed_solve_runs_untraced(self, tiny_instance):
        was_tracing = tracemalloc.is_tracing()
        tracing_seen = []
        results = []

        class TracingProbe(LAFSolver):
            def solve(self, instance, stream=None):
                tracing_seen.append(tracemalloc.is_tracing())
                results.append(super().solve(instance, stream))
                return results[-1]

        measurement = measure_solver(TracingProbe(), tiny_instance)
        # Timed pass first (untraced unless the caller was tracing), then
        # the traced pass that supplies the peak.
        assert tracing_seen == [was_tracing, True]
        assert measurement.result is results[0]
        assert measurement.peak_memory_bytes > 0

    def test_untracked_memory_solves_once_untraced(self, tiny_instance):
        was_tracing = tracemalloc.is_tracing()
        tracing_seen = []

        class TracingProbe(LAFSolver):
            def solve(self, instance, stream=None):
                tracing_seen.append(tracemalloc.is_tracing())
                return super().solve(instance, stream)

        measure_solver(TracingProbe(), tiny_instance, track_memory=False)
        assert tracing_seen == [was_tracing]

    def test_a_tracing_caller_keeps_tracing(self, tiny_instance):
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            measurement = measure_solver(LAFSolver(), tiny_instance)
            assert tracemalloc.is_tracing()
            assert measurement.peak_memory_bytes > 0
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_seeded_random_gives_the_same_run_in_both_passes(
        self, small_synthetic_instance
    ):
        runs = []

        class RecordingRandom(RandomOnlineSolver):
            def solve(self, instance, stream=None):
                runs.append(super().solve(instance, stream))
                return runs[-1]

        measurement = measure_solver(
            RecordingRandom(seed=3), small_synthetic_instance
        )
        assert len(runs) == 2
        timed, traced = ([a.as_tuple() for a in run.arrangement] for run in runs)
        assert timed and timed == traced
        assert measurement.result is runs[0]
