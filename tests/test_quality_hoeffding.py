"""Tests for repro.quality.hoeffding (the quality guarantee loop)."""

import math

import pytest

from repro.algorithms.laf import LAFSolver
from repro.core.quality_threshold import quality_threshold
from repro.quality.hoeffding import empirical_error_rate, hoeffding_error_bound


class TestBounds:
    def test_bound_formula(self):
        values = [0.5, 0.7, 1.0]
        assert hoeffding_error_bound(values) == pytest.approx(math.exp(-sum(values) / 2))

    def test_empty_bound_is_one(self):
        assert hoeffding_error_bound([]) == pytest.approx(1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_error_bound([-0.1])

    def test_meeting_the_threshold_pushes_bound_below_epsilon(self):
        epsilon = 0.14
        needed = quality_threshold(epsilon)
        assert hoeffding_error_bound([needed / 4] * 4) <= epsilon + 1e-12


class TestEmpiricalErrorRate:
    def test_completed_arrangement_meets_the_error_rate(self, running_example):
        """End-to-end quality check: solve, simulate answers, vote, measure."""
        result = LAFSolver().solve(running_example)
        assert result.completed
        error = empirical_error_rate(running_example, result.arrangement,
                                     trials=400, seed=3)
        # The guarantee is per task with tolerance epsilon = 0.2; the measured
        # rate should sit comfortably below it.
        assert error <= running_example.error_rate

    def test_empty_arrangement_has_zero_measured_error(self, running_example):
        arrangement = running_example.new_arrangement()
        assert empirical_error_rate(running_example, arrangement, trials=10) == 0.0

    def test_rejects_non_positive_trials(self, running_example):
        arrangement = running_example.new_arrangement()
        with pytest.raises(ValueError):
            empirical_error_rate(running_example, arrangement, trials=0)
