"""Tests for repro.analysis.instance_stats."""

import pytest

from repro.analysis.instance_stats import compute_instance_stats
from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


class TestComputeInstanceStats:
    def test_constant_accuracy_instance(self, tiny_instance):
        stats = compute_instance_stats(tiny_instance)
        assert stats.num_tasks == 2
        assert stats.num_workers == 6
        # Every worker can perform every task.
        assert stats.eligible_workers_per_task["min"] == 6
        assert stats.candidate_tasks_per_worker["mean"] == pytest.approx(2.0)
        assert stats.contention_ratio == pytest.approx(2.0 / tiny_instance.capacity)
        # 6 workers x capacity 2 x Acc* 0.64 vs 2 tasks x delta 3.22.
        assert stats.feasibility_margin == pytest.approx(
            (6 * 2 * 0.64) / (2 * tiny_instance.delta)
        )

    def test_detects_starved_tasks(self):
        """A task reachable by exactly the number of answers it needs is starved."""
        tasks = [Task.at(0, 0.0, 0.0), Task.at(1, 200.0, 0.0)]
        workers = (
            [Worker.at(i, 0.0, 0.0, accuracy=0.9, capacity=2) for i in range(1, 11)]
            + [Worker.at(11, 200.0, 0.0, accuracy=0.9, capacity=2)]
        )
        # Workers re-indexed to arrival order 1..11 already; task 1 has a
        # single nearby worker, far fewer than delta / Acc* ~= 5 answers.
        instance = LTCInstance(
            tasks=tasks, workers=workers, error_rate=0.2,
            accuracy_model=SigmoidDistanceAccuracy(d_max=30.0),
        )
        stats = compute_instance_stats(instance)
        assert 1 in stats.starved_tasks
        assert 0 not in stats.starved_tasks
        assert stats.feasibility_margin < 10  # sanity: finite, sensible value

    def test_describe_is_informative(self, small_synthetic_instance):
        stats = compute_instance_stats(small_synthetic_instance)
        text = stats.describe()
        assert "tasks" in text and "contention" in text and "feasibility" in text

    def test_generated_instances_are_feasible_by_construction(
        self, small_synthetic_instance
    ):
        stats = compute_instance_stats(small_synthetic_instance)
        assert stats.feasibility_margin > 1.0
        assert stats.eligible_workers_per_task["min"] >= 1


    def test_unreachable_task_is_reported_starved(self):
        tasks = [Task.at(0, 0.0, 0.0), Task.at(1, 500.0, 500.0)]
        workers = [Worker.at(i, 0.0, 0.0, accuracy=0.9, capacity=1) for i in (1, 2, 3)]
        instance = LTCInstance(
            tasks=tasks, workers=workers, error_rate=0.3,
            accuracy_model=SigmoidDistanceAccuracy(d_max=30.0),
        )
        stats = compute_instance_stats(instance)
        assert 1 in stats.starved_tasks
