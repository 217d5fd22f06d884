"""Tests for repro.core.candidates (eligibility / "nearby" tasks)."""

import math
from dataclasses import replace

import pytest

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.candidates import CandidateFinder, sigmoid_eligibility_radius
from repro.core.candidates_legacy import LegacyCandidateFinder
from repro.core.instance import LTCInstance
from repro.core.quality_threshold import MIN_WORKER_ACCURACY
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


def spatial_instance(task_xs, worker_accuracy=0.9, d_max=30.0):
    tasks = [Task(task_id=i, location=Point(x, 0.0)) for i, x in enumerate(task_xs)]
    workers = [Worker(index=1, location=Point(0.0, 0.0), accuracy=worker_accuracy, capacity=4)]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=SigmoidDistanceAccuracy(d_max=d_max),
    )


class TestEligibilityRadius:
    def test_matches_closed_form(self):
        radius = sigmoid_eligibility_radius(0.9, d_max=30.0, min_accuracy=0.66)
        # At this distance the sigmoid accuracy equals exactly 0.66.
        model = SigmoidDistanceAccuracy(d_max=30.0)
        worker = Worker(index=1, location=Point(0, 0), accuracy=0.9, capacity=1)
        task = Task(task_id=0, location=Point(radius, 0))
        assert model.accuracy(worker, task) == pytest.approx(0.66, abs=1e-9)

    def test_negative_when_worker_cannot_reach_threshold(self):
        assert sigmoid_eligibility_radius(0.66, d_max=30.0, min_accuracy=0.66) < 0

    def test_infinite_when_threshold_is_zero(self):
        assert math.isinf(sigmoid_eligibility_radius(0.9, 30.0, 0.0))


class TestCandidateFinder:
    def test_respects_accuracy_threshold(self):
        instance = spatial_instance([0.0, 10.0, 28.0, 60.0])
        finder = CandidateFinder(instance)
        worker = instance.worker(1)
        candidate_ids = [task.task_id for task in finder.candidates(worker)]
        # Tasks at distance 0, 10 and 28 are within the eligibility radius
        # (~28.6 for accuracy 0.9); the task at 60 is not.
        assert candidate_ids == [0, 1, 2]

    def test_spatial_index_and_scan_agree(self, small_synthetic_instance):
        instance = small_synthetic_instance
        indexed = CandidateFinder(instance)
        # Every task, no radius gate: the grid must lose no candidate.
        scanned = LegacyCandidateFinder(instance, use_spatial_index=False)
        for worker in instance.workers[:40]:
            ids_indexed = [t.task_id for t in indexed.candidates(worker)]
            ids_scanned = [t.task_id for t in scanned.candidates(worker)]
            assert ids_indexed == sorted(ids_scanned)

    def test_non_sigmoid_model_scans_all_tasks(self):
        tasks = [Task.at(0, 0, 0), Task.at(1, 500, 500)]
        workers = [Worker.at(1, 0, 0, accuracy=0.9, capacity=1)]
        instance = LTCInstance(
            tasks=tasks, workers=workers, error_rate=0.2,
            accuracy_model=ConstantAccuracy(0.9),
        )
        finder = CandidateFinder(instance)
        assert len(finder.candidates(instance.worker(1))) == 2

    def test_instance_threshold_decides_eligibility(self):
        instance = spatial_instance([0.0, 27.0])
        permissive = CandidateFinder(replace(instance, min_assignable_accuracy=0.5))
        strict = CandidateFinder(replace(instance, min_assignable_accuracy=0.89))
        worker = instance.worker(1)
        assert len(permissive.candidates(worker)) == 2
        assert len(strict.candidates(worker)) == 1

    def test_min_accuracy_property(self):
        instance = spatial_instance([0.0])
        assert CandidateFinder(instance).engine.min_accuracy == pytest.approx(
            instance.min_assignable_accuracy
        )

    def test_candidate_count_per_task(self):
        instance = spatial_instance([0.0, 60.0])
        finder = CandidateFinder(instance)
        counts = finder.candidate_count_per_task()
        assert counts == {0: 1, 1: 0}

    def test_zero_min_accuracy_matches_every_task(self):
        # Regression: min_accuracy <= 0 gives an infinite eligibility
        # radius, which used to overflow the grid's cell arithmetic
        # (int(inf // cell_size)).  The scan must now cover the whole grid.
        instance = spatial_instance([0.0, 60.0, 900.0])
        finder = CandidateFinder(replace(instance, min_assignable_accuracy=0.0))
        worker = instance.worker(1)
        assert [t.task_id for t in finder.candidates(worker)] == [0, 1, 2]
        assert finder.has_candidates(worker)


class TestHasCandidates:
    def test_agrees_with_the_full_candidate_list(self, small_synthetic_instance):
        finder = CandidateFinder(small_synthetic_instance)
        scan = LegacyCandidateFinder(small_synthetic_instance, use_spatial_index=False)
        for worker in small_synthetic_instance.workers[:50]:
            assert finder.has_candidates(worker) == bool(scan.candidates(worker))
