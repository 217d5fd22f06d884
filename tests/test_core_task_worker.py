"""Tests for repro.core.task and repro.core.worker."""

from dataclasses import fields, replace

import pytest

from repro.core.quality_threshold import MIN_WORKER_ACCURACY
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


class TestTask:
    def test_basic_construction(self):
        task = Task(task_id=3, location=Point(1.0, 2.0), description="parking?")
        assert task.task_id == 3
        assert task.location == Point(1.0, 2.0)
        assert task.true_answer == 1

    def test_at_constructor(self):
        task = Task.at(0, 5, 6)
        assert task.location == Point(5.0, 6.0)

    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            Task(task_id=-1, location=Point(0, 0))

    def test_rejects_invalid_answer(self):
        with pytest.raises(ValueError):
            Task(task_id=0, location=Point(0, 0), true_answer=0)

    def test_with_answer(self):
        task = Task.at(0, 0, 0)
        flipped = task.with_answer(-1)
        assert flipped.true_answer == -1
        assert flipped.task_id == task.task_id
        assert task.true_answer == 1

    def test_distance_to(self):
        task = Task.at(0, 0, 0)
        assert task.distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_tasks_are_hashable(self):
        assert len({Task.at(0, 0, 0), Task.at(0, 0, 0)}) == 1


class TestWorker:
    def test_basic_construction(self):
        worker = Worker(index=1, location=Point(0, 0), accuracy=0.9, capacity=6)
        assert worker.index == 1
        assert worker.capacity == 6

    def test_at_constructor(self):
        worker = Worker.at(2, 1, 1, accuracy=0.8, capacity=3)
        assert worker.location == Point(1.0, 1.0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            Worker(index=0, location=Point(0, 0), accuracy=0.9, capacity=1)

    def test_rejects_accuracy_out_of_range(self):
        with pytest.raises(ValueError):
            Worker(index=1, location=Point(0, 0), accuracy=1.5, capacity=1)
        with pytest.raises(ValueError):
            Worker(index=1, location=Point(0, 0), accuracy=0.0, capacity=1)

    def test_rejects_spam_accuracy(self):
        below = MIN_WORKER_ACCURACY - 0.05
        with pytest.raises(ValueError):
            Worker(index=1, location=Point(0, 0), accuracy=below, capacity=1)

    def test_accepts_accuracy_exactly_at_spam_threshold(self):
        worker = Worker(index=1, location=Point(0, 0),
                        accuracy=MIN_WORKER_ACCURACY, capacity=1)
        assert worker.accuracy == MIN_WORKER_ACCURACY

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            Worker(index=1, location=Point(0, 0), accuracy=0.9, capacity=0)

    def test_distance_to(self):
        worker = Worker.at(1, 0, 0, accuracy=0.9, capacity=1)
        assert worker.distance_to(Point(0, 2)) == pytest.approx(2.0)

    def test_with_index_is_replace(self):
        # with_index passes every field on explicitly; a new field must be
        # added there too.
        assert [f.name for f in fields(Worker)] == [
            "index", "location", "accuracy", "capacity", "arrival_time", "metadata",
        ]
        worker = Worker.at(4, 1, 2, accuracy=0.8, capacity=3,
                           arrival_time=12.5, metadata={"city": "nyc"})
        moved = worker.with_index(9)
        expected = replace(worker, index=9)
        for field in fields(Worker):
            assert getattr(moved, field.name) is getattr(expected, field.name)
        with pytest.raises(ValueError):
            worker.with_index(0)
