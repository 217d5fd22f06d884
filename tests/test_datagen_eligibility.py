"""The vectorized eligible-worker count against the scalar oracle.

Both generators place tasks by counting, per candidate location, the
workers whose predicted accuracy reaches the spam threshold.  The oracle is
the per-candidate loop they used before: a ``GridIndex`` radius query
(``d_max + 5``), then the scalar ``SigmoidDistanceAccuracy`` on every hit.
The vectorized counter must agree with it everywhere: on random locations,
on workers a few ulps either side of the eligibility radius, and on whole
generated instances.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.datagen.foursquare as foursquare
import repro.datagen.synthetic as synthetic
from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.quality_threshold import MIN_WORKER_ACCURACY
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.eligibility import EligibleWorkerCounter
from repro.experiments.configs import get_experiment
from repro.geo.bbox import BoundingBox
from repro.geo.grid_index import GridIndex
from repro.geo.point import Point


class OracleCounter:
    """The generators' former scalar loop, behind the counter's interface."""

    def __init__(self, workers, model):
        self._workers = list(workers)
        self._model = model
        bounds = BoundingBox.from_points([w.location for w in self._workers])
        self._grid = GridIndex(bounds.expanded(model.d_max), max(model.d_max, 1.0))
        for worker in self._workers:
            self._grid.insert(worker.index, worker.location)

    def count(self, location):
        probe = Task(task_id=0, location=location)
        return sum(
            1
            for index in self._grid.query_radius(location, self._model.d_max + 5.0)
            if self._model.accuracy(self._workers[index - 1], probe)
            >= MIN_WORKER_ACCURACY
        )


def _random_workers(rng, count, side):
    return [
        Worker(
            index=i + 1,
            location=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            accuracy=float(rng.uniform(MIN_WORKER_ACCURACY, 1.0)),
            capacity=3,
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("d_max", [30.0, 7.5])
def test_random_locations_match_the_oracle(d_max):
    rng = np.random.default_rng(11)
    workers = _random_workers(rng, 600, 120.0)
    model = SigmoidDistanceAccuracy(d_max=d_max)
    counter = EligibleWorkerCounter(workers, model)
    oracle = OracleCounter(workers, model)
    counts = []
    for _ in range(300):
        # Some candidates fall outside the workers' extent on purpose.
        location = Point(float(rng.uniform(-40, 160)), float(rng.uniform(-40, 160)))
        counts.append(oracle.count(location))
        assert counter.count(location) == counts[-1]
    assert min(counts) == 0 and max(counts) > 0


def _scalar_eligible(model, accuracy, offset):
    worker = Worker(index=1, location=offset, accuracy=accuracy, capacity=1)
    probe = Task(task_id=0, location=Point(0.0, 0.0))
    return model.accuracy(worker, probe) >= MIN_WORKER_ACCURACY


def _radius_along(model, accuracy, angle):
    """The largest ``t`` whose offset ``t * (cos, sin)`` is still eligible."""
    direction = (math.cos(angle), math.sin(angle))
    inside, outside = 0.0, model.d_max
    while math.nextafter(inside, outside) != outside:
        middle = (inside + outside) / 2.0
        if middle in (inside, outside):
            break
        offset = Point(middle * direction[0], middle * direction[1])
        if _scalar_eligible(model, accuracy, offset):
            inside = middle
        else:
            outside = middle
    return inside, direction


def test_workers_at_the_radius_are_decided_by_the_scalar_model(monkeypatch):
    model = SigmoidDistanceAccuracy(d_max=30.0)
    workers = []
    for accuracy in (1.0, 0.93, 0.8, 0.7):
        for angle in (0.0, 0.4, 1.1, 2.5, 4.0):
            radius, (cx, cy) = _radius_along(model, accuracy, angle)
            t = radius
            for _ in range(6):  # walk a few ulps out from the boundary
                t = math.nextafter(t, math.inf)
            for _ in range(12):
                workers.append(
                    Worker(
                        index=len(workers) + 1,
                        location=Point(t * cx, t * cy),
                        accuracy=accuracy,
                        capacity=1,
                    )
                )
                t = math.nextafter(t, 0.0)
    location = Point(0.0, 0.0)
    expected = OracleCounter(workers, model).count(location)
    assert 0 < expected < len(workers)

    counter = EligibleWorkerCounter(workers, model)
    scalar_calls = []
    scalar = SigmoidDistanceAccuracy.accuracy

    def counting(self, worker, task):
        scalar_calls.append(worker.index)
        return scalar(self, worker, task)

    monkeypatch.setattr(SigmoidDistanceAccuracy, "accuracy", counting)
    assert counter.count(location) == expected
    # Every worker sits in the band, so every one was re-decided.
    assert sorted(scalar_calls) == [worker.index for worker in workers]


def _fingerprint(instance):
    return (
        [
            (t.task_id, t.location.x, t.location.y, t.true_answer, dict(t.metadata))
            for t in instance.tasks
        ],
        [
            (w.index, w.location.x, w.location.y, w.accuracy, w.capacity)
            for w in instance.workers
        ],
    )


@pytest.mark.parametrize(
    "experiment, value, scale",
    [
        ("fig4_epsilon", 0.14, 0.02),
        ("fig4_scalability", 50_000, 0.0025),
        ("fig4_newyork", 0.14, 0.05),
    ],
)
@pytest.mark.parametrize("seed", [3, 2018])
def test_generated_instances_match_the_oracle(monkeypatch, experiment, value, scale, seed):
    definition = replace(get_experiment(experiment), seed=seed)
    fast = definition.make_instance(definition, value, 0, scale)
    monkeypatch.setattr(synthetic, "EligibleWorkerCounter", OracleCounter)
    monkeypatch.setattr(foursquare, "EligibleWorkerCounter", OracleCounter)
    slow = definition.make_instance(definition, value, 0, scale)
    assert _fingerprint(fast) == _fingerprint(slow)
    assert all(
        task.metadata["eligible_workers_at_generation"] >= 0 for task in fast.tasks
    )
