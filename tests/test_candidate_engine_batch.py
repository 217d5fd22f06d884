"""The candidate engine's batch pass against its per-worker queries.

:meth:`~repro.core.candidate_engine.engine.CandidateEngine.batch_pairs`
gathers a whole batch's pairs in one pass; MCF-LTC builds its flow
network, applies the flow and ranks its greedy fill from those arrays.
So on every snapshot its ``(worker, task, acc)`` triples must be the
concatenated per-worker :meth:`scored_tasks`, bit for bit, in both modes
(grid and generic), on flat and CSR gathers, with retired tasks, with a
pair whose accuracy lies within ``DECISION_BAND`` of the threshold and
with workers that reach no task.  The per-worker queries run in every
engine pass (the ``engine_pass`` fixture), so the batch pass is checked
against the scalar and the numpy pass alike.  The flow costs MCF-LTC
derives from the accuracies, ``-acc_star`` over the array, must equal
the scalar ``-acc_star`` of each pair bit for bit, and so must their
exact integer scaling.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.accuracy import SigmoidDistanceAccuracy, TabularAccuracy, acc_star
from repro.core.candidate_engine import DECISION_BAND
from repro.core.candidate_engine import engine as engine_module
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.experiments.configs import get_experiment
from repro.flow.simplex import _integer_costs
from repro.geo.point import Point

#: ``engine_pass`` is set once per test, not per example.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]

THRESHOLD = 0.66


@st.composite
def snapshots(draw):
    """A random instance, its engine with some tasks retired, and a batch.

    The batch always holds a worker on the eligibility boundary of the
    first task (grid mode), one far outside every disk and one whose
    historical accuracy equals the threshold, which no distance reaches.
    """
    rng = draw(st.randoms(use_true_random=False))
    num_tasks = draw(st.sampled_from([3, 30, 90, 150]))
    box = draw(st.sampled_from([60.0, 200.0]))
    d_max = draw(st.sampled_from([5.0, 20.0]))
    task_ids = rng.sample(range(10 * num_tasks), num_tasks)
    if draw(st.booleans()):
        task_ids.sort()
    tasks = [Task(task_id=task_id, location=Point(rng.uniform(0, box), rng.uniform(0, box)))
             for task_id in task_ids]
    arrivals = [
        (Point(rng.uniform(0, box), rng.uniform(0, box)), rng.uniform(0.66, 1.0))
        for _ in range(draw(st.integers(1, 30)))
    ]
    # On the boundary: Acc(w, t) = THRESHOLD up to rounding.
    boundary = 0.9
    distance = d_max + math.log(boundary / THRESHOLD - 1.0)
    anchor = tasks[0].location
    extra = [
        (Point(anchor.x + distance, anchor.y), boundary),
        (Point(-50 * box, 40 * box), 0.9),
        (Point(anchor.x, anchor.y), THRESHOLD),
    ]
    for arrival in extra:
        arrivals.insert(rng.randrange(len(arrivals) + 1), arrival)
    workers = [
        Worker(index=index, location=location, accuracy=accuracy,
               capacity=rng.randint(1, 4))
        for index, (location, accuracy) in enumerate(arrivals, start=1)
    ]
    unreachable = arrivals.index(extra[2]) + 1
    if draw(st.booleans()):
        model = SigmoidDistanceAccuracy(d_max=d_max)
    else:
        table = {(w.index, t.task_id): rng.uniform(0.4, 1.0)
                 for w in workers for t in tasks if rng.random() < 0.7}
        table.update({(unreachable, t.task_id): 0.5 for t in tasks})
        model = TabularAccuracy(table, default=0.3)
    instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2,
                           accuracy_model=model, min_assignable_accuracy=THRESHOLD)
    engine = CandidateFinder(instance).engine
    retired = [t.task_id for t in tasks if rng.random() < draw(st.sampled_from([0.0, 0.3]))]
    engine.retire_tasks(retired)
    return engine, workers


def per_worker(engine, workers):
    return [
        (index, task.task_id, acc.hex())
        for index, worker in enumerate(workers)
        for task, acc in engine.scored_tasks(worker)
    ]


def batch(engine, workers):
    pairs = engine.batch_pairs(workers)
    tasks = engine.tasks
    return [
        (index, tasks[position].task_id, acc.hex())
        for index, position, acc in zip(pairs.workers.tolist(), pairs.positions.tolist(),
                                        pairs.acc.tolist())
    ]


@pytest.mark.parametrize("gather", ["flat-or-grid", "grid"])
@given(snapshot=snapshots())
@settings(max_examples=20, deadline=None, suppress_health_check=FIXTURE_OK)
def test_the_batch_pass_is_the_per_worker_queries_concatenated(
    request, engine_pass, gather, snapshot
):
    if gather == "grid":
        request.getfixturevalue("grid_gather")
    engine, workers = snapshot
    got = batch(engine, workers)
    assert got == per_worker(engine, workers)
    # Every pair is grouped by worker, in batch order.
    assert [index for index, _, _ in got] == sorted(index for index, _, _ in got)
    # The costs MCF-LTC prices and their exact integers.
    acc = engine.batch_pairs(workers).acc
    costs = -acc_star(acc)
    scalar = [-acc_star(a) for a in acc.tolist()]
    assert [c.hex() for c in costs.tolist()] == [c.hex() for c in scalar]
    if len(scalar):
        assert (_integer_costs(costs) == _integer_costs(scalar)).all()


def test_the_boundary_pair_lies_inside_the_decision_band():
    worker = Worker(index=1, location=Point(0.0, 0.0), accuracy=0.9, capacity=1)
    d_max = 20.0
    distance = d_max + math.log(0.9 / THRESHOLD - 1.0)
    task = Task(task_id=1, location=Point(distance, 0.0))
    instance = LTCInstance(tasks=[task], workers=[worker], error_rate=0.2,
                           accuracy_model=SigmoidDistanceAccuracy(d_max=d_max))
    engine = CandidateFinder(instance).engine
    assert abs(engine.scalar_accuracy(worker, 0) - THRESHOLD) < DECISION_BAND
    assert batch(engine, [worker]) == per_worker(engine, [worker])


@pytest.mark.parametrize(
    "experiment, value, scale",
    [("fig4_scalability", 50_000, 0.0025), ("fig4_epsilon", 0.14, 0.05)],
    ids=["paper_dense", "paper_sparse"],
)
def test_array_costs_equal_scalar_acc_star_on_the_paper_instances(
    experiment, value, scale
):
    """``-acc_star`` over a float64 array equals the scalar one on every
    pair of the e2e paper workloads' first batch."""
    instance = get_experiment(experiment).instance_factory(scale)(value, 0)
    engine = CandidateFinder(instance).engine
    acc = engine.batch_pairs(instance.workers[:400]).acc
    assert len(acc) > 1000
    array = (-acc_star(acc)).tolist()
    assert [c.hex() for c in array] == [(-acc_star(a)).hex() for a in acc.tolist()]


def test_memory_grows_with_the_pairs_gathered(monkeypatch):
    """Chunks of whole workers hold at most ``_BATCH_BLOCK`` entries: a
    tiny block changes nothing but the chunking."""
    instance = get_experiment("fig4_scalability").instance_factory(0.0025)(50_000, 0)
    engine = CandidateFinder(instance).engine
    workers = instance.workers[:150]
    expected = batch(engine, workers)
    sizes = []
    gathered = engine._gathered

    def recording(*args):
        for index, positions in gathered(*args):
            sizes.append((len(np.unique(index)), len(positions)))
            yield index, positions

    monkeypatch.setattr(engine_module, "_BATCH_BLOCK", 500)
    monkeypatch.setattr(engine, "_gathered", recording)
    assert batch(engine, workers) == expected
    assert len(sizes) > 1
    assert all(size <= 500 or count == 1 for count, size in sizes)
