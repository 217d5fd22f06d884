"""Assignments record the accuracy the candidate engine ranked by.

LAF and AAM hand each pick's ``Acc(w, t)`` from the candidate engine to
:meth:`~repro.core.arrangement.Arrangement.assign`, which records it and
derives ``Acc*`` from it instead of evaluating the model again; MCF-LTC
does the same with the accuracy each pair of its batch pass carries, and
prices its batch networks from it.  So every recorded ``Assignment.acc`` must equal
the accuracy model's own evaluation bit for bit, and
``Assignment.acc_star`` the model's ``acc_star``: in every engine pass,
on snapshots small enough for the flat gather and on ones large enough
for the CSR grid, standalone and behind an
:class:`~repro.service.LTCDispatcher`.
"""

from dataclasses import replace

import pytest

from repro.algorithms import mcf_ltc
from repro.algorithms.aam import AAMSolver, LGFOnlySolver, LRFOnlySolver
from repro.algorithms.laf import LAFSolver
from repro.core.candidate_engine import CandidateEngine
from repro.core.candidate_engine import engine as engine_module
from repro.core.task import Task
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance
from repro.geo.point import Point
from repro.service import LTCDispatcher


def synthetic(num_tasks: int, seed: int):
    return generate_synthetic_instance(SyntheticConfig(
        num_tasks=num_tasks, num_workers=900, capacity=4, error_rate=0.2,
        grid_size=140.0, seed=seed,
    ))


@pytest.fixture(scope="module")
def instances():
    """One snapshot on each side of the flat-gather limit."""
    limit = engine_module.SPILL_REBUILD_MIN
    small, large = synthetic(40, 5), synthetic(120, 6)
    assert small.num_tasks <= limit < large.num_tasks
    return small, large


def assert_model_accuracy(assignments, workers, tasks, model):
    """Every assignment's ``acc``/``acc_star`` is the model's, bit for bit."""
    assert assignments
    for assignment in assignments:
        worker = workers[assignment.worker_index]
        task = tasks[assignment.task_id]
        assert assignment.acc.hex() == model.accuracy(worker, task).hex()
        assert assignment.acc_star.hex() == model.acc_star(worker, task).hex()


#: The greedy rules each AAM variant must have run: LRF ranks by need
#: alone, so its picks are the ones evaluated after ranking.
RULE_ROUNDS = {
    AAMSolver: ("lgf_rounds", "lrf_rounds"),
    LGFOnlySolver: ("lgf_rounds",),
    LRFOnlySolver: ("lrf_rounds",),
}


@pytest.mark.parametrize(
    "solver_class", [LAFSolver, AAMSolver, LGFOnlySolver, LRFOnlySolver],
    ids=lambda cls: cls.name,
)
def test_solvers_record_the_model_accuracy(engine_pass, instances, solver_class):
    for instance in instances:
        result = solver_class().solve(instance)
        for rounds in RULE_ROUNDS.get(solver_class, ()):
            assert result.extra[rounds] > 0
        assert_model_accuracy(
            result.arrangement,
            {worker.index: worker for worker in instance.workers},
            {task.task_id: task for task in instance.tasks},
            instance.accuracy_model,
        )


def test_dispatched_sessions_record_the_model_accuracy(engine_pass, instances):
    """Dispatcher probes commit the engine's picks, accuracies included,
    across mid-stream postings that carry the small session over the
    flat-gather limit."""
    dispatcher = LTCDispatcher()
    tasks = {}
    for instance, solver in zip(instances, ("LAF", "AAM")):
        session_id = dispatcher.submit_instance(instance, solver=solver)
        tasks[session_id] = {task.task_id: task for task in instance.tasks}
    small_id = next(iter(tasks))
    model = instances[0].accuracy_model
    merged = [
        replace(worker, index=index)
        for index, worker in enumerate(
            (w for pair in zip(*(i.workers for i in instances)) for w in pair),
            start=1,
        )
    ]
    workers = {worker.index: worker for worker in merged}
    delivered = {session_id: [] for session_id in tasks}
    for worker in merged:
        if worker.index % 300 == 0:
            posted = [
                Task(task_id=10_000 + worker.index + i,
                     location=Point(worker.location.x + i, worker.location.y))
                for i in range(12)
            ]
            dispatcher.submit_tasks(small_id, posted)
            tasks[small_id].update((task.task_id, task) for task in posted)
        for session_id, assignments in dispatcher.feed_worker(worker).items():
            # Sessions re-index arrivals locally; the pair's accuracy reads
            # only the worker's location and historical accuracy.
            delivered[session_id].extend(
                replace(assignment, worker_index=worker.index)
                for assignment in assignments
            )
    assert len(tasks[small_id]) > engine_module.SPILL_REBUILD_MIN
    for session_id, assignments in delivered.items():
        assert_model_accuracy(assignments, workers, tasks[session_id], model)


@pytest.mark.parametrize("gather", ["flat", "grid"])
def test_mcf_ltc_records_and_prices_the_model_accuracy(
    request, monkeypatch, engine_pass, instances, gather
):
    """Batch-flow and greedy-fill assignments record the model's ``Acc``,
    and every pair of a batch network costs the model's ``-Acc*``, bit
    for bit."""
    if gather == "grid":
        request.getfixturevalue("grid_gather")
    batches = []  # per batch: the (worker, task) pairs in network order, routed
    model = None  # the instance being solved's model, set in the loop below
    batch_pairs = CandidateEngine.batch_pairs
    solve_mcf = mcf_ltc.solve_mcf

    def recording_pairs(self, workers):
        found = batch_pairs(self, workers)
        pairs = [(workers[index], self.tasks[position])
                 for index, position in zip(found.workers.tolist(),
                                            found.positions.tolist())]
        batches.append([pairs, None])
        return found

    def recording_solve(network):
        pairs = batches[-1][0]
        assert network.num_arcs == 2 * (
            len(network.task_cap) + len(network.worker_cap) + len(pairs)
        )
        for cost, (worker, task) in zip(network.costs.tolist(), pairs):
            assert cost.hex() == (-model.acc_star(worker, task)).hex()
        result = solve_mcf(network)
        batches[-1][1] = result.routed
        return result

    monkeypatch.setattr(CandidateEngine, "batch_pairs", recording_pairs)
    monkeypatch.setattr(mcf_ltc, "solve_mcf", recording_solve)
    for instance in instances:
        model = instance.accuracy_model
        batches.clear()
        result = mcf_ltc.MCFLTCSolver().solve(instance)
        by_flow = {
            (pairs[j][0].index, pairs[j][1].task_id)
            for pairs, routed in batches if routed is not None
            for j in routed
        }
        assignments = list(result.arrangement)
        recorded = {assignment.as_tuple() for assignment in assignments}
        # Both ways of assigning ran: the batch flow and the greedy fill.
        assert by_flow and by_flow < recorded
        assert_model_accuracy(
            assignments,
            {worker.index: worker for worker in instance.workers},
            {task.task_id: task for task in instance.tasks},
            model,
        )
