"""Mid-stream task submission across the serving stack.

The tentpole contract: for every engine-backed online solver,
``Session.submit_tasks`` is legal after the first arrival and the
resulting arrangement is **byte-identical** to a rebuild-from-scratch
oracle — a driver that recomputes each arrival's decision naively over
the tasks posted so far (fresh ``LegacyCandidateFinder`` whenever the
task set changes, the pre-engine observe loops per arrival).  The
hypothesis suite interleaves task batches into the worker stream at
random points; the dispatcher tests cover the same flow through
``LTCDispatcher.submit_tasks`` (routing snapshot growth, session
reopening, metrics).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.aam import AAMSolver, LGFOnlySolver, LRFOnlySolver
from repro.algorithms.baselines import RandomOnlineSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.core.candidates import CandidateFinder
from repro.core.candidates_legacy import (
    LegacyCandidateFinder,
    legacy_aam_observe,
    legacy_laf_observe,
)
from repro.core.instance import LTCInstance
from repro.core.session import SessionStateError
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point
from repro.service.dispatcher import LTCDispatcher
from repro.structures.topk import TopKHeap

#: ``engine_pass`` is set once per test, not per example.
HEALTH_OK = [HealthCheck.large_base_example, HealthCheck.function_scoped_fixture]


# ----------------------------------------------------------- oracle drivers
# "Rebuild-from-scratch": per arrival, decide naively over the tasks posted
# so far; whenever the task set changes, throw the candidate state away and
# rebuild a fresh legacy finder over a fresh instance snapshot.


def _forced_aam_observe(use_lgf):
    """The ablation observe loops (AAM's rule with the switch pinned)."""

    def observe(instance, arrangement, finder, worker):
        delta = arrangement.delta
        heap: TopKHeap = TopKHeap(worker.capacity)
        for task in finder.candidates(worker):
            if arrangement.is_task_complete(task.task_id):
                continue
            need = delta - arrangement.accumulated_of(task.task_id)
            if use_lgf:
                score = min(instance.acc_star(worker, task), need)
            else:
                score = need
            heap.push(score, task)
        for _, task in heap.pop_all():
            arrangement.assign(worker, task)

    return observe


ORACLE_OBSERVES = {
    LAFSolver: legacy_laf_observe,
    AAMSolver: legacy_aam_observe,
    LGFOnlySolver: _forced_aam_observe(use_lgf=True),
    LRFOnlySolver: _forced_aam_observe(use_lgf=False),
}

DYNAMIC_SOLVERS = sorted(ORACLE_OBSERVES, key=lambda cls: cls.name)


def oracle_drive(observe, base_instance, events):
    """Drive the rebuild-from-scratch oracle over an event sequence."""
    tasks = list(base_instance.tasks)
    arrangement = base_instance.new_arrangement()

    def rebuild():
        snapshot = LTCInstance(
            tasks=list(tasks),
            workers=list(base_instance.workers),
            error_rate=base_instance.error_rate,
            accuracy_model=base_instance.accuracy_model,
            min_assignable_accuracy=base_instance.min_assignable_accuracy,
        )
        return snapshot, LegacyCandidateFinder(snapshot)

    snapshot, finder = rebuild()
    for kind, payload in events:
        if kind == "tasks":
            tasks.extend(payload)
            arrangement.add_tasks(payload)
            snapshot, finder = rebuild()
        else:
            observe(snapshot, arrangement, finder, payload)
    return arrangement


def clone_instance(instance):
    """A fresh instance copy: dynamic sessions mutate theirs in place."""
    return LTCInstance(
        tasks=list(instance.tasks),
        workers=list(instance.workers),
        error_rate=instance.error_rate,
        accuracy_model=instance.accuracy_model,
        min_assignable_accuracy=instance.min_assignable_accuracy,
    )


def dynamic_drive(solver, base_instance, events):
    """Drive a live session over the same event sequence."""
    session = solver.open_session(clone_instance(base_instance))
    for kind, payload in events:
        if kind == "tasks":
            session.submit_tasks(payload)
        else:
            session.on_worker(payload)
    return session


# --------------------------------------------------------------- strategies


@st.composite
def dynamic_scenarios(draw):
    """A base instance plus an event stream with mid-stream task batches."""
    rng = draw(st.randoms(use_true_random=False))
    box = draw(st.sampled_from([50.0, 140.0]))
    num_tasks = draw(st.integers(min_value=1, max_value=10))
    num_workers = draw(st.integers(min_value=2, max_value=18))
    all_ids = rng.sample(range(5_000), num_tasks + 12)
    if draw(st.booleans()):
        all_ids.sort()  # monotone postings keep positions id-ordered
    id_cursor = iter(all_ids)

    def new_task():
        return Task(
            task_id=next(id_cursor),
            location=Point(rng.uniform(0, box), rng.uniform(0, box)),
        )

    tasks = [new_task() for _ in range(num_tasks)]
    workers = [
        Worker(
            index=index,
            location=Point(rng.uniform(0, box), rng.uniform(0, box)),
            accuracy=rng.uniform(0.66, 1.0),
            capacity=rng.randint(1, 4),
        )
        for index in range(1, num_workers + 1)
    ]
    instance = LTCInstance(
        tasks=tasks, workers=workers,
        error_rate=draw(st.sampled_from([0.2, 0.3])),
    )
    events = []
    remaining_batches = draw(st.integers(min_value=1, max_value=3))
    for worker in workers:
        if remaining_batches and rng.random() < 0.35:
            events.append(
                ("tasks", [new_task() for _ in range(rng.randint(1, 3))])
            )
            remaining_batches -= 1
        events.append(("worker", worker))
    if remaining_batches:
        # At least one batch lands strictly after the first arrival.
        events.append(("tasks", [new_task()]))
        events.append(("worker", workers[-1].at(
            num_workers + 1,
            workers[-1].location.x,
            workers[-1].location.y,
            accuracy=workers[-1].accuracy,
            capacity=workers[-1].capacity,
        )))
    return instance, events


class TestDynamicSolversMatchOracle:
    @given(data=dynamic_scenarios())
    @settings(max_examples=12, deadline=None, suppress_health_check=HEALTH_OK)
    def test_arrangements_match_rebuild_from_scratch(self, engine_pass, data):
        instance, events = data
        for solver_cls, observe in ORACLE_OBSERVES.items():
            expected = oracle_drive(observe, instance, events).assignments
            session = dynamic_drive(solver_cls(), instance, events)
            got = session.result().arrangement.assignments
            assert got == expected, solver_cls.name

    @given(data=dynamic_scenarios())
    @settings(max_examples=8, deadline=None, suppress_health_check=HEALTH_OK)
    def test_random_solver_matches_rebuild_per_submit(self, engine_pass, data):
        """Random has no independent legacy loop; its oracle is the same
        solver with the candidate snapshot rebuilt at every submit (legal
        because Random keeps no per-position state and its rng draws
        depend only on the candidate lists, which must be identical)."""
        instance, events = data

        class RebuildEverySubmit(RandomOnlineSolver):
            def add_tasks(self, tasks):
                tasks = list(tasks)
                self._instance.add_tasks(tasks)
                self._arrangement.add_tasks(tasks)
                self._candidates = CandidateFinder(
                    self._instance, use_spatial_index=self.use_spatial_index
                )

        expected = (
            dynamic_drive(RebuildEverySubmit(seed=11), instance, events)
            .result().arrangement.assignments
        )
        got = (
            dynamic_drive(RandomOnlineSolver(seed=11), instance, events)
            .result().arrangement.assignments
        )
        assert got == expected


class TestSessionSemantics:
    @pytest.mark.parametrize("solver_cls", DYNAMIC_SOLVERS,
                             ids=lambda cls: cls.name)
    def test_submit_after_first_arrival_reopens_completion(
        self, solver_cls, tiny_instance
    ):
        session = solver_cls().open_session(tiny_instance)
        base_tasks = tiny_instance.num_tasks
        result = session.drive(iter(tiny_instance.workers))
        assert result.completed and session.is_complete
        session.submit_tasks([Task.at(77, 3.0, 1.0)])
        assert not session.is_complete
        snapshot = session.snapshot()
        assert snapshot.tasks_total == base_tasks + 1
        assert snapshot.tasks_remaining == 1

    def test_submitted_tasks_keep_arriving_in_batches(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        base_tasks = tiny_instance.num_tasks
        session.on_worker(tiny_instance.workers[0])
        session.submit_tasks([Task.at(70, 2.0, 1.0)])
        session.submit_tasks([Task.at(71, 2.5, 1.0), Task.at(72, 3.0, 1.0)])
        assert session.snapshot().tasks_total == base_tasks + 3

    def test_callers_instance_object_is_never_mutated(self, tiny_instance):
        """A dynamic session works on a private instance copy: mid-stream
        submissions must not leak into the object the caller posted (a
        second session or offline baseline run on it would otherwise see
        a silently enlarged task set)."""
        base_ids = [task.task_id for task in tiny_instance.tasks]
        session = LAFSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        session.submit_tasks([Task.at(70, 2.0, 1.0)])
        assert [task.task_id for task in tiny_instance.tasks] == base_ids
        assert session.snapshot().tasks_total == len(base_ids) + 1
        # A second session on the same instance starts from the original
        # task set and may receive the same late task independently.
        second = LAFSolver().open_session(tiny_instance)
        second.on_worker(tiny_instance.workers[0])
        second.submit_tasks([Task.at(70, 2.0, 1.0)])
        assert second.snapshot().tasks_total == len(base_ids) + 1

    def test_non_dynamic_session_refuses_live_submission(self, tiny_instance):
        session = MCFLTCSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        with pytest.raises(SessionStateError, match="fixed future"):
            session.submit_tasks([Task.at(70, 2.0, 1.0)])


class TestDispatcherDynamicSessions:
    @staticmethod
    def _district(center_x, first_id, num_tasks=2, error_rate=0.3):
        tasks = [
            Task.at(first_id + i, center_x + float(i), 0.0)
            for i in range(num_tasks)
        ]
        # A throwaway worker satisfies instance validation; dispatch feeds
        # its own merged stream.
        workers = [Worker.at(1, center_x, 0.0, accuracy=0.9, capacity=2)]
        return LTCInstance(tasks=tasks, workers=workers,
                           error_rate=error_rate)

    @staticmethod
    def _stream(center_x, count, start_index=1):
        return [
            Worker.at(start_index + i, center_x + 0.5, 0.0, accuracy=0.9,
                      capacity=2)
            for i in range(count)
        ]

    def test_mid_stream_submission_routes_new_arrivals(self):
        dispatcher = LTCDispatcher(default_solver="LAF")
        session_id = dispatcher.submit_instance(self._district(0.0, 0))
        consumed = dispatcher.feed_stream(self._stream(0.0, 30))
        assert dispatcher.poll()[session_id].complete
        # New tasks *far* from the originals: only the grown routing
        # snapshot can route workers near them.
        dispatcher.submit_tasks(session_id, [Task.at(90, 500.0, 0.0)])
        assert not dispatcher.poll()[session_id].complete
        assert dispatcher.metrics.sessions_reopened == 1
        assert dispatcher.metrics.tasks_submitted == 1
        far_stream = self._stream(500.0, 30, start_index=consumed + 1)
        dispatcher.feed_stream(far_stream)
        status = dispatcher.poll()[session_id]
        assert status.complete
        result = dispatcher.close(session_id)
        assert any(a.task_id == 90 for a in result.arrangement)

    def test_pre_activation_submission_still_stages(self):
        dispatcher = LTCDispatcher(default_solver="LAF")
        session_id = dispatcher.submit_instance(self._district(0.0, 0))
        dispatcher.submit_tasks(session_id, [Task.at(50, 1.5, 0.0)])
        assert dispatcher.poll()[session_id].snapshot.tasks_total == 3
        dispatcher.feed_stream(self._stream(0.0, 40))
        result = dispatcher.close(session_id)
        assert result.completed
        assert any(a.task_id == 50 for a in result.arrangement)

    def test_duplicate_submission_leaves_dispatcher_consistent(self):
        dispatcher = LTCDispatcher(default_solver="LAF")
        session_id = dispatcher.submit_instance(self._district(0.0, 0))
        dispatcher.feed_worker(self._stream(0.0, 1)[0])
        with pytest.raises(ValueError):
            dispatcher.submit_tasks(session_id, [Task.at(0, 1.0, 0.0)])
        # The failed submission touched neither snapshot nor metrics.
        assert dispatcher.metrics.tasks_submitted == 0
        assert dispatcher.poll()[session_id].snapshot.tasks_total == 2

    def test_unknown_session_raises(self):
        dispatcher = LTCDispatcher()
        with pytest.raises(KeyError):
            dispatcher.submit_tasks("nope", [Task.at(1, 0.0, 0.0)])
