"""Tests for the incremental Session protocol implementations."""

import pytest

from repro.algorithms.base import OnlineSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.algorithms.registry import build_solver
from repro.algorithms.session import OnlineSolverSession, ReplaySession, open_session
from repro.core.instance import LTCInstance
from repro.core.session import SessionSnapshot, SessionStateError
from repro.core.stream import WorkerStream
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point

ONLINE = ["AAM", "LAF", "LGF-only", "LRF-only", "Random"]


def two_sites(num_workers=40):
    """Task 0 under a cluster of workers; task 1 far from all of them."""
    return LTCInstance(
        tasks=[
            Task(task_id=0, location=Point(0.0, 0.0)),
            Task(task_id=1, location=Point(400.0, 0.0)),
        ],
        workers=[
            Worker(index=index, location=Point(0.0, 1.0), accuracy=0.92, capacity=2)
            for index in range(1, num_workers + 1)
        ],
        error_rate=0.2,
    )


class TestOnlineSolverSession:
    def test_requires_an_online_solver(self, tiny_instance):
        with pytest.raises(TypeError):
            OnlineSolverSession(MCFLTCSolver(), tiny_instance)

    def test_incremental_drive_matches_solve(self, tiny_instance):
        solved = LAFSolver().solve(tiny_instance)
        session = LAFSolver().open_session(tiny_instance)
        fed = 0
        for worker in tiny_instance.workers:
            session.on_worker(worker)
            fed += 1
            if session.is_complete:
                break
        result = session.result()
        assert result.max_latency == solved.max_latency
        assert result.workers_observed == fed == solved.workers_observed

    def test_assignments_returned_per_arrival(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        assignments = session.on_worker(tiny_instance.workers[0])
        assert all(a.worker_index == 1 for a in assignments)
        assert len(assignments) <= tiny_instance.workers[0].capacity

    def test_result_before_any_worker(self, tiny_instance):
        result = LAFSolver().open_session(tiny_instance).result()
        assert result.workers_observed == 0
        assert not result.completed

    def test_drive_can_consume_the_whole_stream(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        result = session.drive(
            WorkerStream(tiny_instance.workers), stop_when_complete=False
        )
        assert result.workers_observed == tiny_instance.num_workers

    def test_one_solver_object_serves_one_live_session(self, tiny_instance):
        # A solver holds one mutable arrangement; a superseded session must
        # fail loudly instead of silently corrupting the newer session.
        solver = LAFSolver()
        first = solver.open_session(tiny_instance)
        first.on_worker(tiny_instance.workers[0])
        second = solver.open_session(tiny_instance)
        second.on_worker(tiny_instance.workers[0])  # rebinds the solver
        with pytest.raises(SessionStateError):
            first.on_worker(tiny_instance.workers[1])
        with pytest.raises(SessionStateError):
            first.result()
        # the newer session is unaffected
        assert second.snapshot().workers_observed == 1

    def test_sequential_solver_reuse_still_works(self, tiny_instance):
        solver = LAFSolver()
        first = solver.solve(tiny_instance)
        second = solver.solve(tiny_instance)
        assert first.max_latency == second.max_latency


@pytest.mark.parametrize("name", ONLINE)
class TestSessionSelect:
    """``OnlineSolverSession.select`` routes: ``None`` only when the worker
    reaches no task that has not expired."""

    def test_open_task_in_reach_gives_picks(self, name):
        instance = two_sites()
        session = build_solver(name).open_session(instance)
        selection = session.select(instance.workers[0])
        assert [task.task_id for task, _ in selection.picks] == [0]

    def test_completed_task_in_reach_still_routes(self, name):
        instance = two_sites()
        session = build_solver(name).open_session(instance)
        for worker in instance.workers:
            session.on_worker(worker)
            if session.arrangement.is_task_complete(0):
                break
        next_worker = instance.workers[session.workers_observed]
        selection = session.select(next_worker)
        assert selection is not None
        if name != "Random":  # Random never retires a completed task
            assert selection.picks == []
            assert session.on_worker(next_worker, selection) == []

    def test_only_expired_tasks_in_reach_routes_nowhere(self, name):
        instance = two_sites()
        session = build_solver(name).open_session(instance)
        assert session.expire_tasks([0]) == [0]
        assert session.select(instance.workers[0]) is None
        far = Worker(index=1, location=Point(400.0, 1.0), accuracy=0.92, capacity=2)
        assert [task.task_id for task, _ in session.select(far).picks] == [1]

    def test_drive_never_asks_the_routing_fallback(self, name, monkeypatch):
        def refuse(self, worker):
            raise AssertionError("reaches_completed called on the drive path")

        monkeypatch.setattr(OnlineSolver, "reaches_completed", refuse)
        instance = two_sites()
        session = build_solver(name).open_session(instance)
        result = session.drive(instance.workers, stop_when_complete=False)
        assert result.workers_observed == instance.num_workers
        assert build_solver(name).solve(instance).workers_observed > 0


class TestSubmitTasks:
    def test_tasks_submitted_before_first_worker_are_served(self):
        from repro.core.accuracy import ConstantAccuracy
        from repro.core.instance import LTCInstance
        from repro.core.worker import Worker

        # 12 capacity units, 6 needed per task at Acc* = 0.64: exactly two
        # tasks fit, so the session stays feasible after the late post.
        instance = LTCInstance(
            tasks=[Task.at(0, 0.0, 0.0)],
            workers=[
                Worker.at(index, float(index), 1.0, accuracy=0.9, capacity=2)
                for index in range(1, 7)
            ],
            error_rate=0.2,
            accuracy_model=ConstantAccuracy(0.9),
        )
        session = LAFSolver().open_session(instance)
        session.submit_tasks([Task.at(7, 2.0, 1.0)])
        assert session.snapshot().tasks_total == 2
        result = session.drive(WorkerStream(instance.workers))
        assert result.completed
        assert any(a.task_id == 7 for a in result.arrangement)

    def test_duplicate_task_ids_rejected(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        existing_id = tiny_instance.tasks[0].task_id
        with pytest.raises(ValueError):
            session.submit_tasks([Task.at(existing_id, 1.0, 1.0)])

    def test_dynamic_solver_accepts_tasks_after_first_arrival(self, tiny_instance):
        # LAF rides the dynamic candidate engine, so mid-stream submission
        # is legal: the task joins the live snapshot and reopens completion.
        from repro.core.worker import Worker

        session = LAFSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        session.submit_tasks([Task.at(7, 2.0, 1.0)])
        assert session.snapshot().tasks_total == 3
        for worker in tiny_instance.workers[1:]:
            session.on_worker(worker)
        # The original capacity budget exactly covers the two base tasks,
        # so the late task keeps the session open...
        assert not session.is_complete
        # ...until later arrivals serve it through the live snapshot.
        for index in range(7, 13):
            session.on_worker(
                Worker.at(index, 2.0, 1.0, accuracy=0.9, capacity=2)
            )
            if session.is_complete:
                break
        result = session.result()
        assert result.completed
        assert any(a.task_id == 7 for a in result.arrangement)

    def test_replay_session_still_freezes_at_first_arrival(self, tiny_instance):
        # Offline plans are computed for a fixed future: mid-stream tasks
        # must keep being refused.
        session = MCFLTCSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        with pytest.raises(SessionStateError):
            session.submit_tasks([Task.at(7, 2.0, 1.0)])

    def test_mid_stream_duplicate_task_ids_rejected(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        existing_id = tiny_instance.tasks[0].task_id
        with pytest.raises(ValueError):
            session.submit_tasks([Task.at(existing_id, 1.0, 1.0)])


class TestReplaySession:
    def test_replays_the_offline_plan_exactly(self, tiny_instance):
        solved = MCFLTCSolver().solve(tiny_instance)
        session = MCFLTCSolver().open_session(tiny_instance)
        result = session.drive(WorkerStream(tiny_instance.workers))
        assert result.max_latency == solved.max_latency
        assert (
            {a.as_tuple() for a in result.arrangement}
            == {a.as_tuple() for a in solved.arrangement}
        )
        # the plan's diagnostics ride along
        assert result.extra["batches"] == solved.extra["batches"]

    def test_remains_incomplete_until_whole_plan_is_replayed(self, tiny_instance):
        session = MCFLTCSolver().open_session(tiny_instance)
        result = session.drive(WorkerStream(tiny_instance.workers))
        # after a full drive the plan is exhausted and the session complete
        assert session.is_complete == result.completed

    def test_rejects_out_of_order_streams(self, tiny_instance):
        session = ReplaySession(MCFLTCSolver(), tiny_instance)
        with pytest.raises(SessionStateError):
            session.on_worker(tiny_instance.workers[2])  # index 3 first

    def test_rejected_arrival_does_not_desync_the_session(self, tiny_instance):
        solved = MCFLTCSolver().solve(tiny_instance)
        session = ReplaySession(MCFLTCSolver(), tiny_instance)
        with pytest.raises(SessionStateError):
            session.on_worker(tiny_instance.workers[1])  # wrong worker first
        # the rejected arrival was not counted; the correct stream still works
        result = session.drive(WorkerStream(tiny_instance.workers))
        assert result.max_latency == solved.max_latency
        assert result.workers_observed <= tiny_instance.num_workers

    def test_rejects_foreign_workers(self, tiny_instance):
        from dataclasses import replace

        session = ReplaySession(MCFLTCSolver(), tiny_instance)
        imposter = replace(tiny_instance.workers[0], accuracy=0.95)
        with pytest.raises(SessionStateError):
            session.on_worker(imposter)


class TestOpenSessionDispatch:
    def test_open_session_picks_the_right_adapter(self, tiny_instance):
        assert isinstance(
            open_session(LAFSolver(), tiny_instance), OnlineSolverSession
        )
        assert isinstance(
            open_session(MCFLTCSolver(), tiny_instance), ReplaySession
        )

    def test_snapshot_summary_is_flat_floats(self, tiny_instance):
        session = LAFSolver().open_session(tiny_instance)
        session.on_worker(tiny_instance.workers[0])
        snapshot = session.snapshot()
        assert isinstance(snapshot, SessionSnapshot)
        summary = snapshot.summary()
        assert summary["workers_observed"] == 1.0
        assert all(isinstance(value, float) for value in summary.values())
        assert snapshot.tasks_remaining == (
            snapshot.tasks_total - snapshot.tasks_completed
        )
