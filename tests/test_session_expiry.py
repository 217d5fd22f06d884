"""Tests for task TTL expiry: arrangement abandonment through to dispatch."""

import pytest

from repro.algorithms.aam import AAMSolver
from repro.algorithms.baselines import RandomOnlineSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.registry import available_solvers, build_solver, solver_entry
from repro.core.instance import LTCInstance
from repro.core.session import SessionStateError
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.service import DispatcherMetrics, LTCDispatcher, RecoveryPolicy, ShardPlan
from repro.service.recovery import ArrivalJournal
from repro.service.sharding import ShardedDispatcher


def small_instance(num_tasks=4, num_workers=30, spacing=12.0):
    tasks = [
        Task(task_id=i, location=Point(spacing * i, 0.0))
        for i in range(num_tasks)
    ]
    workers = [
        Worker(
            index=index,
            location=Point(spacing * ((index - 1) % num_tasks), 1.0),
            accuracy=0.92,
            capacity=2,
        )
        for index in range(1, num_workers + 1)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)


class TestArrangementAbandonment:
    def test_abandoned_tasks_leave_the_open_set(self):
        instance = small_instance()
        arrangement = instance.new_arrangement()
        arrangement.abandon_tasks([1, 3])
        assert arrangement.abandoned_tasks == [1, 3]
        assert arrangement.is_task_abandoned(1)
        assert set(arrangement.uncompleted_tasks()) == {0, 2}

    def test_abandoned_tasks_refuse_assignments(self):
        instance = small_instance()
        arrangement = instance.new_arrangement()
        arrangement.abandon_tasks([0])
        worker = instance.workers[0]
        assert not arrangement.can_assign(worker, instance.tasks[0])
        with pytest.raises(KeyError):
            arrangement.assign(worker, instance.tasks[0])

    def test_completed_tasks_cannot_be_abandoned(self):
        instance = small_instance(num_tasks=1)
        arrangement = instance.new_arrangement()
        for worker in instance.workers:
            if arrangement.is_task_complete(0):
                break
            arrangement.assign(worker, instance.tasks[0])
        with pytest.raises(ValueError):
            arrangement.abandon_tasks([0])

    def test_unknown_ids_raise_and_repeats_are_idempotent(self):
        arrangement = small_instance().new_arrangement()
        with pytest.raises(KeyError):
            arrangement.abandon_tasks([99])
        arrangement.abandon_tasks([2])
        arrangement.abandon_tasks([2])
        assert arrangement.abandoned_tasks == [2]

    def test_summary_separates_abandoned_from_completed(self):
        instance = small_instance()
        arrangement = instance.new_arrangement()
        arrangement.abandon_tasks([0, 1])
        summary = arrangement.summary()
        assert summary["tasks_abandoned"] == 2.0
        assert summary["tasks_completed"] == 0.0

    def test_abandonment_completes_the_arrangement(self):
        instance = small_instance()
        arrangement = instance.new_arrangement()
        arrangement.abandon_tasks([0, 1, 2, 3])
        assert arrangement.uncompleted_tasks() == []


@pytest.mark.parametrize("solver_cls", [LAFSolver, AAMSolver])
class TestSolverExpiry:
    def test_expired_tasks_get_no_further_assignments(self, solver_cls):
        instance = small_instance()
        solver = solver_cls()
        solver.start(instance)
        solver.observe(instance.workers[0])
        expired = solver.expire_tasks([0, 1, 2, 3])
        for worker in instance.workers[1:6]:
            assert solver.observe(worker) == []
        assert set(expired) | {
            t for t in range(4) if solver.arrangement.is_task_complete(t)
        } == {0, 1, 2, 3}

    def test_expiry_skips_completed_and_repeated_ids(self, solver_cls):
        # Task 0 is under the worker cluster; task 1 is out of reach and
        # can never complete.
        instance = LTCInstance(
            tasks=[
                Task(task_id=0, location=Point(0.0, 0.0)),
                Task(task_id=1, location=Point(400.0, 0.0)),
            ],
            workers=[
                Worker(index=index, location=Point(0.0, 1.0),
                       accuracy=0.92, capacity=2)
                for index in range(1, 41)
            ],
            error_rate=0.2,
        )
        solver = solver_cls()
        solver.start(instance)
        for worker in instance.workers:
            if solver.arrangement.is_task_complete(0):
                break
            solver.observe(worker)
        assert solver.arrangement.is_task_complete(0)
        first = solver.expire_tasks([0, 1])
        assert first == [1]  # task 0 completed, only task 1 abandons
        assert solver.expire_tasks([0, 1]) == []  # second sweep is a no-op

    def test_unknown_ids_raise(self, solver_cls):
        solver = solver_cls()
        solver.start(small_instance())
        with pytest.raises(KeyError):
            solver.expire_tasks([123])

    def test_serving_continues_correctly_after_expiry(self, solver_cls):
        """Post-expiry decisions stay consistent: assignments only target
        open tasks and the arrangement stays violation-free."""
        instance = small_instance(num_tasks=6, num_workers=60, spacing=8.0)
        solver = solver_cls()
        solver.start(instance)
        for count, worker in enumerate(instance.workers, start=1):
            if count == 10:
                solver.expire_tasks([1, 4])
            assignments = solver.observe(worker)
            if count >= 10:
                assert all(a.task_id not in (1, 4) for a in assignments)
        workers = {w.index: w for w in instance.workers}
        assert solver.arrangement.constraint_violations(workers) == []


@pytest.mark.parametrize("solver_cls", [LAFSolver, AAMSolver, RandomOnlineSolver])
def test_duplicate_ids_in_one_sweep_expire_once(solver_cls):
    instance = small_instance()
    solver = solver_cls()
    solver.start(instance)
    solver.observe(instance.workers[0])
    assert solver.expire_tasks([0, 0]) == [0]
    assert solver.arrangement.abandoned_tasks == [0]
    assert solver.expire_tasks([3, 1, 3, 1]) == [3, 1]
    if isinstance(solver, AAMSolver):
        # The need statistics drop each expired task exactly once.
        open_ids = solver.arrangement.uncompleted_tasks()
        assert solver._uncompleted_count == len(open_ids)


class TestSessionExpiry:
    def test_snapshot_reports_abandonment(self):
        instance = small_instance()
        session = AAMSolver().open_session(instance)
        session.on_worker(instance.workers[0])
        expired = session.expire_tasks([2, 3])
        assert expired == [2, 3]
        snapshot = session.snapshot()
        assert snapshot.tasks_abandoned == 2
        assert snapshot.tasks_total == 4
        assert snapshot.tasks_remaining == 4 - snapshot.tasks_completed - 2

    def test_expiring_every_open_task_completes_the_session(self):
        instance = small_instance()
        session = LAFSolver().open_session(instance)
        session.expire_tasks([0, 1, 2, 3])
        assert session.is_complete
        result = session.result()
        assert result.arrangement.abandoned_tasks == [0, 1, 2, 3]

    def test_replay_sessions_refuse_expiry(self):
        instance = small_instance()
        session = build_solver("MCF-LTC").open_session(instance)
        with pytest.raises(SessionStateError):
            session.expire_tasks([0])

    def test_registry_capability_flag(self):
        """Every online solver expires tasks; offline replays refuse."""
        for name in ("MCF-LTC", "Base-off", "Random", "LAF", "AAM",
                     "LGF-only", "LRF-only"):
            assert name in available_solvers()
            session = build_solver(name).open_session(small_instance())
            if solver_entry(name).capabilities.online:
                assert session.expire_tasks([2, 2]) == [2]
                assert session.snapshot().tasks_abandoned == 1
            else:
                with pytest.raises(SessionStateError):
                    session.expire_tasks([2])


class TestRandomExpiry:
    def test_expired_task_is_never_drawn_again(self):
        instance = small_instance(num_tasks=4, num_workers=60)
        session = RandomOnlineSolver(seed=3).open_session(instance)
        for worker in instance.workers[:4]:
            session.on_worker(worker)
        assert session.expire_tasks([1, 2]) == [1, 2]
        for worker in instance.workers[4:]:
            assignments = session.on_worker(worker)
            assert all(a.task_id not in (1, 2) for a in assignments)
        drawn_late = {
            a.task_id for a in session.result().arrangement.assignments
            if a.worker_index > 4
        }
        assert drawn_late and drawn_late.isdisjoint({1, 2})

    def test_expiring_the_remaining_open_tasks_completes_the_session(self):
        # Task 0 sits under the workers; task 1 is out of everyone's reach.
        instance = LTCInstance(
            tasks=[
                Task(task_id=0, location=Point(0.0, 0.0)),
                Task(task_id=1, location=Point(400.0, 0.0)),
            ],
            workers=[
                Worker(index=index, location=Point(0.0, 1.0),
                       accuracy=0.92, capacity=2)
                for index in range(1, 41)
            ],
            error_rate=0.2,
        )
        session = RandomOnlineSolver(seed=0).open_session(instance)
        for worker in instance.workers:
            session.on_worker(worker)
            if session.arrangement.is_task_complete(0):
                break
        assert session.arrangement.is_task_complete(0)
        assert not session.is_complete
        assert session.expire_tasks([0, 1]) == [1]
        assert session.is_complete
        assert session.snapshot().tasks_abandoned == 1


class TestDispatcherExpiry:
    def test_expired_tasks_leave_the_routing_snapshot(self):
        far = LTCInstance(
            tasks=[
                Task(task_id=0, location=Point(0.0, 0.0)),
                Task(task_id=1, location=Point(400.0, 0.0)),
            ],
            workers=[Worker(index=1, location=Point(0.0, 0.0),
                            accuracy=0.9, capacity=2)],
            error_rate=0.2,
        )
        dispatcher = LTCDispatcher(default_solver="LAF")
        sid = dispatcher.submit_instance(far)
        assert dispatcher.expire_tasks(sid, [1]) == [1]
        # A worker near only the expired task no longer routes anywhere.
        deliveries = dispatcher.feed_worker(
            Worker(index=1, location=Point(400.0, 0.0),
                   accuracy=0.9, capacity=2)
        )
        assert deliveries == {}
        assert dispatcher.metrics.workers_unrouted == 1
        assert dispatcher.metrics.tasks_expired == 1

    def test_expiry_can_complete_a_session(self):
        instance = small_instance()
        dispatcher = LTCDispatcher(default_solver="AAM")
        sid = dispatcher.submit_instance(instance)
        dispatcher.expire_tasks(sid, [0, 1, 2, 3])
        assert dispatcher.poll()[sid].complete
        assert dispatcher.metrics.sessions_completed == 1
        # Completed-by-expiry sessions stop receiving traffic.
        deliveries = dispatcher.feed_worker(instance.workers[0])
        assert deliveries == {}

    def test_duplicate_ids_count_once(self):
        dispatcher = LTCDispatcher(default_solver="LAF")
        sid = dispatcher.submit_instance(small_instance())
        assert dispatcher.expire_tasks(sid, [0, 0]) == [0]
        assert dispatcher.metrics.tasks_expired == 1
        assert dispatcher.poll()[sid].snapshot.tasks_abandoned == 1

    def test_sharded_journal_records_a_duplicate_id_once(self, monkeypatch):
        recorded = []
        original = ArrivalJournal.record_expire

        def recording(journal, session_id, task_ids):
            recorded.append((session_id, list(task_ids)))
            original(journal, session_id, task_ids)

        monkeypatch.setattr(ArrivalJournal, "record_expire", recording)
        plan = ShardPlan(BoundingBox(-100.0, -100.0, 100.0, 100.0), cols=1, rows=1)
        dispatcher = ShardedDispatcher(
            plan, recovery=RecoveryPolicy(on_shard_failure="restart")
        )
        sid = dispatcher.submit_instance(small_instance(num_tasks=2), solver="AAM")
        assert dispatcher.expire_tasks(sid, [1, 1]) == [1]
        assert recorded == [(sid, [1])]
        assert dispatcher.metrics.tasks_expired == 1
        dispatcher.stop()


class TestMetricsMerge:
    def test_merged_sums_every_counter(self):
        first = DispatcherMetrics(workers_fed=10, workers_unrouted=2,
                                  assignments_made=7, busy_seconds=0.5)
        second = DispatcherMetrics(workers_fed=30, workers_unrouted=6,
                                   assignments_made=21, busy_seconds=1.5)
        merged = DispatcherMetrics.merged([first, second])
        assert merged.workers_fed == 40
        assert merged.workers_unrouted == 8
        assert merged.assignments_made == 28
        assert merged.busy_seconds == pytest.approx(2.0)
        # Derived ratios recompute over the sums.
        assert merged.routed_fraction == pytest.approx(32 / 40)
        assert merged.throughput_per_second == pytest.approx(20.0)
        # Merging mutates neither input.
        assert first.workers_fed == 10 and second.workers_fed == 30

    def test_merge_is_in_place_and_chains(self):
        total = DispatcherMetrics()
        total.merge(DispatcherMetrics(tasks_expired=3)).merge(
            DispatcherMetrics(tasks_expired=4)
        )
        assert total.tasks_expired == 7

    def test_summary_includes_expiry_counter(self):
        assert DispatcherMetrics(tasks_expired=5).summary()["tasks_expired"] == 5.0
