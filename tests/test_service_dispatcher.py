"""Tests for the multi-instance dispatch layer."""

from dataclasses import replace

import pytest

from repro.algorithms.registry import build_solver
from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point
from repro.service import (
    DuplicateSessionError,
    LTCDispatcher,
    UnknownSessionError,
)

#: Three districts far enough apart that sigmoid eligibility (d_max = 30)
#: partitions a merged stream geographically.
OFFSETS = [(0.0, 0.0), (500.0, 0.0), (0.0, 500.0)]


def district_instance(offset, num_tasks=2, num_workers=14, seed=0):
    """A small deterministic campaign translated into its own district."""
    dx, dy = offset
    tasks = [
        Task(task_id=i, location=Point(dx + 10.0 * i, dy)) for i in range(num_tasks)
    ]
    workers = [
        Worker(
            index=index,
            location=Point(dx + (index % 3) * 5.0, dy + (seed % 2)),
            accuracy=0.9,
            capacity=2,
        )
        for index in range(1, num_workers + 1)
    ]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=SigmoidDistanceAccuracy(d_max=30.0),
        name=f"district@{offset}",
    )


def merged_stream(instances):
    """Round-robin interleave, re-indexed into one global arrival order."""
    queues = [list(instance.workers) for instance in instances]
    merged = []
    while any(queues):
        for queue in queues:
            if queue:
                merged.append(replace(queue.pop(0), index=len(merged) + 1))
    return merged


@pytest.fixture
def three_districts():
    return [
        district_instance(offset, seed=i) for i, offset in enumerate(OFFSETS)
    ]


class TestRouting:
    def test_per_session_latency_matches_standalone_runs(self, three_districts):
        solvers = ["AAM", "LAF", "AAM"]
        dispatcher = LTCDispatcher(keep_streams=True)
        ids = [
            dispatcher.submit_instance(instance, solver=solver)
            for instance, solver in zip(three_districts, solvers)
        ]
        dispatcher.feed_stream(merged_stream(three_districts))
        statuses = dispatcher.poll()
        assert len(statuses) == 3

        for session_id, instance, solver in zip(ids, three_districts, solvers):
            status = statuses[session_id]
            assert status.complete
            partition = dispatcher.routed_stream(session_id)
            standalone = build_solver(solver).open_session(instance).drive(partition)
            assert status.max_latency == standalone.max_latency
            assert status.max_latency > 0

    def test_geographic_partition_of_the_merged_stream(self, three_districts):
        dispatcher = LTCDispatcher(keep_streams=True)
        ids = [dispatcher.submit_instance(inst) for inst in three_districts]
        stream = merged_stream(three_districts)
        dispatcher.feed_stream(stream, stop_when_all_complete=False)

        # Districts are disjoint, so each session's routed sub-stream is its
        # own district's workers (in order, re-indexed 1..n).
        for session_id, instance in zip(ids, three_districts):
            partition = dispatcher.routed_stream(session_id)
            assert [w.index for w in partition] == list(
                range(1, len(partition) + 1)
            )
            assert all(
                w.location.distance_to(instance.tasks[0].location) < 100.0
                for w in partition
            )

    def test_complete_sessions_stop_receiving_workers(self, three_districts):
        instance = three_districts[0]
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(instance, solver="AAM")
        for worker in instance.workers:
            dispatcher.feed_worker(worker)
        status = dispatcher.poll()[session_id]
        assert status.complete
        # Feeding more traffic does not advance a completed session.
        routed_before = status.workers_routed
        dispatcher.feed_worker(replace(instance.workers[0], index=1))
        assert dispatcher.poll()[session_id].workers_routed == routed_before

    def test_unroutable_workers_are_counted(self, three_districts):
        dispatcher = LTCDispatcher()
        dispatcher.submit_instance(three_districts[0])
        faraway = Worker(index=1, location=Point(9000.0, 9000.0),
                         accuracy=0.9, capacity=2)
        assert dispatcher.feed_worker(faraway) == {}
        assert dispatcher.metrics.workers_unrouted == 1
        assert dispatcher.metrics.workers_fed == 1
        assert dispatcher.metrics.routed_fraction == 0.0


class TestProbeActivation:
    """A probe activates its session, so tasks posted or expired before its
    first delivery reach the live solver instead of the staging list; the
    observable results must be those of a session never probed."""

    @pytest.mark.parametrize("solver", ["AAM", "LAF", "LGF-only", "Random"])
    def test_probed_session_stages_like_an_unprobed_one(
        self, solver, three_districts, monkeypatch
    ):
        built = []
        original = CandidateFinder.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CandidateFinder, "__init__", counting)
        instance = three_districts[0]
        probed, unprobed = LTCDispatcher(), LTCDispatcher()
        for dispatcher in (probed, unprobed):
            dispatcher.submit_instance(instance, solver=solver, session_id="d")
        # Inside the reach box (a perfect worker's radius is about 29.3),
        # but outside this worker's radius (about 27.2) of every task.
        weak = Worker(index=1, location=Point(-28.5, 0.0), accuracy=0.7, capacity=2)
        assert probed.feed_worker(weak) == {}
        assert len(built) == 1  # the probe activated the session
        assert probed.poll() == unprobed.poll()

        posted = [Task(task_id=7, location=Point(20.0, 0.0))]
        for dispatcher in (probed, unprobed):
            assert dispatcher.submit_tasks("d", posted) == "d"
        assert probed.poll() == unprobed.poll()
        assert probed.expire_tasks("d", [1]) == unprobed.expire_tasks("d", [1]) == [1]
        assert probed.poll() == unprobed.poll()

        for worker in instance.workers:
            assert probed.feed_worker(worker) == unprobed.feed_worker(worker)
            assert probed.poll() == unprobed.poll()
        results = [dispatcher.close("d") for dispatcher in (probed, unprobed)]
        assert results[0].arrangement.assignments == results[1].arrangement.assignments
        assert results[0].max_latency == results[1].max_latency


class TestLifecycle:
    def test_close_returns_the_solve_result(self, three_districts):
        instance = three_districts[0]
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(instance, solver="LAF")
        for worker in instance.workers:
            dispatcher.feed_worker(worker)
            if dispatcher.all_complete:
                break
        result = dispatcher.close(session_id)
        assert result.algorithm == "LAF"
        assert result.completed
        assert session_id not in dispatcher.session_ids
        assert dispatcher.metrics.sessions_closed == 1

    def test_close_all_in_submission_order(self, three_districts):
        dispatcher = LTCDispatcher()
        ids = [dispatcher.submit_instance(inst) for inst in three_districts]
        results = dispatcher.close_all()
        assert list(results) == ids
        assert dispatcher.session_ids == []

    def test_duplicate_and_unknown_session_ids(self, three_districts):
        dispatcher = LTCDispatcher()
        dispatcher.submit_instance(three_districts[0], session_id="alpha")
        with pytest.raises(DuplicateSessionError):
            dispatcher.submit_instance(three_districts[1], session_id="alpha")
        with pytest.raises(UnknownSessionError):
            dispatcher.close("beta")

    def test_auto_ids_and_default_solver(self, three_districts):
        dispatcher = LTCDispatcher(default_solver="LAF")
        first = dispatcher.submit_instance(three_districts[0])
        second = dispatcher.submit_instance(three_districts[1])
        assert first != second
        assert dispatcher.poll()[first].algorithm == "LAF"

    def test_prebuilt_solver_instances_are_accepted(self, three_districts):
        from repro.algorithms.aam import AAMSolver

        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(
            three_districts[0], solver=AAMSolver()
        )
        assert dispatcher.poll()[session_id].algorithm == "AAM"

    def test_shared_solver_object_rejected_at_submit(self, three_districts):
        from repro.algorithms.aam import AAMSolver

        dispatcher = LTCDispatcher()
        solver = AAMSolver()
        dispatcher.submit_instance(three_districts[0], solver=solver)
        with pytest.raises(ValueError, match="one solver per session"):
            dispatcher.submit_instance(three_districts[1], solver=solver)

    def test_offline_solvers_are_rejected(self, three_districts):
        # A replay session must be fed its instance's own stream, which a
        # dispatcher routing merged live traffic cannot guarantee.
        dispatcher = LTCDispatcher()
        with pytest.raises(ValueError, match="offline"):
            dispatcher.submit_instance(three_districts[0], solver="MCF-LTC")
        with pytest.raises(ValueError, match="offline"):
            LTCDispatcher(default_solver="Base-off").submit_instance(
                three_districts[0]
            )

    def test_routed_streams_need_opt_in(self, three_districts):
        dispatcher = LTCDispatcher()
        session_id = dispatcher.submit_instance(three_districts[0])
        with pytest.raises(RuntimeError):
            dispatcher.routed_stream(session_id)


class TestMetrics:
    def test_aggregate_counters(self, three_districts):
        dispatcher = LTCDispatcher()
        for instance in three_districts:
            dispatcher.submit_instance(instance)
        consumed = dispatcher.feed_stream(merged_stream(three_districts))
        metrics = dispatcher.metrics
        assert metrics.sessions_opened == 3
        assert metrics.sessions_completed == 3
        assert metrics.workers_fed == consumed
        assert metrics.workers_routed > 0
        assert metrics.assignments_made > 0
        assert metrics.busy_seconds > 0.0
        assert metrics.throughput_per_second > 0.0
        summary = metrics.summary()
        assert summary["workers_fed"] == float(consumed)
        assert 0.0 <= summary["routed_fraction"] <= 1.0
