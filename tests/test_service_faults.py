"""Tests for deterministic fault injection (`repro.service.faults`).

Covers the schedule layer (validation, seeding, one-shot semantics), the
dispatcher hook points under each fault kind, the fail-fast discard
accounting, and the exception-safety of ``stop()``.
"""

import pytest

from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.service import (
    FaultPlan,
    FaultSpec,
    InjectedShardCrash,
    ShardedDispatcher,
    ShardPlan,
    TransientSolverError,
)

BOUNDS = BoundingBox(0.0, 0.0, 2000.0, 2000.0)

#: City centres aligned with the cells of a 2x2 plan over BOUNDS.
CENTERS = [(500.0, 500.0), (1500.0, 500.0), (500.0, 1500.0), (1500.0, 1500.0)]


def campaign(cx, cy, tid0=0, num_tasks=3, spread=5.0):
    tasks = [
        Task(task_id=tid0 + i, location=Point(cx + spread * i, cy))
        for i in range(num_tasks)
    ]
    workers = [Worker(index=1, location=Point(cx, cy), accuracy=0.9, capacity=2)]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)


def city_worker(index, city=0):
    cx, cy = CENTERS[city]
    return Worker(index=index, location=Point(cx, cy), accuracy=0.9, capacity=2)


def shard0_worker(index):
    return city_worker(index, city=0)


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode", shard_id=0, at_arrival=1)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", shard_id=-1, at_arrival=1)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash", shard_id=0, at_arrival=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="transient", shard_id=0, at_arrival=1, failures=0)

    def test_plan_rejects_ambiguous_schedules(self):
        crash = FaultSpec(kind="crash", shard_id=0, at_arrival=5)
        stall = FaultSpec(kind="stall", shard_id=0, at_arrival=5)
        with pytest.raises(ValueError):
            FaultPlan(faults=(crash, stall))

    def test_seeded_plans_are_deterministic(self):
        kwargs = dict(
            shard_ids=[0, 1, 2], max_arrival=50, crashes=2, transients=2,
            stalls=1, transient_failures=3,
        )
        first = FaultPlan.seeded(42, **kwargs)
        second = FaultPlan.seeded(42, **kwargs)
        assert first == second
        assert len(first.faults) == 5
        for spec in first.faults:
            assert spec.shard_id in (0, 1, 2)
            assert 1 <= spec.at_arrival <= 50
        assert {s.kind for s in first.faults} == {"crash", "transient", "stall"}
        assert FaultPlan.seeded(43, **kwargs) != first

    def test_seeded_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(1, shard_ids=[], max_arrival=10)
        with pytest.raises(ValueError):
            FaultPlan.seeded(1, shard_ids=[0], max_arrival=0)
        with pytest.raises(ValueError):
            FaultPlan.seeded(1, shard_ids=[0], max_arrival=2, crashes=3)

    def test_for_shard_sorts_by_ordinal(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="crash", shard_id=0, at_arrival=9),
            FaultSpec(kind="transient", shard_id=0, at_arrival=3),
            FaultSpec(kind="crash", shard_id=1, at_arrival=1),
        ))
        assert [s.at_arrival for s in plan.for_shard(0)] == [3, 9]
        assert plan.shard_ids == [0, 1]


class TestFaultInjector:
    def test_crash_is_one_shot(self):
        injector = FaultPlan(
            faults=(FaultSpec(kind="crash", shard_id=0, at_arrival=2),)
        ).injector()
        assert injector.begin_arrival(0) == 1
        injector.raise_for(0, 1, 0)  # no fault at ordinal 1
        ordinal = injector.begin_arrival(0)
        with pytest.raises(InjectedShardCrash):
            injector.raise_for(0, ordinal, 0)
        # Consumed before raising: a replayed attempt does not crash again.
        injector.raise_for(0, ordinal, 0)

    def test_transient_fails_then_passes(self):
        injector = FaultPlan(faults=(
            FaultSpec(kind="transient", shard_id=0, at_arrival=1, failures=2),
        )).injector()
        ordinal = injector.begin_arrival(0)
        for attempt in range(2):
            with pytest.raises(TransientSolverError):
                injector.raise_for(0, ordinal, attempt)
        injector.raise_for(0, ordinal, 2)  # passes, consuming the fault
        injector.raise_for(0, ordinal, 0)  # and stays consumed

    def test_ordinals_are_per_shard(self):
        injector = FaultPlan().injector()
        assert injector.begin_arrival(3) == 1
        assert injector.begin_arrival(3) == 2
        assert injector.begin_arrival(7) == 1

    def test_stall_activates_and_releases(self):
        injector = FaultPlan(
            faults=(FaultSpec(kind="stall", shard_id=1, at_arrival=2),)
        ).injector()
        assert not injector.stall_active(1, processed=1)
        assert injector.stall_active(1, processed=2)
        assert injector.stall_active(1, processed=5)
        assert not injector.stall_active(0, processed=99)
        injector.release_stalls(shard_id=1)
        assert not injector.stall_active(1, processed=5)


@pytest.fixture
def plan():
    return ShardPlan(BOUNDS, cols=2, rows=2)


class TestFailFast:
    def test_serial_crash_raises_and_accounts(self, plan):
        faults = FaultPlan(
            faults=(FaultSpec(kind="crash", shard_id=0, at_arrival=3),)
        )
        dispatcher = ShardedDispatcher(plan, faults=faults)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        dispatcher.feed_worker(shard0_worker(1))
        dispatcher.feed_worker(shard0_worker(2))
        with pytest.raises(InjectedShardCrash):
            dispatcher.feed_worker(shard0_worker(3))
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].state == "failed"
        assert "InjectedShardCrash" in status[0].last_error
        assert status[1].state == "live"
        # Subsequent arrivals routed to the dead shard are discarded and
        # counted, instead of silently vanishing.
        dispatcher.feed_worker(shard0_worker(4))
        assert dispatcher.discarded_total == 1
        assert {s.shard_id: s.arrivals_discarded
                for s in dispatcher.shard_status()}[0] == 1
        dispatcher.stop()

    def test_crash_queued_behind_a_stall_surfaces_from_drain(self, plan):
        """A crash met while draining a released backlog raises there."""
        injector = FaultPlan(faults=(
            FaultSpec(kind="stall", shard_id=0, at_arrival=1),
            FaultSpec(kind="crash", shard_id=0, at_arrival=2),
        )).injector()
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=injector)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 4):  # 2 and 3 queue behind the stall
            dispatcher.feed_worker(shard0_worker(index))
        injector.release_stalls()
        with pytest.raises(InjectedShardCrash):
            dispatcher.drain()
        status = dispatcher.shard_status()[0]
        assert status.state == "failed"
        assert status.arrivals_discarded == 1  # arrival 3, flushed
        assert dispatcher.metrics.workers_fed == 1
        dispatcher.stop()

    def test_fail_fast_keeps_no_journal(self, plan):
        dispatcher = ShardedDispatcher(plan)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        dispatcher.feed_worker(shard0_worker(1))
        assert all(s.journal_entries == 0 for s in dispatcher.shard_status())
        dispatcher.stop()

    def test_fault_plan_must_fit_the_shard_plan(self, plan):
        faults = FaultPlan(
            faults=(FaultSpec(kind="crash", shard_id=17, at_arrival=1),)
        )
        with pytest.raises(ValueError):
            ShardedDispatcher(plan, faults=faults)


class TestStalls:
    def test_serial_stall_builds_backlog_then_drains(self, plan):
        faults = FaultPlan(
            faults=(FaultSpec(kind="stall", shard_id=0, at_arrival=2),)
        )
        injector = faults.injector()
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=injector)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 6):
            dispatcher.feed_worker(shard0_worker(index))
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].arrivals_processed == 2
        assert status[0].queue_depth == 3  # stalled backlog
        assert not dispatcher.drain()
        injector.release_stalls()
        assert dispatcher.drain()
        assert dispatcher.metrics.workers_fed == 5
        dispatcher.stop()

    def test_drain_returns_at_once_while_a_shard_is_stalled(self, plan):
        """drain() never waits on a stalled shard: it reports the backlog."""
        injector = FaultPlan(
            (FaultSpec("stall", shard_id=0, at_arrival=2),)
        ).injector()
        dispatcher = ShardedDispatcher(plan, faults=injector)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 51):
            dispatcher.feed_worker(shard0_worker(index))
        assert dispatcher.shard_status()[0].queue_depth == 48
        assert dispatcher.drain() is False
        injector.release_stalls()
        assert dispatcher.drain() is True
        assert dispatcher.metrics.workers_fed == 50
        dispatcher.stop()

    def test_releasing_one_shard_keeps_the_others_stalled(self, plan):
        injector = FaultPlan(faults=tuple(
            FaultSpec(kind="stall", shard_id=shard, at_arrival=1)
            for shard in (0, 1)
        )).injector()
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=injector)
        for city in (0, 1):
            dispatcher.submit_instance(campaign(*CENTERS[city], tid0=100 * city))
        for index in range(1, 9):
            dispatcher.feed_worker(city_worker(index, city=index % 2))
        injector.release_stalls(shard_id=0)
        assert dispatcher.drain() is False
        depths = {s.shard_id: s.queue_depth for s in dispatcher.shard_status()}
        assert (depths[0], depths[1]) == (0, 3)
        injector.release_stalls(shard_id=1)
        assert dispatcher.drain() is True
        assert dispatcher.metrics.workers_fed == 8
        dispatcher.stop()

    def test_stop_without_drain_leaves_the_backlog_unprocessed(self, plan):
        faults = FaultPlan(
            faults=(FaultSpec(kind="stall", shard_id=0, at_arrival=1),)
        )
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=faults)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 5):
            dispatcher.feed_worker(shard0_worker(index))
        dispatcher.stop(drain=False)
        assert dispatcher.metrics.workers_fed == 1
        assert dispatcher.shard_status()[0].queue_depth == 3
        # Neither shed by backpressure nor discarded by the failure path.
        assert dispatcher.shed_total == dispatcher.discarded_total == 0
        with pytest.raises(RuntimeError, match="stopped"):
            dispatcher.feed_worker(shard0_worker(5))

    def test_stop_releases_stalls(self, plan):
        faults = FaultPlan(
            faults=(FaultSpec(kind="stall", shard_id=0, at_arrival=1),)
        )
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=faults)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 4):
            dispatcher.feed_worker(shard0_worker(index))
        dispatcher.stop()  # releases the stall and drains the backlog
        assert dispatcher.metrics.workers_fed == 3


class TestStopExceptionSafety:
    def test_stop_cleans_up_before_reraising(self, plan):
        """stop(drain=True) must close queues even when draining the
        backlog raises a shard error (the half-alive bug)."""
        faults = FaultPlan(faults=(
            FaultSpec(kind="stall", shard_id=0, at_arrival=1),
            FaultSpec(kind="crash", shard_id=0, at_arrival=2),
        ))
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=faults)
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        dispatcher.feed_worker(shard0_worker(1))
        dispatcher.feed_worker(shard0_worker(2))  # queued behind the stall
        with pytest.raises(InjectedShardCrash):
            dispatcher.stop()
        # The runtime is fully stopped despite the exception ...
        for runtime in dispatcher._shards.values():
            assert runtime.queue.closed
        with pytest.raises(RuntimeError):
            dispatcher.feed_worker(shard0_worker(2))
        # ... and a second stop() is a clean no-op.
        dispatcher.stop()
