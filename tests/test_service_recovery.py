"""Tests for journaled recovery (`repro.service.recovery`).

Covers the arrival journal's replay exactness, the recovery policy, the
per-shard restart budget and transient retries, and the sharded
dispatcher's restart/quarantine paths end to end.
"""

import pytest

from repro.algorithms.registry import build_solver
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.service import (
    ArrivalJournal,
    FaultPlan,
    FaultSpec,
    InjectedShardCrash,
    JournalReplayError,
    LTCDispatcher,
    RecoveryPolicy,
    ShardedDispatcher,
    ShardPlan,
    TransientSolverError,
)
from repro.service.recovery import MAX_RESTARTS, TRANSIENT_RETRIES

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


def straddling_campaign(tid0):
    """Tasks at the first two city centres: its reach box spans shards 0
    and 1, so the plan pins it to the overflow shard."""
    return campaign(*CENTERS[0], tid0=tid0, num_tasks=2, spread=1000.0)


def city_worker(index, city=0):
    cx, cy = CENTERS[city]
    return Worker(index=index, location=Point(cx, cy), accuracy=0.9, capacity=2)


def crash_fault(shard_id, at_arrival):
    return FaultPlan(
        faults=(FaultSpec(kind="crash", shard_id=shard_id, at_arrival=at_arrival),)
    )


def crashes(shard_id, count, first=2):
    """``count`` crashes on consecutive arrivals of one shard."""
    return tuple(
        FaultSpec(kind="crash", shard_id=shard_id, at_arrival=first + n)
        for n in range(count)
    )


class TestArrivalJournal:
    def test_replay_rebuilds_identical_state(self):
        """Recording every op while applying it, then replaying, must give
        a dispatcher in byte-identical state — the journal invariant."""
        journal = ArrivalJournal()
        live = LTCDispatcher(keep_streams=True)

        instance_a = campaign(*CENTERS[0])
        instance_b = campaign(*CENTERS[0], tid0=50)
        live.submit_instance(instance_a, solver="AAM", session_id="a")
        journal.record_open("a", instance_a, "AAM")
        live.submit_instance(instance_b, solver="LAF", session_id="b")
        journal.record_open("b", instance_b, "LAF")
        for index in range(1, 8):
            worker = city_worker(index)
            journal.record_worker(worker)  # write-ahead order
            live.feed_worker(worker)
        extra = [Task(task_id=90, location=Point(CENTERS[0][0], CENTERS[0][1]))]
        live.submit_tasks("a", extra)
        journal.record_tasks("a", extra)
        expired = live.expire_tasks("b", [50])
        journal.record_expire("b", expired)
        for index in range(8, 12):
            worker = city_worker(index)
            journal.record_worker(worker)
            live.feed_worker(worker)

        rebuilt = LTCDispatcher(keep_streams=True)
        assert journal.replay(rebuilt) == 11
        assert journal.worker_count == 11
        assert len(journal) == 15  # 2 opens + 11 workers + tasks + expire
        assert rebuilt.session_ids == live.session_ids
        for sid in live.session_ids:
            assert rebuilt.routed_stream(sid) == live.routed_stream(sid)
        live_results = live.close_all()
        rebuilt_results = rebuilt.close_all()
        for sid, result in live_results.items():
            assert (
                result.arrangement.assignments
                == rebuilt_results[sid].arrangement.assignments
            )

    def test_replay_includes_closes(self):
        journal = ArrivalJournal()
        instance = campaign(*CENTERS[0])
        journal.record_open("a", instance, "AAM")
        journal.record_close("a")
        rebuilt = LTCDispatcher()
        journal.replay(rebuilt)
        assert rebuilt.session_ids == []
        assert rebuilt.metrics.sessions_closed == 1

    def test_unreplayable_open_raises(self):
        journal = ArrivalJournal()
        journal.record_open("a", campaign(*CENTERS[0]), None, replayable=False)
        with pytest.raises(JournalReplayError):
            journal.replay(LTCDispatcher())

    def test_tainted_journal_raises(self):
        journal = ArrivalJournal()
        assert journal.replayable
        journal.mark_unreplayable("adopted foreign sessions")
        assert not journal.replayable
        with pytest.raises(JournalReplayError):
            journal.replay(LTCDispatcher())


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(on_shard_failure="reboot")

    def test_journaling_follows_policy(self):
        assert not RecoveryPolicy().journaling
        assert not RecoveryPolicy(on_shard_failure="fail-fast").journaling
        assert RecoveryPolicy(on_shard_failure="restart").journaling
        assert RecoveryPolicy(on_shard_failure="quarantine").journaling


@pytest.fixture
def plan():
    return ShardPlan(BOUNDS, cols=2, rows=2)


def run_serial(plan, faults=None, policy=None, num_workers=40):
    dispatcher = ShardedDispatcher(
        plan,
        queue_capacity=256,
        keep_streams=True,
        recovery=policy,
        faults=faults,
    )
    ids = [
        dispatcher.submit_instance(campaign(cx, cy, tid0=100 * i))
        for i, (cx, cy) in enumerate(CENTERS)
    ]
    index = 0
    for _ in range(num_workers // 4):
        for city in range(4):
            index += 1
            dispatcher.feed_worker(city_worker(index, city=city))
    streams = {sid: dispatcher.routed_stream(sid) for sid in ids}
    results = dispatcher.close_all()
    dispatcher.stop()
    return ids, streams, results, dispatcher


class TestRestartRecovery:
    def test_restart_replays_to_identical_state(self, plan):
        base_ids, base_streams, base_results, _ = run_serial(plan)
        ids, streams, results, dispatcher = run_serial(
            plan,
            faults=crash_fault(shard_id=0, at_arrival=5),
            policy=RecoveryPolicy(on_shard_failure="restart"),
        )
        assert ids == base_ids
        for sid in ids:
            assert streams[sid] == base_streams[sid]
            assert (
                results[sid].arrangement.assignments
                == base_results[sid].arrangement.assignments
            )
        metrics = dispatcher.metrics
        assert metrics.restarts == 1
        # The journal held the 4 processed arrivals plus the in-flight
        # one (write-ahead), so exactly 5 were replayed.
        assert metrics.replayed_arrivals == 5
        events = dispatcher.recovery_events
        assert len(events) == 1
        assert events[0].shard_id == 0
        assert events[0].action == "restart"
        assert events[0].replayed_arrivals == 5
        assert "InjectedShardCrash" in events[0].error

    def test_mid_stream_ops_survive_restart(self, plan):
        """submit_tasks / expire_tasks before the crash are replayed too."""

        def drive(dispatcher):
            sid = dispatcher.submit_instance(campaign(*CENTERS[0], num_tasks=4))
            for index in range(1, 4):
                dispatcher.feed_worker(city_worker(index))
            dispatcher.submit_tasks(
                sid, [Task(task_id=70, location=Point(510.0, 500.0))]
            )
            expired = dispatcher.expire_tasks(sid, [3])
            for index in range(4, 10):
                dispatcher.feed_worker(city_worker(index))
            status = dispatcher.poll()[sid]
            result = dispatcher.close(sid)
            dispatcher.stop()
            return expired, status.snapshot, result

        def build(**kwargs):
            return ShardedDispatcher(
                plan, queue_capacity=256, **kwargs
            )

        base = drive(build())
        faulty = drive(
            build(
                faults=crash_fault(shard_id=0, at_arrival=6),
                recovery=RecoveryPolicy(on_shard_failure="restart"),
            )
        )
        assert faulty[0] == base[0]
        assert faulty[1] == base[1]
        assert (
            faulty[2].arrangement.assignments == base[2].arrangement.assignments
        )
        assert (
            faulty[2].arrangement.abandoned_tasks
            == base[2].arrangement.abandoned_tasks
        )

    def test_restart_budget_exhaustion_fails_fast(self, plan):
        dispatcher = ShardedDispatcher(
            plan,
            faults=FaultPlan(crashes(0, MAX_RESTARTS + 1)),
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        dispatcher.submit_instance(campaign(*CENTERS[0], num_tasks=30))
        dispatcher.feed_worker(city_worker(1))
        for index in range(2, MAX_RESTARTS + 2):
            dispatcher.feed_worker(city_worker(index))  # crash: restarted
        with pytest.raises(InjectedShardCrash):
            dispatcher.feed_worker(city_worker(MAX_RESTARTS + 2))  # budget gone
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].state == "failed"
        assert status[0].restarts == MAX_RESTARTS
        dispatcher.stop()

    def test_exactly_max_restarts_crashes_leave_the_shard_live(self, plan):
        dispatcher = ShardedDispatcher(
            plan,
            faults=FaultPlan(crashes(0, MAX_RESTARTS)),
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        sid = dispatcher.submit_instance(campaign(*CENTERS[0], num_tasks=30))
        for index in range(1, MAX_RESTARTS + 4):
            dispatcher.feed_worker(city_worker(index))
        shard0 = dispatcher.shard_status()[0]
        assert (shard0.state, shard0.restarts) == ("live", MAX_RESTARTS)
        assert shard0.last_error == crash_repr(MAX_RESTARTS + 1)
        assert dispatcher.metrics.restarts == MAX_RESTARTS
        assert dispatcher.poll()[sid].workers_routed == MAX_RESTARTS + 3
        dispatcher.stop()

    def test_restart_budgets_are_per_shard(self, plan):
        """Shard 0 spends its budget; shard 1 still restarts after that."""
        dispatcher = ShardedDispatcher(
            plan,
            faults=FaultPlan(
                crashes(0, MAX_RESTARTS + 1)
                + (FaultSpec(kind="crash", shard_id=1, at_arrival=2),)
            ),
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        dispatcher.submit_instance(campaign(*CENTERS[0], num_tasks=30))
        dispatcher.submit_instance(campaign(*CENTERS[1], tid0=100, num_tasks=30))
        for index in range(1, MAX_RESTARTS + 2):
            dispatcher.feed_worker(city_worker(index, city=0))
        with pytest.raises(InjectedShardCrash):
            dispatcher.feed_worker(city_worker(MAX_RESTARTS + 2, city=0))
        for index in range(MAX_RESTARTS + 3, MAX_RESTARTS + 6):
            dispatcher.feed_worker(city_worker(index, city=1))
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert (status[0].state, status[0].restarts) == ("failed", MAX_RESTARTS)
        assert (status[1].state, status[1].restarts) == ("live", 1)
        assert status[1].last_error == repr(
            InjectedShardCrash("injected crash: shard 1, arrival 2")
        )
        assert dispatcher.recovery_events[-1].shard_id == 1
        dispatcher.stop()

    def test_a_shard_that_never_failed_has_no_last_error(self, plan):
        dispatcher = ShardedDispatcher(
            plan,
            faults=crash_fault(shard_id=0, at_arrival=1),
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        dispatcher.submit_instance(campaign(*CENTERS[1], tid0=100))
        dispatcher.feed_worker(city_worker(1, city=0))
        dispatcher.feed_worker(city_worker(2, city=1))
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].last_error == crash_repr(1)
        for shard_id in (1, 2, 3, plan.overflow_shard):
            assert status[shard_id].last_error is None
            assert status[shard_id].restarts == 0
        dispatcher.stop()

    def test_prebuilt_solver_blocks_replay(self, plan):
        """A session opened with a Solver *object* cannot be rebuilt from
        the journal; every failed replay spends a restart, and the shard then
        fails fast with a clear error."""
        dispatcher = ShardedDispatcher(
            plan,
            faults=crash_fault(shard_id=0, at_arrival=2),
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        dispatcher.submit_instance(campaign(*CENTERS[0]), solver=build_solver("AAM"))
        dispatcher.feed_worker(city_worker(1))
        with pytest.raises(JournalReplayError):
            dispatcher.feed_worker(city_worker(2))
        shard0 = dispatcher.shard_status()[0]
        assert (shard0.state, shard0.restarts) == ("failed", MAX_RESTARTS)
        assert "JournalReplayError" in shard0.last_error
        assert dispatcher.metrics.restarts == 0
        dispatcher.stop()

    def test_restart_inside_a_stalled_backlog_is_transparent(self, plan):
        """The crash fires while drain() works off a released backlog."""
        injector = FaultPlan(faults=(
            FaultSpec(kind="stall", shard_id=0, at_arrival=1),
            FaultSpec(kind="crash", shard_id=0, at_arrival=3),
        )).injector()
        dispatcher = ShardedDispatcher(
            plan,
            queue_capacity=256,
            faults=injector,
            recovery=RecoveryPolicy(on_shard_failure="restart"),
        )
        sid = dispatcher.submit_instance(campaign(*CENTERS[0]))
        for index in range(1, 9):
            dispatcher.feed_worker(city_worker(index))
        assert dispatcher.drain() is False
        injector.release_stalls()
        assert dispatcher.drain() is True  # no error surfaces
        assert dispatcher.metrics.restarts == 1
        assert dispatcher.poll()[sid].workers_routed == 8
        shard0 = dispatcher.shard_status()[0]
        assert (shard0.state, shard0.restarts) == ("live", 1)
        assert shard0.last_error == crash_repr(3)
        dispatcher.stop()


class TestQuarantine:
    def test_sessions_migrate_to_overflow(self, plan):
        dispatcher = ShardedDispatcher(
            plan,
            queue_capacity=256,
            faults=crash_fault(shard_id=0, at_arrival=3),
            recovery=RecoveryPolicy(on_shard_failure="quarantine"),
        )
        sid = dispatcher.submit_instance(campaign(*CENTERS[0]))
        other = dispatcher.submit_instance(campaign(*CENTERS[1], tid0=200))
        for index in range(1, 3):
            dispatcher.feed_worker(city_worker(index))
        assert dispatcher.shard_of(sid) == 0
        dispatcher.feed_worker(city_worker(3))  # crash -> quarantine
        assert dispatcher.shard_of(sid) == plan.overflow_shard
        assert dispatcher.shard_of(other) == 1  # untouched
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].state == "quarantined"
        assert status[0].session_ids == []  # the husk serves nothing
        assert sid in status[plan.overflow_shard].session_ids
        metrics = dispatcher.metrics
        assert metrics.quarantined_sessions == 1
        assert metrics.replayed_arrivals == 3
        # The migrated session keeps serving through the overflow shard.
        before = dispatcher.poll()[sid].workers_routed
        dispatcher.feed_worker(city_worker(4))
        assert dispatcher.poll()[sid].workers_routed == before + 1
        # The dead geo shard's copy of that arrival is discarded, counted.
        assert status[0].arrivals_discarded == 0  # snapshot from before
        assert dispatcher.discarded_total == 1
        # Control-plane ops follow the migration.
        dispatcher.submit_tasks(
            sid, [Task(task_id=95, location=Point(500.0, 500.0))]
        )
        results = dispatcher.close_all()
        assert set(results) == {sid, other}
        dispatcher.stop()

    def test_new_campaigns_for_a_quarantined_cell_go_to_overflow(self, plan):
        dispatcher = ShardedDispatcher(
            plan,
            faults=crash_fault(shard_id=0, at_arrival=1),
            recovery=RecoveryPolicy(on_shard_failure="quarantine"),
        )
        dispatcher.submit_instance(campaign(*CENTERS[0]))
        dispatcher.feed_worker(city_worker(1))  # quarantines shard 0
        late = dispatcher.submit_instance(campaign(*CENTERS[0], tid0=300))
        assert dispatcher.shard_of(late) == plan.overflow_shard
        dispatcher.stop()

    def test_overflow_failure_cannot_quarantine(self, plan):
        """The overflow shard has nowhere to migrate to: it fails fast."""
        overflow = plan.overflow_shard
        dispatcher = ShardedDispatcher(
            plan,
            faults=crash_fault(shard_id=overflow, at_arrival=1),
            recovery=RecoveryPolicy(on_shard_failure="quarantine"),
        )
        sid = dispatcher.submit_instance(straddling_campaign(tid0=500))
        assert dispatcher.shard_of(sid) == overflow
        with pytest.raises(InjectedShardCrash):
            dispatcher.feed_worker(city_worker(1))
        state = {s.shard_id: s.state for s in dispatcher.shard_status()}
        assert state[overflow] == "failed"
        dispatcher.stop()


def crash_repr(arrival):
    return repr(InjectedShardCrash(f"injected crash: shard 0, arrival {arrival}"))


#: Fault scenarios on geo shard 0, resolved in :class:`TestFailureScenarios`:
#: (recovery policy, fault plan, shard 0's final state and restarts, the
#: stream positions at which an error surfaced, shard 0's ``last_error``).
FAILURE_SCENARIOS = {
    "restart": (
        RecoveryPolicy(on_shard_failure="restart"),
        crash_fault(shard_id=0, at_arrival=3),
        ("live", 1), [], crash_repr(3),
    ),
    "restart-twice": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(faults=(
            FaultSpec(kind="crash", shard_id=0, at_arrival=2),
            FaultSpec(kind="crash", shard_id=0, at_arrival=5),
        )),
        ("live", 2), [], crash_repr(5),
    ),
    "escalated-transient": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(faults=(
            FaultSpec(kind="transient", shard_id=0, at_arrival=2, failures=5),
        )),
        ("live", 1), [],
        repr(TransientSolverError(
            "injected transient dispatch failure: shard 0, arrival 2, "
            f"attempt {TRANSIENT_RETRIES + 1}/5"
        )),
    ),
    "absorbed-transient": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(faults=(
            FaultSpec(kind="transient", shard_id=0, at_arrival=2,
                      failures=TRANSIENT_RETRIES),
        )),
        ("live", 0), [], None,
    ),
    "transient-one-past-the-retries": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(faults=(
            FaultSpec(kind="transient", shard_id=0, at_arrival=2,
                      failures=TRANSIENT_RETRIES + 1),
        )),
        ("live", 1), [],
        repr(TransientSolverError(
            "injected transient dispatch failure: shard 0, arrival 2, "
            f"attempt {TRANSIENT_RETRIES + 1}/{TRANSIENT_RETRIES + 1}"
        )),
    ),
    "quarantine": (
        RecoveryPolicy(on_shard_failure="quarantine"),
        crash_fault(shard_id=0, at_arrival=3),
        ("quarantined", 0), [], crash_repr(3),
    ),
    "fail-fast": (
        RecoveryPolicy(on_shard_failure="fail-fast"),
        crash_fault(shard_id=0, at_arrival=2),
        ("failed", 0), [4], crash_repr(2),
    ),
    "restart-budget-spent": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(crashes(0, MAX_RESTARTS)),
        ("live", MAX_RESTARTS), [], crash_repr(MAX_RESTARTS + 1),
    ),
    "restart-budget-exhausted": (
        RecoveryPolicy(on_shard_failure="restart"),
        FaultPlan(crashes(0, MAX_RESTARTS + 1)),
        # Shard 0 takes the even arrivals, so its (MAX_RESTARTS + 2)-th
        # arrival is stream position 2 * (MAX_RESTARTS + 2).
        ("failed", MAX_RESTARTS), [2 * (MAX_RESTARTS + 2)],
        crash_repr(MAX_RESTARTS + 2),
    ),
}


class TestFailureScenarios:
    """Each fault resolves to a known shard state, at a known position.

    Two campaigns on shards 0 and 1 take alternating arrivals; after every
    arrival the runtime drains.  A terminal failure surfaces inline, from
    the ``feed_worker`` call whose arrival hit it.
    """

    @pytest.mark.parametrize("scenario", list(FAILURE_SCENARIOS))
    def test_scenario_books(self, plan, scenario):
        policy, faults, expected, surfaced_at, last_error = (
            FAILURE_SCENARIOS[scenario]
        )
        dispatcher = ShardedDispatcher(
            plan, queue_capacity=256, recovery=policy, faults=faults
        )
        for i, (cx, cy) in enumerate(CENTERS[:2]):
            dispatcher.submit_instance(campaign(cx, cy, tid0=100 * i))
        surfaced = []
        for index in range(1, 13):
            try:
                dispatcher.feed_worker(city_worker(index, city=index % 2))
                assert dispatcher.drain()
            except InjectedShardCrash:
                surfaced.append(index)
        assert surfaced == surfaced_at
        shard0 = dispatcher.shard_status()[0]
        assert (shard0.state, shard0.restarts) == expected
        assert shard0.last_error == last_error
        dispatcher.stop()


@pytest.mark.parametrize(
    "on_failure, state",
    [("fail-fast", "failed"), ("quarantine", "quarantined"), ("restart", "live")],
)
def test_stop_after_a_failure_closes_every_queue(plan, on_failure, state):
    dispatcher = ShardedDispatcher(
        plan,
        queue_capacity=256,
        faults=crash_fault(shard_id=0, at_arrival=3),
        recovery=RecoveryPolicy(on_shard_failure=on_failure),
    )
    ids = [
        dispatcher.submit_instance(campaign(cx, cy, tid0=100 * i))
        for i, (cx, cy) in enumerate(CENTERS)
    ]
    for index in range(1, 13):
        try:
            dispatcher.feed_worker(city_worker(index, city=index % 4))
        except InjectedShardCrash:
            assert on_failure == "fail-fast"
    assert dispatcher.shard_status()[0].state == state
    dispatcher.stop()
    assert all(runtime.queue.closed for runtime in dispatcher._shards.values())
    with pytest.raises(RuntimeError, match="stopped"):
        dispatcher.feed_worker(city_worker(13))
    dispatcher.stop()  # a clean no-op
    # The control plane outlives the runtime.
    assert set(dispatcher.poll()) == set(ids)
