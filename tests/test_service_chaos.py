"""Chaos differential suite: crash-recovery must preserve byte-identity.

The recovery layer's exactness claim extends PR 6's differential
argument: a shard journal records the shard's operations in the exact
FIFO order its dispatcher observed them, so replaying the journal into a
fresh dispatcher rebuilds byte-identical state — and therefore a lossless
sharded run with **seeded mid-stream shard crashes** under
``on_shard_failure="restart"`` must still produce per-session
arrangements identical, assignment by assignment, to a fault-free
single-process run.  This suite enforces exactly that, across AAM/LAF ×
serial/thread executors.

Faults are scheduled on per-shard arrival ordinals
(:meth:`~repro.service.FaultPlan.seeded`), so every run — any executor,
any machine — crashes at the same points in the stream.
"""

import pytest

from repro.service import (
    FaultPlan,
    LTCDispatcher,
    RecoveryPolicy,
    ShardedDispatcher,
    ShardPlan,
)
from repro.service.loadgen import BurstWindow, ReplayConfig, build_workload

CONFIG = ReplayConfig(
    seed=77,
    city_cols=2,
    city_rows=2,
    city_spacing=1000.0,
    city_radius=50.0,
    campaigns_per_city=2,
    tasks_per_campaign=6,
    num_workers=2500,
    worker_spread=1.4,
    diurnal_amplitude=0.5,
    bursts=(BurstWindow(0.4, 0.5, hot_city=3, intensity=2.5, city_bias=3.0),),
    error_rate=0.15,
    capacity=2,
)

GEO_SHARDS = [0, 1, 2, 3]

#: Three crashes scattered over the geo shards, all early enough that
#: every one fires (each shard sees well over 250 arrivals).
CRASH_PLAN = FaultPlan.seeded(
    seed=1234, shard_ids=GEO_SHARDS, max_arrival=250, crashes=3
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(CONFIG)


def run_single_process(workload, solver):
    dispatcher = LTCDispatcher(default_solver=solver, keep_streams=True)
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    for worker in workload.worker_stream():
        dispatcher.feed_worker(worker)
    streams = {sid: dispatcher.routed_stream(sid) for sid in ids}
    return ids, streams, dispatcher.close_all()


def run_chaotic(workload, solver, executor, faults, policy):
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=2)
    dispatcher = ShardedDispatcher(
        plan,
        default_solver=solver,
        executor=executor,
        queue_capacity=8192,
        keep_streams=True,
        recovery=policy,
        faults=faults,
    )
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    dispatcher.feed_stream(workload.worker_stream())
    dispatcher.drain()
    streams = {sid: dispatcher.routed_stream(sid) for sid in ids}
    results = dispatcher.close_all()
    dispatcher.stop()
    return ids, streams, results, dispatcher


def assert_identical(base, candidate):
    base_ids, base_streams, base_results = base
    cand_ids, cand_streams, cand_results = candidate
    assert len(base_ids) == len(cand_ids)
    for base_id, cand_id in zip(base_ids, cand_ids):
        assert base_streams[base_id] == cand_streams[cand_id]
        base_result = base_results[base_id]
        cand_result = cand_results[cand_id]
        assert (
            base_result.arrangement.assignments
            == cand_result.arrangement.assignments
        )
        assert base_result.max_latency == cand_result.max_latency
        assert base_result.completed == cand_result.completed


@pytest.mark.parametrize("solver", ["AAM", "LAF"])
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_restart_recovery_matches_fault_free_single_process(
    workload, solver, executor
):
    base = run_single_process(workload, solver)
    ids, streams, results, dispatcher = run_chaotic(
        workload,
        solver,
        executor,
        faults=CRASH_PLAN,
        policy=RecoveryPolicy(on_shard_failure="restart"),
    )
    assert_identical(base, (ids, streams, results))
    # Every scheduled crash fired and was recovered; nothing was lost.
    metrics = dispatcher.metrics
    assert metrics.restarts == 3
    assert metrics.replayed_arrivals > 0
    assert dispatcher.shed_total == 0
    assert dispatcher.discarded_total == 0


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_transient_faults_retry_in_place_exactly(workload, executor):
    """Bounded retry absorbs transients without touching the arrangements."""
    faults = FaultPlan.seeded(
        seed=55,
        shard_ids=GEO_SHARDS,
        max_arrival=250,
        crashes=0,
        transients=4,
        transient_failures=2,
    )
    base = run_single_process(workload, "AAM")
    ids, streams, results, dispatcher = run_chaotic(
        workload,
        "AAM",
        executor,
        faults=faults,
        policy=RecoveryPolicy(on_shard_failure="restart", transient_retries=2),
    )
    assert_identical(base, (ids, streams, results))
    assert dispatcher.metrics.restarts == 0


def test_mixed_faults_still_match(workload):
    """Crashes and transients together, serial executor."""
    faults = FaultPlan.seeded(
        seed=99,
        shard_ids=GEO_SHARDS,
        max_arrival=250,
        crashes=2,
        transients=3,
        transient_failures=1,
    )
    base = run_single_process(workload, "AAM")
    ids, streams, results, dispatcher = run_chaotic(
        workload,
        "AAM",
        "serial",
        faults=faults,
        policy=RecoveryPolicy(on_shard_failure="restart", transient_retries=1),
    )
    assert_identical(base, (ids, streams, results))
    assert dispatcher.metrics.restarts == 2


def test_serial_quarantine_matches_fault_free_single_process(workload):
    """Under the serial executor quarantine is exact too.

    The crashed shard's sessions are rebuilt from the journal and migrate
    to the overflow shard; from then on every arrival fans out to
    overflow (it is populated), so the migrated sessions keep receiving
    exactly their eligible sub-streams.  Serially there is never a
    backlog in the dead shard's queue, so nothing is discarded that a
    session would have received.
    """
    faults = FaultPlan.seeded(
        seed=7, shard_ids=GEO_SHARDS, max_arrival=250, crashes=1
    )
    base = run_single_process(workload, "AAM")
    ids, streams, results, dispatcher = run_chaotic(
        workload,
        "AAM",
        "serial",
        faults=faults,
        policy=RecoveryPolicy(on_shard_failure="quarantine"),
    )
    assert_identical(base, (ids, streams, results))
    assert dispatcher.metrics.quarantined_sessions == CONFIG.campaigns_per_city
    assert dispatcher.metrics.restarts == 0
    # The dead geo shard's subsequent traffic is discarded (and counted):
    # the overflow shard serves the migrated sessions instead.
    assert dispatcher.discarded_total > 0
    events = dispatcher.recovery_events
    assert [event.action for event in events] == ["quarantine"]


def test_thread_crash_accounting_matches_serial(workload):
    """The thread executor keeps the same books as the serial one.

    Resolving the identical fault plan, both record the same
    ``last_error`` repr and restart count per crashed shard, replay the
    same number of arrivals, and log one restart event per crash.
    """
    policy = RecoveryPolicy(on_shard_failure="restart")
    *_, serial = run_chaotic(workload, "AAM", "serial", CRASH_PLAN, policy)
    *_, threaded = run_chaotic(workload, "AAM", "thread", CRASH_PLAN, policy)
    serial_status = {s.shard_id: s for s in serial.shard_status()}
    thread_status = {s.shard_id: s for s in threaded.shard_status()}
    crashed = {spec.shard_id for spec in CRASH_PLAN.faults}
    for shard_id in crashed:
        assert (
            thread_status[shard_id].last_error
            == serial_status[shard_id].last_error
        )
        assert "InjectedShardCrash" in thread_status[shard_id].last_error
        assert (
            thread_status[shard_id].restarts
            == serial_status[shard_id].restarts
        )
        assert thread_status[shard_id].state == "live"
    assert {e.shard_id for e in threaded.recovery_events} == crashed
    assert all(e.action == "restart" for e in threaded.recovery_events)
    assert (
        threaded.metrics.replayed_arrivals
        == serial.metrics.replayed_arrivals
    )
    assert threaded.metrics.restarts == serial.metrics.restarts == 3
