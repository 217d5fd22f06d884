"""Differential suite: sharded dispatch must be byte-identical to single-process.

The exactness claim of the sharding subsystem — a session pinned to a geo
shard receives exactly the sub-stream a single-process dispatcher would
deliver, in the same per-session order — is enforced here by running the
identical replayable workload through:

* the single-process :class:`~repro.service.LTCDispatcher` (the oracle),
* the :class:`~repro.service.sharding.ShardedDispatcher` under the
  ``serial`` executor (the deterministic merge configuration),
* the ``thread`` executor (cross-shard interleaving is arbitrary, but
  per-session sub-streams stay FIFO),

and comparing the final per-session arrangements **assignment by
assignment** (same pairs, same order, same per-session re-indexed worker
arrivals) plus latencies and completion.  The main differential runs the
shards through every ``engine_pass`` of the candidate engine against an
oracle on its scalar loops.
"""

import pytest
from conftest import SCALAR_ONLY, vector_cutover

from repro.service import LTCDispatcher, ShardedDispatcher, ShardPlan
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


def run_sharded(workload, solver, executor, cols=2, rows=2, **kwargs):
    plan = ShardPlan.for_region(CONFIG.bounds, cols=cols, rows=rows)
    dispatcher = ShardedDispatcher(
        plan,
        default_solver=solver,
        executor=executor,
        queue_capacity=8192,
        keep_streams=True,
        **kwargs,
    )
    ids = [dispatcher.submit_instance(c) for c in workload.campaigns]
    dispatcher.feed_stream(workload.worker_stream())
    dispatcher.drain()
    streams = {sid: dispatcher.routed_stream(sid) for sid in ids}
    dispatcher.stop()
    return ids, streams, dispatcher.close_all(), dispatcher


def assert_identical(base, candidate):
    base_ids, base_streams, base_results = base
    cand_ids, cand_streams, cand_results = candidate
    assert len(base_ids) == len(cand_ids)
    for base_id, cand_id in zip(base_ids, cand_ids):
        # Same re-indexed per-session sub-stream, arrival by arrival ...
        assert base_streams[base_id] == cand_streams[cand_id]
        base_result = base_results[base_id]
        cand_result = cand_results[cand_id]
        # ... hence the same decisions: assignments in the same order,
        # the same latency, the same completion state.
        assert (
            base_result.arrangement.assignments
            == cand_result.arrangement.assignments
        )
        assert base_result.max_latency == cand_result.max_latency
        assert base_result.completed == cand_result.completed


@pytest.mark.parametrize("solver", ["AAM", "LAF"])
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_sharded_matches_single_process(workload, solver, executor, engine_pass):
    # The oracle stays on the scalar loops; the shards run each way of the
    # candidate engine's vector cutover.
    with vector_cutover(SCALAR_ONLY):
        base = run_single_process(workload, solver)
    ids, streams, results, _ = run_sharded(workload, solver, executor)
    assert_identical(base, (ids, streams, results))


def test_every_campaign_pins_to_a_geo_shard(workload):
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=2)
    for campaign in workload.campaigns:
        assert plan.shard_for_instance(campaign) != plan.overflow_shard


def test_single_shard_plan_matches_too(workload):
    """The degenerate 1x1 plan is pure queue overhead — still exact."""
    base = run_single_process(workload, "AAM")
    ids, streams, results, _ = run_sharded(
        workload, "AAM", "serial", cols=1, rows=1
    )
    assert_identical(base, (ids, streams, results))


def test_lossless_runs_shed_nothing(workload):
    *_, dispatcher = run_sharded(workload, "AAM", "thread")
    assert dispatcher.shed_total == 0
    assert dispatcher.arrivals_offered == CONFIG.num_workers


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_expiry_is_exact_across_runtimes(workload, executor):
    """A TTL sweep at the same per-session point yields identical state.

    Expiring via the sharded dispatcher and via a single-process
    dispatcher at the same stream position must abandon the same tasks
    and leave byte-identical arrangements.  The sharded run drains
    before the sweep (a no-op under ``serial``), so the sweep
    lands at the same per-session stream position as the oracle's.
    """
    cutoff = CONFIG.num_workers // 4

    def drive(dispatcher, sharded):
        ids = [dispatcher.submit_instance(c, solver="AAM")
               for c in workload.campaigns]
        for worker in workload.worker_stream():
            if worker.index > cutoff:
                break
            dispatcher.feed_worker(worker)
        if sharded:
            dispatcher.drain()
        expired = {
            sid: dispatcher.expire_tasks(
                sid, [t.task_id for t in campaign.tasks]
            )
            for sid, campaign in zip(ids, workload.campaigns)
        }
        if sharded:
            dispatcher.stop()
        return ids, expired, dispatcher.close_all()

    base_ids, base_expired, base_results = drive(LTCDispatcher(), sharded=False)
    plan = ShardPlan.for_region(CONFIG.bounds, cols=2, rows=2)
    shard_ids, shard_expired, shard_results = drive(
        ShardedDispatcher(plan, executor=executor, queue_capacity=8192),
        sharded=True,
    )
    for base_id, shard_id in zip(base_ids, shard_ids):
        assert base_expired[base_id] == shard_expired[shard_id]
        assert (
            base_results[base_id].arrangement.assignments
            == shard_results[shard_id].arrangement.assignments
        )
        assert (
            base_results[base_id].arrangement.abandoned_tasks
            == shard_results[shard_id].arrangement.abandoned_tasks
        )
