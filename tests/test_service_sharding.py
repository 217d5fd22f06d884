"""Tests for the geographic sharding runtime (plan, queues, dispatcher)."""

import random
from collections import deque

import pytest

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.service import (
    BoundedArrivalQueue,
    DuplicateSessionError,
    FaultPlan,
    FaultSpec,
    LTCDispatcher,
    QueueClosedError,
    QueueFullError,
    ShardAffinityError,
    ShardedDispatcher,
    ShardPlan,
    UnknownSessionError,
)
from repro.service.sharding import instance_reach_radius, tasks_reach_bounds

BOUNDS = BoundingBox(0.0, 0.0, 2000.0, 2000.0)

#: City centres aligned with the cells of a 2x2 plan over BOUNDS.
CENTERS = [(500.0, 500.0), (1500.0, 500.0), (500.0, 1500.0), (1500.0, 1500.0)]


def campaign(cx, cy, tid0=0, num_tasks=3, spread=5.0, **instance_kwargs):
    tasks = [
        Task(task_id=tid0 + i, location=Point(cx + spread * i, cy))
        for i in range(num_tasks)
    ]
    workers = [Worker(index=1, location=Point(cx, cy), accuracy=0.9, capacity=2)]
    instance_kwargs.setdefault("error_rate", 0.2)
    return LTCInstance(tasks=tasks, workers=workers, **instance_kwargs)


def city_stream(num_workers, centers=CENTERS, spread=10.0, seed=0):
    """A deterministic merged stream cycling through city centres."""
    workers = []
    for index in range(1, num_workers + 1):
        cx, cy = centers[(index + seed) % len(centers)]
        jitter = (index * 7) % 11 - 5
        workers.append(
            Worker(
                index=index,
                location=Point(cx + jitter, cy + spread * ((index % 3) - 1) / 3.0),
                accuracy=0.9,
                capacity=2,
            )
        )
    return workers


def straddling_campaign(tid0):
    """Tasks at the first two city centres: its reach box spans shards 0
    and 1, so the plan pins it to the overflow shard."""
    return campaign(*CENTERS[0], tid0=tid0, num_tasks=2, spread=1000.0)


def shard0_worker(index):
    """An arrival at the first city centre, inside shard 0's cell."""
    cx, cy = CENTERS[0]
    return Worker(index=index, location=Point(cx, cy), accuracy=0.9, capacity=2)


class TestShardPlan:
    def test_grid_geometry_and_ids(self):
        plan = ShardPlan(BOUNDS, cols=2, rows=2)
        assert plan.num_geo_shards == 4
        assert plan.overflow_shard == 4
        assert plan.num_shards == 5
        assert plan.cell(plan.overflow_shard) is None
        cell0 = plan.cell(0)
        assert (cell0.min_x, cell0.min_y, cell0.max_x, cell0.max_y) == (
            0.0, 0.0, 1000.0, 1000.0,
        )
        # Row-major: shard 1 is east of shard 0, shard 2 is north of it.
        assert plan.cell(1).min_x == 1000.0
        assert plan.cell(2).min_y == 1000.0
        with pytest.raises(ValueError):
            plan.cell(5)

    def test_shard_of_point_covers_and_clamps(self):
        plan = ShardPlan(BOUNDS, cols=2, rows=2)
        assert plan.shard_of_point(Point(10.0, 10.0)) == 0
        assert plan.shard_of_point(Point(1999.0, 10.0)) == 1
        assert plan.shard_of_point(Point(10.0, 1999.0)) == 2
        assert plan.shard_of_point(Point(1500.0, 1500.0)) == 3
        # The outer border belongs to the edge cells; outside points clamp.
        assert plan.shard_of_point(Point(2000.0, 2000.0)) == 3
        assert plan.shard_of_point(Point(-50.0, 5000.0)) == 2

    def test_campaign_pins_to_its_cell(self):
        plan = ShardPlan(BOUNDS, cols=2, rows=2)
        for shard_id, (cx, cy) in enumerate(CENTERS):
            assert plan.shard_for_instance(campaign(cx, cy)) == shard_id

    def test_spanning_campaign_goes_to_overflow(self):
        plan = ShardPlan(BOUNDS, cols=2, rows=2)
        # Tasks straddling the vertical midline span two cells.
        tasks = [
            Task(task_id=0, location=Point(980.0, 500.0)),
            Task(task_id=1, location=Point(1020.0, 500.0)),
        ]
        workers = [Worker(index=1, location=Point(1000.0, 500.0),
                          accuracy=0.9, capacity=2)]
        spanning = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)
        assert plan.shard_for_instance(spanning) == plan.overflow_shard
        # A reach box poking outside the plan bounds also overflows.
        near_edge = campaign(10.0, 10.0)
        assert plan.shard_for_instance(near_edge) == plan.overflow_shard

    def test_unbounded_reach_goes_to_overflow(self):
        plan = ShardPlan(BOUNDS, cols=2, rows=2)
        constant = campaign(500.0, 500.0, accuracy_model=ConstantAccuracy(0.9))
        assert instance_reach_radius(constant) is None
        assert tasks_reach_bounds(constant) is None
        assert plan.shard_for_instance(constant) == plan.overflow_shard

    def test_reach_radius_bounds_every_worker(self):
        instance = campaign(500.0, 500.0)
        radius = instance_reach_radius(instance)
        model = instance.accuracy_model
        assert isinstance(model, SigmoidDistanceAccuracy)
        # A perfect worker just beyond the radius is ineligible everywhere.
        task = instance.tasks[0]
        worker = Worker(
            index=1,
            location=Point(task.location.x + radius + 1.0, task.location.y),
            accuracy=1.0,
            capacity=1,
        )
        assert model.accuracy(worker, task) < instance.min_assignable_accuracy

    def test_for_campaigns_covers_every_reach_box(self):
        instances = [campaign(cx, cy, tid0=10 * i)
                     for i, (cx, cy) in enumerate(CENTERS)]
        plan = ShardPlan.for_campaigns(instances, cols=2)
        for instance in instances:
            assert plan.shard_for_instance(instance) != plan.overflow_shard
        with pytest.raises(ValueError):
            ShardPlan.for_campaigns(
                [campaign(500.0, 500.0, accuracy_model=ConstantAccuracy(0.9))]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(BOUNDS, cols=0)
        with pytest.raises(ValueError):
            ShardPlan(BoundingBox(0.0, 0.0, 0.0, 10.0))


class TestBoundedArrivalQueue:
    def test_fifo_and_counters(self):
        queue = BoundedArrivalQueue(capacity=4)
        for item in "abc":
            assert queue.put(item)
        assert [queue.get() for _ in range(3)] == list("abc")
        assert queue.get() is None  # empty: never waits
        assert queue.accepted == 3
        assert queue.processed == 3
        assert queue.shed == 0

    def test_drop_oldest_evicts_head(self):
        queue = BoundedArrivalQueue(capacity=2, policy="drop-oldest")
        assert queue.put("a") and queue.put("b") and queue.put("c")
        assert queue.evicted == 1
        assert queue.accepted == 3
        assert queue.shed == 1
        assert queue.get() == "b"
        assert queue.get() == "c"

    def test_reject_refuses_new_arrival(self):
        queue = BoundedArrivalQueue(capacity=2, policy="reject")
        assert queue.put("a") and queue.put("b")
        assert not queue.put("c")
        assert queue.rejected == 1
        assert queue.shed == 1
        assert queue.get() == "a"

    def test_full_block_queue_raises_and_admits_nothing(self):
        queue = BoundedArrivalQueue(capacity=1, policy="block")
        queue.put("a")
        with pytest.raises(QueueFullError, match="1 arrivals"):
            queue.put("b")
        assert (queue.accepted, queue.shed, queue.size) == (1, 0, 1)
        assert queue.get() == "a"
        assert queue.put("b")  # space again

    @pytest.mark.parametrize("policy", ["block", "drop-oldest", "reject"])
    def test_counters_are_conserved_over_any_interleaving(self, policy):
        """Seeded put/get/flush mixes against a plain deque model.

        Counters only grow, ``shed`` is ``evicted + rejected``, and every
        admitted arrival is still queued, taken, evicted or flushed.
        """
        rng = random.Random(f"queue-{policy}")
        queue = BoundedArrivalQueue(capacity=3, policy=policy)
        model = deque()
        flushed = 0
        previous = (0, 0, 0, 0)
        for step in range(500):
            roll = rng.random()
            if roll < 0.6:
                was_full = queue.full
                if was_full and policy == "block":
                    with pytest.raises(QueueFullError):
                        queue.put(step)
                elif queue.put(step):
                    assert not was_full or policy == "drop-oldest"
                    if was_full:
                        model.popleft()
                    model.append(step)
                else:
                    assert was_full and policy == "reject"
            elif roll < 0.95:
                assert queue.get() == (model.popleft() if model else None)
            else:
                flushed += queue.flush()
                model.clear()
            counters = (
                queue.accepted, queue.evicted, queue.rejected, queue.processed
            )
            assert all(now >= old for now, old in zip(counters, previous))
            previous = counters
            assert queue.size == len(model)
            assert queue.shed == queue.evicted + queue.rejected
            assert queue.accepted == (
                queue.processed + queue.evicted + flushed + queue.size
            )
        # The mix really hit the bound under every policy.
        assert (queue.evicted > 0) == (policy == "drop-oldest")
        assert (queue.rejected > 0) == (policy == "reject")

    def test_closed_full_queue_reports_closed_not_full(self):
        queue = BoundedArrivalQueue(capacity=1, policy="block")
        queue.put("a")
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put("b")
        assert (queue.accepted, queue.size) == (1, 1)

    def test_close_wakes_consumers_and_refuses_producers(self):
        queue = BoundedArrivalQueue(capacity=2)
        queue.put("a")
        queue.close()
        assert queue.get() == "a"  # drains the backlog
        assert queue.get() is None  # then reports closed
        with pytest.raises(QueueClosedError):
            queue.put("b")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BoundedArrivalQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedArrivalQueue(capacity=1, policy="spill")

    def test_get_after_close_and_empty_returns_sentinel(self):
        queue = BoundedArrivalQueue(capacity=2)
        queue.close()
        assert queue.get() is None
        assert queue.get() is None  # stays closed, no raise

    def test_flush_discards_backlog(self):
        queue = BoundedArrivalQueue(capacity=4)
        for item in "abc":
            queue.put(item)
        assert queue.flush() == 3
        assert queue.size == 0 and queue.get() is None
        assert queue.accepted == 3  # admission history is preserved
        assert queue.shed == 0  # flush is not backpressure shedding


@pytest.fixture
def plan():
    return ShardPlan(BOUNDS, cols=2, rows=2)


@pytest.fixture
def campaigns():
    return [campaign(cx, cy, tid0=100 * i) for i, (cx, cy) in enumerate(CENTERS)]


class TestShardedDispatcher:
    def test_sessions_pin_and_ids_are_global(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        ids = [dispatcher.submit_instance(c) for c in campaigns]
        assert ids == [f"session-{i}" for i in range(1, 5)]
        assert [dispatcher.shard_of(sid) for sid in ids] == [0, 1, 2, 3]
        with pytest.raises(DuplicateSessionError):
            dispatcher.submit_instance(campaigns[0], session_id=ids[0])
        with pytest.raises(UnknownSessionError):
            dispatcher.shard_of("nope")

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_auto_ids_skip_caller_chosen_ones(self, plan, campaigns, sharded):
        dispatcher = (
            ShardedDispatcher(plan) if sharded
            else LTCDispatcher()
        )
        dispatcher.submit_instance(campaigns[0], session_id="session-2")
        auto = [dispatcher.submit_instance(c) for c in campaigns[1:3]]
        assert auto == ["session-1", "session-3"]
        assert dispatcher.session_ids == ["session-2", "session-1", "session-3"]

    @pytest.mark.parametrize(
        "requested, expected",
        [
            (["session-1", None, None],
             ["session-1", "session-2", "session-3"]),
            ([None, "session-3", None, None],
             ["session-1", "session-3", "session-2", "session-4"]),
            (["session-2", "session-3", None, None],
             ["session-2", "session-3", "session-1", "session-4"]),
        ],
        ids=["explicit-first", "interleaved", "explicit-run"],
    )
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_auto_ids_never_collide(
        self, plan, campaigns, sharded, requested, expected
    ):
        """``None`` asks for an auto id; the rest are caller-chosen."""
        dispatcher = (
            ShardedDispatcher(plan) if sharded
            else LTCDispatcher()
        )
        opened = [
            dispatcher.submit_instance(c, session_id=session_id)
            for c, session_id in zip(campaigns, requested)
        ]
        assert opened == expected
        assert dispatcher.session_ids == expected

    def test_the_plan_is_the_only_pinning_rule(self, plan, campaigns):
        """A campaign inside one cell pins to that cell's shard; one whose
        reach box spans two cells pins to the overflow shard."""
        dispatcher = ShardedDispatcher(plan)
        for shard_id, c in enumerate(campaigns):
            assert dispatcher.shard_of(dispatcher.submit_instance(c)) == shard_id
        spanning = dispatcher.submit_instance(straddling_campaign(tid0=900))
        assert dispatcher.shard_of(spanning) == plan.overflow_shard
        with pytest.raises(TypeError):
            dispatcher.submit_instance(campaigns[0], shard_id=0)

    def test_serial_feed_returns_deliveries(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        ids = [dispatcher.submit_instance(c) for c in campaigns]
        cx, cy = CENTERS[0]
        deliveries = dispatcher.feed_worker(
            Worker(index=1, location=Point(cx, cy), accuracy=0.9, capacity=2)
        )
        assert set(deliveries) == {ids[0]}
        assert dispatcher.arrivals_offered == 1

    def test_worker_fans_out_to_overflow_when_populated(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        geo_id = dispatcher.submit_instance(campaigns[0])
        overflow_id = dispatcher.submit_instance(straddling_campaign(tid0=900))
        assert dispatcher.shard_of(overflow_id) == plan.overflow_shard
        cx, cy = CENTERS[0]
        deliveries = dispatcher.feed_worker(
            Worker(index=1, location=Point(cx, cy), accuracy=0.9, capacity=2)
        )
        assert set(deliveries) == {geo_id, overflow_id}
        # One offered arrival, two per-shard feeds.
        assert dispatcher.arrivals_offered == 1
        assert dispatcher.metrics.workers_fed == 2

    def test_mid_stream_tasks_must_stay_in_cell(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        sid = dispatcher.submit_instance(campaigns[0])
        # Same-cell tasks are accepted ...
        dispatcher.submit_tasks(
            sid, [Task(task_id=990, location=Point(520.0, 500.0))]
        )
        # ... tasks reaching into another cell are refused, atomically.
        before = dispatcher.poll()[sid].snapshot.tasks_total
        with pytest.raises(ShardAffinityError):
            dispatcher.submit_tasks(
                sid, [Task(task_id=991, location=Point(1500.0, 500.0))]
            )
        assert dispatcher.poll()[sid].snapshot.tasks_total == before

    def test_overflow_sessions_accept_any_tasks(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        sid = dispatcher.submit_instance(straddling_campaign(tid0=900))
        assert dispatcher.shard_of(sid) == plan.overflow_shard
        dispatcher.submit_tasks(
            sid, [Task(task_id=990, location=Point(1900.0, 1900.0))]
        )
        assert dispatcher.poll()[sid].snapshot.tasks_total == 3

    def test_shed_accounting_with_drop_oldest(self, plan, campaigns):
        injector = FaultPlan(
            (FaultSpec("stall", shard_id=0, at_arrival=1),)
        ).injector()
        dispatcher = ShardedDispatcher(
            plan,
            queue_capacity=4,
            queue_policy="drop-oldest",
            faults=injector,
        )
        for c in campaigns:
            dispatcher.submit_instance(c)
        # Shard 0 processes one arrival and stalls; the other 11 target
        # its queue (capacity 4) -> 7 evicted.
        for index in range(1, 13):
            dispatcher.feed_worker(shard0_worker(index))
        assert dispatcher.shed_total == 7
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert status[0].arrivals_shed == 7
        assert status[0].queue_depth == 4
        assert status[1].arrivals_shed == 0
        injector.release_stalls()
        assert dispatcher.drain()
        assert dispatcher.metrics.workers_fed == 5
        dispatcher.stop()

    def test_shed_accounting_with_reject(self, plan):
        injector = FaultPlan(
            (FaultSpec("stall", shard_id=0, at_arrival=1),)
        ).injector()
        dispatcher = ShardedDispatcher(
            plan,
            queue_capacity=4,
            queue_policy="reject",
            faults=injector,
        )
        dispatcher.submit_instance(campaign(*CENTERS[0], num_tasks=30))
        for index in range(1, 13):
            dispatcher.feed_worker(shard0_worker(index))
        assert dispatcher.shed_total == 7
        injector.release_stalls()
        assert dispatcher.drain()
        assert dispatcher.poll()["session-1"].workers_routed == 5
        dispatcher.stop()

    def test_full_block_queue_raises_while_stalled(self, plan, campaigns):
        faults = FaultPlan((FaultSpec("stall", shard_id=0, at_arrival=1),))
        injector = faults.injector()
        dispatcher = ShardedDispatcher(plan, queue_capacity=4, faults=injector)
        dispatcher.submit_instance(campaigns[0])
        for index in range(1, 6):  # one processed, four queued
            dispatcher.feed_worker(shard0_worker(index))
        with pytest.raises(QueueFullError, match="shard 0.*4 arrivals"):
            dispatcher.feed_worker(shard0_worker(6))
        assert dispatcher.arrivals_offered == 5
        assert dispatcher.shard_status()[0].arrivals_accepted == 5
        injector.release_stalls()
        assert dispatcher.drain()
        dispatcher.feed_worker(shard0_worker(6))
        assert dispatcher.metrics.workers_fed == 6
        dispatcher.stop()

    def test_refused_fan_out_admits_nothing_anywhere(self, plan, campaigns):
        """A full overflow queue refuses the arrival for its geo shard too."""
        overflow = plan.overflow_shard
        faults = FaultPlan((FaultSpec("stall", shard_id=overflow, at_arrival=1),))
        dispatcher = ShardedDispatcher(plan, queue_capacity=2, faults=faults)
        dispatcher.submit_instance(campaigns[0])
        assert dispatcher.shard_of(
            dispatcher.submit_instance(straddling_campaign(tid0=900))
        ) == overflow
        for index in range(1, 4):  # overflow: one processed, two queued
            dispatcher.feed_worker(shard0_worker(index))
        with pytest.raises(QueueFullError, match=f"shard {overflow}"):
            dispatcher.feed_worker(shard0_worker(4))
        status = {s.shard_id: s for s in dispatcher.shard_status()}
        assert dispatcher.arrivals_offered == 3
        geo, spill = status[0], status[overflow]
        assert (geo.arrivals_accepted, geo.arrivals_processed) == (3, 3)
        assert (spill.arrivals_accepted, spill.queue_depth) == (3, 2)
        dispatcher.stop()

    @pytest.mark.parametrize(
        "policy, kept",
        [("drop-oldest", [1, 8, 9, 10, 11]), ("reject", [1, 2, 3, 4, 5])],
    )
    def test_a_stall_sheds_reproducibly(self, plan, policy, kept):
        """Under a stall, what a shed policy keeps depends on nothing else."""
        cx, cy = CENTERS[0]

        def run():
            injector = FaultPlan(
                (FaultSpec("stall", shard_id=0, at_arrival=1),)
            ).injector()
            dispatcher = ShardedDispatcher(
                plan,
                queue_capacity=4,
                queue_policy=policy,
                keep_streams=True,
                faults=injector,
            )
            # Thirty tasks: eleven workers of capacity 2 cannot finish it.
            sid = dispatcher.submit_instance(campaign(cx, cy, num_tasks=30))
            for index in range(1, 12):
                dispatcher.feed_worker(
                    Worker(index=index, location=Point(cx + index, cy),
                           accuracy=0.9, capacity=2)
                )
            shed = dispatcher.shed_total
            injector.release_stalls()
            assert dispatcher.drain()
            routed = [
                round(w.location.x - cx) for w in dispatcher.routed_stream(sid)
            ]
            dispatcher.stop()
            return shed, routed

        assert run() == run() == (6, kept)

    def test_drain_serves_the_shards_behind_a_stall(self, plan, campaigns):
        faults = FaultPlan((FaultSpec("stall", shard_id=0, at_arrival=1),))
        dispatcher = ShardedDispatcher(plan, queue_capacity=64, faults=faults)
        for c in campaigns:
            dispatcher.submit_instance(c)
        dispatcher.feed_stream(city_stream(40))  # ten arrivals per city
        assert dispatcher.drain() is False
        depths = {s.shard_id: s.queue_depth for s in dispatcher.shard_status()}
        assert depths == {0: 9, 1: 0, 2: 0, 3: 0, plan.overflow_shard: 0}
        assert dispatcher.metrics.workers_fed == 31
        dispatcher.stop()
        assert dispatcher.metrics.workers_fed == 40

    def test_feed_worker_returns_a_dict_behind_a_stall(self, plan, campaigns):
        """A queued arrival yields empty deliveries, never ``None``."""
        faults = FaultPlan((FaultSpec("stall", shard_id=0, at_arrival=1),))
        dispatcher = ShardedDispatcher(plan, faults=faults)
        sid = dispatcher.submit_instance(campaigns[0])
        assert set(dispatcher.feed_worker(shard0_worker(1))) == {sid}
        assert dispatcher.feed_worker(shard0_worker(2)) == {}
        assert dispatcher.shard_status()[0].queue_depth == 1
        dispatcher.stop()
        assert dispatcher.poll()[sid].workers_routed == 2

    def test_serves_and_stops(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan, queue_capacity=256)
        ids = [dispatcher.submit_instance(c) for c in campaigns]
        stream = city_stream(200)
        assert dispatcher.feed_stream(stream) == len(stream)
        assert dispatcher.drain()
        statuses = dispatcher.poll()
        assert all(statuses[sid].complete for sid in ids)
        dispatcher.stop()
        dispatcher.stop()  # idempotent
        with pytest.raises(RuntimeError):
            dispatcher.feed_worker(stream[0])
        results = dispatcher.close_all()
        assert set(results) == set(ids)

    def test_metrics_roll_up_across_shards(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        for c in campaigns:
            dispatcher.submit_instance(c)
        stream = city_stream(80)
        dispatcher.feed_stream(stream)
        aggregate = dispatcher.metrics
        per_shard = [s.metrics for s in dispatcher.shard_status()]
        assert aggregate.workers_fed == sum(m.workers_fed for m in per_shard)
        assert aggregate.workers_fed == len(stream)  # overflow is empty
        assert aggregate.sessions_opened == len(campaigns)
        assert aggregate.assignments_made == sum(
            m.assignments_made for m in per_shard
        )
        dispatcher.stop()

    def test_expire_tasks_routes_to_the_right_shard(self, plan, campaigns):
        dispatcher = ShardedDispatcher(plan)
        ids = [dispatcher.submit_instance(c) for c in campaigns]
        expired = dispatcher.expire_tasks(ids[2], [200, 201, 202])
        assert expired == [200, 201, 202]
        snapshot = dispatcher.poll()[ids[2]].snapshot
        assert snapshot.tasks_abandoned == 3
        assert snapshot.complete
        assert dispatcher.metrics.tasks_expired == 3
        dispatcher.stop()

    def test_unknown_sessions_raise(self, plan):
        dispatcher = ShardedDispatcher(plan)
        with pytest.raises(UnknownSessionError):
            dispatcher.submit_tasks("ghost", [])
        with pytest.raises(UnknownSessionError):
            dispatcher.close("ghost")

    @pytest.mark.parametrize("executor", ["fork", "process", "thread"])
    def test_invalid_executor(self, plan, executor):
        with pytest.raises(ValueError, match="expected serial$"):
            ShardedDispatcher(plan, executor=executor)
