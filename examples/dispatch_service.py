#!/usr/bin/env python
"""Serving three concurrent LTC campaigns from one merged check-in stream.

A real spatial-crowdsourcing platform never solves one instance at a time:
campaigns in different neighbourhoods overlap, and every checking-in worker
belongs to whichever campaigns are nearby.  This scenario builds three
synthetic campaigns in three separate districts, merges their worker streams
into a single city-wide arrival sequence, and lets the
:class:`~repro.service.LTCDispatcher` route each arrival to the campaigns it
is eligible for — each served by its own solver through the uniform
:class:`~repro.core.session.Session` protocol.

The demo then verifies the service layer end to end: replaying each
campaign's routed sub-stream through a fresh standalone session must give
exactly the per-campaign max latency the dispatcher reported.  Finally
the same campaigns and the same stream run through a
:class:`~repro.service.ShardedDispatcher` — each district pinned to its
own geographic shard — and the per-campaign latencies must come out
identical, because sharding changes throughput, never arrangements.

Run with::

    python examples/dispatch_service.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import SyntheticConfig, generate_synthetic_instance
from repro.algorithms.registry import build_solver
from repro.core.instance import LTCInstance
from repro.geo.point import Point
from repro.service import LTCDispatcher, ShardPlan, ShardedDispatcher

#: (district name, location offset, solver spec) — one campaign per district.
#: Districts are far enough apart that eligibility (a proximity test under
#: the sigmoid accuracy model) partitions the merged stream geographically.
DISTRICTS = [
    ("downtown", (0.0, 0.0), "AAM"),
    ("harbour", (1000.0, 0.0), "LAF"),
    ("airport", (0.0, 1000.0), "AAM"),
]


def district_instance(name: str, offset: tuple[float, float], seed: int) -> LTCInstance:
    """A small campaign translated into its own district."""
    config = SyntheticConfig(
        num_tasks=10,
        num_workers=250,
        capacity=4,
        error_rate=0.14,
        grid_size=100.0,
        seed=seed,
        name=f"campaign {name}",
    )
    instance = generate_synthetic_instance(config)
    dx, dy = offset
    return LTCInstance(
        tasks=[
            replace(task, location=Point(task.location.x + dx, task.location.y + dy))
            for task in instance.tasks
        ],
        workers=[
            replace(w, location=Point(w.location.x + dx, w.location.y + dy))
            for w in instance.workers
        ],
        error_rate=instance.error_rate,
        accuracy_model=instance.accuracy_model,
        name=instance.name,
    )


def merged_city_stream(instances):
    """Interleave the campaigns' workers into one city-wide arrival order."""
    queues = [list(instance.workers) for instance in instances]
    merged = []
    while any(queues):
        for queue in queues:
            if queue:
                merged.append(replace(queue.pop(0), index=len(merged) + 1))
    return merged


def main() -> None:
    instances = {
        name: district_instance(name, offset, seed=2018 + position)
        for position, (name, offset, _) in enumerate(DISTRICTS)
    }
    dispatcher = LTCDispatcher(keep_streams=True)
    for name, _, spec in DISTRICTS:
        dispatcher.submit_instance(instances[name], solver=spec, session_id=name)

    stream = merged_city_stream(list(instances.values()))
    print(f"City stream: {len(stream)} merged check-ins across "
          f"{len(DISTRICTS)} concurrent campaigns\n")
    consumed = dispatcher.feed_stream(stream)

    print(f"{'campaign':10s} {'solver':28s} {'routed':>7s} {'latency':>8s} "
          f"{'tasks':>7s} {'done':>5s}")
    statuses = dispatcher.poll()
    for name, status in statuses.items():
        snapshot = status.snapshot
        print(f"{name:10s} {status.algorithm:28s} {status.workers_routed:7d} "
              f"{snapshot.max_latency:8d} "
              f"{snapshot.tasks_completed:3d}/{snapshot.tasks_total:<3d} "
              f"{str(snapshot.complete):>5s}")

    # Verify the serving layer: replaying each campaign's routed sub-stream
    # through a fresh standalone session must reproduce its latency exactly.
    print("\nPer-campaign check against standalone single-session runs:")
    for name, _, spec in DISTRICTS:
        partition = dispatcher.routed_stream(name)
        standalone = build_solver(spec).open_session(instances[name]).drive(partition)
        dispatched_latency = statuses[name].max_latency
        verdict = "OK" if standalone.max_latency == dispatched_latency else "MISMATCH"
        print(f"  {name:10s} dispatched={dispatched_latency:5d}  "
              f"standalone={standalone.max_latency:5d}  [{verdict}]")

    metrics = dispatcher.metrics
    print(f"\nAggregate service metrics after {consumed} arrivals:")
    for key, value in metrics.summary().items():
        print(f"  {key:22s} {value:12.3f}")

    results = dispatcher.close_all()
    completed = sum(result.completed for result in results.values())
    print(f"\nClosed {len(results)} sessions; {completed} campaigns completed.")
    print("Latency is measured in per-campaign arrivals, so concurrent")
    print("campaigns do not inflate each other's latency — the dispatcher")
    print("re-indexes every routed worker into its campaign's local order.")

    # --- Sharded serving: same campaigns, same stream, one dispatcher per
    # geographic shard.  Each district's reach box fits inside one cell of
    # a 2x2 plan, so each campaign is pinned to its own shard and the
    # per-campaign latencies must be identical to the single-process run.
    plan = ShardPlan.for_campaigns(instances.values(), cols=2)
    sharded = ShardedDispatcher(plan, queue_policy="block")
    for name, _, spec in DISTRICTS:
        sharded.submit_instance(instances[name], solver=spec, session_id=name)
    sharded.feed_stream(stream)
    sharded.drain()

    print(f"\nSharded rerun over a {plan.cols}x{plan.rows} plan "
          f"({plan.num_geo_shards} geo shards + overflow):")
    for status in sharded.shard_status():
        if not status.session_ids:
            continue
        if status.is_overflow:
            kind = "overflow"
        else:
            cell = status.cell
            kind = (f"cell x:[{cell.min_x:.0f}, {cell.max_x:.0f}] "
                    f"y:[{cell.min_y:.0f}, {cell.max_y:.0f}]")
        print(f"  shard {status.shard_id} ({kind}): "
              f"sessions={list(status.session_ids)} "
              f"arrivals={status.arrivals_processed} "
              f"shed={status.arrivals_shed}")
    sharded_statuses = sharded.poll()
    for name, _, _ in DISTRICTS:
        single = statuses[name].max_latency
        shard = sharded_statuses[name].max_latency
        verdict = "OK" if single == shard else "MISMATCH"
        print(f"  {name:10s} single-process={single:5d}  "
              f"sharded={shard:5d}  [{verdict}]")
    sharded.stop()
    sharded.close_all()
    print("Sharding is exact: pinned campaigns see the same routed")
    print("sub-stream a single dispatcher would deliver, in the same order.")


if __name__ == "__main__":
    main()
