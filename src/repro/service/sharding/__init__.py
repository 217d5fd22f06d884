"""Geographic sharding for the dispatch layer.

The sigmoid accuracy model bounds every campaign's reach to a disk around
its tasks, so campaigns and worker traffic partition cleanly by region:

* :class:`ShardPlan` grids the serving region into geo shards (plus one
  overflow shard for campaigns whose reach spans cells or cannot be
  bounded) and pins each campaign to the shard containing its reach box;
* :class:`BoundedArrivalQueue` is the bounded, backpressure-aware buffer
  between the router and each shard's dispatcher;
* :class:`ShardedDispatcher` runs one
  :class:`~repro.service.LTCDispatcher` per shard, draining every shard
  inline on the caller's thread, while keeping per-session arrangements
  byte-identical to a single-process run (in lossless configurations).

See ``docs/dispatch.md`` for the routing semantics and the exactness
argument, and ``benchmarks/bench_dispatch_scale.py`` for the replay load
harness that sweeps shard counts.
"""

from repro.core.candidates import instance_reach_radius, tasks_reach_bounds
from repro.service.sharding.dispatcher import (
    SHARD_STATES,
    ShardAffinityError,
    ShardedDispatcher,
    ShardStatus,
)
from repro.service.sharding.plan import ShardPlan
from repro.service.sharding.queueing import (
    BACKPRESSURE_POLICIES,
    BoundedArrivalQueue,
    QueueClosedError,
    QueueFullError,
)

__all__ = [
    "ShardPlan",
    "ShardedDispatcher",
    "ShardStatus",
    "ShardAffinityError",
    "BoundedArrivalQueue",
    "QueueClosedError",
    "QueueFullError",
    "BACKPRESSURE_POLICIES",
    "SHARD_STATES",
    "instance_reach_radius",
    "tasks_reach_bounds",
]
