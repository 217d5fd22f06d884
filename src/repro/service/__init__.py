"""Service layer: serving many LTC instances from one worker stream.

This package is the roadmap's heavy-traffic serving story.  It builds on
the incremental :class:`~repro.core.session.Session` protocol: the
:class:`LTCDispatcher` multiplexes many concurrent named sessions, routes
each arriving worker to the sessions it is eligible for (a geographic
proximity test under the paper's sigmoid accuracy model), and aggregates
throughput/latency metrics across the fleet of sessions.

On top of it, :mod:`repro.service.sharding` partitions campaigns and
traffic geographically — one dispatcher per shard behind a bounded,
backpressure-aware arrival queue (:class:`ShardedDispatcher`) — and
:mod:`repro.service.loadgen` generates seeded, replayable multi-city
worker streams for load testing (``benchmarks/bench_dispatch_scale.py``).
:mod:`repro.service.recovery` makes the sharded runtime fault-tolerant —
per-shard arrival journals and restart/quarantine policies — and :mod:`repro.service.faults` provides the deterministic,
seeded fault injection the chaos differential suite (and
``benchmarks/bench_resilience.py``) drives it with.

See ``examples/dispatch_service.py`` for an end-to-end scenario serving
concurrent campaigns from a single merged check-in stream, and
``docs/dispatch.md`` for the sharded runtime.
"""

from repro.service.dispatcher import (
    DuplicateSessionError,
    LTCDispatcher,
    SessionStatus,
    UnknownSessionError,
)
from repro.service.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedShardCrash,
    TransientSolverError,
)
from repro.service.loadgen import (
    BurstWindow,
    ReplayConfig,
    ReplayWorkload,
    build_workload,
)
from repro.service.metrics import DispatcherMetrics
from repro.service.recovery import (
    FAILURE_POLICIES,
    ArrivalJournal,
    JournalReplayError,
    RecoveryEvent,
    RecoveryPolicy,
)
from repro.service.sharding import (
    BoundedArrivalQueue,
    QueueClosedError,
    QueueFullError,
    ShardAffinityError,
    ShardedDispatcher,
    ShardPlan,
    ShardStatus,
)

__all__ = [
    "LTCDispatcher",
    "SessionStatus",
    "DispatcherMetrics",
    "DuplicateSessionError",
    "UnknownSessionError",
    "ShardPlan",
    "ShardedDispatcher",
    "ShardStatus",
    "ShardAffinityError",
    "BoundedArrivalQueue",
    "QueueClosedError",
    "QueueFullError",
    "ReplayConfig",
    "ReplayWorkload",
    "BurstWindow",
    "build_workload",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedShardCrash",
    "TransientSolverError",
    "FAULT_KINDS",
    "RecoveryPolicy",
    "RecoveryEvent",
    "ArrivalJournal",
    "JournalReplayError",
    "FAILURE_POLICIES",
]
