"""Aggregate serving metrics for the dispatch layer.

The dispatcher serves many sessions from one worker stream; these counters
answer the operational questions — how much traffic arrived, how much of it
was routable, how many assignments were committed, and how fast the dispatch
hot path is running.

Metrics are **mergeable**: a sharded dispatcher runs one
:class:`~repro.service.LTCDispatcher` per geographic shard, each with its
own counters, and :meth:`DispatcherMetrics.merged` rolls the per-shard
objects up into one aggregate view (counters and busy time sum; the
derived ratios are recomputed over the sums).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable


@dataclass
class DispatcherMetrics:
    """Counters accumulated by an :class:`~repro.service.LTCDispatcher`.

    Attributes
    ----------
    sessions_opened / sessions_completed / sessions_closed:
        Lifecycle counts.  ``completed`` counts completion *events* while
        being fed (a session reopened by a mid-stream task submission can
        complete again); ``closed`` counts explicit
        :meth:`~repro.service.LTCDispatcher.close` calls.
    sessions_reopened:
        Completed sessions pulled back into serving because
        :meth:`~repro.service.LTCDispatcher.submit_tasks` posted new
        tasks to them.
    tasks_submitted:
        Tasks posted to open sessions after submission (the dynamic
        mid-stream path), across all sessions.
    tasks_expired:
        Tasks abandoned by :meth:`~repro.service.LTCDispatcher.expire_tasks`
        (deadline passed before the quality threshold), across all
        sessions.  Already-completed ids offered to an expiry sweep are
        not counted — only honest abandonments.
    workers_fed:
        Arrivals offered to the dispatcher.
    workers_routed:
        Deliveries to sessions (one arrival routed to three sessions counts
        three).
    workers_unrouted:
        Arrivals no open session could use (outside every session's
        eligibility region, or all sessions already complete).
    assignments_made:
        Total (worker, task) assignments committed across all sessions.
    restarts:
        Shard restarts performed by the recovery layer (journal replays
        that rebuilt a dead shard's dispatcher).  Always 0 for a plain
        single-process dispatcher.
    replayed_arrivals:
        Worker arrivals re-fed from a shard journal during restart or
        quarantine recovery.  These do **not** double-count into
        ``workers_fed``-style traffic totals at the sharded level: a
        restarted shard's counters are rebuilt *by* the replay, replacing
        (not adding to) the dead dispatcher's counters.
    quarantined_sessions:
        Sessions migrated to the overflow shard because their home shard
        was quarantined after a failure.
    busy_seconds:
        Wall-clock time spent inside the dispatch hot path, measured
        with :func:`time.perf_counter`.
    """

    sessions_opened: int = 0
    sessions_completed: int = 0
    sessions_closed: int = 0
    sessions_reopened: int = 0
    tasks_submitted: int = 0
    tasks_expired: int = 0
    workers_fed: int = 0
    workers_routed: int = 0
    workers_unrouted: int = 0
    assignments_made: int = 0
    restarts: int = 0
    replayed_arrivals: int = 0
    quarantined_sessions: int = 0
    busy_seconds: float = 0.0

    @property
    def routed_fraction(self) -> float:
        """Fraction of fed arrivals delivered to at least one session."""
        if self.workers_fed == 0:
            return 0.0
        return (self.workers_fed - self.workers_unrouted) / self.workers_fed

    @property
    def throughput_per_second(self) -> float:
        """Arrivals dispatched per busy second (0 before any traffic)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.workers_fed / self.busy_seconds

    def merge(self, other: "DispatcherMetrics") -> "DispatcherMetrics":
        """Fold another metrics object's counters into this one (in place).

        Every counter (and ``busy_seconds``) sums; the derived
        ``routed_fraction`` / ``throughput_per_second`` properties then
        describe the combined traffic.  Returns ``self`` for chaining.
        """
        for field in fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    @classmethod
    def merged(cls, parts: Iterable["DispatcherMetrics"]) -> "DispatcherMetrics":
        """A new aggregate over ``parts`` — the per-shard roll-up."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def summary(self) -> Dict[str, float]:
        """Flat numbers for logs and reports."""
        return {
            "sessions_opened": float(self.sessions_opened),
            "sessions_completed": float(self.sessions_completed),
            "sessions_closed": float(self.sessions_closed),
            "sessions_reopened": float(self.sessions_reopened),
            "tasks_submitted": float(self.tasks_submitted),
            "tasks_expired": float(self.tasks_expired),
            "workers_fed": float(self.workers_fed),
            "workers_routed": float(self.workers_routed),
            "workers_unrouted": float(self.workers_unrouted),
            "assignments_made": float(self.assignments_made),
            "restarts": float(self.restarts),
            "replayed_arrivals": float(self.replayed_arrivals),
            "quarantined_sessions": float(self.quarantined_sessions),
            "busy_seconds": self.busy_seconds,
            "routed_fraction": self.routed_fraction,
            "throughput_per_second": self.throughput_per_second,
        }
