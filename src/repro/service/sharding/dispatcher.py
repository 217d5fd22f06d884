"""The sharded dispatch runtime: one dispatcher per geographic shard.

:class:`ShardedDispatcher` scales the single-process
:class:`~repro.service.LTCDispatcher` by partitioning both campaigns and
worker traffic with a :class:`~repro.service.sharding.ShardPlan`:

* every campaign is pinned to one shard (the grid cell containing its
  reach box, or the overflow shard — see ``plan.py``);
* every arriving worker is routed to the geo shard covering its check-in
  location, plus the overflow shard whenever it has open sessions;
* each shard runs its own :class:`~repro.service.LTCDispatcher` behind a
  :class:`~repro.service.sharding.BoundedArrivalQueue`, drained inline
  on the caller's thread: one ordered arrival stream, as in the paper's
  online model.

**Exactness.**  Because an eligible worker necessarily lies inside the
campaign's reach box, and the reach box lies inside the campaign's cell,
the shard covering the worker's location is the only geo shard that could
route it — so per-session routed sub-streams are *identical* to what the
single-process dispatcher would deliver, in the same per-session order
(each session lives on exactly one shard, whose queue is FIFO).  With a
lossless queue policy the final per-session arrangements are therefore
byte-identical to a single-process run; the differential suite
enforces this.  Shedding policies (``drop-oldest`` /
``reject``) trade that guarantee for bounded lag under overload.

**Scaling.**  Each per-shard dispatcher probes only the sessions whose
reach box covers an arrival's cell, and so does a single-process
dispatcher: its routing index already skips the sessions of other
regions.  Sharding therefore no longer cuts routing work, and the
queue, fan-out and bookkeeping make the runtime slower than one
dispatcher (``docs/dispatch.md``, "Routing index", has the numbers).
What shards buy is an isolation and recovery boundary: a crash domain
per region, journal replay, quarantine, and backpressure per queue.

**Fault tolerance.**  A shard failure (any exception escaping its
dispatch attempt, including injected ones — see
:mod:`repro.service.faults`) is resolved by the configured
:class:`~repro.service.recovery.RecoveryPolicy`:

* ``"fail-fast"`` (the default) marks the shard *failed*, flushes its
  queue, and raises the error from the call that processed the arrival
  (:meth:`feed_worker`, or :meth:`drain` / :meth:`stop` for a queued
  backlog); later arrivals routed to the shard are discarded — every
  lost arrival is counted (:attr:`ShardStatus.arrivals_discarded`);
* ``"restart"`` rebuilds the shard's dispatcher by replaying its
  :class:`~repro.service.recovery.ArrivalJournal` — byte-identical by
  the same FIFO argument as above, so a lossless run *with mid-stream
  crashes* still matches the single-process oracle (the chaos
  differential suite enforces this) — at most
  :data:`~repro.service.recovery.MAX_RESTARTS` times per shard;
* ``"quarantine"`` rebuilds the shard's sessions once (same replay) and
  migrates them to the overflow shard; the geo shard stops serving and
  its subsequent traffic is discarded (counted).

Journals are kept exactly when the policy can need a replay, so
``fail-fast`` pays zero journaling overhead
(``benchmarks/bench_resilience.py`` prices the rest).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.algorithms.base import Solver, SolveResult
from repro.algorithms.spec import SolverSpecLike
from repro.core.arrangement import Assignment
from repro.core.candidates import tasks_reach_bounds
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.service.dispatcher import (
    DuplicateSessionError,
    LTCDispatcher,
    SessionStatus,
    UnknownSessionError,
)
from repro.service.faults import FaultInjector, FaultPlan, TransientSolverError
from repro.service.metrics import DispatcherMetrics
from repro.service.recovery import (
    MAX_RESTARTS,
    TRANSIENT_RETRIES,
    ArrivalJournal,
    RecoveryEvent,
    RecoveryPolicy,
)
from repro.service.sharding.plan import ShardPlan
from repro.service.sharding.queueing import BoundedArrivalQueue, QueueFullError

#: Shard lifecycle states, in the order a shard can move through them.
SHARD_STATES: Tuple[str, ...] = ("live", "quarantined", "failed")

#: States in which a shard no longer accepts or processes traffic.
_INACTIVE_STATES = ("quarantined", "failed")


class ShardAffinityError(ValueError):
    """A campaign (or mid-stream task batch) does not fit its shard's cell."""


@dataclass(frozen=True)
class ShardStatus:
    """One shard's state as reported by :meth:`ShardedDispatcher.shard_status`."""

    shard_id: int
    #: The grid cell this shard covers; ``None`` for the overflow shard.
    cell: Optional[BoundingBox]
    session_ids: List[str]
    metrics: DispatcherMetrics
    queue_depth: int
    arrivals_accepted: int
    arrivals_shed: int
    arrivals_processed: int
    #: Lifecycle state, one of :data:`SHARD_STATES`.
    state: str = "live"
    #: Restarts this shard has consumed (``on_shard_failure="restart"``).
    restarts: int = 0
    #: ``repr`` of the shard's most recent failure, if any.
    last_error: Optional[str] = None
    #: Arrivals lost to the failure path (queue flushes on shard death plus
    #: arrivals routed to a dead shard) — distinct from backpressure
    #: ``arrivals_shed``.
    arrivals_discarded: int = 0
    #: Entries in the shard's recovery journal (0 when journaling is off).
    journal_entries: int = 0

    @property
    def is_overflow(self) -> bool:
        return self.cell is None


@dataclass
class _ShardRuntime:
    """One shard's dispatcher, queue, journal and failure accounting."""

    shard_id: int
    dispatcher: LTCDispatcher
    queue: BoundedArrivalQueue
    #: Per-arrival routing latencies (seconds), recorded when enabled.
    latencies: List[float] = field(default_factory=list)
    #: Lifecycle state, one of :data:`SHARD_STATES`.
    state: str = "live"
    #: The recovery journal (``None`` when the policy needs no replay).
    journal: Optional[ArrivalJournal] = None
    #: Arrivals lost to the failure path.
    discarded: int = 0
    #: Restarts this shard has consumed, out of :data:`MAX_RESTARTS`.
    restarts: int = 0
    #: ``repr`` of the shard's most recent failure, if any.
    last_error: Optional[str] = None


class ShardedDispatcher:
    """Serves many campaigns from one worker stream across geographic shards.

    Parameters
    ----------
    plan:
        The :class:`~repro.service.sharding.ShardPlan` partitioning the
        region.  Every shard in the plan (geo cells + overflow) gets its
        own :class:`~repro.service.LTCDispatcher`.
    default_solver / keep_streams:
        Forwarded to every per-shard dispatcher (see
        :class:`~repro.service.LTCDispatcher`).
    executor:
        Must be ``"serial"``, the only runtime.  The keyword survives
        solely because ``benchmarks/e2e/workloads.py`` passes it.
    queue_capacity / queue_policy:
        Bound and backpressure policy of every shard's arrival queue (see
        :class:`~repro.service.sharding.BoundedArrivalQueue`).  Only the
        lossless ``"block"`` policy preserves byte-identity with a
        single-process dispatcher; a full ``"block"`` queue (a stalled
        shard) makes :meth:`feed_worker` raise
        :class:`~repro.service.sharding.QueueFullError`.
    recovery:
        A :class:`~repro.service.recovery.RecoveryPolicy` deciding what a
        shard failure does.  Defaults to fail-fast; see the module
        docstring.
    faults:
        A :class:`~repro.service.faults.FaultPlan` (or prebuilt
        :class:`~repro.service.faults.FaultInjector`) scheduling
        deterministic faults for chaos testing.  ``None`` (the default)
        injects nothing and skips the hook points entirely.
    record_latencies:
        Record one routing latency sample per processed arrival per shard
        (for p50/p99 reporting in the load harness).  Off by default to
        keep memory flat.
    """

    def __init__(
        self,
        plan: ShardPlan,
        default_solver: SolverSpecLike = "AAM",
        executor: str = "serial",
        queue_capacity: int = 1024,
        queue_policy: str = "block",
        keep_streams: bool = False,
        recovery: Optional[RecoveryPolicy] = None,
        faults: Union[FaultPlan, FaultInjector, None] = None,
        record_latencies: bool = False,
    ) -> None:
        # Only benchmarks/e2e/workloads.py still passes `executor`; drop
        # the keyword at the next change to that benchmark.
        if executor != "serial":
            raise ValueError(f"unknown executor {executor!r}; expected serial")
        self._plan = plan
        self._record_latencies = record_latencies
        self._default_solver = default_solver
        self._keep_streams = keep_streams
        self._policy = recovery if recovery is not None else RecoveryPolicy()
        if isinstance(faults, FaultPlan):
            self._injector: Optional[FaultInjector] = faults.injector()
        else:
            self._injector = faults
        if self._injector is not None:
            rogue = set(self._injector.plan.shard_ids) - set(plan.shard_ids)
            if rogue:
                raise ValueError(
                    f"fault plan targets shard(s) {sorted(rogue)} outside the "
                    f"shard plan (0..{plan.overflow_shard})"
                )
        self._shards: Dict[int, _ShardRuntime] = {
            shard_id: _ShardRuntime(
                shard_id=shard_id,
                dispatcher=self._make_dispatcher(),
                queue=BoundedArrivalQueue(queue_capacity, queue_policy),
                journal=ArrivalJournal() if self._policy.journaling else None,
            )
            for shard_id in plan.shard_ids
        }
        self._shard_of_session: Dict[str, int] = {}
        self._auto_id = 0
        self._arrivals_offered = 0
        self._fault_metrics = DispatcherMetrics()
        self._recovery_events: List[RecoveryEvent] = []
        self._stopped = False

    # ------------------------------------------------------------ lifecycle

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    def drain(self) -> bool:
        """Process every queued arrival that can be processed now.

        Never blocks.  Returns whether every queue is empty afterwards:
        ``False`` while a stalled shard keeps a backlog.  A terminal
        shard failure met while draining raises here.
        """
        for runtime in self._shards.values():
            self._drain_inline(runtime)
        return all(runtime.queue.size == 0 for runtime in self._shards.values())

    def stop(self, drain: bool = True) -> None:
        """Stop the runtime: optionally drain, then close every queue.

        Idempotent and exception-safe: queues are closed even when
        draining raises a shard error, so the runtime never stays
        half-alive.  Active fault-injection stalls are released first (a
        stalled shard could never drain).  After ``stop()`` the control
        plane (poll/close/result) keeps working, but further arrivals are
        refused.
        """
        if self._stopped:
            return
        if self._injector is not None:
            self._injector.release_stalls()
        try:
            if drain:
                self.drain()
        finally:
            self._stopped = True
            for runtime in self._shards.values():
                runtime.queue.close()

    # ------------------------------------------------------------- sessions

    def submit_instance(
        self,
        instance: LTCInstance,
        solver: Union[SolverSpecLike, Solver, None] = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Open a session for ``instance`` on its shard; return the id.

        The shard is chosen by the plan's reach-box containment rule
        (:meth:`~repro.service.sharding.ShardPlan.shard_for_instance`);
        a shard that is quarantined or failed falls back to the overflow
        shard.  Session ids are unique across the *whole* runtime, not
        per shard.
        """
        if session_id is None:
            # Skip ids a caller already chose explicitly.
            while True:
                self._auto_id += 1
                session_id = f"session-{self._auto_id}"
                if session_id not in self._shard_of_session:
                    break
        if session_id in self._shard_of_session:
            raise DuplicateSessionError(
                f"session id {session_id!r} is already in use"
            )
        shard_id = self._plan.shard_for_instance(instance)
        if not self._try_open(self._shards[shard_id], instance, solver,
                              session_id):
            shard_id = self._plan.overflow_shard
            if not self._try_open(self._shards[shard_id], instance, solver,
                                  session_id):
                raise RuntimeError(
                    "the overflow shard is "
                    f"{self._shards[shard_id].state}; no shard can serve "
                    "this campaign"
                )
        self._shard_of_session[session_id] = shard_id
        return session_id

    def _try_open(
        self,
        runtime: _ShardRuntime,
        instance: LTCInstance,
        solver: Union[SolverSpecLike, Solver, None],
        session_id: str,
    ) -> bool:
        """Open a session on ``runtime`` unless it stopped serving."""
        if runtime.state in _INACTIVE_STATES:
            return False
        runtime.dispatcher.submit_instance(
            instance, solver=solver, session_id=session_id
        )
        if runtime.journal is not None:
            prebuilt = isinstance(solver, Solver)
            runtime.journal.record_open(
                session_id,
                instance,
                None if prebuilt else solver,
                replayable=not prebuilt,
            )
        return True

    def submit_tasks(self, session_id: str, tasks: Sequence[Task]) -> str:
        """Post additional tasks to an open session mid-stream.

        For a session pinned to a geo shard the new tasks' reach box must
        still fit the shard's cell — sessions are never migrated live;
        :class:`ShardAffinityError` otherwise, with the dispatcher state
        untouched.  Overflow-shard sessions accept any tasks.
        """
        tasks = list(tasks)
        runtime = self._runtime_for(session_id)
        cell = self._plan.cell(runtime.shard_id)
        if cell is not None and tasks:
            instance = runtime.dispatcher.instance_of(session_id)
            reach = tasks_reach_bounds(instance, tasks)
            if reach is None or not self._box_within(reach, cell):
                raise ShardAffinityError(
                    f"mid-stream tasks for session {session_id!r} reach "
                    f"outside shard {runtime.shard_id}'s cell; sessions "
                    "are pinned — open a new campaign (or use the "
                    "overflow shard) instead"
                )
        runtime.dispatcher.submit_tasks(session_id, tasks)
        if runtime.journal is not None:
            runtime.journal.record_tasks(session_id, tasks)
        return session_id

    def expire_tasks(self, session_id: str, task_ids: Sequence[int]) -> List[int]:
        """Expire overdue tasks in an open session (the TTL sweep)."""
        runtime = self._runtime_for(session_id)
        expired = runtime.dispatcher.expire_tasks(session_id, task_ids)
        # Journal the honest abandonments only: replaying them at the same
        # stream position abandons exactly the same tasks, and an empty
        # sweep is a no-op not worth an entry.
        if expired and runtime.journal is not None:
            runtime.journal.record_expire(session_id, expired)
        return expired

    @property
    def session_ids(self) -> List[str]:
        """Ids of all open sessions, in submission order across shards."""
        return list(self._shard_of_session)

    def shard_of(self, session_id: str) -> int:
        """The shard a session is pinned to."""
        return self._runtime_for(session_id).shard_id

    @property
    def all_complete(self) -> bool:
        """Whether every open session has completed (vacuously true if none)."""
        return all(
            runtime.dispatcher.all_complete for runtime in self._shards.values()
        )

    # ------------------------------------------------------------ streaming

    def feed_worker(self, worker: Worker) -> Dict[str, List[Assignment]]:
        """Route one arrival to its geo shard (and overflow, if populated).

        The arrival is processed inline and the merged per-session
        deliveries are returned, exactly like
        :meth:`LTCDispatcher.feed_worker` (deliveries triggered by a
        crash-recovery replay are an exception: they surface via
        :meth:`poll` / :meth:`close`, not the return value).  Arrivals
        routed to a quarantined or failed shard are discarded and
        counted (:attr:`ShardStatus.arrivals_discarded`).

        Raises :class:`~repro.service.sharding.QueueFullError` when a
        target shard's ``"block"`` queue is full (the shard is stalled);
        the arrival is then not admitted and no counter moves.
        """
        if self._stopped:
            raise RuntimeError("the ShardedDispatcher is stopped")
        geo = self._shards[self._plan.shard_of_point(worker.location)]
        overflow = self._shards[self._plan.overflow_shard]
        candidates = [geo]
        if overflow.dispatcher.session_ids and overflow is not geo:
            candidates.append(overflow)
        targets = [r for r in candidates if r.state not in _INACTIVE_STATES]
        for runtime in targets:
            if runtime.queue.full and runtime.queue.policy == "block":
                raise QueueFullError(
                    f"shard {runtime.shard_id}'s queue is full "
                    f"({runtime.queue.capacity} arrivals) and nothing can "
                    "consume it; release its stall"
                )
        self._arrivals_offered += 1
        for runtime in candidates:
            if runtime.state in _INACTIVE_STATES:
                runtime.discarded += 1
        for runtime in targets:
            runtime.queue.put(worker)
        deliveries: Dict[str, List[Assignment]] = {}
        for runtime in targets:
            deliveries.update(self._drain_inline(runtime))
        return deliveries

    def feed_stream(self, workers, stop_when_all_complete: bool = False) -> int:
        """Feed a whole merged stream; return how many arrivals were offered.

        ``stop_when_all_complete`` stops before the first arrival offered
        once every open session is complete, mirroring
        :meth:`LTCDispatcher.feed_stream`; it is off by default.
        """
        offered = 0
        for worker in workers:
            if stop_when_all_complete and self.all_complete:
                break
            self.feed_worker(worker)
            offered += 1
        return offered

    @property
    def arrivals_offered(self) -> int:
        """Arrivals offered to :meth:`feed_worker` (before any fan-out).

        The honest denominator for aggregate rates: a worker fanned out to
        its geo shard *and* the overflow shard counts once here but twice
        in the aggregate ``workers_fed``.
        """
        return self._arrivals_offered

    # ----------------------------------------------------------- inspection

    def poll(self) -> Dict[str, SessionStatus]:
        """Progress snapshots of every open session, across all shards."""
        statuses: Dict[str, SessionStatus] = {}
        for runtime in self._shards.values():
            statuses.update(runtime.dispatcher.poll())
        return statuses

    def shard_status(self) -> List[ShardStatus]:
        """Per-shard state: lifecycle, sessions, metrics, queue counters."""
        statuses: List[ShardStatus] = []
        for shard_id, runtime in sorted(self._shards.items()):
            statuses.append(
                ShardStatus(
                    shard_id=shard_id,
                    cell=self._plan.cell(shard_id),
                    session_ids=runtime.dispatcher.session_ids,
                    metrics=DispatcherMetrics.merged([runtime.dispatcher.metrics]),
                    queue_depth=runtime.queue.size,
                    arrivals_accepted=runtime.queue.accepted,
                    arrivals_shed=runtime.queue.shed,
                    arrivals_processed=runtime.queue.processed,
                    state=runtime.state,
                    restarts=runtime.restarts,
                    last_error=runtime.last_error,
                    arrivals_discarded=runtime.discarded,
                    journal_entries=(
                        len(runtime.journal) if runtime.journal is not None else 0
                    ),
                )
            )
        return statuses

    @property
    def metrics(self) -> DispatcherMetrics:
        """Aggregate roll-up of every shard's counters (a fresh object).

        Counters sum across shards; note ``workers_fed`` counts per-shard
        deliveries, so divide by :attr:`arrivals_offered` (not
        ``workers_fed``) for rates over offered traffic whenever the
        overflow shard is populated.  Recovery counters (``restarts``,
        ``replayed_arrivals``, ``quarantined_sessions``) are folded in
        from the runtime's own fault accounting.
        """
        return DispatcherMetrics.merged(
            [runtime.dispatcher.metrics for runtime in self._shards.values()]
            + [self._fault_metrics]
        )

    @property
    def shed_total(self) -> int:
        """Arrivals lost to backpressure across all shard queues."""
        return sum(runtime.queue.shed for runtime in self._shards.values())

    @property
    def discarded_total(self) -> int:
        """Arrivals lost to the failure path across all shards."""
        return sum(runtime.discarded for runtime in self._shards.values())

    @property
    def recovery_events(self) -> List[RecoveryEvent]:
        """Completed recovery actions, in completion order (a copy)."""
        return list(self._recovery_events)

    def routing_latencies(self) -> Dict[int, List[float]]:
        """Per-shard routing latency samples (``record_latencies=True`` only)."""
        if not self._record_latencies:
            raise RuntimeError(
                "latency samples are not recorded; build the ShardedDispatcher "
                "with record_latencies=True"
            )
        return {
            shard_id: list(runtime.latencies)
            for shard_id, runtime in sorted(self._shards.items())
        }

    def routed_stream(self, session_id: str) -> List[Worker]:
        """A session's re-indexed sub-stream (``keep_streams=True`` only)."""
        return self._runtime_for(session_id).dispatcher.routed_stream(session_id)

    # -------------------------------------------------------------- closing

    def close(self, session_id: str) -> SolveResult:
        """Finalise one session, remove it, and return its solve result."""
        runtime = self._runtime_for(session_id)
        result = runtime.dispatcher.close(session_id)
        if runtime.journal is not None:
            runtime.journal.record_close(session_id)
        del self._shard_of_session[session_id]
        return result

    def close_all(self) -> Dict[str, SolveResult]:
        """Finalise every open session, in submission order across shards."""
        return {
            session_id: self.close(session_id)
            for session_id in list(self._shard_of_session)
        }

    # ------------------------------------------------------------ internals

    def _make_dispatcher(self) -> LTCDispatcher:
        return LTCDispatcher(
            default_solver=self._default_solver,
            keep_streams=self._keep_streams,
        )

    def _runtime_for(self, session_id: str) -> _ShardRuntime:
        try:
            shard_id = self._shard_of_session[session_id]
        except KeyError:
            known = ", ".join(self._shard_of_session) or "<none>"
            raise UnknownSessionError(
                f"unknown session {session_id!r}; open sessions: {known}"
            ) from None
        return self._shards[shard_id]

    @staticmethod
    def _box_within(inner: BoundingBox, outer: BoundingBox) -> bool:
        return (
            outer.min_x <= inner.min_x
            and outer.min_y <= inner.min_y
            and inner.max_x <= outer.max_x
            and inner.max_y <= outer.max_y
        )

    def _process(self, runtime: _ShardRuntime, worker: Worker):
        if self._record_latencies:
            started = time.perf_counter()
        # Write-ahead: journal the arrival *before* the dispatch attempt, so
        # the arrival in flight when the shard crashes is replayed rather
        # than lost.
        if runtime.journal is not None:
            runtime.journal.record_worker(worker)
        if self._injector is None:
            deliveries = runtime.dispatcher.feed_worker(worker)
        else:
            deliveries = self._feed_with_faults(runtime, worker)
        if self._record_latencies:
            runtime.latencies.append(time.perf_counter() - started)
        return deliveries

    def _feed_with_faults(self, runtime: _ShardRuntime, worker: Worker):
        """The injected dispatch attempt, with bounded in-place retry."""
        ordinal = self._injector.begin_arrival(runtime.shard_id)
        attempt = 0
        while True:
            try:
                self._injector.raise_for(runtime.shard_id, ordinal, attempt)
                return runtime.dispatcher.feed_worker(worker)
            except TransientSolverError:
                attempt += 1
                if attempt > TRANSIENT_RETRIES:
                    raise

    def _drain_inline(self, runtime: _ShardRuntime) -> Dict[str, List[Assignment]]:
        """Process a shard's queued backlog until it empties or stalls."""
        deliveries: Dict[str, List[Assignment]] = {}
        while True:
            if self._injector is not None and self._injector.stall_active(
                runtime.shard_id, runtime.queue.processed
            ):
                # A stalled shard just stops consuming; the backlog (and
                # any backpressure) becomes observable immediately.
                return deliveries
            worker = runtime.queue.get()
            if worker is None:
                return deliveries
            if runtime.state in _INACTIVE_STATES:
                runtime.discarded += 1
                continue
            try:
                deliveries.update(self._process(runtime, worker))
            except BaseException as exc:  # noqa: BLE001 - resolved by policy
                self._handle_shard_failure(runtime, exc)

    # ------------------------------------------------------------- recovery

    def _handle_shard_failure(
        self, runtime: _ShardRuntime, error: BaseException
    ) -> None:
        """Resolve one shard failure per the recovery policy.

        Returns normally when the shard was recovered (restarted or
        quarantined); raises the terminal error when the shard fails for
        good.
        """
        current = error
        while True:
            action = self._decide(runtime, current)
            if action == "restart":
                started = time.perf_counter()
                fresh = self._make_dispatcher()
                try:
                    replayed = runtime.journal.replay(fresh)
                except BaseException as exc:  # noqa: BLE001 - escalates
                    current = exc
                    continue
                # The dead dispatcher's counters are replaced, not added
                # to: the replay regenerated them exactly.
                runtime.dispatcher = fresh
                self._fault_metrics.restarts += 1
                self._fault_metrics.replayed_arrivals += replayed
                self._recovery_events.append(
                    RecoveryEvent(
                        shard_id=runtime.shard_id,
                        action="restart",
                        replayed_arrivals=replayed,
                        duration_seconds=time.perf_counter() - started,
                        error=repr(current),
                    )
                )
                return
            if action == "quarantine":
                try:
                    self._quarantine(runtime, current)
                    return
                except BaseException as exc:  # noqa: BLE001 - falls to fail
                    current = exc
            runtime.state = "failed"
            runtime.discarded += runtime.queue.flush()
            raise current

    def _decide(self, runtime: _ShardRuntime, error: BaseException) -> str:
        """Record ``error``; resolve it to ``restart``, ``quarantine`` or ``fail``.

        Under ``"restart"`` each ``"restart"`` consumes one unit of the
        shard's :data:`MAX_RESTARTS` budget, and a spent budget fails.
        The overflow shard has nowhere to migrate to, so quarantining it
        fails too.
        """
        runtime.last_error = repr(error)
        policy = self._policy.on_shard_failure
        if policy == "restart" and runtime.restarts < MAX_RESTARTS:
            runtime.restarts += 1
            return "restart"
        if policy == "quarantine" and runtime.shard_id != self._plan.overflow_shard:
            return "quarantine"
        return "fail"

    def _quarantine(self, runtime: _ShardRuntime, error: BaseException) -> None:
        """Rebuild a failed shard's sessions and migrate them to overflow."""
        started = time.perf_counter()
        overflow = self._shards[self._plan.overflow_shard]
        runtime.state = "quarantined"
        scratch = self._make_dispatcher()
        replayed = runtime.journal.replay(scratch)
        migrated = scratch.session_ids
        # Discard the dead dispatcher (and its journal) wholesale: the
        # shard's history now lives in `scratch`, about to move to
        # overflow; an empty husk keeps poll()/metrics from
        # double-reporting the migrated sessions.
        runtime.dispatcher = self._make_dispatcher()
        runtime.journal = ArrivalJournal()
        runtime.discarded += runtime.queue.flush()
        overflow.dispatcher.adopt_sessions(scratch)
        if overflow.journal is not None:
            # The adopted sessions' history is not in overflow's journal,
            # so a later overflow replay cannot be exact.
            overflow.journal.mark_unreplayable(
                f"adopted {len(migrated)} session(s) from "
                f"quarantined shard {runtime.shard_id}"
            )
        for session_id in migrated:
            self._shard_of_session[session_id] = overflow.shard_id
        self._fault_metrics.quarantined_sessions += len(migrated)
        self._fault_metrics.replayed_arrivals += replayed
        self._recovery_events.append(
            RecoveryEvent(
                shard_id=runtime.shard_id,
                action="quarantine",
                replayed_arrivals=replayed,
                duration_seconds=time.perf_counter() - started,
                error=repr(error),
            )
        )
