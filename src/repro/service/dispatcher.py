"""Multi-instance dispatch: many concurrent LTC sessions, one worker stream.

A production crowdsourcing platform does not solve one instance at a time —
campaigns (instances) overlap in time and share the stream of checking-in
workers.  :class:`LTCDispatcher` is that serving surface:

* :meth:`~LTCDispatcher.submit_instance` opens a named incremental
  :class:`~repro.core.session.Session` for an instance, served by any
  registered *online* solver (offline solvers replay a plan over their
  instance's own stream, which is incompatible with routed live traffic);
* :meth:`~LTCDispatcher.feed_worker` takes one arrival from the merged
  stream and routes it to every open session for which the worker is
  *eligible* — able to perform at least one of the session's tasks above the
  instance's assignable-accuracy threshold, which under the paper's sigmoid
  accuracy model is a geographic proximity test.  A uniform grid over the
  sessions' reach boxes picks which sessions an arrival is tested against,
  so the cost follows the sessions near the worker, not all open ones;
* :meth:`~LTCDispatcher.submit_tasks` posts additional tasks to an open
  session **mid-stream**: campaigns are long-lived and keep receiving
  tasks while workers flow.  Both the session's live candidate snapshot
  and the dispatcher's own routing snapshot absorb the tasks in place
  (no rebuild), and a session that had completed reopens;
* :meth:`~LTCDispatcher.poll` reports per-session progress snapshots;
* :meth:`~LTCDispatcher.close` finalises a session into its
  :class:`~repro.algorithms.base.SolveResult`.

Latency is measured in *per-session* arrivals, exactly as in the
single-instance setting: a worker delivered to a session is re-indexed into
that session's local arrival order, so a session's ``max_latency`` equals
what a standalone run over its routed sub-stream would report.  Sessions
that complete stop receiving workers, mirroring how a single-instance drive
stops at completion.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import insort
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.algorithms.base import Solver, SolveResult
from repro.algorithms.registry import build_solver
from repro.algorithms.spec import SolverSpecLike
from repro.core.arrangement import Assignment
from repro.core.candidates import (
    CandidateFinder,
    instance_reach_radius,
    tasks_reach_bounds,
)
from repro.core.instance import LTCInstance
from repro.core.session import Session, SessionSnapshot
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.service.metrics import DispatcherMetrics


class UnknownSessionError(KeyError):
    """A session id that the dispatcher does not know."""


class DuplicateSessionError(ValueError):
    """A session id that is already in use."""


@dataclass(frozen=True)
class SessionStatus:
    """One session's progress as reported by :meth:`LTCDispatcher.poll`."""

    session_id: str
    algorithm: str
    workers_routed: int
    snapshot: SessionSnapshot

    @property
    def max_latency(self) -> int:
        """Largest per-session arrival index among used workers."""
        return self.snapshot.max_latency

    @property
    def complete(self) -> bool:
        """Whether every task of the session reached the quality threshold."""
        return self.snapshot.complete


@dataclass(eq=False)
class _ManagedSession:
    """Internal bookkeeping for one open session."""

    session_id: str
    instance: LTCInstance
    session: Session
    #: The dispatcher's own routing snapshot.  Long-lived: built once at
    #: submission and mutated in place (``add_tasks``) when tasks are
    #: posted mid-stream — never rebuilt per change.
    candidates: CandidateFinder
    solver: Solver
    workers_routed: int = 0
    #: Completion is cached here once observed — the dispatch hot path
    #: must not re-scan a finished session's task set on every arrival.
    #: No longer monotone: a mid-stream task submission reopens it.
    complete: bool = False
    routed_stream: Optional[List[Worker]] = None
    #: Reach box of every task ever posted (``None``: unbounded reach).
    #: Grows on ``submit_tasks``; expiry never shrinks it.
    reach: Optional[BoundingBox] = None
    #: Position in submission order (adopted sessions after existing ones).
    ordinal: int = 0
    #: Cell span ``(col0, row0, col1, row1)`` the routing index files the
    #: session under; ``None`` while it sits on the always-probe list.
    cells: Optional[Tuple[int, int, int, int]] = None

    def deliver(self, worker: Worker) -> List[Assignment]:
        """Re-index ``worker`` into local arrival order and feed the session."""
        local = replace(worker, index=self.workers_routed + 1)
        assignments = self.session.on_worker(local)
        self.workers_routed += 1
        if self.routed_stream is not None:
            self.routed_stream.append(local)
        return assignments


#: A session whose reach box would cover more index cells than this is
#: probed on every arrival instead, so index upkeep stays bounded per open
#: or task post.
_MAX_INDEXED_CELLS = 1024

#: Relative margin added around a reach box before it is mapped to cells.
#: The box corners and the engine's distance test round separately, so an
#: eligible worker may sit an ulp outside the box; the margin keeps the
#: prefilter a superset anyway.
_CELL_SLACK = 1e-9

_by_ordinal = attrgetter("ordinal")


class _ReachIndex:
    """Uniform grid over session reach boxes: the routing scan's prefilter.

    A worker can only be eligible for a session inside the session's reach
    box (:func:`~repro.core.candidates.tasks_reach_bounds`, the box
    :class:`~repro.service.sharding.ShardPlan` pins campaigns by), so an
    arrival needs probing only by the sessions whose box covers its cell,
    plus the *always-probe* list: sessions without a finite radius, or
    whose box would cover more than :data:`_MAX_INDEXED_CELLS` cells.
    Every list is kept in ordinal order, so probes run in the order a full
    scan of the sessions would make them.  The cell side is the reach
    diameter of the first session with a positive one.
    """

    def __init__(self) -> None:
        self._side: Optional[float] = None
        self._cells: Dict[Tuple[int, int], List[_ManagedSession]] = {}
        self._always: List[_ManagedSession] = []

    def add(self, managed: _ManagedSession) -> None:
        """File a session holding the highest ordinal so far."""
        if self._side is None:
            radius = instance_reach_radius(managed.instance)
            if radius is not None and radius > 0:
                self._side = 2.0 * radius
        managed.cells = self._span(managed.reach)
        if managed.cells is None:
            self._always.append(managed)
            return
        for key in _keys(managed.cells):
            self._cells.setdefault(key, []).append(managed)

    def grow(self, managed: _ManagedSession, box: BoundingBox) -> None:
        """Extend a bounded session's reach box by ``box``."""
        reach = managed.reach
        managed.reach = BoundingBox(
            min(reach.min_x, box.min_x), min(reach.min_y, box.min_y),
            max(reach.max_x, box.max_x), max(reach.max_y, box.max_y),
        )
        old = managed.cells
        if old is None:
            return
        new = self._span(managed.reach)
        managed.cells = new
        if new is None:
            self._unfile(managed, old)
            insort(self._always, managed, key=_by_ordinal)
            return
        col0, row0, col1, row1 = old
        for col, row in _keys(new):
            if not (col0 <= col <= col1 and row0 <= row <= row1):
                bucket = self._cells.setdefault((col, row), [])
                insort(bucket, managed, key=_by_ordinal)

    def remove(self, managed: _ManagedSession) -> None:
        """Drop a closed session."""
        if managed.cells is None:
            self._always.remove(managed)
        else:
            self._unfile(managed, managed.cells)

    def probes(self, worker: Worker) -> Iterable[_ManagedSession]:
        """The sessions that may find ``worker`` eligible, in ordinal order."""
        side = self._side
        if side is None:
            return self._always
        location = worker.location
        bucket = self._cells.get(
            (math.floor(location.x / side), math.floor(location.y / side))
        )
        if bucket is None:
            return self._always
        if self._always:
            return heapq.merge(bucket, self._always, key=_by_ordinal)
        return bucket

    def _span(
        self, box: Optional[BoundingBox]
    ) -> Optional[Tuple[int, int, int, int]]:
        side = self._side
        if box is None or side is None:
            return None
        slack = _CELL_SLACK * (side + max(
            abs(box.min_x), abs(box.min_y), abs(box.max_x), abs(box.max_y)
        ))
        col0 = math.floor((box.min_x - slack) / side)
        row0 = math.floor((box.min_y - slack) / side)
        col1 = math.floor((box.max_x + slack) / side)
        row1 = math.floor((box.max_y + slack) / side)
        if (col1 - col0 + 1) * (row1 - row0 + 1) > _MAX_INDEXED_CELLS:
            return None
        return col0, row0, col1, row1

    def _unfile(
        self, managed: _ManagedSession, cells: Tuple[int, int, int, int]
    ) -> None:
        for key in _keys(cells):
            bucket = self._cells[key]
            bucket.remove(managed)
            if not bucket:
                del self._cells[key]


def _keys(cells: Tuple[int, int, int, int]) -> Iterator[Tuple[int, int]]:
    col0, row0, col1, row1 = cells
    for row in range(row0, row1 + 1):
        for col in range(col0, col1 + 1):
            yield col, row


class LTCDispatcher:
    """Routes one merged worker stream across many concurrent sessions.

    Parameters
    ----------
    default_solver:
        Spec used by :meth:`submit_instance` when none is given (name,
        spec string, or :class:`~repro.algorithms.spec.SolverSpec`).
    keep_streams:
        Record each session's routed sub-stream (re-indexed workers) so it
        can be replayed standalone with :meth:`routed_stream` — used by the
        dispatch demo and tests to verify per-session latencies match
        single-session runs.  Off by default to keep memory flat under
        heavy traffic.
    clock:
        Monotonic time source used for the ``busy_seconds`` metric;
        defaults to :func:`time.perf_counter`.  Injectable so tests can
        pin metric timing and so a sharded deployment can hand every
        per-shard dispatcher the same clock.
    """

    def __init__(
        self,
        default_solver: SolverSpecLike = "AAM",
        keep_streams: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._default_solver = default_solver
        self._keep_streams = keep_streams
        self._clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self._sessions: Dict[str, _ManagedSession] = {}
        self._index = _ReachIndex()
        self._ordinals = itertools.count()
        self._metrics = DispatcherMetrics()
        self._auto_id = 0

    # ------------------------------------------------------------- sessions

    def submit_instance(
        self,
        instance: LTCInstance,
        solver: Union[SolverSpecLike, Solver, None] = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Open a session serving ``instance`` and return its id.

        ``solver`` may be a registry name, a spec string such as
        ``"AAM?use_spatial_index=false"``, a
        :class:`~repro.algorithms.spec.SolverSpec`, or an already-built
        :class:`~repro.algorithms.base.Solver`; it defaults to the
        dispatcher's ``default_solver``.  Only *online* solvers are
        accepted: offline solvers plan over their instance's own worker
        sequence and replay it verbatim, which is incompatible with being
        fed a routed sub-stream of merged live traffic.
        """
        if session_id is None:
            # Skip ids a caller already chose explicitly.
            while True:
                self._auto_id += 1
                session_id = f"session-{self._auto_id}"
                if session_id not in self._sessions:
                    break
        if session_id in self._sessions:
            raise DuplicateSessionError(
                f"session id {session_id!r} is already in use"
            )
        if isinstance(solver, Solver):
            solver_obj = solver
            for managed in self._sessions.values():
                if managed.solver is solver_obj:
                    raise ValueError(
                        f"solver object {solver_obj!r} already serves session "
                        f"{managed.session_id!r}; a solver holds one mutable "
                        "arrangement, so build one solver per session"
                    )
        else:
            solver_obj = build_solver(solver if solver is not None
                                      else self._default_solver)
        if not solver_obj.is_online:
            raise ValueError(
                f"solver {solver_obj.name!r} is offline: its replay session "
                "must be fed its instance's own worker sequence, not routed "
                "live traffic; dispatch sessions require an online solver"
            )
        # The dispatcher keeps its own CandidateFinder per session for the
        # routing test; the solver builds another internally.  Two task
        # grids per session is a deliberate trade-off: routing must work
        # before the session activates and without reaching into solver
        # internals, and grid construction is O(tasks) once per session.
        # The session's reach box also joins the dispatcher-wide routing
        # index, which picks the sessions an arrival is probed against.
        managed = _ManagedSession(
            session_id=session_id,
            instance=instance,
            session=solver_obj.open_session(instance),
            candidates=CandidateFinder(instance),
            solver=solver_obj,
            routed_stream=[] if self._keep_streams else None,
            reach=tasks_reach_bounds(instance),
            ordinal=next(self._ordinals),
        )
        self._sessions[session_id] = managed
        self._index.add(managed)
        self._metrics.sessions_opened += 1
        return session_id

    def submit_tasks(self, session_id: str, tasks: Sequence[Task]) -> str:
        """Post additional tasks to an open session and return its id.

        Works at any point in the session's life: before its first routed
        worker the tasks are staged by the session, afterwards they join
        the serving solver's live candidate snapshot in place (legal for
        the dynamic online solvers the dispatcher accepts; a solver
        without dynamic support raises
        :class:`~repro.core.session.SessionStateError` and the dispatcher
        state is left untouched).  The dispatcher's own routing snapshot
        absorbs the tasks too, so subsequent arrivals near only the new
        tasks route correctly — and a session that had already completed
        reopens and resumes receiving workers.
        """
        managed = self._managed(session_id)
        tasks = list(tasks)
        # Session first: it validates duplicate ids (and dynamic support)
        # before the routing snapshot is touched, keeping the two in step.
        managed.session.submit_tasks(tasks)
        managed.candidates.add_tasks(tasks)
        if tasks and managed.reach is not None:
            self._index.grow(managed, tasks_reach_bounds(managed.instance, tasks))
        self._metrics.tasks_submitted += len(tasks)
        if managed.complete and not managed.session.is_complete:
            managed.complete = False
            self._metrics.sessions_reopened += 1
        return session_id

    def expire_tasks(self, session_id: str, task_ids: Sequence[int]) -> List[int]:
        """Expire overdue tasks in an open session; return the expired ids.

        Delegates to :meth:`~repro.core.session.Session.expire_tasks` (legal
        for sessions over expiry-capable online solvers) and retires the
        same tasks from the dispatcher's routing snapshot, so arrivals near
        only-expired tasks stop being routed to the session.  A session
        whose last open tasks all expire becomes complete — abandonment,
        like completion, stops it from receiving further traffic.  The
        returned list contains only honestly-abandoned ids (completed and
        already-expired ids offered to the sweep are skipped).
        """
        managed = self._managed(session_id)
        expired = managed.session.expire_tasks(list(task_ids))
        if expired:
            managed.candidates.retire_tasks(expired)
            self._metrics.tasks_expired += len(expired)
            if not managed.complete and managed.session.is_complete:
                managed.complete = True
                self._metrics.sessions_completed += 1
        return expired

    @property
    def session_ids(self) -> List[str]:
        """Ids of all open (not yet closed) sessions, in submission order."""
        return list(self._sessions)

    @property
    def all_complete(self) -> bool:
        """Whether every open session has completed (vacuously true if none)."""
        return all(managed.complete for managed in self._sessions.values())

    # ------------------------------------------------------------ streaming

    def feed_worker(self, worker: Worker) -> Dict[str, List[Assignment]]:
        """Route one arriving worker; return the assignments per session.

        The worker is delivered to every open, still-incomplete session it is
        eligible for (it can perform at least one of the session's tasks).
        Eligibility never *shrinks* — a worker near only-completed tasks
        still counts as a session arrival, so the per-session latency axis
        means the same thing for the whole run, exactly as a standalone
        drive of that sub-stream would count it — but it does *grow* when
        :meth:`submit_tasks` posts tasks mid-stream (the routing snapshot
        absorbs them in place).  The returned mapping has an entry for each
        session the worker reached, possibly with an empty assignment list
        when the session's solver declined to use the worker.

        Only the sessions whose reach box covers the worker's cell in the
        routing index are probed; the box bounds eligibility, so the
        skipped sessions would all have declined.
        """
        started = self._clock()
        self._metrics.workers_fed += 1
        deliveries: Dict[str, List[Assignment]] = {}
        for managed in self._index.probes(worker):
            if managed.complete:
                continue
            if not managed.candidates.has_candidates(worker):
                continue
            assignments = managed.deliver(worker)
            deliveries[managed.session_id] = assignments
            self._metrics.workers_routed += 1
            self._metrics.assignments_made += len(assignments)
            if managed.session.is_complete:
                managed.complete = True
                self._metrics.sessions_completed += 1
        if not deliveries:
            self._metrics.workers_unrouted += 1
        self._metrics.busy_seconds += self._clock() - started
        return deliveries

    def feed_stream(self, workers, stop_when_all_complete: bool = True) -> int:
        """Feed a whole merged stream; return how many arrivals were consumed.

        ``workers`` is any iterable of :class:`~repro.core.worker.Worker`
        arrivals in merged-stream order; each is routed exactly as by
        :meth:`feed_worker`.  Stops early once every session is complete
        (the default), mirroring how a single-instance drive stops at
        completion; pass ``stop_when_all_complete=False`` to drain the
        iterable regardless (e.g. to keep serving sessions submitted
        mid-stream).
        """
        consumed = 0
        for worker in workers:
            if stop_when_all_complete and self.all_complete:
                break
            self.feed_worker(worker)
            consumed += 1
        return consumed

    # ----------------------------------------------------------- inspection

    def poll(self) -> Dict[str, SessionStatus]:
        """Progress snapshots of every open session, keyed by session id."""
        return {
            session_id: SessionStatus(
                session_id=session_id,
                algorithm=managed.session.algorithm,
                workers_routed=managed.workers_routed,
                snapshot=managed.session.snapshot(),
            )
            for session_id, managed in self._sessions.items()
        }

    def instance_of(self, session_id: str) -> LTCInstance:
        """The instance an open session serves."""
        return self._managed(session_id).instance

    def routed_stream(self, session_id: str) -> List[Worker]:
        """The re-indexed sub-stream delivered to a session so far.

        Only available when the dispatcher was built with
        ``keep_streams=True``.
        """
        managed = self._managed(session_id)
        if managed.routed_stream is None:
            raise RuntimeError(
                "routed streams are not recorded; build the dispatcher with "
                "keep_streams=True"
            )
        return list(managed.routed_stream)

    @property
    def metrics(self) -> DispatcherMetrics:
        """Aggregate serving counters (live object)."""
        return self._metrics

    # ------------------------------------------------------------ migration

    def adopt_sessions(self, donor: "LTCDispatcher") -> List[str]:
        """Take over every open session of ``donor`` (quarantine migration).

        Managed sessions move wholesale — live solver state, routing
        snapshot, routed-stream history and all — and the donor's metrics
        fold into this dispatcher's, leaving the donor empty.  Session ids
        must not collide (the sharded runtime keeps ids globally unique).
        Returns the adopted ids in the donor's submission order.
        """
        adopted = list(donor._sessions)
        for session_id in adopted:
            if session_id in self._sessions:
                raise DuplicateSessionError(
                    f"cannot adopt session {session_id!r}: the id is already "
                    "in use here"
                )
        self._sessions.update(donor._sessions)
        for session_id in adopted:
            managed = self._sessions[session_id]
            managed.ordinal = next(self._ordinals)
            self._index.add(managed)
        self._metrics.merge(donor._metrics)
        donor._sessions = {}
        donor._index = _ReachIndex()
        donor._metrics = DispatcherMetrics()
        return adopted

    # -------------------------------------------------------------- closing

    def close(self, session_id: str) -> SolveResult:
        """Finalise one session, remove it, and return its solve result."""
        managed = self._managed(session_id)
        # Finalise before removing: if result() fails the session stays
        # open (retryable) and the metrics stay truthful.
        result = managed.session.result()
        del self._sessions[session_id]
        self._index.remove(managed)
        self._metrics.sessions_closed += 1
        return result

    def close_all(self) -> Dict[str, SolveResult]:
        """Finalise every open session, in submission order."""
        return {
            session_id: self.close(session_id)
            for session_id in list(self._sessions)
        }

    # ------------------------------------------------------------ internals

    def _managed(self, session_id: str) -> _ManagedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            known = ", ".join(self._sessions) or "<none>"
            raise UnknownSessionError(
                f"unknown session {session_id!r}; open sessions: {known}"
            ) from None
