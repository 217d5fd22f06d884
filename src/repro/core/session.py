"""Incremental solving sessions — the service-facing protocol.

The paper's setting is inherently a service: tasks are posted, workers check
in one at a time, and every assignment is an irrevocable online decision.  A
:class:`Session` is the uniform incremental surface over that loop:

* :meth:`Session.submit_tasks` posts additional tasks.  Before the first
  worker arrives this is always legal (the tasks are staged into the
  effective instance); afterwards it stays legal for sessions over
  online solvers, whose candidate state rides the incremental engine —
  the new tasks join the live snapshot without a rebuild and serving
  continues.  Sessions over offline replay plans refuse mid-stream
  tasks: their plan was computed for a fixed future;
* :meth:`Session.on_worker` feeds one arriving worker and returns the
  assignments committed for it;
* :meth:`Session.snapshot` reports cheap progress counters at any point;
* :meth:`Session.result` finalises the run into a
  :class:`~repro.algorithms.base.SolveResult`.

Prior assignments are never revisited: submitting tasks mid-stream only
*reopens* completion (the newcomers still need quality), it cannot
invalidate a committed decision.  See ``docs/sessions.md`` for the full
lifecycle, including how the dispatcher drives many such sessions.

Every solver opens sessions through
:meth:`~repro.algorithms.base.Solver.open_session`: online solvers implement
the protocol natively (each ``on_worker`` call is one greedy decision), while
offline solvers are adapted through a replay session that plans on the full
instance and replays the plan arrival by arrival.  The simulation engine,
the experiment runner and the :mod:`repro.service` dispatch layer all drive
solvers through this one API.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.core.arrangement import Assignment
from repro.core.task import Task
from repro.core.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.algorithms.base import SolveResult


class SessionStateError(RuntimeError):
    """An operation was issued in a state the session cannot honour.

    Raised e.g. when tasks are submitted or expired mid-stream in a
    replay session (its offline plan was computed for a fixed task set)
    or when a replay session is fed a stream that differs from the one
    its plan was computed on.
    """


@dataclass(frozen=True, slots=True)
class SessionSnapshot:
    """Cheap progress counters of a session at one point in time."""

    algorithm: str
    workers_observed: int
    num_assignments: int
    tasks_total: int
    tasks_completed: int
    max_latency: int
    complete: bool
    #: Tasks expired via :meth:`Session.expire_tasks` (deadline passed
    #: before the quality threshold was reached).  Abandoned tasks count
    #: neither as completed nor as remaining.
    tasks_abandoned: int = 0

    @property
    def tasks_remaining(self) -> int:
        """Open tasks: neither completed nor abandoned."""
        return self.tasks_total - self.tasks_completed - self.tasks_abandoned

    def summary(self) -> Dict[str, float]:
        """Flat numbers for logs and service metrics."""
        return {
            "workers_observed": float(self.workers_observed),
            "assignments": float(self.num_assignments),
            "tasks_total": float(self.tasks_total),
            "tasks_completed": float(self.tasks_completed),
            "tasks_abandoned": float(self.tasks_abandoned),
            "max_latency": float(self.max_latency),
            "complete": float(self.complete),
        }


class Session(abc.ABC):
    """One incremental solve: tasks posted up front, workers fed one by one."""

    @property
    @abc.abstractmethod
    def algorithm(self) -> str:
        """Registry name of the solver serving this session."""

    @property
    @abc.abstractmethod
    def is_complete(self) -> bool:
        """Whether feeding further workers can no longer change the outcome."""

    @abc.abstractmethod
    def submit_tasks(self, tasks: Sequence[Task]) -> None:
        """Post additional tasks to the session.

        Always legal before the first worker arrives (tasks are staged
        into the effective instance).  After the first arrival it remains
        legal for sessions over online solvers — the tasks join the live
        candidate snapshot in place and the session's completion state
        reopens until they too reach the quality threshold.

        Raises
        ------
        SessionStateError
            If a worker has already been observed and the session replays
            an offline plan (computed for a fixed future).
        ValueError
            If a submitted task id is already posted.
        """

    def expire_tasks(self, task_ids: Sequence[int]) -> List[int]:
        """Expire overdue tasks (the deadline/TTL sweep); return expired ids.

        Expired tasks are *abandoned*: they keep whatever quality they
        accumulated, stop blocking completion, refuse further assignments
        and vanish from every candidate query (the engine's tombstone
        retirement).  Already-completed and already-expired ids are
        skipped, so the returned list is the honest abandonment increment
        for latency-vs-abandonment reporting.

        Legal for sessions over online solvers; the default — replay
        sessions over offline plans — refuses.

        Raises
        ------
        SessionStateError
            If the serving solver cannot abandon live tasks (an offline
            replay plan was computed for a fixed task set).
        KeyError
            If a task id was never posted to the session.
        """
        raise SessionStateError(
            f"session over solver {self.algorithm!r} cannot expire tasks: "
            "an offline replay plan is computed for a fixed task set"
        )

    @abc.abstractmethod
    def on_worker(self, worker: Worker) -> List[Assignment]:
        """Feed one arriving worker; return the assignments committed for it."""

    @abc.abstractmethod
    def snapshot(self) -> SessionSnapshot:
        """Current progress counters (does not advance the session)."""

    @abc.abstractmethod
    def result(self) -> "SolveResult":
        """Finalise the run so far into a solve result."""

    def drive(
        self,
        workers: Iterable[Worker],
        stop_when_complete: bool = True,
    ) -> "SolveResult":
        """Feed a whole worker stream and return the final result.

        Stops at the first worker after which the session is complete (the
        paper's setting), or when the stream is exhausted.  Pass
        ``stop_when_complete=False`` to consume the entire stream.
        """
        for worker in workers:
            self.on_worker(worker)
            if stop_when_complete and self.is_complete:
                break
        return self.result()
