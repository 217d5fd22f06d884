"""Solver interfaces and the common result type.

Two solver families mirror the paper's two scenarios:

* **Offline** solvers see the whole :class:`~repro.core.instance.LTCInstance`
  (tasks *and* the full worker sequence) and may plan globally.
* **Online** solvers see the tasks up front but receive workers one at a time
  through :meth:`OnlineSolver.observe`; every assignment they emit is final.
  The default :meth:`OnlineSolver.solve` drives the solver from a
  :class:`~repro.core.stream.WorkerStream`, stopping as soon as every task is
  complete (the arrival index of that last useful worker is the latency).

Both return a :class:`SolveResult`, and both can be driven incrementally
through the uniform :class:`~repro.core.session.Session` protocol via
:meth:`Solver.open_session` — natively for online solvers, through a replay
adapter for offline ones.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.core.arrangement import Arrangement, Assignment
from repro.core.instance import LTCInstance
from repro.core.stream import WorkerStream
from repro.core.task import Task
from repro.core.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.session import Session


@dataclass
class SolveResult:
    """Outcome of running a solver on an instance.

    Attributes
    ----------
    algorithm:
        Registry name of the solver that produced the result.
    arrangement:
        The final arrangement (owns the per-task ``Acc*`` accumulations).
    completed:
        Whether every task reached the quality threshold.
    max_latency:
        ``MinMax(M)``: the largest arrival index among workers used by the
        arrangement.  This is the paper's effectiveness metric.
    workers_observed:
        How many workers arrived before the solver stopped (for online
        solvers this equals the latency when the instance completes).
    extra:
        Solver-specific diagnostics (batch count for MCF-LTC, strategy
        switches for AAM, ...).
    """

    algorithm: str
    arrangement: Arrangement
    completed: bool
    max_latency: int
    workers_observed: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def num_assignments(self) -> int:
        """Total number of (worker, task) assignments made."""
        return len(self.arrangement)

    @property
    def workers_used(self) -> int:
        """Number of distinct workers that received at least one task."""
        return len({assignment.worker_index for assignment in self.arrangement})

    def summary(self) -> Dict[str, float]:
        """Headline numbers for experiment reports."""
        data = {
            "max_latency": float(self.max_latency),
            "completed": float(self.completed),
            "workers_observed": float(self.workers_observed),
            "workers_used": float(self.workers_used),
            "assignments": float(self.num_assignments),
        }
        data.update(self.extra)
        return data


class Solver(abc.ABC):
    """Common base class for offline and online solvers."""

    #: Registry name; subclasses override.
    name: str = "solver"

    #: True for solvers that obey the online temporal constraint.
    is_online: bool = False

    @abc.abstractmethod
    def solve(self, instance: LTCInstance) -> SolveResult:
        """Solve the instance and return the resulting arrangement."""

    def open_session(self, instance: LTCInstance) -> "Session":
        """Open an incremental :class:`~repro.core.session.Session`.

        The default adapter plans with :meth:`solve` on the full instance
        when the first worker arrives and replays the plan arrival by
        arrival, which is the correct semantics for offline solvers (they
        legitimately see the whole worker sequence).  Online solvers
        override this with a native session.
        """
        from repro.algorithms.session import ReplaySession

        return ReplaySession(self, instance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class Selection(NamedTuple):
    """An online solver's decision for one worker, made but not committed.

    :meth:`OnlineSolver.select` returns it and
    :meth:`OnlineSolver.observe` commits it, so a caller that needs the
    decision before delivering (the dispatcher's routing probe) queries
    the candidate engine once per worker, not twice.
    """

    #: ``(task, acc)`` pairs in the order ``observe`` assigns the tasks
    #: (``Random`` draws from them).  ``acc`` is ``Acc(w, task)`` as the
    #: candidate engine ranked it, which the arrangement records without
    #: calling the model again; ``None`` when nothing evaluated it.
    picks: List[Tuple[Task, Optional[float]]]
    #: The greedy rule that picked them (AAM's ``"lgf"`` or ``"lrf"``;
    #: empty when no rule ran), for solvers that count rule rounds.
    rule: str = ""


class OfflineSolver(Solver):
    """A solver that may inspect the full worker sequence before deciding."""

    is_online = False


class OnlineSolver(Solver):
    """A solver that commits assignments as each worker arrives.

    Subclasses implement :meth:`start` and :meth:`observe`; the base class
    provides the stream-driving :meth:`solve`.  Solvers whose candidate
    state rides the dynamic engine set :attr:`supports_dynamic_tasks` and
    implement :meth:`add_tasks`, which makes
    :meth:`~repro.core.session.Session.submit_tasks` legal after the
    first arrival for their sessions.
    """

    is_online = True

    #: Whether the solver accepts tasks posted after serving started.
    #: Dynamic solvers implement :meth:`add_tasks`; the default refuses.
    supports_dynamic_tasks: bool = False

    #: Whether the solver can expire (abandon) live tasks mid-stream.
    #: Expiry-capable solvers implement :meth:`expire_tasks`.
    supports_task_expiry: bool = False

    def expire_tasks(self, task_ids: List[int]) -> List[int]:
        """Expire tasks whose deadline passed (expiry-capable solvers override).

        Called by a live session's ``expire_tasks``.  An override must
        abandon the tasks in the arrangement (they stop blocking
        completion) and tombstone them in the candidate snapshot (they
        vanish from every later query), then return the ids it actually
        expired — already-completed and already-expired ids are skipped,
        so the return value is the honest abandonment count for
        latency-vs-abandonment reporting.
        """
        raise NotImplementedError(
            f"solver {self.name!r} does not support expiring tasks mid-stream"
        )

    def add_tasks(self, tasks: List[Task]) -> None:
        """Post additional tasks mid-stream (dynamic solvers override).

        Called by a live session's ``submit_tasks`` after the first
        arrival.  An override must extend the instance, the arrangement
        and the candidate snapshot in place so serving continues with the
        enlarged open set; implementations append — positions and prior
        assignments are never disturbed.
        """
        raise NotImplementedError(
            f"solver {self.name!r} does not accept tasks after serving starts"
        )

    @abc.abstractmethod
    def start(self, instance: LTCInstance) -> None:
        """Reset internal state for a new instance (tasks are now visible)."""

    @abc.abstractmethod
    def select(self, worker: Worker) -> Optional[Selection]:
        """Decide for ``worker`` without committing anything.

        Returns ``None`` when the worker is eligible for no task that has
        not expired — completed tasks count, so a worker near only
        completed tasks still gets a (possibly empty) selection.  Must
        have no side effect: the arrangement, the candidate snapshot,
        counters and random state stay as they were.
        """

    @abc.abstractmethod
    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Handle one arriving worker and return the assignments made for it.

        ``selection``, when given, is what :meth:`select` returned for this
        worker with no mutation in between, and is committed as is;
        otherwise the solver decides here.
        """

    @property
    @abc.abstractmethod
    def arrangement(self) -> Arrangement:
        """The arrangement built so far."""

    def is_complete(self) -> bool:
        """Whether every task has reached the quality threshold."""
        return self.arrangement.is_complete()

    def open_session(self, instance: LTCInstance) -> "Session":
        """Open a native incremental session over start/observe."""
        from repro.algorithms.session import OnlineSolverSession

        return OnlineSolverSession(self, instance)

    def solve(
        self,
        instance: LTCInstance,
        stream: Optional[WorkerStream] = None,
    ) -> SolveResult:
        """Drive the solver over a worker stream until completion.

        Opens a session and feeds it the stream, stopping at the first worker
        after which all tasks are complete, or when the stream is exhausted.
        A custom ``stream`` can be supplied (e.g. by the simulation engine);
        by default the instance's workers are streamed in arrival order.
        """
        if stream is None:
            stream = WorkerStream(instance.workers)
        return self.open_session(instance).drive(stream)

    def diagnostics(self) -> Dict[str, float]:
        """Solver-specific counters included in the result (override freely)."""
        return {}
