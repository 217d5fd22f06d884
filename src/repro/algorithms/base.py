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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.arrangement import Arrangement, Assignment
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.stream import WorkerStream
from repro.core.task import Task
from repro.core.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.candidate_engine import CandidateEngine
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


@dataclass(slots=True)
class Selection:
    """An online solver's decision for one worker, made but not committed.

    :meth:`OnlineSolver.select` returns it and
    :meth:`OnlineSolver.observe` commits it, so a caller that needs the
    decision before delivering (the dispatcher's routing probe) queries
    the candidate engine once per worker, not twice.  A slotted dataclass
    rather than a named tuple: every arrival builds one, and a named
    tuple's Python-level ``__new__`` costs about twice as much.
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

    The base class owns the per-session state every greedy rule reads:
    the instance, the arrangement and the long-lived
    :class:`~repro.core.candidates.CandidateFinder` that :meth:`start`
    builds.  It also implements, once for every rule, mid-stream task
    posting (:meth:`add_tasks`), expiry (:meth:`expire_tasks`) and the
    routing fallback (:meth:`reaches_completed`).  A subclass decides in
    :meth:`select` and commits in :meth:`observe`; the base class provides
    the stream-driving :meth:`solve`.
    """

    is_online = True

    def __init__(self) -> None:
        # Every attribute is bound here, before ``start``, so instances
        # keep CPython's compact shared-key attribute layout.
        self._instance: Optional[LTCInstance] = None
        #: ``None`` until :meth:`start`; ``observe`` checks it.
        self._arrangement: Optional[Arrangement] = None
        self._candidates: Optional[CandidateFinder] = None
        #: The engine behind ``_candidates``, read once per session for
        #: the per-arrival queries; writes go through the finder.
        self._engine: Optional[CandidateEngine] = None
        #: The live session the solver serves (set when one activates).
        self._active_session: Optional["Session"] = None

    def start(self, instance: LTCInstance) -> None:
        """Reset internal state for a new instance (tasks are now visible)."""
        self._instance = instance
        self._arrangement = instance.new_arrangement()
        self._candidates = CandidateFinder(instance)
        self._engine = self._candidates.engine

    @property
    def arrangement(self) -> Arrangement:
        """The arrangement built so far."""
        if self._arrangement is None:
            raise RuntimeError("start() must be called before reading the arrangement")
        return self._arrangement

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Post additional tasks mid-stream.

        Called by a live session's ``submit_tasks`` after the first
        arrival.  Extends the instance, the arrangement (zero accumulated
        quality) and the candidate snapshot in place, with no rebuild: the
        engine appends the tasks at fresh positions, and prior positions
        and assignments are never disturbed.
        """
        arrangement = self.arrangement
        tasks = list(tasks)
        self._instance.add_tasks(tasks)
        arrangement.add_tasks(tasks)
        self._candidates.add_tasks(tasks)

    def expire_tasks(self, task_ids: Sequence[int]) -> List[int]:
        """Abandon overdue tasks (the TTL sweep); return the expired ids.

        Expired tasks are abandoned in the arrangement (they stop blocking
        completion, keep their partial quality and refuse further
        assignments) and tombstoned in the candidate snapshot (they vanish
        from every later query without a rebuild).  Completed,
        already-expired and repeated ids are skipped, so the return value
        is the honest abandonment count; unknown ids raise ``KeyError``
        before anything changes.
        """
        arrangement = self.arrangement
        position_of = self._engine.position_of
        expired: List[int] = []
        for task_id in dict.fromkeys(task_ids):  # each repeated id once
            if task_id not in position_of:
                raise KeyError(f"task id {task_id} is not in the snapshot")
            if arrangement.is_task_abandoned(task_id):
                continue
            if arrangement.is_task_complete(task_id):
                continue
            expired.append(task_id)
        if expired:
            arrangement.abandon_tasks(expired)
            self._candidates.retire_tasks(expired, expired=True)
        return expired

    def reaches_completed(self, worker: Worker) -> bool:
        """Whether ``worker`` is eligible for a task retired as completed.

        The routing fallback for an empty :meth:`select`: a session counts
        a worker eligible for any task that has not expired, completed
        ones included, so its arrival axis does not shrink as it completes.
        """
        return self._engine.reaches_completed(worker)

    @abc.abstractmethod
    def select(self, worker: Worker) -> Selection:
        """Decide for ``worker`` without committing anything.

        The rule's only decision; the picks may be empty.  Must have no
        side effect: the arrangement, the candidate snapshot, counters
        and random state stay as they were.
        """

    @abc.abstractmethod
    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Commit the decision for one arriving worker; return its assignments.

        ``selection`` is what :meth:`select` returned for this worker with
        no mutation in between; ``None`` asks :meth:`select` first.
        """

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
