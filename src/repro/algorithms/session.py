"""Session implementations for the two solver families.

:class:`OnlineSolverSession` is the native adapter: each
:meth:`~repro.core.session.Session.on_worker` call is one irrevocable greedy
decision of the wrapped :class:`~repro.algorithms.base.OnlineSolver`.

:class:`ReplaySession` adapts an :class:`~repro.algorithms.base.OfflineSolver`
to the same protocol: when the first worker arrives the solver plans on the
full instance (it is an *offline* algorithm — it legitimately sees the whole
worker sequence), and the plan is then replayed arrival by arrival.  The
replay refuses streams that differ from the instance's own workers, because a
plan computed for one future is meaningless on another.

Both sessions defer solver start-up until the first arrival so that
:meth:`~repro.core.session.Session.submit_tasks` can stage tasks into the
effective instance for free.  After activation, an online session passes
submitted and expired tasks to its solver's live state; a replay session
refuses both with :class:`~repro.core.session.SessionStateError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algorithms.base import OnlineSolver, Selection, Solver, SolveResult
from repro.core.arrangement import Arrangement, Assignment
from repro.core.instance import LTCInstance
from repro.core.session import Session, SessionSnapshot, SessionStateError
from repro.core.task import Task
from repro.core.worker import Worker


class _SolverSession(Session):
    """Shared machinery: deferred activation plus pre-arrival task staging."""

    def __init__(self, solver: Solver, instance: LTCInstance) -> None:
        self._solver = solver
        self._base_instance = instance
        self._extra_tasks: List[Task] = []
        self._instance: Optional[LTCInstance] = None  # set on activation
        self._observed = 0

    # ----------------------------------------------------------- protocol

    @property
    def algorithm(self) -> str:
        return self._solver.name

    @property
    def workers_observed(self) -> int:
        """How many workers have been fed so far."""
        return self._observed

    @property
    def instance(self) -> LTCInstance:
        """The effective instance (base tasks plus any submitted extras)."""
        if self._instance is not None:
            return self._instance
        return self._effective_instance()

    def submit_tasks(self, tasks: Sequence[Task]) -> None:
        if self._instance is not None:
            self._submit_live(list(tasks))
            return
        known = {task.task_id for task in self._base_instance.tasks}
        known.update(task.task_id for task in self._extra_tasks)
        for task in tasks:
            if task.task_id in known:
                raise ValueError(f"task id {task.task_id} is already posted")
            known.add(task.task_id)
            self._extra_tasks.append(task)

    def on_worker(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Feed one arrival; ``selection`` is a precomputed decision for it.

        ``selection`` comes from :meth:`OnlineSolverSession.select` for
        the same worker with no mutation in between; the solver commits
        it instead of querying again.
        """
        if self._instance is None:
            self._activate()
        # Count the arrival only after dispatch succeeds, so a worker the
        # session *rejects up front* (wrong stream, rebound solver) does not
        # desync it or inflate workers_observed.  If a solver's observe()
        # itself fails partway it may already have mutated its arrangement —
        # sessions make no transactional promise about mid-observe failures.
        assignments = self._dispatch(worker, selection)
        self._observed += 1
        return assignments

    def snapshot(self) -> SessionSnapshot:
        if self._instance is None:
            # Not yet activated: nothing observed, nothing assigned.
            return SessionSnapshot(
                algorithm=self.algorithm,
                workers_observed=0,
                num_assignments=0,
                tasks_total=len(self._base_instance.tasks) + len(self._extra_tasks),
                tasks_completed=0,
                max_latency=0,
                complete=False,
            )
        arrangement = self.arrangement
        total = len(self._instance.tasks)
        abandoned = len(arrangement.abandoned_tasks)
        return SessionSnapshot(
            algorithm=self.algorithm,
            workers_observed=self._observed,
            num_assignments=len(arrangement),
            tasks_total=total,
            tasks_completed=(
                total - len(arrangement.uncompleted_tasks()) - abandoned
            ),
            max_latency=arrangement.max_latency,
            complete=self.is_complete,
            tasks_abandoned=abandoned,
        )

    # ------------------------------------------------------------ internals

    def _effective_instance(self) -> LTCInstance:
        base = self._base_instance
        if not self._extra_tasks:
            return base
        return LTCInstance(
            tasks=[*base.tasks, *self._extra_tasks],
            workers=list(base.workers),
            error_rate=base.error_rate,
            accuracy_model=base.accuracy_model,
            name=base.name,
            min_assignable_accuracy=base.min_assignable_accuracy,
        )

    def _activate(self) -> None:
        if self._instance is None:
            self._instance = self._effective_instance()
            self._start(self._instance)

    # Subclass hooks -----------------------------------------------------

    @property
    def arrangement(self) -> Arrangement:
        """The arrangement built so far (activates the session if needed)."""
        raise NotImplementedError

    def _start(self, instance: LTCInstance) -> None:
        raise NotImplementedError

    def _dispatch(
        self, worker: Worker, selection: Optional[Selection]
    ) -> List[Assignment]:
        raise NotImplementedError

    def _submit_live(self, tasks: List[Task]) -> None:
        """Post tasks after activation; the default (replay) refuses."""
        raise SessionStateError(
            f"session over solver {self._solver.name!r} cannot accept tasks "
            "after the first worker arrives: an offline replay plan is "
            "computed for a fixed future and cannot absorb new tasks"
        )


class OnlineSolverSession(_SolverSession):
    """Native session over an online solver's start/observe loop.

    A solver object holds one mutable arrangement, so it can serve only one
    live session at a time; activating a new session rebinds the solver, and
    any further use of a superseded session raises
    :class:`~repro.core.session.SessionStateError` instead of silently
    corrupting the newer session's state.  Build one solver per concurrent
    session (e.g. via :func:`~repro.algorithms.registry.build_solver`).
    """

    def __init__(self, solver: OnlineSolver, instance: LTCInstance) -> None:
        if not solver.is_online:
            raise TypeError("OnlineSolverSession requires an online solver")
        super().__init__(solver, instance)
        self._online: OnlineSolver = solver

    def _effective_instance(self) -> LTCInstance:
        # The solver extends its instance in place as tasks are submitted
        # mid-stream, so the session must own a private copy — otherwise
        # the caller's instance object would silently grow (and a second
        # session or offline baseline run on it would see a different
        # task set than the caller posted).
        base = self._base_instance
        return LTCInstance(
            tasks=[*base.tasks, *self._extra_tasks],
            workers=list(base.workers),
            error_rate=base.error_rate,
            accuracy_model=base.accuracy_model,
            name=base.name,
            min_assignable_accuracy=base.min_assignable_accuracy,
        )

    @property
    def arrangement(self) -> Arrangement:
        self._activate()
        self._check_binding()
        return self._online.arrangement

    @property
    def is_complete(self) -> bool:
        if self._instance is None:
            return False
        if self._online._active_session is not self:
            self._check_binding()  # raises
        return self._online.arrangement.is_complete()

    def _check_binding(self) -> None:
        if self._online._active_session is not self:
            raise SessionStateError(
                f"solver {self._online.name!r} has been rebound to another "
                "session since this one started; a solver object serves one "
                "live session at a time — build one solver per session"
            )

    def _start(self, instance: LTCInstance) -> None:
        self._online.start(instance)
        self._online._active_session = self

    def select(self, worker: Worker) -> Optional[Selection]:
        """The solver's decision for ``worker``, not yet committed.

        ``None`` when the worker is eligible for no task of the session
        that has not expired: the selection over the open tasks is empty
        and the worker reaches no completed task either (completed tasks
        count, so a session's arrival axis does not shrink as it
        completes).  Otherwise pass the result to :meth:`on_worker`.  The
        first call activates the session, as the first arrival would.
        """
        if self._instance is None:
            self._activate()
        online = self._online
        if online._active_session is not self:
            self._check_binding()  # raises
        selection = online.select(worker)
        if selection.picks or online.reaches_completed(worker):
            return selection
        return None

    def _dispatch(
        self, worker: Worker, selection: Optional[Selection]
    ) -> List[Assignment]:
        if self._online._active_session is not self:
            self._check_binding()  # raises
        return self._online.observe(worker, selection)

    def _submit_live(self, tasks: List[Task]) -> None:
        """Mid-stream submission: forward to the solver in place.

        The solver extends its instance/arrangement/candidate snapshot
        (see :meth:`~repro.algorithms.base.OnlineSolver.add_tasks`).  The
        instance it mutates is the session's *private working copy* (see
        :meth:`_effective_instance`), so snapshots and completion checks
        see the enlarged task set immediately while the instance object
        the caller submitted stays untouched.
        """
        self._check_binding()
        self._online.add_tasks(tasks)

    def expire_tasks(self, task_ids: Sequence[int]) -> List[int]:
        """Expire overdue tasks through the solver.

        Activates the session first (a TTL sweep may fire before the first
        routed arrival), then abandons the tasks in the solver's live
        arrangement/candidate snapshot.  See
        :meth:`repro.core.session.Session.expire_tasks` for the contract.
        """
        self._activate()
        self._check_binding()
        return self._online.expire_tasks(list(task_ids))

    def result(self) -> SolveResult:
        self._activate()
        self._check_binding()
        arrangement = self._online.arrangement
        return SolveResult(
            algorithm=self.algorithm,
            arrangement=arrangement,
            completed=arrangement.is_complete(),
            max_latency=arrangement.max_latency,
            workers_observed=self._observed,
            extra=self._online.diagnostics(),
        )


class ReplaySession(_SolverSession):
    """Adapts an offline solver to the incremental protocol by replaying.

    On activation the offline solver plans over the *full* instance (tasks
    and the whole worker sequence — exactly the information the offline
    scenario grants it); :meth:`on_worker` then releases the plan's
    assignments for each arriving worker.  The fed stream must be the
    instance's own workers in arrival order.
    """

    def __init__(self, solver: Solver, instance: LTCInstance) -> None:
        super().__init__(solver, instance)
        self._plan: Dict[int, List[int]] = {}
        self._replayed: Optional[Arrangement] = None
        self._pending_assignments = 0
        self._plan_extra: Dict[str, float] = {}

    @property
    def arrangement(self) -> Arrangement:
        self._activate()
        assert self._replayed is not None
        return self._replayed

    @property
    def is_complete(self) -> bool:
        if self._replayed is None:
            return False
        return self._pending_assignments == 0 and self._replayed.is_complete()

    def _start(self, instance: LTCInstance) -> None:
        planned = self._solver.solve(instance)
        self._plan = {}
        for assignment in planned.arrangement.assignments:
            self._plan.setdefault(assignment.worker_index, []).append(
                assignment.task_id
            )
            self._pending_assignments += 1
        self._plan_extra = dict(planned.extra)
        self._replayed = instance.new_arrangement()

    def _dispatch(
        self, worker: Worker, selection: Optional[Selection]
    ) -> List[Assignment]:
        assert self._instance is not None and self._replayed is not None
        expected = self._observed + 1
        if worker.index != expected:
            raise SessionStateError(
                f"replay session expected worker {expected}, got "
                f"{worker.index}; offline plans replay only over the "
                "instance's own stream in arrival order"
            )
        if worker != self._instance.worker(worker.index):
            raise SessionStateError(
                f"worker {worker.index} differs from the instance's worker at "
                "that arrival; offline plans replay only over the instance's "
                "own stream"
            )
        assignments: List[Assignment] = []
        for task_id in self._plan.get(worker.index, ()):
            assignments.append(
                self._replayed.assign(worker, self._instance.task(task_id))
            )
            self._pending_assignments -= 1
        return assignments

    def result(self) -> SolveResult:
        self._activate()
        assert self._replayed is not None
        return SolveResult(
            algorithm=self.algorithm,
            arrangement=self._replayed,
            completed=self._replayed.is_complete(),
            max_latency=self._replayed.max_latency,
            workers_observed=self._observed,
            extra=dict(self._plan_extra),
        )


def open_session(solver: Solver, instance: LTCInstance) -> Session:
    """Open the right kind of session for any solver (functional spelling).

    Parameters
    ----------
    solver:
        Any built solver (e.g. from
        :func:`~repro.algorithms.registry.build_solver`).  Online solvers
        get a native :class:`OnlineSolverSession`; offline solvers get a
        :class:`ReplaySession` that plans on the full instance at first
        arrival and replays the plan.
    instance:
        The LTC instance to serve.  More tasks may always be added through
        :meth:`~repro.core.session.Session.submit_tasks` before the first
        worker arrives; after that, submission stays legal for online
        solvers, whose live candidate snapshot absorbs the new tasks in
        place.

    Returns
    -------
    A fresh :class:`~repro.core.session.Session`.  Note the invariant that
    one solver object holds one mutable arrangement: opening a second live
    session on the same *online* solver rebinds it and invalidates the
    first (which then raises
    :class:`~repro.core.session.SessionStateError`) — build one solver per
    concurrent session.
    """
    return solver.open_session(instance)
