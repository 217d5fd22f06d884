"""Arrangements between workers and tasks, and their constraints.

An arrangement ``M`` is the set of (worker, task) assignments a solver makes.
This module keeps an arrangement consistent while it is being built
(invariable + capacity constraints, no duplicate pairs), tracks each task's
accumulated ``Acc*`` and answers the questions the paper's objective needs:
is every task completed, and what is the maximum latency (largest arrival
index among used workers)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.accuracy import AccuracyModel
from repro.core.exceptions import CapacityExceeded, DuplicateAssignment
from repro.core.task import Task
from repro.core.worker import Worker

#: Slack below ``delta`` at which a task already counts as complete.
_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class Assignment:
    """One (worker, task) pair in an arrangement."""

    worker_index: int
    task_id: int
    acc: float
    acc_star: float

    def as_tuple(self) -> Tuple[int, int]:
        """The ``(worker_index, task_id)`` key of the assignment."""
        return (self.worker_index, self.task_id)


class Arrangement:
    """A mutable task-worker arrangement with constraint enforcement.

    Parameters
    ----------
    tasks:
        The instance's tasks (dense ``task_id`` order is not required, but ids
        must be unique).
    delta:
        The quality threshold each task must accumulate in ``Acc*``.
    accuracy_model:
        Used to evaluate ``Acc``/``Acc*`` when an assignment is added.

    Notes
    -----
    The *invariable constraint* is enforced structurally: there is no way to
    remove an assignment once added.  The *capacity constraint* is enforced on
    every :meth:`assign` call.  The *error-rate constraint* is a property of
    the finished arrangement checked via :meth:`is_complete` /
    :meth:`uncompleted_tasks`.

    A running count of *open* tasks (neither completed nor abandoned) keeps
    :meth:`is_complete` O(1), since solvers and the dispatcher ask it after
    every arrival.  :meth:`assign`, :meth:`add_tasks` and
    :meth:`abandon_tasks` keep the count in step, using the same predicate
    as :meth:`is_task_complete`.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        delta: float,
        accuracy_model: AccuracyModel,
    ) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique")
        self._tasks: Dict[int, Task] = {task.task_id: task for task in tasks}
        self._delta = float(delta)
        self._accuracy_model = accuracy_model
        self._assignments: List[Assignment] = []
        self._pairs: Set[Tuple[int, int]] = set()
        self._accumulated: Dict[int, float] = {task.task_id: 0.0 for task in tasks}
        self._load: Dict[int, int] = {}
        self._workers_by_task: Dict[int, List[int]] = {
            task.task_id: [] for task in tasks
        }
        self._abandoned: Set[int] = set()
        self._max_index_used = 0
        # Counted with the completion predicate, not len(tasks): a delta
        # below the tolerance makes fresh tasks complete.
        self._open_count = sum(
            1 for task_id in self._accumulated if not self.is_task_complete(task_id)
        )

    # ------------------------------------------------------------------ state

    @property
    def delta(self) -> float:
        """The quality threshold each task must reach."""
        return self._delta

    @property
    def assignments(self) -> List[Assignment]:
        """All assignments made so far (copy)."""
        return list(self._assignments)

    @property
    def accumulated(self) -> Mapping[int, float]:
        """Accumulated ``Acc*`` per task id (live view, do not mutate)."""
        return self._accumulated

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self._assignments)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self._pairs

    def load_of(self, worker_index: int) -> int:
        """Number of tasks assigned to the worker with ``worker_index``."""
        return self._load.get(worker_index, 0)

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Extend the arrangement with newly posted tasks.

        New tasks start with zero accumulated ``Acc*`` and no workers;
        existing assignments and accumulations are untouched, so adding
        tasks mid-stream simply reopens :meth:`is_complete` until the
        newcomers reach the threshold too.  Raises ``ValueError`` when a
        task id is already part of the arrangement.
        """
        incoming = list(tasks)
        seen = set()
        for task in incoming:
            if task.task_id in self._tasks or task.task_id in seen:
                raise ValueError(
                    f"task id {task.task_id} is already part of this arrangement"
                )
            seen.add(task.task_id)
        for task in incoming:
            self._tasks[task.task_id] = task
            self._accumulated[task.task_id] = 0.0
            self._workers_by_task[task.task_id] = []
        self._open_count += sum(
            1 for task in incoming if not self.is_task_complete(task.task_id)
        )

    def abandon_tasks(self, task_ids: Sequence[int]) -> None:
        """Mark tasks as expired: they no longer block completion.

        The paper's stream model lets tasks carry deadlines — a task whose
        deadline passes before it accumulates ``delta`` is *abandoned*, not
        failed-forever-blocking: it keeps whatever quality it gathered (the
        invariable constraint still forbids removing assignments) but stops
        counting toward :meth:`is_complete` / :meth:`uncompleted_tasks`.
        Abandoning an already-abandoned task is a no-op; abandoning a
        *completed* task is rejected (it finished — there is nothing to
        abandon, and reporting must not reclassify it).  Unknown ids raise
        ``KeyError``.  Further :meth:`assign` calls on an abandoned task
        are refused: an expired task must not receive new work.
        """
        incoming = list(task_ids)
        for task_id in incoming:
            if task_id not in self._tasks:
                raise KeyError(f"task {task_id} is not part of this instance")
            if task_id not in self._abandoned and self.is_task_complete(task_id):
                raise ValueError(
                    f"task {task_id} already reached the quality threshold; "
                    "completed tasks cannot be abandoned"
                )
        newly_abandoned = set(incoming) - self._abandoned
        self._open_count -= sum(
            1 for task_id in newly_abandoned if not self.is_task_complete(task_id)
        )
        self._abandoned.update(newly_abandoned)

    def is_task_abandoned(self, task_id: int) -> bool:
        """Whether ``task_id`` was expired via :meth:`abandon_tasks`."""
        return task_id in self._abandoned

    @property
    def abandoned_tasks(self) -> List[int]:
        """Ids of expired tasks, in ascending order."""
        return sorted(self._abandoned)

    def workers_of(self, task_id: int) -> List[int]:
        """Arrival indices of the workers assigned to ``task_id``."""
        return list(self._workers_by_task[task_id])

    def accumulated_of(self, task_id: int) -> float:
        """Accumulated ``Acc*`` of ``task_id``."""
        return self._accumulated[task_id]

    def remaining_of(self, task_id: int) -> float:
        """How much ``Acc*`` the task still needs (0 when completed)."""
        return max(0.0, self._delta - self._accumulated[task_id])

    def is_task_complete(self, task_id: int, tolerance: float = _TOLERANCE) -> bool:
        """Whether ``task_id`` has reached the quality threshold."""
        return self._accumulated[task_id] >= self._delta - tolerance

    def uncompleted_tasks(self, tolerance: float = _TOLERANCE) -> List[int]:
        """Task ids that still need quality: neither completed nor abandoned."""
        if not self._abandoned:
            return [
                task_id
                for task_id, value in self._accumulated.items()
                if value < self._delta - tolerance
            ]
        abandoned = self._abandoned
        return [
            task_id
            for task_id, value in self._accumulated.items()
            if value < self._delta - tolerance and task_id not in abandoned
        ]

    def is_complete(self, tolerance: float = _TOLERANCE) -> bool:
        """Whether every task has reached the quality threshold or expired.

        O(1) at the default tolerance: it reads the running open-task count.
        Any other ``tolerance`` rescans the tasks via
        :meth:`uncompleted_tasks`.
        """
        if tolerance != _TOLERANCE:
            return not self.uncompleted_tasks(tolerance)
        return self._open_count == 0

    # -------------------------------------------------------------- latencies

    @property
    def max_latency(self) -> int:
        """``MinMax(M)``: the largest arrival index among used workers."""
        return self._max_index_used

    def task_latency(self, task_id: int) -> int:
        """Latency of a single task (arrival index of its last worker)."""
        workers = self._workers_by_task[task_id]
        return max(workers) if workers else 0

    def per_task_latencies(self) -> Dict[int, int]:
        """Latency of every task, keyed by task id."""
        return {task_id: self.task_latency(task_id) for task_id in self._tasks}

    # ------------------------------------------------------------- assignment

    def assign(self, worker: Worker, task: Task) -> Assignment:
        """Assign ``task`` to ``worker``, enforcing the LTC constraints.

        Raises
        ------
        DuplicateAssignment
            If the (worker, task) pair was already assigned.
        CapacityExceeded
            If the worker already holds ``capacity`` tasks.
        KeyError
            If the task does not belong to this arrangement's instance.
        """
        if task.task_id not in self._tasks:
            raise KeyError(f"task {task.task_id} is not part of this instance")
        if task.task_id in self._abandoned:
            raise KeyError(
                f"task {task.task_id} expired before completion; abandoned "
                "tasks cannot receive new assignments"
            )
        pair = (worker.index, task.task_id)
        if pair in self._pairs:
            raise DuplicateAssignment(
                f"worker {worker.index} already performs task {task.task_id}"
            )
        load = self._load.get(worker.index, 0)
        if load >= worker.capacity:
            raise CapacityExceeded(
                f"worker {worker.index} already holds {load} tasks "
                f"(capacity {worker.capacity})"
            )

        acc = self._accuracy_model.accuracy(worker, task)
        star = self._accuracy_model.acc_star(worker, task)
        assignment = Assignment(
            worker_index=worker.index,
            task_id=task.task_id,
            acc=acc,
            acc_star=star,
        )
        self._assignments.append(assignment)
        self._pairs.add(pair)
        before = self._accumulated[task.task_id]
        after = before + star
        self._accumulated[task.task_id] = after
        # Acc* is a square, so accumulation only grows: a task closes exactly
        # once, when it crosses the is_task_complete threshold.
        threshold = self._delta - _TOLERANCE
        if before < threshold <= after:
            self._open_count -= 1
        self._load[worker.index] = load + 1
        self._workers_by_task[task.task_id].append(worker.index)
        self._max_index_used = max(self._max_index_used, worker.index)
        return assignment

    def can_assign(self, worker: Worker, task: Task) -> bool:
        """Whether :meth:`assign` would succeed for this pair."""
        if task.task_id not in self._tasks or task.task_id in self._abandoned:
            return False
        if (worker.index, task.task_id) in self._pairs:
            return False
        return self._load.get(worker.index, 0) < worker.capacity

    # --------------------------------------------------------------- analysis

    def constraint_violations(
        self, workers: Mapping[int, Worker], tolerance: float = 1e-9
    ) -> List[str]:
        """Re-check every LTC constraint from scratch (for tests/validation).

        Parameters
        ----------
        workers:
            Mapping from worker index to :class:`Worker` for capacity checks.
        """
        violations: List[str] = []
        loads: Dict[int, int] = {}
        seen: Set[Tuple[int, int]] = set()
        accumulated: Dict[int, float] = {task_id: 0.0 for task_id in self._tasks}

        for assignment in self._assignments:
            key = assignment.as_tuple()
            if key in seen:
                violations.append(f"duplicate assignment {key}")
            seen.add(key)
            loads[assignment.worker_index] = loads.get(assignment.worker_index, 0) + 1
            accumulated[assignment.task_id] += assignment.acc_star

        for worker_index, load in loads.items():
            worker = workers.get(worker_index)
            if worker is None:
                violations.append(f"unknown worker index {worker_index}")
            elif load > worker.capacity:
                violations.append(
                    f"worker {worker_index} holds {load} tasks, capacity "
                    f"{worker.capacity}"
                )

        for task_id, value in accumulated.items():
            if value < self._delta - tolerance and task_id not in self._abandoned:
                violations.append(
                    f"task {task_id} accumulated {value:.4f} < delta {self._delta:.4f}"
                )

        return violations

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports."""
        return {
            "assignments": float(len(self._assignments)),
            "max_latency": float(self.max_latency),
            "workers_used": float(len(self._load)),
            "tasks_completed": float(
                len(self._tasks) - self._open_count - len(self._abandoned)
            ),
            "tasks_abandoned": float(len(self._abandoned)),
            "tasks_total": float(len(self._tasks)),
        }
