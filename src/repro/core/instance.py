"""Offline LTC problem instances (Definition 6).

An :class:`LTCInstance` bundles the task set, the worker sequence (ordered by
arrival index), the tolerable error rate and the accuracy model.  Offline
solvers receive the full instance; online solvers receive the same instance
but consume the workers one at a time through a
:class:`~repro.core.stream.WorkerStream` so they can never peek ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.accuracy import AccuracyModel, SigmoidDistanceAccuracy
from repro.core.arrangement import Arrangement
from repro.core.exceptions import InfeasibleInstanceError
from repro.core.quality_threshold import quality_threshold
from repro.core.task import Task
from repro.core.worker import Worker


@dataclass
class LTCInstance:
    """A complete offline LTC problem instance.

    Attributes
    ----------
    tasks:
        The micro tasks to complete.
    workers:
        The workers in arrival order.  Their ``index`` attributes must be the
        consecutive integers ``1..|W|``.
    error_rate:
        The tolerable error rate ``epsilon`` shared by all tasks.
    accuracy_model:
        Predicted-accuracy function ``Acc(w, t)``.
    name:
        Optional label used in reports.

    The worker list is fixed at construction: nothing mutates ``workers``
    afterwards (sessions grow only ``tasks``, through :meth:`add_tasks`), so
    :attr:`capacity` is computed once in ``__post_init__`` and every
    per-arrival read of it is O(1).  Build a new instance (as
    :meth:`subset_of_workers` does) rather than editing ``workers`` in place.
    """

    tasks: List[Task]
    workers: List[Worker]
    error_rate: float
    accuracy_model: AccuracyModel = field(default_factory=SigmoidDistanceAccuracy)
    name: str = ""
    #: Minimum predicted accuracy for a (worker, task) pair to be assignable.
    #: The paper's bound analysis assumes assigned pairs satisfy
    #: Acc(w, t) >= 0.66 (the spam threshold), which keeps Acc* in [0.1, 1].
    min_assignable_accuracy: float = 0.66

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("an instance needs at least one task")
        if not self.workers:
            raise ValueError("an instance needs at least one worker")
        if not 0.0 < self.error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        task_ids = [task.task_id for task in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ValueError("task ids must be unique")
        indices = [worker.index for worker in self.workers]
        if indices != list(range(1, len(self.workers) + 1)):
            raise ValueError(
                "workers must be given in arrival order with consecutive "
                "indices starting at 1"
            )
        self._tasks_by_id: Dict[int, Task] = {task.task_id: task for task in self.tasks}
        self._workers_by_index: Dict[int, Worker] = {
            worker.index: worker for worker in self.workers
        }
        self._capacity = min(worker.capacity for worker in self.workers)

    # ------------------------------------------------------------- accessors

    @property
    def delta(self) -> float:
        """The quality threshold ``2 * ln(1 / epsilon)``."""
        return quality_threshold(self.error_rate)

    @property
    def capacity(self) -> int:
        """The workers' shared capacity ``K``.

        The paper assumes every worker has the same capacity; when workers
        disagree this returns the minimum, which is the conservative value the
        bound formulas need.  Computed once at construction (the worker list
        is fixed), so reading it is O(1).
        """
        return self._capacity

    @property
    def num_tasks(self) -> int:
        """``|T|``."""
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        """``|W|``."""
        return len(self.workers)

    def task(self, task_id: int) -> Task:
        """Look a task up by id."""
        return self._tasks_by_id[task_id]

    def worker(self, index: int) -> Worker:
        """Look a worker up by arrival index."""
        return self._workers_by_index[index]

    def workers_by_index(self) -> Dict[int, Worker]:
        """Mapping from arrival index to worker (copy)."""
        return dict(self._workers_by_index)

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Append newly posted tasks (the online dynamic-arrival path).

        The paper's online setting is a stream: tasks keep being posted
        while workers check in.  Sessions over dynamic solvers mutate
        their *private working copy* of the instance through this method
        (the caller's original is never touched), so downstream views
        (``num_tasks``, ``task()``, progress counters) stay consistent.
        Raises ``ValueError`` when a task id is already posted.
        """
        incoming = list(tasks)
        seen = set()
        for task in incoming:
            if task.task_id in self._tasks_by_id or task.task_id in seen:
                raise ValueError(f"task id {task.task_id} is already posted")
            seen.add(task.task_id)
        for task in incoming:
            self.tasks.append(task)
            self._tasks_by_id[task.task_id] = task

    def iter_workers(self) -> Iterator[Worker]:
        """Workers in arrival order."""
        return iter(self.workers)

    # ------------------------------------------------------------- utilities

    def acc(self, worker: Worker, task: Task) -> float:
        """``Acc(w, t)`` under the instance's accuracy model."""
        return self.accuracy_model.accuracy(worker, task)

    def acc_star(self, worker: Worker, task: Task) -> float:
        """``Acc*(w, t)`` under the instance's accuracy model."""
        return self.accuracy_model.acc_star(worker, task)

    def new_arrangement(self) -> Arrangement:
        """A fresh, empty arrangement bound to this instance."""
        return Arrangement(self.tasks, self.delta, self.accuracy_model)

    def total_available_acc_star(self) -> float:
        """Upper bound on the total ``Acc*`` all workers could contribute.

        Every worker contributes at most ``capacity`` assignments, each worth
        at most their best ``Acc*`` over all tasks.  Used for cheap
        feasibility pre-checks.
        """
        total = 0.0
        for worker in self.workers:
            best = max(self.acc_star(worker, task) for task in self.tasks)
            total += worker.capacity * best
        return total

    def check_feasibility(self) -> None:
        """Raise :class:`InfeasibleInstanceError` if completion is impossible.

        This is a cheap necessary-condition check (total available ``Acc*``
        vs. total required), not a full feasibility proof; solvers still
        detect and report infeasibility when they exhaust the worker stream.
        """
        required = self.delta * self.num_tasks
        if self.total_available_acc_star() < required - 1e-9:
            raise InfeasibleInstanceError(
                f"workers can contribute at most "
                f"{self.total_available_acc_star():.2f} Acc* in total but the "
                f"tasks require {required:.2f}"
            )

    def subset_of_workers(self, count: int) -> "LTCInstance":
        """A copy of the instance restricted to the first ``count`` workers."""
        if count < 1 or count > self.num_workers:
            raise ValueError("count must be within 1..|W|")
        return LTCInstance(
            tasks=list(self.tasks),
            workers=list(self.workers[:count]),
            error_rate=self.error_rate,
            accuracy_model=self.accuracy_model,
            name=self.name,
            min_assignable_accuracy=self.min_assignable_accuracy,
        )

    def describe(self) -> dict[str, object]:
        """A plain-dict description for logging and reports."""
        return {
            "name": self.name or "<unnamed>",
            "num_tasks": self.num_tasks,
            "num_workers": self.num_workers,
            "error_rate": self.error_rate,
            "delta": self.delta,
            "capacity": self.capacity,
            "accuracy_model": repr(self.accuracy_model),
        }
