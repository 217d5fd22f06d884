"""The paper's baselines: ``Base-off`` (offline) and ``Random`` (online).

* **Base-off** processes workers in arrival order but exploits offline
  knowledge of the future: when a worker arrives, the uncompleted nearby
  tasks with the *fewest remaining nearby workers* (counting only workers
  that have not arrived yet, plus the current one) are assigned to them.
  Scarce tasks are served first so they are not starved by later arrivals.

* **Random** assigns up to ``K`` uncompleted nearby tasks uniformly at
  random to every arriving worker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.base import OfflineSolver, OnlineSolver, SolveResult
from repro.core.arrangement import Arrangement, Assignment
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker


class BaseOffSolver(OfflineSolver):
    """The ``Base-off`` offline greedy baseline (Sec. V-A)."""

    name = "Base-off"

    def __init__(self, use_spatial_index: bool = True) -> None:
        self.use_spatial_index = use_spatial_index

    def solve(self, instance: LTCInstance) -> SolveResult:
        arrangement = instance.new_arrangement()
        candidates = CandidateFinder(
            instance, use_spatial_index=self.use_spatial_index
        )

        # Offline knowledge: which (future) workers can serve each task.
        eligible_tasks_per_worker: Dict[int, List[int]] = {}
        remaining_nearby: Dict[int, int] = {task.task_id: 0 for task in instance.tasks}
        for worker in instance.workers:
            task_ids = [task.task_id for task in candidates.candidates(worker)]
            eligible_tasks_per_worker[worker.index] = task_ids
            for task_id in task_ids:
                remaining_nearby[task_id] += 1

        observed = 0
        for worker in instance.workers:
            observed += 1
            candidate_ids = eligible_tasks_per_worker[worker.index]
            open_ids = [
                task_id
                for task_id in candidate_ids
                if not arrangement.is_task_complete(task_id)
            ]
            # Scarcest-first: fewest remaining nearby workers, then task id.
            open_ids.sort(key=lambda task_id: (remaining_nearby[task_id], task_id))
            for task_id in open_ids[: worker.capacity]:
                arrangement.assign(worker, instance.task(task_id))
            # The current worker no longer counts as "remaining" for any of
            # its nearby tasks.
            for task_id in candidate_ids:
                remaining_nearby[task_id] -= 1
            if arrangement.is_complete():
                break

        return SolveResult(
            algorithm=self.name,
            arrangement=arrangement,
            completed=arrangement.is_complete(),
            max_latency=arrangement.max_latency,
            workers_observed=observed,
        )


class RandomOnlineSolver(OnlineSolver):
    """The ``Random`` online baseline: random nearby tasks.

    The paper describes it as "a naive online baseline algorithm where tasks
    nearby are assigned randomly to the worker" — naive in that it does not
    look at the tasks' completion state: each arriving worker simply receives
    up to ``K`` random nearby tasks, and capacity spent on tasks that are
    already complete is wasted.  Set ``skip_completed=True`` for a stronger
    variant that only draws from uncompleted tasks (used by the ablation
    tests; the default matches the paper's naive baseline).
    """

    name = "Random"
    supports_dynamic_tasks = True

    def __init__(
        self,
        seed: int = 0,
        use_spatial_index: bool = True,
        skip_completed: bool = False,
    ) -> None:
        self.seed = seed
        self.use_spatial_index = use_spatial_index
        self.skip_completed = skip_completed
        self._rng = np.random.default_rng(seed)
        self._instance: Optional[LTCInstance] = None
        self._arrangement: Optional[Arrangement] = None
        self._candidates: Optional[CandidateFinder] = None

    def start(self, instance: LTCInstance) -> None:
        self._instance = instance
        self._arrangement = instance.new_arrangement()
        self._candidates = CandidateFinder(
            instance, use_spatial_index=self.use_spatial_index
        )
        self._rng = np.random.default_rng(self.seed)

    @property
    def arrangement(self) -> Arrangement:
        if self._arrangement is None:
            raise RuntimeError("start() must be called before reading the arrangement")
        return self._arrangement

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Post additional tasks mid-stream (the dynamic-arrival path).

        Random keeps no per-task state beyond the arrangement, so the
        extension is just the shared instance/arrangement/snapshot
        appends; the enlarged nearby pool is drawn from on the next
        arrival.  (Random never retires tasks — the paper's naive
        baseline deliberately keeps drawing completed ones.)
        """
        if self._instance is None or self._arrangement is None or self._candidates is None:
            raise RuntimeError("start() must be called before add_tasks()")
        tasks = list(tasks)
        self._instance.add_tasks(tasks)
        self._arrangement.add_tasks(tasks)
        self._candidates.add_tasks(tasks)

    def observe(self, worker: Worker) -> List[Assignment]:
        if self._instance is None or self._arrangement is None or self._candidates is None:
            raise RuntimeError("start() must be called before observe()")
        arrangement = self._arrangement
        nearby = self._candidates.candidates(worker)
        if self.skip_completed:
            nearby = [
                task
                for task in nearby
                if not arrangement.is_task_complete(task.task_id)
            ]
        if not nearby:
            return []
        count = min(worker.capacity, len(nearby))
        chosen = self._rng.choice(len(nearby), size=count, replace=False)
        return [arrangement.assign(worker, nearby[i]) for i in sorted(chosen)]
