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

from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import OfflineSolver, OnlineSolver, Selection, SolveResult
from repro.core.arrangement import Assignment
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.worker import Worker


class BaseOffSolver(OfflineSolver):
    """The ``Base-off`` offline greedy baseline (Sec. V-A)."""

    name = "Base-off"

    def solve(self, instance: LTCInstance) -> SolveResult:
        arrangement = instance.new_arrangement()
        candidates = CandidateFinder(instance)

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

    def __init__(
        self,
        seed: int = 0,
        skip_completed: bool = False,
    ) -> None:
        super().__init__()
        self.seed = seed
        self.skip_completed = skip_completed
        self._rng = np.random.default_rng(seed)

    def start(self, instance: LTCInstance) -> None:
        super().start(instance)
        self._rng = np.random.default_rng(self.seed)

    def select(self, worker: Worker) -> Selection:
        """The nearby pool the draw picks from.

        Random never retires a completed task, so the pool holds every
        task the worker is eligible for that has not expired; the draw
        itself (and so the rng) waits for :meth:`observe`.
        """
        nearby = self._candidates.candidates(worker)
        return Selection(list(zip(nearby, repeat(None))))

    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        arrangement = self._arrangement
        if arrangement is None:
            raise RuntimeError("start() must be called before observe()")
        if selection is None:
            selection = self.select(worker)
        picks = selection.picks
        if self.skip_completed:
            picks = [
                pick
                for pick in picks
                if not arrangement.is_task_complete(pick[0].task_id)
            ]
        if not picks:
            return []
        count = min(worker.capacity, len(picks))
        chosen = self._rng.choice(len(picks), size=count, replace=False)
        return [arrangement.assign(worker, picks[i][0]) for i in sorted(chosen)]
