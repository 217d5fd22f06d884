"""Exact (exponential) solver for tiny offline LTC instances.

Offline LTC is NP-hard, so this solver is strictly a test/analysis tool: it
finds the true minimum maximum latency by searching, for increasing worker
prefixes, whether a feasible arrangement exists using only those workers.
Within a prefix the feasibility search enumerates, worker by worker, every
subset of at most ``K`` eligible tasks, with an optimistic pruning bound on
the remaining achievable ``Acc*``.

The empirical approximation-ratio tests compare MCF-LTC / LAF / AAM against
this solver on instances with a handful of tasks and a dozen workers or so;
anything larger will take exponential time.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import OfflineSolver, SolveResult
from repro.core.arrangement import Arrangement
from repro.core.candidates import CandidateFinder
from repro.core.exceptions import InfeasibleInstanceError
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker


class ExactSolver(OfflineSolver):
    """Brute-force optimal solver (exponential; tiny instances only).

    Parameters
    ----------
    max_search_nodes:
        Safety valve on the backtracking search; exceeding it raises
        ``RuntimeError`` rather than hanging the test-suite.
    """

    name = "Exact"

    def __init__(self, max_search_nodes: int = 2_000_000) -> None:
        self.max_search_nodes = max_search_nodes

    def solve(self, instance: LTCInstance) -> SolveResult:
        candidates = CandidateFinder(instance)
        delta = instance.delta

        # Precompute the eligible Acc* of every worker for every task.
        eligible: Dict[int, Dict[int, float]] = {}
        for worker in instance.workers:
            eligible[worker.index] = {
                task.task_id: instance.acc_star(worker, task)
                for task in candidates.candidates(worker)
            }

        best_plan: Optional[List[Tuple[int, int]]] = None
        for prefix in range(1, instance.num_workers + 1):
            plan = self._feasible_with_prefix(instance, eligible, delta, prefix)
            if plan is not None:
                best_plan = plan
                break

        arrangement = instance.new_arrangement()
        if best_plan is None:
            return SolveResult(
                algorithm=self.name,
                arrangement=arrangement,
                completed=False,
                max_latency=0,
                workers_observed=instance.num_workers,
            )

        for worker_index, task_id in best_plan:
            arrangement.assign(instance.worker(worker_index), instance.task(task_id))
        return SolveResult(
            algorithm=self.name,
            arrangement=arrangement,
            completed=arrangement.is_complete(),
            max_latency=arrangement.max_latency,
            workers_observed=arrangement.max_latency,
        )

    # ------------------------------------------------------------ feasibility

    def _feasible_with_prefix(
        self,
        instance: LTCInstance,
        eligible: Dict[int, Dict[int, float]],
        delta: float,
        prefix: int,
    ) -> Optional[List[Tuple[int, int]]]:
        """Search for a feasible arrangement using only workers ``1..prefix``."""
        task_ids = [task.task_id for task in instance.tasks]
        workers = instance.workers[:prefix]

        # Optimistic per-task contribution of the workers from position i on:
        # suffix_best[i][t] assumes every later worker helps every task.
        suffix_best: List[Dict[int, float]] = [
            {task_id: 0.0 for task_id in task_ids} for _ in range(prefix + 1)
        ]
        for position in range(prefix - 1, -1, -1):
            worker = workers[position]
            for task_id in task_ids:
                contribution = eligible[worker.index].get(task_id, 0.0)
                suffix_best[position][task_id] = (
                    suffix_best[position + 1][task_id] + contribution
                )

        self._nodes = 0
        accumulated = {task_id: 0.0 for task_id in task_ids}
        plan: List[Tuple[int, int]] = []
        if self._search(instance, eligible, delta, workers, 0, accumulated,
                        suffix_best, plan):
            return list(plan)
        return None

    def _search(
        self,
        instance: LTCInstance,
        eligible: Dict[int, Dict[int, float]],
        delta: float,
        workers: Sequence[Worker],
        position: int,
        accumulated: Dict[int, float],
        suffix_best: List[Dict[int, float]],
        plan: List[Tuple[int, int]],
    ) -> bool:
        self._nodes += 1
        if self._nodes > self.max_search_nodes:
            raise RuntimeError(
                "ExactSolver exceeded its search budget; the instance is too "
                "large for exhaustive solving"
            )

        open_tasks = [
            task_id
            for task_id, value in accumulated.items()
            if value < delta - 1e-9
        ]
        if not open_tasks:
            return True
        if position >= len(workers):
            return False

        # Optimistic bound: even if every remaining worker contributed to
        # every task, can each open task still reach delta?
        for task_id in open_tasks:
            if accumulated[task_id] + suffix_best[position][task_id] < delta - 1e-9:
                return False

        worker = workers[position]
        options = [
            task_id for task_id in open_tasks if task_id in eligible[worker.index]
        ]
        max_take = min(worker.capacity, len(options))

        # Try the largest selections first: completing tasks sooner prunes
        # more of the search space.
        for take in range(max_take, -1, -1):
            for combo in itertools.combinations(options, take):
                for task_id in combo:
                    accumulated[task_id] += eligible[worker.index][task_id]
                    plan.append((worker.index, task_id))
                if self._search(instance, eligible, delta, workers, position + 1,
                                accumulated, suffix_best, plan):
                    return True
                for task_id in combo:
                    accumulated[task_id] -= eligible[worker.index][task_id]
                    plan.pop()
        return False
