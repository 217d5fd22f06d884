"""Descriptive statistics of an LTC instance.

The latency behaviour of every algorithm in the paper is governed by a small
number of workload properties: how many workers are eligible for each task
(scarcity), how many open tasks an arriving worker can choose between
(contention, relative to the capacity ``K``), and how much slack the instance
has between the ``Acc*`` the workers can contribute and the ``delta`` the
tasks require (feasibility margin).  :func:`compute_instance_stats` collects
them in one pass so experiments and examples can report them alongside the
latency results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.structures.stats import RunningStats


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics of one LTC instance.

    Attributes
    ----------
    num_tasks, num_workers, capacity, delta:
        Echoes of the instance parameters, for self-contained reports.
    eligible_workers_per_task:
        Distribution (min / mean / max) of how many workers may perform each
        task over the whole stream.  The minimum is the scarcity bottleneck
        that usually determines the maximum latency.
    candidate_tasks_per_worker:
        Distribution of how many tasks each worker could be assigned.  When
        the mean exceeds the capacity ``K`` the algorithms' task choices
        matter (contention); below it they mostly coincide.
    contention_ratio:
        ``mean candidate tasks per worker / capacity``.
    feasibility_margin:
        ``(total Acc* the workers can contribute) / (|T| * delta)``.  Values
        below 1 mean the instance cannot be completed.
    starved_tasks:
        Task ids whose eligible-worker count is within 25% of the minimum
        number of answers they need — the likely latency bottlenecks.
    """

    num_tasks: int
    num_workers: int
    capacity: int
    delta: float
    eligible_workers_per_task: Dict[str, float]
    candidate_tasks_per_worker: Dict[str, float]
    contention_ratio: float
    feasibility_margin: float
    starved_tasks: List[int]

    def describe(self) -> str:
        """A short human-readable summary."""
        return (
            f"{self.num_tasks} tasks / {self.num_workers} workers, K={self.capacity}, "
            f"delta={self.delta:.2f}; eligible workers per task "
            f"min={self.eligible_workers_per_task['min']:.0f} "
            f"mean={self.eligible_workers_per_task['mean']:.1f}; "
            f"contention={self.contention_ratio:.2f}; "
            f"feasibility margin={self.feasibility_margin:.2f}; "
            f"{len(self.starved_tasks)} starved task(s)"
        )


def compute_instance_stats(instance: LTCInstance) -> InstanceStats:
    """Compute :class:`InstanceStats` for ``instance``.

    One pass over the workers; cost is roughly the same as running LAF once.
    """
    finder = CandidateFinder(instance)

    per_task = {task.task_id: 0 for task in instance.tasks}
    per_task_best_acc_star = {task.task_id: 0.0 for task in instance.tasks}
    per_worker = RunningStats()
    total_available = 0.0

    for worker in instance.workers:
        candidates = finder.candidates(worker)
        per_worker.add(len(candidates))
        best = 0.0
        for task in candidates:
            star = instance.acc_star(worker, task)
            per_task[task.task_id] += 1
            best = max(best, star)
            if star > per_task_best_acc_star[task.task_id]:
                per_task_best_acc_star[task.task_id] = star
        total_available += worker.capacity * best

    task_stats = RunningStats()
    task_stats.extend([float(count) for count in per_task.values()])

    delta = instance.delta
    starved: List[int] = []
    for task in instance.tasks:
        best_star = per_task_best_acc_star[task.task_id]
        if best_star <= 0:
            starved.append(task.task_id)
            continue
        needed_answers = delta / best_star
        if per_task[task.task_id] <= 1.25 * needed_answers:
            starved.append(task.task_id)

    required = delta * instance.num_tasks
    feasibility_margin = total_available / required if required > 0 else float("inf")

    return InstanceStats(
        num_tasks=instance.num_tasks,
        num_workers=instance.num_workers,
        capacity=instance.capacity,
        delta=delta,
        eligible_workers_per_task={
            "min": task_stats.minimum,
            "mean": task_stats.mean,
            "max": task_stats.maximum,
        },
        candidate_tasks_per_worker={
            "min": per_worker.minimum,
            "mean": per_worker.mean,
            "max": per_worker.maximum,
        },
        contention_ratio=per_worker.mean / instance.capacity,
        feasibility_margin=feasibility_margin,
        starved_tasks=sorted(starved),
    )
