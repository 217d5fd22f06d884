"""The pre-engine candidate scan, retained verbatim as a testing oracle.

:class:`LegacyCandidateFinder` is the object-level ``CandidateFinder``
exactly as it existed before the struct-of-arrays candidate engine
(``repro.core.candidate_engine``) replaced its internals: a
:class:`~repro.geo.grid_index.GridIndex` (dict-of-lists cells) queried
per worker, python ``Task`` objects throughout, and one scalar
``math.exp`` per (worker, task) accuracy evaluation.  It plays the same
role for the candidate layer that :mod:`repro.flow.reference` plays for
the flow kernel:

* the hypothesis differential suite checks both engine passes against
  it pair by pair, and
* ``benchmarks/bench_candidates.py`` uses it as the honest "before"
  baseline for the engine speedup numbers.

The module also keeps faithful replicas of the pre-engine LAF and AAM
``observe`` loops (:func:`legacy_laf_arrangement`,
:func:`legacy_aam_arrangement`): the solvers now drive the engine's bulk
``topk`` path, and these replicas pin down that the rewrite changed no
arrangement byte.  Do not "improve" anything in this file — its value is
that it does not change.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.accuracy import AccuracyModel, SigmoidDistanceAccuracy
from repro.core.arrangement import Arrangement
from repro.core.candidates import sigmoid_eligibility_radius
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.grid_index import GridIndex
from repro.structures.topk import TopKHeap


class LegacyCandidateFinder:
    """The pre-refactor ``CandidateFinder``, preserved as a semantics oracle.

    Same constructor and same public surface as the facade it predates;
    see the module docstring for why it is kept.
    """

    def __init__(
        self,
        instance: LTCInstance,
        min_accuracy: Optional[float] = None,
        use_spatial_index: bool = True,
    ) -> None:
        self._instance = instance
        self._min_accuracy = (
            instance.min_assignable_accuracy if min_accuracy is None else min_accuracy
        )
        self._model: AccuracyModel = instance.accuracy_model
        self._grid: Optional[GridIndex[int]] = None
        self._tasks_by_id: Dict[int, Task] = {
            task.task_id: task for task in instance.tasks
        }
        if use_spatial_index and isinstance(self._model, SigmoidDistanceAccuracy):
            self._grid = self._build_grid(instance.tasks, self._model.d_max)

    @staticmethod
    def _build_grid(tasks: Sequence[Task], d_max: float) -> GridIndex[int]:
        bounds = BoundingBox.from_points(task.location for task in tasks)
        bounds = bounds.expanded(max(d_max, 1.0))
        cell = max(d_max, 1.0)
        grid: GridIndex[int] = GridIndex(bounds, cell)
        for task in tasks:
            grid.insert(task.task_id, task.location)
        return grid

    @property
    def min_accuracy(self) -> float:
        """The eligibility threshold on predicted accuracy."""
        return self._min_accuracy

    def is_eligible(self, worker: Worker, task: Task) -> bool:
        """Whether ``worker`` may be assigned ``task``."""
        return self._model.accuracy(worker, task) >= self._min_accuracy - 1e-12

    def _eligible_pool(self, worker: Worker, ordered: bool) -> Sequence[Task]:
        if self._grid is not None and isinstance(self._model, SigmoidDistanceAccuracy):
            radius = sigmoid_eligibility_radius(
                worker.accuracy, self._model.d_max, self._min_accuracy
            )
            if radius < 0:
                return []
            nearby_ids = self._grid.query_radius(worker.location, radius)
            if ordered:
                nearby_ids = sorted(nearby_ids)
            return [self._tasks_by_id[task_id] for task_id in nearby_ids]
        return self._instance.tasks

    def iter_candidates(
        self, worker: Worker, allowed_ids: Optional[AbstractSet[int]] = None
    ) -> Iterator[Task]:
        """Lazily yield the worker's assignable tasks in ascending-id order."""
        if allowed_ids is not None and not allowed_ids:
            return
        pool = self._eligible_pool(worker, ordered=True)
        if allowed_ids is None:
            for task in pool:
                if self.is_eligible(worker, task):
                    yield task
        else:
            for task in pool:
                if task.task_id in allowed_ids and self.is_eligible(worker, task):
                    yield task

    def eligible_pairs(
        self,
        workers: Iterable[Worker],
        allowed_ids: Optional[AbstractSet[int]] = None,
    ) -> Iterator[Tuple[Worker, Task]]:
        """Bulk-iterate every assignable ``(worker, task)`` pair."""
        if allowed_ids is not None and not allowed_ids:
            return
        for worker in workers:
            for task in self.iter_candidates(worker, allowed_ids):
                yield worker, task

    def candidates(self, worker: Worker) -> List[Task]:
        """All tasks the worker may be assigned, in ascending task-id order."""
        return list(self.iter_candidates(worker))

    def has_candidates(self, worker: Worker) -> bool:
        """Whether at least one task is assignable to the worker."""
        pool = self._eligible_pool(worker, ordered=False)
        return any(self.is_eligible(worker, task) for task in pool)

    def candidate_count_per_task(self) -> Dict[int, int]:
        """For every task, the number of workers eligible to perform it.

        Note this is the *pre-fix* form that sorts a candidate list per
        worker just to count — the facade now counts via the unordered
        pool; the parity test compares the two.
        """
        counts = {task.task_id: 0 for task in self._instance.tasks}
        for worker in self._instance.workers:
            for task in self.candidates(worker):
                counts[task.task_id] += 1
        return counts


# --------------------------------------------------------------------------
# Pre-engine online observe loops (what LAFSolver / AAMSolver did before the
# engine rewrite), as plain driver functions over a LegacyCandidateFinder.


def legacy_laf_observe(
    instance: LTCInstance,
    arrangement: Arrangement,
    finder: LegacyCandidateFinder,
    worker: Worker,
) -> List[int]:
    """One pre-engine LAF arrival; returns the assigned task ids in order."""
    heap: TopKHeap = TopKHeap(worker.capacity)
    for task in finder.candidates(worker):
        if arrangement.is_task_complete(task.task_id):
            continue
        heap.push(instance.acc_star(worker, task), task)
    assigned: List[int] = []
    for _, task in heap.pop_all():
        arrangement.assign(worker, task)
        assigned.append(task.task_id)
    return assigned


def legacy_aam_observe(
    instance: LTCInstance,
    arrangement: Arrangement,
    finder: LegacyCandidateFinder,
    worker: Worker,
) -> List[int]:
    """One pre-engine AAM arrival (including the O(T) remaining scan)."""
    delta = arrangement.delta
    remaining = [
        arrangement.remaining_of(task.task_id)
        for task in instance.tasks
        if not arrangement.is_task_complete(task.task_id)
    ]
    if not remaining:
        return []
    avg = sum(remaining) / instance.capacity
    max_remain = max(remaining)
    use_lgf = avg >= max_remain

    heap: TopKHeap = TopKHeap(worker.capacity)
    for task in finder.candidates(worker):
        if arrangement.is_task_complete(task.task_id):
            continue
        need = delta - arrangement.accumulated_of(task.task_id)
        if use_lgf:
            score = min(instance.acc_star(worker, task), need)
        else:
            score = need
        heap.push(score, task)
    assigned: List[int] = []
    for _, task in heap.pop_all():
        arrangement.assign(worker, task)
        assigned.append(task.task_id)
    return assigned


def _legacy_online_arrangement(instance: LTCInstance, observe) -> Arrangement:
    arrangement = instance.new_arrangement()
    finder = LegacyCandidateFinder(instance)
    for worker in instance.workers:
        if arrangement.is_complete():
            break
        observe(instance, arrangement, finder, worker)
    return arrangement


def legacy_laf_arrangement(instance: LTCInstance) -> Arrangement:
    """The full pre-engine LAF run (stop at completion, like ``solve``)."""
    return _legacy_online_arrangement(instance, legacy_laf_observe)


def legacy_aam_arrangement(instance: LTCInstance) -> Arrangement:
    """The full pre-engine AAM run (stop at completion, like ``solve``)."""
    return _legacy_online_arrangement(instance, legacy_aam_observe)
