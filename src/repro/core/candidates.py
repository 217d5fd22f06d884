"""Candidate (assignable) tasks for a worker.

The paper's bound analysis assumes every *assigned* pair has a predicted
accuracy of at least the spam threshold (``Acc(w, t) >= 0.66``), which makes
``Acc*`` fall in ``[0.1, 1]`` (Theorem 2).  Under the default sigmoid
accuracy function this is equivalent to a distance cut-off around ``d_max``,
which is also how the evaluation section talks about "nearby" tasks for the
``Base-off`` and ``Random`` baselines.

The :class:`CandidateFinder` centralises this eligibility rule: it takes
the instance alone, so every solver applies the same threshold
(``LTCInstance.min_assignable_accuracy``) the same way.  It is a thin
facade over the struct-of-arrays
:class:`~repro.core.candidate_engine.engine.CandidateEngine`: tasks are
snapshotted into flat coordinate arrays (CSR-grid-packed under the sigmoid
model); small queries run scalar loops and large ones one vectorized numpy
pass, with identical candidates in identical order either way (see
``docs/candidates.md``).  (The pre-engine object-level scan survives as
:class:`~repro.core.candidates_legacy.LegacyCandidateFinder`, the
differential-test oracle.)

The facade is **long-lived**: :meth:`CandidateFinder.add_tasks` appends
newly posted tasks and :meth:`CandidateFinder.retire_tasks` tombstones
completed or expired ones, so a finder serving a stream (a dispatcher
session, an online solver) is built once and mutated in place instead of
being re-snapshotted per change.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox


#: How far :func:`sigmoid_eligibility_radius` widens the solved radius so
#: that it is a superset of the exact eligibility test: 64 ulps of
#: ``p / min_accuracy`` inside the logarithm, and this relative slack on
#: the distance (see there).
RADIUS_SLACK = 1e-12


def sigmoid_eligibility_radius(
    historical_accuracy: float, d_max: float, min_accuracy: float
) -> float:
    """A distance beyond which the sigmoid accuracy stays below a threshold.

    Solves ``p / (1 + exp(d - d_max)) >= min_accuracy`` for ``d``, widened
    so that the radius gate never excludes a pair that the exact float
    test ``Acc(w, t) >= min_accuracy`` accepts: the test decides, and the
    radius only prefilters.  With ``q = p / min_accuracy``, a computed
    accuracy at or above the threshold implies
    ``exp(d - d_max) <= q - 1 + 6 ulps * q`` (one rounding in each of the
    division, ``exp``, the ``1 +`` and ``q``), which the 64 ulps of ``q``
    inside the logarithm cover; the rounding of the distance, the
    exponent and the logarithm, a few ulps of ``|d| + d_max``, is covered
    by :data:`RADIUS_SLACK` (``d_max`` is positive).  Returns a negative
    number when no distance can reach the threshold (for
    ``p == min_accuracy`` unless ``d_max`` exceeds about 32) and
    ``math.inf`` when every distance qualifies (``min_accuracy <= 0``);
    spatial indexes clamp the infinite case to their extent.
    """
    if min_accuracy <= 0:
        return math.inf
    bound = historical_accuracy / min_accuracy * (1.0 + 2.0 ** -47) - 1.0
    if bound <= 0:
        return -1.0
    radius = d_max + math.log(bound)
    # A radius below -1 stays negative: no distance qualifies by far.
    return radius + RADIUS_SLACK * (radius + d_max + 1.0)


def instance_reach_radius(instance: LTCInstance) -> Optional[float]:
    """Largest distance at which *any* worker could be eligible, or ``None``.

    Under :class:`~repro.core.accuracy.SigmoidDistanceAccuracy` this is the
    eligibility radius of a perfect worker (``p_w = 1``); it upper-bounds
    every real worker's radius.  Returns ``None`` when eligibility cannot be
    bounded geographically — a non-sigmoid accuracy model, or a threshold of
    zero (infinite radius).
    """
    model = instance.accuracy_model
    if not isinstance(model, SigmoidDistanceAccuracy):
        return None
    radius = sigmoid_eligibility_radius(
        1.0, model.d_max, instance.min_assignable_accuracy
    )
    if not math.isfinite(radius):
        return None
    return max(radius, 0.0)


def tasks_reach_bounds(
    instance: LTCInstance, tasks: Optional[Sequence[Task]] = None
) -> Optional[BoundingBox]:
    """Reach box of ``tasks`` (default: all of the instance's tasks).

    The bounding box of the task locations expanded by
    :func:`instance_reach_radius` — the region outside which no worker can
    be eligible for any of these tasks.  ``None`` when the radius is
    unbounded (see :func:`instance_reach_radius`).  Shard pinning
    (:class:`~repro.service.sharding.ShardPlan`) and the dispatcher's
    routing index both use this one definition.
    """
    radius = instance_reach_radius(instance)
    if radius is None:
        return None
    source = instance.tasks if tasks is None else tasks
    box = BoundingBox.from_points(task.location for task in source)
    return box.expanded(radius)


class CandidateFinder:
    """Answers "which tasks may this worker be assigned?".

    Parameters
    ----------
    instance:
        The LTC instance whose tasks are indexed.  A pair is assignable
        when its predicted accuracy reaches the instance's
        ``min_assignable_accuracy``.  Under the sigmoid model the engine
        runs in ``grid`` mode, under any other model in ``generic`` mode.
    """

    def __init__(self, instance: LTCInstance) -> None:
        from repro.core.candidate_engine import CandidateEngine

        self._engine = CandidateEngine(instance)

    @property
    def engine(self):
        """The underlying :class:`~repro.core.candidate_engine.engine.CandidateEngine`.

        Solvers that need the bulk operations (``topk``, positions) reach
        through this instead of re-snapshotting the instance.
        """
        return self._engine

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Append newly posted tasks to the live snapshot.

        New tasks take fresh engine positions (existing positions never
        move, so per-position solver state stays valid) and become
        immediately queryable; in grid mode they join the spill range
        until the engine's next threshold-triggered rebuild merges them
        into the CSR cells.  Raises ``ValueError`` on a task id already
        known to the snapshot, retired ones included.
        """
        self._engine.add_tasks(tasks)

    def retire_tasks(self, task_ids: Iterable[int], expired: bool = False) -> None:
        """Tombstone completed (or, with ``expired=True``, expired) tasks.

        Retired tasks vanish from every subsequent query — candidate
        lists, batch passes, ``topk`` selection — without
        any snapshot rebuild.  This replaces the per-solver completed-mask
        plumbing: a solver retires a task the moment its arrangement
        completes it, and every later query is automatically restricted
        to the open task set.  Completed tasks still count for routing
        (:meth:`~repro.core.candidate_engine.engine.CandidateEngine.reaches_completed`);
        expired ones do not.  Retiring an already-retired task is a no-op;
        an unknown id raises ``KeyError`` before anything is retired.
        """
        self._engine.retire_tasks(task_ids, expired)

    def iter_candidates(self, worker: Worker) -> Iterator[Tuple[Task, float]]:
        """Yield the worker's assignable tasks in ascending-id order.

        Each comes as ``(task, Acc(w, task))``, from a batch pass of one
        worker (:meth:`eligible_pairs`).  No program path calls this:
        MCF-LTC reads its batch's pairs as arrays.  It stays because the
        frozen end-to-end tracer names it as a trace point.
        """
        for _, task, acc in self._engine.eligible_pairs([worker]):
            yield task, acc

    def eligible_pairs(
        self, workers: Iterable[Worker]
    ) -> Iterator[Tuple[Worker, Task, float]]:
        """Bulk-iterate every assignable pair as ``(worker, task, acc)``.

        ``acc`` is the pair's scalar accuracy, bit-identical to the
        accuracy model's.  Pairs stream grouped by worker (in the given
        worker order) with tasks ascending by id inside each group, from
        one engine pass over the whole batch
        (:meth:`~repro.core.candidate_engine.engine.CandidateEngine.batch_pairs`,
        whose arrays MCF-LTC reads directly).
        """
        return self._engine.eligible_pairs(workers)

    def candidates(self, worker: Worker) -> List[Task]:
        """All tasks the worker may be assigned, in ascending task-id order."""
        return self._engine.eligible_tasks(worker)

    def has_candidates(self, worker: Worker) -> bool:
        """Whether at least one open task is assignable to the worker.

        No program path calls this: dispatcher routing asks the serving
        solver (:meth:`~repro.algorithms.base.OnlineSolver.select`).  It
        stays because the frozen end-to-end tracer names it as a trace
        point.
        """
        return bool(self._engine.eligible_positions(worker))

    def candidate_count_per_task(self) -> Dict[int, int]:
        """For every task, the number of workers eligible to perform it.

        Used by feasibility diagnostics (the data generators' tests).
        """
        return self._engine.candidate_counts()
