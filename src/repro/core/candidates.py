"""Candidate (assignable) tasks for a worker.

The paper's bound analysis assumes every *assigned* pair has a predicted
accuracy of at least the spam threshold (``Acc(w, t) >= 0.66``), which makes
``Acc*`` fall in ``[0.1, 1]`` (Theorem 2).  Under the default sigmoid
accuracy function this is equivalent to a distance cut-off around ``d_max``,
which is also how the evaluation section talks about "nearby" tasks for the
``Base-off`` and ``Random`` baselines.

The :class:`CandidateFinder` centralises this eligibility rule.  It is a
thin facade over the struct-of-arrays
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
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox


def sigmoid_eligibility_radius(
    historical_accuracy: float, d_max: float, min_accuracy: float
) -> float:
    """Largest distance at which the sigmoid accuracy stays above a threshold.

    Solves ``p / (1 + exp(d - d_max)) >= min_accuracy`` for ``d``.  Returns a
    negative number when the worker can never reach the threshold (i.e. no
    task is eligible) and ``math.inf`` when every distance qualifies
    (``min_accuracy <= 0``); spatial indexes clamp the infinite case to
    their extent.
    """
    if min_accuracy <= 0:
        return math.inf
    ratio = historical_accuracy / min_accuracy - 1.0
    if ratio <= 0:
        return -1.0
    return d_max + math.log(ratio)


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
        The LTC instance whose tasks are indexed.
    min_accuracy:
        Minimum predicted accuracy for a pair to be assignable.  Defaults to
        the instance's ``min_assignable_accuracy``.
    use_spatial_index:
        Build the CSR grid when the accuracy model is the sigmoid model.
        Disable to force the exhaustive scan (useful in tests).
    """

    def __init__(
        self,
        instance: LTCInstance,
        min_accuracy: Optional[float] = None,
        use_spatial_index: bool = True,
    ) -> None:
        from repro.core.candidate_engine import CandidateEngine

        self._model: AccuracyModel = instance.accuracy_model
        self._engine = CandidateEngine(
            instance,
            min_accuracy=min_accuracy,
            use_spatial_index=use_spatial_index,
        )

    @property
    def min_accuracy(self) -> float:
        """The eligibility threshold on predicted accuracy."""
        return self._engine.min_accuracy

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

    def retire_tasks(self, task_ids: Iterable[int]) -> None:
        """Tombstone completed or expired tasks.

        Retired tasks vanish from every subsequent query — candidate
        lists, ``eligible_pairs`` streams, ``topk`` selection,
        ``has_candidates`` — without any snapshot rebuild.  This replaces
        the per-solver completed-mask plumbing: a solver retires a task
        the moment its arrangement completes it, and every later query is
        automatically restricted to the open task set.  Retiring an
        already-retired task is a no-op; unknown ids raise ``KeyError``.
        """
        self._engine.retire_tasks(task_ids)

    def is_eligible(self, worker: Worker, task: Task) -> bool:
        """Whether ``worker`` may be assigned ``task``."""
        return self._model.accuracy(worker, task) >= self.min_accuracy - 1e-12

    def iter_candidates(
        self, worker: Worker, allowed_ids: Optional[AbstractSet[int]] = None
    ) -> Iterator[Task]:
        """Yield the worker's assignable tasks in ascending-id order.

        ``allowed_ids`` optionally restricts the yield to a task-id subset
        (e.g. the uncompleted tasks of a batch) so callers pay nothing for
        tasks they would filter out anyway.

        The two "no restriction set" spellings mean opposite things and are
        deliberately *not* interchangeable: ``allowed_ids=None`` means "no
        restriction — every eligible task qualifies", while an **empty set
        means "nothing is allowed" and yields no tasks at all** (the natural
        reading for a batch whose uncompleted-task set has drained).  Only
        ``None`` is the don't-care value; do not pass an empty set to mean
        "unrestricted".
        """
        if allowed_ids is not None and not allowed_ids:
            # Explicit empty restriction: nothing can qualify.
            return
        yield from self._engine.eligible_tasks(worker, allowed_ids)

    def eligible_pairs(
        self,
        workers: Iterable[Worker],
        allowed_ids: Optional[AbstractSet[int]] = None,
    ) -> Iterator[Tuple[Worker, Task]]:
        """Bulk-iterate every assignable ``(worker, task)`` pair.

        Pairs stream grouped by worker (in the given worker order) with
        tasks ascending by id inside each group — exactly the stable arc
        order the MCF-LTC reduction appends to the kernel arena.  The
        restriction set is converted to a position mask once for the whole
        batch.

        ``allowed_ids`` follows :meth:`iter_candidates` semantics:
        ``None`` leaves the task set unrestricted, while an empty set means
        "nothing is allowed" and yields no pairs for any worker.
        """
        return self._engine.eligible_pairs(workers, allowed_ids)

    def candidates(self, worker: Worker) -> List[Task]:
        """All tasks the worker may be assigned, in ascending task-id order."""
        return self._engine.eligible_tasks(worker)

    def has_candidates(self, worker: Worker) -> bool:
        """Whether at least one task is assignable to the worker.

        Short-circuits (scalar pass) or answers in one array pass (vector
        pass) without building the candidate list — the cheap
        eligibility test for hot paths like the service layer's routing
        decision.
        """
        return self._engine.has_candidates(worker)

    def candidate_count_per_task(self) -> Dict[int, int]:
        """For every task, the number of workers eligible to perform it.

        Used by the ``Base-off`` baseline, which prioritises tasks with few
        remaining nearby workers, and by feasibility diagnostics.  Counts
        come from the unordered per-worker pool — no candidate list is
        materialised or sorted per worker.
        """
        return self._engine.candidate_counts()
