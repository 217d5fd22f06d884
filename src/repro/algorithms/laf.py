"""Largest Acc First (LAF) — Algorithm 2.

LAF is the simplest online greedy: when a worker arrives, assign them the
(at most) K uncompleted eligible tasks with the largest ``Acc*``.  The paper
proves a competitive ratio of 7.967 under the assumption
``epsilon <= e^-1.5`` (delta >= 3).

Per arrival the selection runs on the candidate engine's bulk
``topk_acc_star`` path: one gather (every task of a small snapshot, the
CSR cells plus the spill of a large one) and one accuracy evaluation per
candidate inside the eligibility radius (batched once the gathered block
is large).  Each pick comes with the accuracy it was ranked by, and
:meth:`~repro.core.arrangement.Arrangement.assign` records that value
instead of evaluating the model again.  Completed tasks are excluded by
retiring them through the :class:`~repro.core.candidates.CandidateFinder`
facade the moment they complete — the engine's tombstone mask filters
them out of every later query.  The arrangement is byte-identical to the
pre-engine object-level loop (pinned by the differential suite against
:func:`repro.core.candidates_legacy.legacy_laf_arrangement`).

LAF is **dynamic**: tasks may keep being posted after serving starts
(:meth:`LAFSolver.add_tasks`), landing in the engine's spill/append path
instead of forcing a snapshot rebuild.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.algorithms.base import OnlineSolver, Selection
from repro.core.arrangement import Arrangement, Assignment
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker


class LAFSolver(OnlineSolver):
    """Largest Acc First online solver (paper Algorithm 2)."""

    name = "LAF"
    supports_dynamic_tasks = True
    supports_task_expiry = True

    def __init__(self) -> None:
        self._instance: Optional[LTCInstance] = None
        self._arrangement: Optional[Arrangement] = None
        self._candidates: Optional[CandidateFinder] = None
        self._workers_with_assignments = 0

    # --------------------------------------------------------------- protocol

    def start(self, instance: LTCInstance) -> None:
        self._instance = instance
        self._arrangement = instance.new_arrangement()
        self._candidates = CandidateFinder(instance)
        self._workers_with_assignments = 0

    @property
    def arrangement(self) -> Arrangement:
        if self._arrangement is None:
            raise RuntimeError("start() must be called before reading the arrangement")
        return self._arrangement

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Post additional tasks mid-stream (the dynamic-arrival path).

        Extends the instance, the arrangement (zero accumulated quality)
        and the candidate snapshot in place — no rebuild; the engine
        appends the tasks at fresh stable positions.  Serving continues
        with the enlarged open set on the very next arrival.
        """
        if self._instance is None or self._arrangement is None or self._candidates is None:
            raise RuntimeError("start() must be called before add_tasks()")
        tasks = list(tasks)
        self._instance.add_tasks(tasks)
        self._arrangement.add_tasks(tasks)
        self._candidates.add_tasks(tasks)

    def expire_tasks(self, task_ids: Sequence[int]) -> List[int]:
        """Abandon overdue tasks (the TTL sweep path); return the expired ids.

        Expired tasks are abandoned in the arrangement (they stop blocking
        completion, keep their partial quality, and refuse further
        assignments) and tombstoned in the candidate snapshot (they vanish
        from every later ``topk`` query without a rebuild).  Completed and
        already-expired ids are skipped; unknown ids raise ``KeyError``.
        """
        if self._instance is None or self._arrangement is None or self._candidates is None:
            raise RuntimeError("start() must be called before expire_tasks()")
        arrangement = self._arrangement
        position_of = self._candidates.engine.position_of
        expired: List[int] = []
        for task_id in task_ids:
            if task_id not in position_of:
                raise KeyError(f"task id {task_id} is not in the snapshot")
            if arrangement.is_task_abandoned(task_id):
                continue
            if arrangement.is_task_complete(task_id):
                continue
            expired.append(task_id)
        if expired:
            arrangement.abandon_tasks(expired)
            self._candidates.retire_tasks(expired, expired=True)
        return expired

    def select(self, worker: Worker) -> Optional[Selection]:
        """The K largest-``Acc*`` uncompleted tasks, or ``None`` (see base)."""
        if self._candidates is None:
            raise RuntimeError("start() must be called before select()")
        picks = self._candidates.engine.probe(worker, worker.capacity)
        return None if picks is None else Selection(picks)

    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Assign the K largest-``Acc*`` uncompleted tasks to ``worker``."""
        if self._instance is None or self._arrangement is None or self._candidates is None:
            raise RuntimeError("start() must be called before observe()")
        arrangement = self._arrangement
        candidates = self._candidates
        if selection is None:
            picks = candidates.engine.topk_acc_star(worker, worker.capacity)
        else:
            picks = selection.picks

        assignments: List[Assignment] = []
        for task, acc in picks:
            assignments.append(arrangement.assign(worker, task, acc))
            if arrangement.is_task_complete(task.task_id):
                candidates.retire_tasks((task.task_id,))
        if assignments:
            self._workers_with_assignments += 1
        return assignments

    def diagnostics(self) -> Dict[str, float]:
        return {"workers_with_assignments": float(self._workers_with_assignments)}
