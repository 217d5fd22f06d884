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

LAF decides in :meth:`LAFSolver.select` and commits in
:meth:`LAFSolver.observe`; mid-stream tasks and expiry ride the shared
:class:`~repro.algorithms.base.OnlineSolver` state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.algorithms.base import OnlineSolver, Selection
from repro.core.arrangement import Assignment
from repro.core.instance import LTCInstance
from repro.core.worker import Worker


class LAFSolver(OnlineSolver):
    """Largest Acc First online solver (paper Algorithm 2)."""

    name = "LAF"

    def __init__(self) -> None:
        super().__init__()
        self._workers_with_assignments = 0

    def start(self, instance: LTCInstance) -> None:
        super().start(instance)
        self._workers_with_assignments = 0

    def select(self, worker: Worker) -> Selection:
        """The K largest-``Acc*`` uncompleted tasks for ``worker``."""
        return Selection(
            self._engine.topk_acc_star(worker, worker.capacity)
        )

    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Assign the K largest-``Acc*`` uncompleted tasks to ``worker``."""
        arrangement = self._arrangement
        if arrangement is None:
            raise RuntimeError("start() must be called before observe()")
        if selection is None:
            selection = self.select(worker)
        candidates = self._candidates
        assignments: List[Assignment] = []
        for task, acc in selection.picks:
            assignments.append(arrangement.assign(worker, task, acc))
            if arrangement.is_task_complete(task.task_id):
                candidates.retire_tasks((task.task_id,))
        if assignments:
            self._workers_with_assignments += 1
        return assignments

    def diagnostics(self) -> Dict[str, float]:
        return {"workers_with_assignments": float(self._workers_with_assignments)}
