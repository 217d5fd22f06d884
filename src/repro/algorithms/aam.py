"""Average And Max (AAM) — Algorithm 3.

AAM is the paper's hybrid online greedy with a 7.738 competitive ratio.  For
each arriving worker it compares two quantities over the uncompleted tasks:

* ``avg`` — the remaining ``Acc*`` work divided by the capacity ``K``
  (a proxy for the *average* number of extra workers needed), and
* ``maxRemain`` — the largest remaining ``Acc*`` of any single task
  (a proxy for the *bottleneck* task).

While ``avg >= maxRemain`` the sheer number of tasks is the bottleneck and
AAM uses the **Largest Gain First (LGF)** strategy, scoring a candidate task
by ``min(Acc*(w, t), delta - S[t])`` so that highly accurate workers are not
wasted on tasks that only need a small top-up.  Once ``avg < maxRemain`` the
hardest tasks dominate the completion time and AAM switches to **Largest
Remaining First (LRF)**, scoring tasks by ``delta - S[t]``.

Both quantities are maintained *incrementally* as assignments land — a
compensated running sum plus a lazy-deletion max-heap of per-task needs —
instead of rebuilding the remaining list over all tasks on every arrival
(the pre-engine O(W*T) scan).  Completed tasks are excluded by retiring
them through the :class:`~repro.core.candidates.CandidateFinder` facade
(the engine's tombstone mask).

AAM extends the shared :class:`~repro.algorithms.base.OnlineSolver`
state: :meth:`AAMSolver.start`, :meth:`AAMSolver.add_tasks` and
:meth:`AAMSolver.expire_tasks` fold the need statistics in and out as
tasks arrive mid-stream or expire.

``maxRemain`` is exact (same float set as the naive scan).  The running
sum can differ from the naive left-to-right sum by accumulated rounding
ulps, so whenever ``avg`` lands inside a small band around ``maxRemain``
— the only place an ulp could flip the LGF/LRF switch — the legacy sum
is recomputed verbatim and decides.  Arrangements therefore stay
byte-identical to the pre-engine loop, knife-edges included.

Candidate scoring itself runs on the candidate engine's ``topk`` path,
whose picks carry the accuracy they were ranked by (LRF ranks by need
alone, so only its picks are evaluated); the arrangement records it
without evaluating the model again.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import OnlineSolver, Selection
from repro.core.arrangement import Assignment
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker


#: The engine's top-k mode for each greedy rule.
_TOPK_MODE = {"lgf": "gain", "lrf": "need"}


class AAMSolver(OnlineSolver):
    """Average And Max online solver (paper Algorithm 3)."""

    name = "AAM"

    def __init__(self) -> None:
        super().__init__()
        #: Remaining need ``delta - S[t]`` per engine position.
        self._need: List[float] = []
        self._uncompleted_count = 0
        self._remaining_sum = 0.0
        self._sum_compensation = 0.0
        self._abs_update_total = 0.0
        self._need_heap: List[Tuple[float, int]] = []
        self._lgf_rounds = 0
        self._lrf_rounds = 0

    # --------------------------------------------------------------- protocol

    def start(self, instance: LTCInstance) -> None:
        super().start(instance)
        delta = self._arrangement.delta
        self._need = [delta] * self._engine.num_tasks
        self._uncompleted_count = instance.num_tasks
        # Seed the running sum with the same left-to-right addition order
        # the naive scan uses, so the two start bit-identical.
        total = 0.0
        for _ in range(instance.num_tasks):
            total += delta
        self._remaining_sum = total
        self._sum_compensation = 0.0
        self._abs_update_total = total
        # Lazy-deletion max-heap of (-need, position); stale entries are
        # skipped at query time by comparing against the live need array.
        # (heapify is a no-op for this all-equal seeding but keeps the
        # invariant independent of how the seed values are chosen.)
        self._need_heap = [(-delta, position) for position in range(instance.num_tasks)]
        heapq.heapify(self._need_heap)
        self._lgf_rounds = 0
        self._lrf_rounds = 0

    # ------------------------------------------------- incremental remaining

    def _add_to_sum(self, value: float) -> None:
        """Kahan-compensated update of the running remaining-``Acc*`` sum.

        ``_abs_update_total`` accumulates the magnitude of everything ever
        folded in; both this sum's and the naive scan's rounding errors
        are bounded by small multiples of ``eps`` times that magnitude,
        which is what the knife-edge band in :meth:`observe` scales with.
        """
        self._abs_update_total += abs(value)
        adjusted = value - self._sum_compensation
        total = self._remaining_sum + adjusted
        self._sum_compensation = (total - self._remaining_sum) - adjusted
        self._remaining_sum = total

    def _note_assignment(self, task_id: int) -> None:
        """Fold one just-landed assignment into the incremental stats.

        Completion retires the task through the candidate facade — the
        engine's tombstone mask takes it out of every later query — and
        removes its need from the running sum; an incomplete assignment
        refreshes the need value and re-keys the lazy max-heap.
        """
        arrangement = self._arrangement
        position = self._engine.position_of[task_id]
        old_need = self._need[position]
        if arrangement.is_task_complete(task_id):
            self._candidates.retire_tasks((task_id,))
            self._uncompleted_count -= 1
            self._add_to_sum(-old_need)
        else:
            new_need = arrangement.delta - arrangement.accumulated_of(task_id)
            self._add_to_sum(new_need - old_need)
            self._need[position] = new_need
            heapq.heappush(self._need_heap, (-new_need, position))

    def _current_max_remaining(self) -> float:
        """Largest remaining need among uncompleted tasks (exact).

        Pops heap entries that are stale — their task retired (i.e.
        completed), or their recorded need no longer matches the live
        array (a newer entry for the same task sits deeper).  Amortised
        O(log) per assignment.
        """
        heap = self._need_heap
        alive, need = self._engine.alive, self._need
        while heap:
            negated, position = heap[0]
            if alive[position] and need[position] == -negated:
                return -negated
            heapq.heappop(heap)
        raise RuntimeError("no uncompleted task remains")  # pragma: no cover

    # ------------------------------------------------------- dynamic tasks

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Post tasks mid-stream and fold them into the running statistics.

        Each new task's full ``delta`` need joins the running remaining
        sum, the need max-heap and the uncompleted count, so the LGF/LRF
        switch sees the enlarged task set on the next arrival.
        """
        tasks = list(tasks)
        super().add_tasks(tasks)
        engine = self._engine
        delta = self._arrangement.delta
        self._need.extend([delta] * (engine.num_tasks - len(self._need)))
        for task in tasks:
            position = engine.position_of[task.task_id]
            self._add_to_sum(delta)
            heapq.heappush(self._need_heap, (-delta, position))
        self._uncompleted_count += len(tasks)

    def expire_tasks(self, task_ids: Sequence[int]) -> List[int]:
        """Expire tasks and unwind them from the running statistics.

        Each expired task's remaining need leaves the running sum and the
        uncompleted count — the same bookkeeping a completion performs, so
        ``avg``/``maxRemain`` keep describing exactly the live open tasks.
        Stale heap entries for the expired positions are skipped lazily by
        the ``alive`` check in :meth:`_current_max_remaining`.
        """
        expired = super().expire_tasks(task_ids)
        position_of = self._engine.position_of
        for task_id in expired:
            self._add_to_sum(-self._need[position_of[task_id]])
        self._uncompleted_count -= len(expired)
        return expired

    # ---------------------------------------------------------------- observe

    def _rule(self) -> str:
        """The greedy rule for the next worker: ``"lgf"``, ``"lrf"``, or
        ``""`` when no task is open.  Reads the statistics, changes none."""
        if self._uncompleted_count == 0:
            return ""
        arrangement = self._arrangement
        instance = self._instance
        # "Average" work left per capacity unit vs. the single worst task.
        avg = self._remaining_sum / instance.capacity
        max_remain = self._current_max_remaining()
        # Knife-edge guard: the incremental sum can differ from the naive
        # left-to-right sum by accumulated rounding, which is exactly
        # enough to flip the strategy switch when avg and maxRemain
        # collide (e.g. |T| == K at the first arrival).  Inside the band
        # the legacy sum is recomputed verbatim — same iteration order,
        # same association — so the decision is bit-for-bit the
        # pre-engine one.  Both sums' errors are bounded by small
        # multiples of eps times the total folded-in magnitude (the naive
        # scan's additionally by eps times the uncompleted-task count), so
        # the band scales with ``_abs_update_total`` (divided by K, like
        # the averages) and with the live task count; outside it the
        # branch is free.
        band = max(1e-9, 1e-15 * self._uncompleted_count) * max(
            1.0, abs(avg), self._abs_update_total / instance.capacity
        )
        if abs(avg - max_remain) <= band:
            # Expired (abandoned) tasks are excluded exactly like completed
            # ones: the incremental sum dropped their need at expiry.
            avg = sum(
                arrangement.remaining_of(task.task_id)
                for task in instance.tasks
                if not arrangement.is_task_complete(task.task_id)
                and not arrangement.is_task_abandoned(task.task_id)
            ) / instance.capacity
        return "lgf" if avg >= max_remain else "lrf"

    def select(self, worker: Worker) -> Selection:
        """The LGF/LRF hybrid's picks for ``worker`` (none when no task is open)."""
        rule = self._rule()
        if not rule:
            return Selection([])
        picks = self._engine.topk(
            worker, worker.capacity, _TOPK_MODE[rule], self._need
        )
        return Selection(picks, rule)

    def observe(
        self, worker: Worker, selection: Optional[Selection] = None
    ) -> List[Assignment]:
        """Assign up to K tasks to ``worker`` using the LGF/LRF hybrid rule."""
        arrangement = self._arrangement
        if arrangement is None:
            raise RuntimeError("start() must be called before observe()")
        if selection is None:
            selection = self.select(worker)
        rule = selection.rule
        if rule == "lgf":
            self._lgf_rounds += 1
        elif rule == "lrf":
            self._lrf_rounds += 1
        assignments: List[Assignment] = []
        for task, acc in selection.picks:
            assignments.append(arrangement.assign(worker, task, acc))
            self._note_assignment(task.task_id)
        return assignments

    def diagnostics(self) -> Dict[str, float]:
        return {
            "lgf_rounds": float(self._lgf_rounds),
            "lrf_rounds": float(self._lrf_rounds),
        }


class LGFOnlySolver(AAMSolver):
    """Ablation variant of AAM that always uses the Largest Gain First rule.

    Not part of the paper's algorithm set; used by the ablation benchmark to
    quantify how much the LGF/LRF switch contributes.
    """

    name = "LGF-only"

    def _rule(self) -> str:
        return "lgf"


class LRFOnlySolver(AAMSolver):
    """Ablation variant of AAM that always uses the Largest Remaining First rule."""

    name = "LRF-only"

    def _rule(self) -> str:
        return "lrf"
