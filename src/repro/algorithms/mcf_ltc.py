"""MCF-LTC — the offline minimum-cost-flow algorithm (Algorithm 1).

The offline LTC problem is NP-hard, so the paper processes workers in
batches sized by the latency lower bound of Theorem 2 and, within each
batch, computes a locally optimal arrangement by reduction to minimum-cost
flow:

* source ``st`` -> every batch worker ``w`` with capacity ``K`` and cost 0;
* ``w`` -> every (eligible) task ``t`` with capacity 1 and cost
  ``-Acc*(w, t)``;
* ``t`` -> sink ``ed`` with capacity ``ceil(delta - S[t])`` (how many more
  useful answers the task can absorb) and cost 0.

The min-cost max-flow of this network maximises the total ``Acc*`` the batch
contributes.  Workers left with spare capacity afterwards are topped up
greedily with their best uncompleted tasks (lines 8-15 of the pseudo-code).
Batches continue until every task reaches ``delta`` or the workers run out.
The paper proves a 7.5 approximation ratio for ``epsilon <= e^-1.5``.

Implementation notes
--------------------
* Each batch is built from **one candidate-engine pass over the whole
  batch** (:meth:`~repro.core.candidate_engine.engine.CandidateEngine.batch_pairs`):
  flat arrays of the eligible pairs, workers in arrival order and tasks
  ascending by id, each with its scalar accuracy, bit-identical to the
  accuracy model's.  Their costs ``-Acc*`` are computed once, over the
  array, and everything in the batch is driven from those arrays: the
  flow network (a :class:`~repro.flow.simplex.BatchNetwork`, integer node
  ids with source 0, sink 1, then task nodes, then the batch's worker
  nodes), applying the flow, and the greedy fill's ranking.  Every
  assignment hands ``acc`` to
  :meth:`~repro.core.arrangement.Arrangement.assign`.
* Each batch goes through :func:`solve_mcf`, which runs the primal
  network simplex of :mod:`repro.flow.simplex` first.  The batch network
  is layered (source -> workers -> tasks -> sink, unit worker -> task
  arcs), so the simplex starts from a greedy flow on a strongly feasible
  tree of real arcs.  An :class:`~repro.flow.kernel.ArcArena` is built
  only for the SSPA fallback, which takes its initial Johnson potentials
  from :func:`~repro.flow.kernel.dag_potentials` in one O(E) pass over
  the zero-flow DAG.
* Determinism among cost-equal optimal flows comes from the kernel SSPA's
  stable tie-breaking (arc-insertion order; workers are inserted in
  arrival order, tasks ascending by id), not from perturbing the costs.
  The simplex may pick a different one of several cost-equal optima, so
  its flow is applied only when the uniqueness certificate shows the
  optimum is unique (no residual cycle of exactly zero cost, decided in
  exact integer arithmetic); otherwise the batch is re-solved by the
  SSPA and counted in ``extra["flow_fallbacks"]``.  There is no second
  path: every batch tries the simplex first.  Only exact ties fall back,
  such as the repeated accuracies of the paper's Table I; on every
  batch measured, the float SSPA's flow equals the exact unique optimum
  (``docs/flow_kernel.md``, "Exact costs"), so the arrangement is the
  one the SSPA alone would give.
* The first batch uses ``floor(1.5 m)`` workers and subsequent batches
  ``floor(m)`` workers with ``m = |T| * ceil(delta) / K``, exactly as in the
  pseudo-code.
"""


from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.algorithms.base import OfflineSolver, SolveResult
from repro.core.accuracy import acc_star
from repro.core.arrangement import Arrangement
from repro.core.candidate_engine.engine import BatchPairs
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.worker import Worker
from repro.flow import kernel
from repro.flow.kernel import dag_potentials
from repro.flow.simplex import BatchNetwork, network_simplex

_SOURCE = 0
_SINK = 1


@dataclass(frozen=True, slots=True)
class BatchFlow:
    """One batch's flow solve, as :func:`solve_mcf` reports it."""

    #: Units routed from the source to the sink.
    flow_value: int
    #: Simplex pivots, or SSPA augmentations when the SSPA solved it.
    augmentations: int
    #: Whether the uniqueness certificate failed (an exact tie) and the
    #: SSPA re-solved.
    fallback: bool
    #: The pairs that carry a unit, ascending.
    routed: List[int]


def solve_mcf(network: BatchNetwork) -> BatchFlow:
    """Min-cost max-flow of one batch network.

    The network simplex runs first, and its flow is kept when its optimum
    is unique (certified in exact integers); otherwise, on an exact tie,
    the SSPA re-solves the network's arena from zero flow.  The SSPA runs
    :func:`~repro.flow.kernel.dag_potentials`, then
    :func:`~repro.flow.kernel.solve_mcf`, and its tie-breaking picks the
    flow among the cost-equal optima.
    """
    result = network_simplex(network)
    if result is None:
        arena, order, pair_arcs = network.to_arena()
        potentials = dag_potentials(arena, _SOURCE, order)
        sspa = kernel.solve_mcf(arena, _SOURCE, _SINK, potentials=potentials)
        flow = arena.flow
        routed = [j for j, arc in enumerate(pair_arcs) if flow[arc]]
        return BatchFlow(sspa.flow_value, sspa.augmentations, True, routed)
    return BatchFlow(result.flow_value, result.augmentations, False, result.routed)


_NO_FLOW = BatchFlow(0, 0, False, [])


class MCFLTCSolver(OfflineSolver):
    """Minimum-cost-flow batch solver for offline LTC (paper Algorithm 1).

    Parameters
    ----------
    batch_multiplier:
        Scales the batch size relative to the paper's choice (1.0 keeps the
        pseudo-code sizes).  Exposed for the batch-size ablation study
        discussed in Sec. V-B1 of the paper.
    """

    name = "MCF-LTC"

    def __init__(
        self,
        batch_multiplier: float = 1.0,
    ) -> None:
        if batch_multiplier <= 0:
            raise ValueError("batch_multiplier must be positive")
        self.batch_multiplier = batch_multiplier

    # ------------------------------------------------------------------ solve

    def solve(self, instance: LTCInstance) -> SolveResult:
        arrangement = instance.new_arrangement()
        candidates = CandidateFinder(instance)
        engine = candidates.engine
        delta = instance.delta
        capacity = instance.capacity

        base_batch = instance.num_tasks * math.ceil(delta) / capacity
        base_batch *= self.batch_multiplier
        first_batch_size = max(1, math.floor(1.5 * base_batch))
        batch_size = max(1, math.floor(base_batch))

        # Task i of the instance is flow node 2 + i; map engine positions
        # to that index.
        task_ids = [task.task_id for task in instance.tasks]
        task_index = np.empty(engine.num_tasks, dtype=np.int64)
        task_index[engine.instance_positions] = np.arange(engine.num_tasks)

        workers = instance.workers
        position = 0
        batches = 0
        total_flow = 0
        fallbacks = 0
        while position < len(workers) and not arrangement.is_complete():
            size = first_batch_size if batches == 0 else batch_size
            batch = workers[position:position + size]
            position += len(batch)
            batches += 1
            # One engine pass gives the batch's pairs; completed tasks were
            # retired as their completions landed, so they are the open set.
            pairs = engine.batch_pairs(batch)
            costs = -acc_star(pairs.acc)  # elementwise, bit for bit the scalar's
            flow = self._solve_batch(
                arrangement, candidates, batch, pairs, costs, task_ids, task_index
            )
            total_flow += flow.flow_value
            fallbacks += flow.fallback
            self._greedy_fill(arrangement, candidates, batch, pairs, costs,
                              flow.routed)

        return SolveResult(
            algorithm=self.name,
            arrangement=arrangement,
            completed=arrangement.is_complete(),
            max_latency=arrangement.max_latency,
            workers_observed=position,
            extra={
                "batches": float(batches),
                "flow_units": float(total_flow),
                "flow_fallbacks": float(fallbacks),
                "batch_size": float(batch_size),
            },
        )

    # ------------------------------------------------------------ batch steps

    def _solve_batch(
        self,
        arrangement: Arrangement,
        candidates: CandidateFinder,
        batch: Sequence[Worker],
        pairs: BatchPairs,
        costs: np.ndarray,
        task_ids: Sequence[int],
        task_index: np.ndarray,
    ) -> BatchFlow:
        """Run the MCF reduction for one batch and apply the resulting flow.

        The network (Fig. 2a) has a node for every task, with a sink arc
        of capacity ``ceil(delta - S[t])``, how many more useful answers
        the task can absorb, and one for every batch worker with a pair.
        """
        if not len(costs):
            return _NO_FLOW
        delta = arrangement.delta
        accumulated_of = arrangement.accumulated_of
        task_cap = [
            max(0, math.ceil(delta - accumulated_of(task_id) - 1e-12))
            for task_id in task_ids
        ]
        workers, pair_worker = np.unique(pairs.workers, return_inverse=True)
        network = BatchNetwork(
            task_cap,
            [batch[k].capacity for k in workers.tolist()],
            pair_worker,
            task_index[pairs.positions],
            costs,
        )
        result = solve_mcf(network)

        # Apply every unit of flow on a worker->task pair as an assignment,
        # retiring each task the moment its quality threshold is reached.
        tasks = candidates.engine.tasks
        index, positions, acc = pairs
        for j in result.routed:
            task = tasks[positions[j]]
            arrangement.assign(batch[index[j]], task, float(acc[j]))
            if arrangement.is_task_complete(task.task_id):
                candidates.retire_tasks((task.task_id,))
        return result

    def _greedy_fill(
        self,
        arrangement: Arrangement,
        candidates: CandidateFinder,
        batch: Sequence[Worker],
        pairs: BatchPairs,
        costs: np.ndarray,
        routed: Sequence[int],
    ) -> None:
        """Lines 8-15: top up workers that still have spare capacity.

        Each such worker receives its best (largest ``Acc*``; ties to the
        earlier candidate, the lower task id under the sigmoid model)
        uncompleted tasks it does not already perform, up to its
        remaining capacity.  The batch's pairs are ranked once;
        the tasks completed since the batch pass are retired from the
        candidate snapshot, so the fill skips them, and tasks completing
        during the fill are retired in turn.
        """
        engine = candidates.engine
        alive, tasks = engine.alive, engine.tasks
        taken = np.zeros(len(costs), dtype=bool)
        taken[routed] = True
        # Per worker, cheapest pair first; lexsort is stable, so ties keep
        # the pair order.
        order = np.lexsort((costs, pairs.workers))
        bounds = np.searchsorted(pairs.workers[order], np.arange(len(batch) + 1)).tolist()
        order = order.tolist()
        taken = taken.tolist()
        positions = pairs.positions.tolist()
        acc = pairs.acc.tolist()
        for k, worker in enumerate(batch):
            if arrangement.is_complete():
                return
            spare = worker.capacity - arrangement.load_of(worker.index)
            if spare <= 0:
                continue
            for j in order[bounds[k]:bounds[k + 1]]:
                if taken[j] or not alive[positions[j]]:
                    continue
                task = tasks[positions[j]]
                arrangement.assign(worker, task, acc[j])
                if arrangement.is_task_complete(task.task_id):
                    candidates.retire_tasks((task.task_id,))
                spare -= 1
                if not spare:
                    break
