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
* The reduction runs directly on the flow kernel's
  :class:`~repro.flow.kernel.ArcArena`: integer node ids end to end
  (source 0, sink 1, then task nodes, then per-batch worker nodes), arc-id
  lookups instead of edge objects, and **one arena reused across batches**
  — each batch rolls the arena back to the persistent task->sink prefix
  with :meth:`~repro.flow.kernel.ArcArena.truncate` and refreshes the
  task->sink capacities from the arrangement's accumulated quality, instead
  of rebuilding the network from scratch.
* Each batch goes through :func:`solve_mcf`, which runs the primal
  network simplex of :mod:`repro.flow.simplex` first.  The batch network
  is layered (source -> workers -> tasks -> sink, unit worker -> task
  arcs), so the simplex starts from a greedy flow on a strongly feasible
  tree of real arcs, and the SSPA fallback takes its initial Johnson
  potentials from :func:`~repro.flow.kernel.dag_potentials` in one O(E)
  pass over the zero-flow DAG.
* Each candidate's accuracy is evaluated once, in the candidate engine's
  scan: ``eligible_pairs`` and ``iter_candidates`` yield it with the pair,
  bit-identical to the accuracy model's.  Batch arcs cost
  ``-acc_star(acc)``, the greedy fill ranks by ``acc_star(acc)``, and
  both hand ``acc`` to :meth:`~repro.core.arrangement.Arrangement.assign`.
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
from typing import Dict, List, Sequence, Tuple

from repro.algorithms.base import OfflineSolver, SolveResult
from repro.core.accuracy import acc_star
from repro.core.arrangement import Arrangement
from repro.core.candidates import CandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.flow import kernel
from repro.flow.kernel import ArcArena, dag_potentials
from repro.flow.simplex import network_simplex
from repro.structures.topk import TopKHeap

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


def solve_mcf(arena: ArcArena, topo_order: Sequence[int]) -> BatchFlow:
    """Min-cost max-flow of one batch network, left in ``arena.flow``.

    The network simplex runs first, and its flow is kept when its optimum
    is unique (certified in exact integers); otherwise, on an exact tie,
    the SSPA re-solves from zero flow.  The SSPA runs
    :func:`~repro.flow.kernel.dag_potentials`, then
    :func:`~repro.flow.kernel.solve_mcf`, and its tie-breaking picks the
    flow among the cost-equal optima.
    """
    result = network_simplex(arena, _SOURCE, _SINK)
    if result is None:
        potentials = dag_potentials(arena, _SOURCE, topo_order)
        sspa = kernel.solve_mcf(arena, _SOURCE, _SINK, potentials=potentials)
        return BatchFlow(sspa.flow_value, sspa.augmentations, True)
    return BatchFlow(result.flow_value, result.augmentations, False)


_NO_FLOW = BatchFlow(0, 0, False)


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
        delta = instance.delta
        capacity = instance.capacity

        base_batch = instance.num_tasks * math.ceil(delta) / capacity
        base_batch *= self.batch_multiplier
        first_batch_size = max(1, math.floor(1.5 * base_batch))
        batch_size = max(1, math.floor(base_batch))

        # Persistent arena prefix, built once: source, sink, one node and
        # one sink arc per task.  Batches roll back to this watermark.
        arena = ArcArena()
        arena.add_nodes(2)  # _SOURCE, _SINK
        task_nodes: Dict[int, int] = {}
        task_sink_arcs: List[Tuple[int, int]] = []  # (task_id, arc_id)
        # Capacities start at 0: _solve_batch refreshes every task->sink
        # capacity from the arrangement's accumulated quality before each
        # solve, so only the arc structure matters here.
        for task in instance.tasks:
            node = arena.add_node()
            task_nodes[task.task_id] = node
            task_sink_arcs.append((task.task_id, arena.add_arc(node, _SINK, 0, 0.0)))
        watermark = arena.watermark()

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
            flow = self._solve_batch(
                arrangement, candidates, batch,
                arena, watermark, task_nodes, task_sink_arcs,
            )
            total_flow += flow.flow_value
            fallbacks += flow.fallback
            self._greedy_fill(arrangement, candidates, batch)

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
        arena: ArcArena,
        watermark: Tuple[int, int],
        task_nodes: Dict[int, int],
        task_sink_arcs: Sequence[Tuple[int, int]],
    ) -> BatchFlow:
        """Run the MCF reduction for one batch and apply the resulting flow."""
        if not batch or arrangement.is_complete():
            return _NO_FLOW

        # Reuse the arena: drop the previous batch's worker nodes/arcs and
        # refresh how many more useful answers each task can absorb.
        arena.truncate(*watermark)
        delta = arrangement.delta
        accumulated_of = arrangement.accumulated_of
        for task_id, arc in task_sink_arcs:
            need = delta - accumulated_of(task_id)
            arena.set_capacity(arc, max(0, math.ceil(need - 1e-12)))

        # Append this batch's worker nodes and arcs (Fig. 2a), streaming the
        # eligible pairs, each with its accuracy, straight into the arena.
        # ``eligible_pairs`` yields grouped by worker with tasks ascending,
        # so the arc order — and therefore the kernel's tie-breaking — is
        # stable.  Completed tasks were retired through the candidate
        # facade as their completions landed, so the unrestricted stream is
        # already the open set — no per-batch uncompleted-id mask is built.
        pair_arcs: List[Tuple[Worker, Task, float, int]] = []
        worker_nodes: List[int] = []
        current_worker = None
        worker_node = -1
        for worker, task, acc in candidates.eligible_pairs(batch):
            if worker is not current_worker:
                current_worker = worker
                worker_node = arena.add_node()
                worker_nodes.append(worker_node)
                arena.add_arc(_SOURCE, worker_node, worker.capacity, 0.0)
            arc = arena.add_arc(
                worker_node, task_nodes[task.task_id], 1, -acc_star(acc)
            )
            pair_arcs.append((worker, task, acc, arc))
        if not pair_arcs:
            return _NO_FLOW

        # The zero-flow batch network is a source -> workers -> tasks -> sink
        # DAG; both solvers take that order.
        topo_order = [_SOURCE]
        topo_order += worker_nodes
        topo_order += task_nodes.values()
        topo_order.append(_SINK)
        result = solve_mcf(arena, topo_order)

        # Apply every unit of flow on a worker->task arc as an assignment,
        # retiring each task the moment its quality threshold is reached.
        arc_flow = arena.flow
        for worker, task, acc, arc in pair_arcs:
            if arc_flow[arc] > 0:
                arrangement.assign(worker, task, acc)
                if arrangement.is_task_complete(task.task_id):
                    candidates.retire_tasks((task.task_id,))
        return result

    def _greedy_fill(
        self,
        arrangement: Arrangement,
        candidates: CandidateFinder,
        batch: Sequence[Worker],
    ) -> None:
        """Lines 8-15: top up workers that still have spare capacity.

        Each such worker receives its best (largest ``Acc*``, from the
        accuracy each candidate carries) uncompleted tasks it does not
        already perform, up to its remaining capacity.
        Completed tasks are already retired from the candidate snapshot,
        so ``iter_candidates`` yields only the open set; tasks completing
        during the fill are retired in turn.
        """
        for worker in batch:
            if arrangement.is_complete():
                return
            spare = worker.capacity - arrangement.load_of(worker.index)
            if spare <= 0:
                continue
            heap: TopKHeap = TopKHeap(spare)
            for task, acc in candidates.iter_candidates(worker):
                if (worker.index, task.task_id) in arrangement:
                    continue
                heap.push(acc_star(acc), (task, acc))
            for _, (task, acc) in heap.pop_all():
                arrangement.assign(worker, task, acc)
                if arrangement.is_task_complete(task.task_id):
                    candidates.retire_tasks((task.task_id,))
