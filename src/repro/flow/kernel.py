"""Flat, integer-indexed min-cost-flow kernel.

This module is the hot core of the flow layer.  Instead of one ``Edge``
object per arc and dict-of-lists adjacency keyed by tuple labels, the graph
lives in an :class:`ArcArena`: parallel lists ``head`` / ``cost`` / ``cap`` /
``flow`` indexed by arc id, with the residual twin of arc ``a`` always at
``a ^ 1`` (forward arcs are even, residual arcs odd) and the tail stored
implicitly as ``head[a ^ 1]``.  Adjacency is materialised on demand in two
cached forms sharing the same stable arc-insertion order: a compact CSR
pair ``(ptr, arcs)`` for external array consumers, and packed per-node
``(arc, head, cost)`` rows (:meth:`ArcArena.packed_adjacency`) that the
solver's inner loops iterate.

:func:`solve_mcf` is the Successive Shortest Path Algorithm rewritten over
those arrays: Dijkstra with Johnson potentials per augmentation, potentials
kept warm across augmentations, and deterministic tie-breaking (heap ties
fall back to the node id; among equal-cost relaxations the first-inserted
arc wins), so no vanishing cost perturbations are needed for reproducible
results.  The augmentation loop (:func:`_augment`) is tuned for CPython:
packed per-node ``(arc, head, cost)`` rows, a solver-local residual array,
*live* adjacency rows patched only along each augmenting path,
goal-directed pruning against the sink's tentative distance, and a
finalized-node skip before any float arithmetic.

Initial potentials come from either :func:`bellman_ford_potentials`
(general graphs, detects negative cycles) or — for the LTC reduction, whose
residual graph at zero flow is a 3-layer DAG ``source -> workers -> tasks ->
sink`` — :func:`dag_potentials`, a single O(E) relaxation pass over a
caller-supplied topological order.

The arena also supports the batch lifecycle of MCF-LTC: persistent structure
(task->sink arcs) is built once, a watermark is taken with
:meth:`ArcArena.watermark`, and each batch rolls back to it with
:meth:`ArcArena.truncate` before appending that batch's worker arcs —
no per-batch network rebuild.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.flow.exceptions import InfeasibleFlowError, NegativeCycleError

_INF = math.inf

#: Strict-improvement tolerance for Dijkstra relaxations.  Relaxations
#: compare ``candidate < dist - RELAX_EPS``, so among equal-cost
#: alternatives the first-found one wins — part of the determinism that
#: pins MCF-LTC arrangements byte for byte.
RELAX_EPS = 1e-15


class ArcArena:
    """A flow graph as parallel arrays over integer node and arc ids.

    Nodes are dense integers ``0..num_nodes - 1`` allocated by
    :meth:`add_node`.  :meth:`add_arc` appends a forward arc (even id) and
    its residual twin (odd id, ``arc ^ 1``) in one call.  All numeric state
    lives in the four parallel lists; there are no per-arc objects.

    Invariants (maintained by every mutator and relied on by the solver):

    * the four lists always have equal length, and ``num_arcs`` is even —
      arcs exist only as forward/twin pairs;
    * ``head[a ^ 1]`` is the tail of ``a``; ``cost[a ^ 1] == -cost[a]``;
      ``flow[a ^ 1] == -flow[a]``; residual twins rest at ``cap == 0``;
    * ``0 <= flow[a] <= cap[a]`` on forward arcs whenever flow was pushed
      through :meth:`push` or :func:`solve_mcf`;
    * arc ids are assigned in insertion order and never reused, which is
      what makes the kernel's tie-breaking (and therefore MCF-LTC
      arrangements) deterministic.
    """

    __slots__ = ("head", "cost", "cap", "flow", "_num_nodes",
                 "_csr_ptr", "_csr_arcs", "_csr_valid", "_adj", "_adj_valid")

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        self._num_nodes = num_nodes
        #: Head node of each arc; the tail is ``head[arc ^ 1]``.
        self.head: List[int] = []
        #: Cost per unit of flow (residual twins carry the negated cost).
        self.cost: List[float] = []
        #: Capacity of each arc (0 for residual twins at rest).
        self.cap: List[int] = []
        #: Current flow; twins always hold the negated flow.
        self.flow: List[int] = []
        self._csr_ptr: List[int] = []
        self._csr_arcs: List[int] = []
        self._csr_valid = False
        self._adj: List[List[Tuple[int, int, float]]] = []
        self._adj_valid = False

    def _invalidate(self) -> None:
        self._csr_valid = False
        self._adj_valid = False

    # -------------------------------------------------------------- topology

    @property
    def num_nodes(self) -> int:
        """Number of allocated nodes."""
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of arcs including residual twins (always even)."""
        return len(self.head)

    def add_node(self) -> int:
        """Allocate a new node and return its id."""
        node = self._num_nodes
        self._num_nodes += 1
        self._invalidate()
        return node

    def add_nodes(self, count: int) -> int:
        """Allocate ``count`` nodes; returns the first id of the dense run."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._num_nodes
        self._num_nodes += count
        self._invalidate()
        return first

    def add_arc(self, tail: int, head: int, capacity: int, cost: float) -> int:
        """Append ``tail -> head`` plus its residual twin; returns the even id.

        Capacities must be non-negative integers; costs any finite float
        (the LTC reduction uses negative costs on worker->task arcs).
        """
        if not (0 <= tail < self._num_nodes and 0 <= head < self._num_nodes):
            raise ValueError("tail and head must be allocated node ids")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if int(capacity) != capacity:
            raise ValueError("capacity must be an integer")
        arc = len(self.head)
        cost = float(cost)
        self.head.append(head)
        self.cost.append(cost)
        self.cap.append(int(capacity))
        self.flow.append(0)
        self.head.append(tail)
        self.cost.append(-cost)
        self.cap.append(0)
        self.flow.append(0)
        self._invalidate()
        return arc

    def tail(self, arc: int) -> int:
        """Tail node of ``arc`` (the head of its twin)."""
        return self.head[arc ^ 1]

    def is_residual(self, arc: int) -> bool:
        """Whether ``arc`` is a residual twin (odd id)."""
        return bool(arc & 1)

    def forward_arcs(self) -> range:
        """Ids of all forward (even) arcs."""
        return range(0, len(self.head), 2)

    # ----------------------------------------------------------------- state

    def residual(self, arc: int) -> int:
        """Residual capacity of ``arc``."""
        return self.cap[arc] - self.flow[arc]

    def push(self, arc: int, amount: int) -> None:
        """Push ``amount`` units along ``arc`` (and pull them off its twin)."""
        if amount < 0:
            raise ValueError("flow amount must be non-negative")
        if amount > self.cap[arc] - self.flow[arc]:
            raise ValueError(
                f"cannot push {amount} units over residual capacity "
                f"{self.cap[arc] - self.flow[arc]}"
            )
        self.flow[arc] += amount
        self.flow[arc ^ 1] -= amount

    def set_capacity(self, arc: int, capacity: int) -> None:
        """Re-set the capacity of a forward arc (batch-reuse lifecycle)."""
        if arc & 1:
            raise ValueError("capacities are set on forward (even) arcs")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if int(capacity) != capacity:
            raise ValueError("capacity must be an integer")
        self.cap[arc] = int(capacity)

    def reset_flows(self) -> None:
        """Zero out the flow on every arc."""
        self.flow = [0] * len(self.flow)

    def total_cost(self) -> float:
        """Total cost of the current flow over forward arcs."""
        cost, flow = self.cost, self.flow
        return sum(cost[a] * flow[a] for a in range(0, len(flow), 2) if flow[a])

    # ---------------------------------------------------------- batch reuse

    def watermark(self) -> Tuple[int, int]:
        """The ``(num_nodes, num_arcs)`` snapshot :meth:`truncate` rolls back to."""
        return (self._num_nodes, len(self.head))

    def truncate(self, num_nodes: int, num_arcs: int) -> None:
        """Roll back to a watermark: drop newer nodes/arcs, zero all flows.

        This is how MCF-LTC reuses one arena across batches: the persistent
        prefix (source, sink, task nodes and task->sink arcs) survives —
        capacities intact, flows zeroed — while the previous batch's worker
        nodes and arcs are discarded in one cheap pass over the retained
        arcs, without rebuilding the graph.
        """
        if num_arcs % 2:
            raise ValueError("num_arcs must be even (arcs come in twin pairs)")
        if num_arcs > len(self.head) or num_nodes > self._num_nodes:
            raise ValueError("cannot truncate beyond the current size")
        for a in range(num_arcs):
            if self.head[a] >= num_nodes:
                raise ValueError(
                    f"arc {a} references node {self.head[a]} above the "
                    f"node watermark {num_nodes}"
                )
        del self.head[num_arcs:]
        del self.cost[num_arcs:]
        del self.cap[num_arcs:]
        self.flow = [0] * num_arcs
        self._num_nodes = num_nodes
        self._invalidate()

    # ------------------------------------------------------------- adjacency

    def csr(self) -> Tuple[List[int], List[int]]:
        """CSR adjacency ``(ptr, arcs)``, rebuilt lazily after mutations.

        The arcs leaving node ``v`` (forward and residual) are
        ``arcs[ptr[v]:ptr[v + 1]]`` in stable arc-insertion order, which is
        what makes tie-breaking in :func:`solve_mcf` deterministic.
        """
        if not self._csr_valid:
            n = self._num_nodes
            head = self.head
            m = len(head)
            ptr = [0] * (n + 1)
            for a in range(m):
                ptr[head[a ^ 1] + 1] += 1
            for v in range(n):
                ptr[v + 1] += ptr[v]
            arcs = [0] * m
            slot = ptr[:-1]
            for a in range(m):
                v = head[a ^ 1]
                arcs[slot[v]] = a
                slot[v] += 1
            self._csr_ptr = ptr
            self._csr_arcs = arcs
            self._csr_valid = True
        return self._csr_ptr, self._csr_arcs

    def packed_adjacency(self) -> List[List[Tuple[int, int, float]]]:
        """Per-node ``(arc, head, cost)`` triples, cached like the CSR.

        The solver's Dijkstra inner loop runs over these packed rows rather
        than the flat CSR, trading one tuple per arc for three fewer list
        indexings per relaxation — a large constant-factor win in CPython.
        Row order is the same stable arc-insertion order as :meth:`csr`;
        ``cap``/``flow`` are looked up live, so pushing flow does not
        invalidate the cache (structural mutations do).
        """
        if not self._adj_valid:
            adj: List[List[Tuple[int, int, float]]] = [
                [] for _ in range(self._num_nodes)
            ]
            head, cost = self.head, self.cost
            for a in range(len(head)):
                adj[head[a ^ 1]].append((a, head[a], cost[a]))
            self._adj = adj
            self._adj_valid = True
        return self._adj


@dataclass(slots=True)
class KernelFlowResult:
    """Outcome of a :func:`solve_mcf` run.

    ``flow_value`` counts only the units routed by this call (the arena may
    carry pre-existing flow); ``total_cost`` is the cost of the arena's
    entire current flow.  ``potentials`` are the final Johnson potentials,
    reusable to warm-start a follow-up solve on the same arena.
    """

    flow_value: int
    total_cost: float
    augmentations: int
    potentials: List[float] = field(default_factory=list, repr=False)


def bellman_ford_potentials(graph: ArcArena, source: int) -> List[float]:
    """Shortest-path distances from ``source`` usable as initial potentials.

    Relaxes residual-capacity arcs until a fixpoint (early exit) and raises
    :class:`NegativeCycleError` after ``num_nodes`` full sweeps without one.
    Unreachable nodes keep an infinite potential, which removes them from
    later Dijkstra passes.
    """
    n = graph.num_nodes
    dist = [_INF] * n
    dist[source] = 0.0
    head, cost, cap, flow = graph.head, graph.cost, graph.cap, graph.flow
    m = len(head)
    for _ in range(n):
        changed = False
        for a in range(m):
            if cap[a] - flow[a] <= 0:
                continue
            d_tail = dist[head[a ^ 1]]
            if d_tail == _INF:
                continue
            candidate = d_tail + cost[a]
            h = head[a]
            if candidate < dist[h] - 1e-12:
                dist[h] = candidate
                changed = True
        if not changed:
            break
    else:
        raise NegativeCycleError("negative-cost cycle reachable from the source")
    return dist


def dag_potentials(
    graph: ArcArena, source: int, topo_order: Iterable[int]
) -> List[float]:
    """Initial potentials for a DAG in one O(E) relaxation pass.

    ``topo_order`` must be a topological order of the residual graph
    (every residual-capacity arc goes from an earlier to a later node) and
    the arena must carry no flow yet; otherwise the returned potentials are
    not shortest distances and must not be fed to :func:`solve_mcf`.  The
    LTC reduction satisfies both by construction: at zero flow its arcs run
    strictly ``source -> workers -> tasks -> sink``.
    """
    pot = [_INF] * graph.num_nodes
    pot[source] = 0.0
    cap, flow = graph.cap, graph.flow
    adj = graph.packed_adjacency()
    for node in topo_order:
        d = pot[node]
        if d == _INF:
            continue
        for a, h, c in adj[node]:
            if cap[a] - flow[a] <= 0:
                continue
            candidate = d + c
            if candidate < pot[h]:
                pot[h] = candidate
    return pot


def solve_mcf(
    graph: ArcArena,
    source: int,
    sink: int,
    max_flow: Optional[int] = None,
    require_max_flow: bool = False,
    potentials: Optional[Sequence[float]] = None,
) -> KernelFlowResult:
    """Min-cost flow from ``source`` to ``sink`` by successive shortest paths.

    Parameters
    ----------
    graph:
        The arc arena.  Flow already present is kept and extended; on
        return ``graph.flow`` holds the combined flow (twins in lockstep)
        and every other arena field is untouched.
    source, sink:
        Node ids (must differ).
    max_flow:
        Route at most this many units; ``None`` routes a min-cost max-flow.
    require_max_flow:
        With ``max_flow``, raise :class:`InfeasibleFlowError` when fewer
        units can be routed.
    potentials:
        Warm-start Johnson potentials, e.g. from :func:`dag_potentials` or
        a previous result's ``potentials``.  Must be exact shortest
        distances from ``source`` under the arena's *current* residual
        graph (one entry per node, infinite for unreachable nodes) — stale
        potentials silently break optimality.  ``None`` computes them with
        :func:`bellman_ford_potentials`.

    Returns
    -------
    :class:`KernelFlowResult` — units routed by this call, the total cost
    of the arena's entire current flow, the augmentation count, and the
    final potentials (valid warm-start input for a follow-up solve on the
    same arena).

    Notes
    -----
    Each augmentation runs Dijkstra over reduced costs with early exit at
    the sink, then advances the potentials so reduced costs stay
    non-negative (the warm-start across augmentations).  Determinism: heap
    ties compare the node id and relaxations use strict ``<``, so among
    equal-reduced-cost alternatives the lowest node id / first-inserted arc
    wins — stable across runs with no cost perturbation.
    """
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError("source and sink must be nodes of the graph")
    if source == sink:
        raise ValueError("source and sink must differ")
    if max_flow is not None and max_flow < 0:
        raise ValueError("max_flow must be non-negative")

    if potentials is None:
        pot = bellman_ford_potentials(graph, source)
    else:
        pot = list(potentials)
        if len(pot) != n:
            raise ValueError("potentials must cover every node")

    target = _INF if max_flow is None else max_flow
    routed, augmentations = _augment(graph, source, sink, target, pot)

    if require_max_flow and max_flow is not None and routed < max_flow:
        raise InfeasibleFlowError(
            f"only {routed} of the requested {max_flow} units could be routed"
        )

    return KernelFlowResult(
        flow_value=routed,
        total_cost=graph.total_cost(),
        augmentations=augmentations,
        potentials=pot,
    )


def _augment(
    graph: ArcArena, source: int, sink: int, target: float, pot: List[float]
) -> Tuple[int, int]:
    """Route up to ``target`` units by successive shortest paths.

    ``pot`` must be exact shortest-path distances from ``source`` under
    the arena's current residual graph; it is advanced in place and ends
    valid as a warm start for a follow-up solve.  ``graph.flow`` is
    updated in place, twins in lockstep.  Returns ``(routed,
    augmentations)``.
    """
    n = graph.num_nodes
    head, cost, cap, flow = graph.head, graph.cost, graph.cap, graph.flow
    heappush, heappop = heapq.heappush, heapq.heappop
    insort = bisect.insort

    # Solver-local residual array: one index per touch instead of two
    # plus a subtraction.  ``flow`` is kept in lockstep so callers read
    # arc flows off the arena as usual.
    res = [cap[a] - flow[a] for a in range(len(cap))]

    # Live adjacency: per-node rows holding only arcs with residual
    # capacity, so Dijkstra never scans (or re-checks) saturated arcs.
    # Rows stay sorted by arc id — the same stable insertion order as
    # :meth:`ArcArena.packed_adjacency`, preserving deterministic
    # tie-breaking — and are patched only along each augmenting path as
    # pushes saturate forward arcs and open their residual twins.
    rows: List[List[Tuple[int, int, float]]] = [
        [entry for entry in row if res[entry[0]] > 0]
        for row in graph.packed_adjacency()
    ]

    routed = 0
    augmentations = 0

    while routed < target:
        # Dijkstra over reduced costs, early exit at the sink.
        dist = [_INF] * n
        pred = [-1] * n
        dist[source] = 0.0
        dist_sink = _INF
        done = bytearray(n)
        touched: List[int] = []
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, node = heappop(heap)
            if done[node]:
                continue
            if node == sink:
                break
            done[node] = 1
            # No infinite-potential guards in this loop: a scanned arc
            # has residual capacity and leaves a node the search
            # reached, and any such arc's head was already reachable
            # when the initial potentials were computed — so its
            # potential is finite.
            base = d + pot[node]
            for a, h, c in rows[node]:
                # A finalized head can never improve: heap keys are
                # monotone, so candidate >= d >= dist[h].  Skipping it
                # saves the float arithmetic for every arc pointing
                # back into the already-popped region.
                if done[h]:
                    continue
                # candidate = d + max(reduced cost, 0); the max()
                # clamps floating-point noise that pushes a reduced
                # cost below 0.
                candidate = base + c - pot[h]
                if candidate < d:
                    candidate = d
                d_head = dist[h]
                # Goal-directed pruning: a node whose tentative
                # distance is not below the sink's would pop after the
                # sink (heap ties resolve by node id and the sink's
                # entry is already enqueued at dist[sink]), so it can
                # never join the augmenting path, and the potential
                # update clamps every distance at the sink's anyway.
                # Skipping it here changes nothing in the output but
                # avoids exploring the far side of the graph on every
                # augmentation.
                if candidate < d_head - RELAX_EPS and candidate < dist_sink:
                    if d_head == _INF:
                        touched.append(h)
                    dist[h] = candidate
                    pred[h] = a
                    if h == sink:
                        dist_sink = candidate
                    heappush(heap, (candidate, h))

        sink_dist = dist_sink
        if sink_dist == _INF:
            break

        # Advance potentials so the next round's reduced costs stay
        # non-negative.  Textbook SSPA adds ``min(dist[v], sink_dist)``
        # to every finite potential; since reduced costs only ever see
        # potential *differences*, the uniform ``+ sink_dist`` part
        # cancels and only nodes the search actually reached below the
        # sink need the relative update ``dist[v] - sink_dist`` —
        # O(region) instead of O(V) per augmentation.
        for v in touched:
            d_v = dist[v]
            if d_v < sink_dist:
                pot[v] += d_v - sink_dist

        # Bottleneck along sink -> source, then push.
        bottleneck = target - routed
        v = sink
        while v != source:
            a = pred[v]
            r = res[a]
            if r < bottleneck:
                bottleneck = r
            v = head[a ^ 1]
        bottleneck = int(bottleneck)
        if bottleneck <= 0:
            break
        v = sink
        while v != source:
            a = pred[v]
            twin = a ^ 1
            flow[a] += bottleneck
            flow[twin] -= bottleneck
            res[a] -= bottleneck
            if res[a] == 0:
                rows[head[twin]].remove((a, head[a], cost[a]))
            if res[twin] == 0:
                insort(rows[head[a]], (twin, head[twin], cost[twin]))
            res[twin] += bottleneck
            v = head[twin]

        routed += bottleneck
        augmentations += 1

    return routed, augmentations
