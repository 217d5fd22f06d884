"""Flat, integer-indexed min-cost-flow kernel.

This module is the SSPA that MCF-LTC falls back to when its network
simplex meets an exact tie between two optima.  Instead of one ``Edge``
object per arc and dict-of-lists adjacency keyed by tuple labels, the graph
lives in an :class:`ArcArena`: parallel lists ``head`` / ``cost`` / ``cap`` /
``flow`` indexed by arc id, with the residual twin of arc ``a`` always at
``a ^ 1`` (forward arcs are even, residual arcs odd) and the tail stored
implicitly as ``head[a ^ 1]``.  Adjacency is materialised on demand as
packed per-node ``(arc, head, cost)`` rows
(:meth:`ArcArena.packed_adjacency`) in stable arc-insertion order.

:func:`solve_mcf` is the Successive Shortest Path Algorithm rewritten over
those arrays: Dijkstra with Johnson potentials per augmentation, potentials
kept warm across augmentations, and deterministic tie-breaking (heap ties
fall back to the node id; among equal-cost relaxations the first-inserted
arc wins), so no vanishing cost perturbations are needed for reproducible
results.  Among cost-equal optima that tie-breaking is what decides
MCF-LTC's arrangement.  The augmentation loop (:func:`_augment`) is tuned
for CPython: packed per-node ``(arc, head, cost)`` rows, a solver-local
residual array, *live* adjacency rows patched only along each augmenting
path, goal-directed pruning against the sink's tentative distance, and a
finalized-node skip before any float arithmetic.

Initial potentials come from :func:`dag_potentials`: the LTC reduction's
residual graph at zero flow is a 3-layer DAG ``source -> workers -> tasks
-> sink``, so a single O(E) relaxation pass over a caller-supplied
topological order gives exact shortest distances.

MCF-LTC builds an arena only for a batch that falls back, from the batch's
flat arrays (:meth:`repro.flow.simplex.BatchNetwork.to_arena`).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

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

    Invariants (maintained by every mutator and relied on by the solvers):

    * the four lists always have equal length, and ``num_arcs`` is even —
      arcs exist only as forward/twin pairs;
    * ``head[a ^ 1]`` is the tail of ``a``; ``cost[a ^ 1] == -cost[a]``;
      ``flow[a ^ 1] == -flow[a]``; residual twins rest at ``cap == 0``;
    * ``0 <= flow[a] <= cap[a]`` on forward arcs whenever the flow was
      routed by :func:`solve_mcf`;
    * arc ids are assigned in insertion order and never reused, which is
      what makes the kernel's tie-breaking (and therefore MCF-LTC
      arrangements) deterministic.
    """

    __slots__ = ("head", "cost", "cap", "flow", "_num_nodes", "_adj", "_adj_valid")

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
        self._adj: List[List[Tuple[int, int, float]]] = []
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
        self._adj_valid = False
        return node

    def add_nodes(self, count: int) -> int:
        """Allocate ``count`` nodes; returns the first id of the dense run."""
        if count < 0:
            raise ValueError("count must be non-negative")
        first = self._num_nodes
        self._num_nodes += count
        self._adj_valid = False
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
        self._adj_valid = False
        return arc

    # ----------------------------------------------------------------- state

    def total_cost(self) -> float:
        """Total cost of the current flow over forward arcs."""
        cost, flow = self.cost, self.flow
        return sum(cost[a] * flow[a] for a in range(0, len(flow), 2) if flow[a])

    # ------------------------------------------------------------- adjacency

    def packed_adjacency(self) -> List[List[Tuple[int, int, float]]]:
        """Per-node ``(arc, head, cost)`` triples, rebuilt lazily after mutations.

        The arcs leaving node ``v`` (forward and residual) are ``adj[v]`` in
        stable arc-insertion order, which is what makes tie-breaking in
        :func:`solve_mcf` deterministic.  One tuple per arc saves the
        solver's Dijkstra three list indexings per relaxation — a large
        constant-factor win in CPython.  ``cap``/``flow`` are looked up
        live, so routing flow does not invalidate the cache (structural
        mutations do).
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
    """Outcome of a :func:`solve_mcf` run; the flow itself is in the arena."""

    flow_value: int
    augmentations: int


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
    graph: ArcArena, source: int, sink: int, potentials: Sequence[float]
) -> KernelFlowResult:
    """Min-cost max-flow from ``source`` to ``sink`` by successive shortest paths.

    Parameters
    ----------
    graph:
        The arc arena, at zero flow (``ValueError`` otherwise).  On return
        ``graph.flow`` holds the flow (twins in lockstep) and every other
        arena field is untouched.
    source, sink:
        Node ids (must differ).
    potentials:
        Initial Johnson potentials, e.g. from :func:`dag_potentials`.
        Must be exact shortest distances from ``source`` in the arena's
        residual graph (one entry per node, infinite for unreachable
        nodes) — wrong potentials silently break optimality.  The list is
        copied, not modified.

    Returns
    -------
    :class:`KernelFlowResult` — units routed and the augmentation count.

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
    if any(graph.flow):
        raise ValueError("solve_mcf needs an arena at zero flow")
    pot = list(potentials)
    if len(pot) != n:
        raise ValueError("potentials must cover every node")

    routed, augmentations = _augment(graph, source, sink, pot)
    return KernelFlowResult(flow_value=routed, augmentations=augmentations)


def _augment(
    graph: ArcArena, source: int, sink: int, pot: List[float]
) -> Tuple[int, int]:
    """Route a min-cost max-flow by successive shortest paths.

    The arena must be at zero flow and ``pot`` exact shortest-path
    distances from ``source`` in its residual graph; ``pot`` is advanced
    in place.  ``graph.flow`` is updated in place, twins in lockstep.
    Returns ``(routed, augmentations)``.
    """
    n = graph.num_nodes
    head, cost, cap, flow = graph.head, graph.cost, graph.cap, graph.flow
    heappush, heappop = heapq.heappush, heapq.heappop
    insort = bisect.insort

    # Solver-local residual array (at zero flow, the capacities): one
    # index per touch instead of two plus a subtraction.  ``flow`` is
    # kept in lockstep so callers read arc flows off the arena as usual.
    res = list(cap)

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

    while True:
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

        # Bottleneck along sink -> source, then push.  Every path arc
        # has residual capacity, so the bottleneck is a positive int.
        bottleneck = _INF
        v = sink
        while v != source:
            a = pred[v]
            r = res[a]
            if r < bottleneck:
                bottleneck = r
            v = head[a ^ 1]
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
