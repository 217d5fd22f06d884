"""Pre-kernel object-graph SSPA, retained as a differential-testing oracle.

This module preserves the flow layer as it was before the array-based
kernel (:mod:`repro.flow.kernel`) replaced it: one ``Edge`` dataclass per
arc plus a residual twin, dict-of-lists adjacency over hashable node
labels, an O(V*E) Bellman-Ford before every solve, and the textbook SSPA
over those objects.

It is **not** used on any hot path.  It exists so that

* property tests can check the kernel against an independent
  implementation (same flow value, total cost and per-arc flows on
  LTC-shaped networks), and
* ``benchmarks/bench_flow_kernel.py`` can measure the kernel's speedup
  against the genuine pre-refactor baseline rather than a synthetic stand-in.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.flow.exceptions import InfeasibleFlowError, NegativeCycleError

Node = Hashable

_INF = math.inf


@dataclass(slots=True)
class LegacyEdge:
    """A directed edge plus its residual state (pre-kernel representation)."""

    head: Node
    tail: Node
    capacity: int
    cost: float
    flow: int = 0
    is_residual: bool = False
    _twin: Optional["LegacyEdge"] = field(default=None, repr=False, compare=False)

    @property
    def residual_capacity(self) -> int:
        return self.capacity - self.flow

    @property
    def twin(self) -> "LegacyEdge":
        if self._twin is None:
            raise RuntimeError("edge has no twin; was it added through LegacyNetwork?")
        return self._twin

    def push(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("flow amount must be non-negative")
        if amount > self.residual_capacity:
            raise ValueError(
                f"cannot push {amount} units over residual capacity "
                f"{self.residual_capacity}"
            )
        self.flow += amount
        self.twin.flow -= amount


class LegacyNetwork:
    """Dict-of-lists residual graph over hashable labels (pre-kernel)."""

    def __init__(self) -> None:
        self._adjacency: Dict[Node, List[LegacyEdge]] = {}

    def add_node(self, node: Node) -> None:
        self._adjacency.setdefault(node, [])

    def add_edge(self, tail: Node, head: Node, capacity: int, cost: float) -> LegacyEdge:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if int(capacity) != capacity:
            raise ValueError("capacity must be an integer")
        self.add_node(tail)
        self.add_node(head)
        forward = LegacyEdge(head=head, tail=tail, capacity=int(capacity), cost=float(cost))
        backward = LegacyEdge(
            head=tail, tail=head, capacity=0, cost=-float(cost), is_residual=True
        )
        forward._twin = backward
        backward._twin = forward
        self._adjacency[tail].append(forward)
        self._adjacency[head].append(backward)
        return forward

    @property
    def nodes(self) -> List[Node]:
        return list(self._adjacency.keys())

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def edges_from(self, node: Node) -> List[LegacyEdge]:
        return self._adjacency.get(node, [])

    def forward_edges(self):
        for edges in self._adjacency.values():
            for edge in edges:
                if not edge.is_residual:
                    yield edge

    def total_cost(self) -> float:
        return sum(edge.cost * edge.flow for edge in self.forward_edges())


def _bellman_ford_potentials(
    network: LegacyNetwork, source: Node
) -> Dict[Node, float]:
    distance: Dict[Node, float] = {node: _INF for node in network.nodes}
    distance[source] = 0.0
    nodes = network.nodes
    for _iteration in range(len(nodes)):
        changed = False
        for node in nodes:
            d_node = distance[node]
            if d_node == _INF:
                continue
            for edge in network.edges_from(node):
                if edge.residual_capacity <= 0:
                    continue
                candidate = d_node + edge.cost
                if candidate < distance[edge.head] - 1e-12:
                    distance[edge.head] = candidate
                    changed = True
        if not changed:
            break
    else:
        raise NegativeCycleError("negative-cost cycle reachable from the source")
    return distance


def _dijkstra_reduced(
    network: LegacyNetwork,
    source: Node,
    sink: Node,
    potentials: Dict[Node, float],
) -> Tuple[Dict[Node, float], Dict[Node, LegacyEdge]]:
    distance: Dict[Node, float] = {source: 0.0}
    predecessor: Dict[Node, LegacyEdge] = {}
    visited: set = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == sink:
            break
        node_potential = potentials.get(node, _INF)
        if node_potential == _INF:
            continue
        for edge in network.edges_from(node):
            if edge.residual_capacity <= 0:
                continue
            head_potential = potentials.get(edge.head, _INF)
            if head_potential == _INF:
                continue
            reduced = edge.cost + node_potential - head_potential
            if reduced < 0:
                reduced = 0.0
            candidate = dist + reduced
            if candidate < distance.get(edge.head, _INF) - 1e-15:
                distance[edge.head] = candidate
                predecessor[edge.head] = edge
                heapq.heappush(heap, (candidate, counter, edge.head))
                counter += 1
    return distance, predecessor


def legacy_sspa(
    network: LegacyNetwork,
    source: Node,
    sink: Node,
    max_flow: Optional[int] = None,
    require_max_flow: bool = False,
) -> Tuple[int, float, int]:
    """The pre-kernel SSPA; returns ``(flow_value, total_cost, augmentations)``.

    Per-edge flows are read off the network's edges afterwards.
    """
    if source not in network or sink not in network:
        raise ValueError("source and sink must be nodes of the network")
    if max_flow is not None and max_flow < 0:
        raise ValueError("max_flow must be non-negative")

    potentials = _bellman_ford_potentials(network, source)
    routed = 0
    augmentations = 0
    target = math.inf if max_flow is None else max_flow

    while routed < target:
        distance, predecessor = _dijkstra_reduced(network, source, sink, potentials)
        if sink not in distance:
            break

        sink_distance = distance[sink]
        for node, node_potential in potentials.items():
            if node_potential == _INF:
                continue
            potentials[node] = node_potential + min(
                distance.get(node, sink_distance), sink_distance
            )

        bottleneck = target - routed
        node = sink
        while node != source:
            edge = predecessor[node]
            bottleneck = min(bottleneck, edge.residual_capacity)
            node = edge.tail
        bottleneck = int(bottleneck)
        if bottleneck <= 0:
            break

        node = sink
        while node != source:
            edge = predecessor[node]
            edge.push(bottleneck)
            node = edge.tail

        routed += bottleneck
        augmentations += 1

    if require_max_flow and max_flow is not None and routed < max_flow:
        raise InfeasibleFlowError(
            f"only {routed} of the requested {max_flow} units could be routed"
        )

    return routed, network.total_cost(), augmentations
