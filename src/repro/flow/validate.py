"""Independent validation of flows.

The kernel in :mod:`repro.flow.kernel` maintains its own invariants, but
tests and debugging assertions want an *independent* check that a computed
flow is feasible: capacities respected, flow conserved at every node except
the source and sink, the claimed flow value consistent with the source's
net outflow, and every residual twin holding its forward arc's negated
flow (a solver that writes flows back must keep both in lockstep, or the
next solve on the arena reads a corrupt residual graph), its negated
cost and a capacity of 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.flow.kernel import ArcArena


@dataclass(frozen=True, slots=True)
class FlowViolation:
    """A single violated flow constraint, for readable test failures."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.detail}"


def validate_arena_flow(
    graph: ArcArena,
    source: int,
    sink: int,
    expected_value: int | None = None,
) -> List[FlowViolation]:
    """Constraint violations of the arena's current flow (empty = feasible).

    Walks the forward (even) arcs once, accumulating per-node net outflow
    and checking each twin against the invariant
    :class:`~repro.flow.kernel.ArcArena` documents:
    ``flow[arc ^ 1] == -flow[arc]``, ``cost[arc ^ 1] == -cost[arc]`` and
    ``cap[arc ^ 1] == 0``, each a ``twin`` violation.  When
    ``expected_value`` is given, the source's net outflow must equal it.
    """
    violations: List[FlowViolation] = []
    head, cap, cost, flow = graph.head, graph.cap, graph.cost, graph.flow
    net = [0] * graph.num_nodes

    for arc in range(0, len(flow), 2):
        units = flow[arc]
        tail = head[arc ^ 1]
        if units < 0:
            violations.append(
                FlowViolation(
                    "negative-flow", f"{tail}->{head[arc]}: {units}"
                )
            )
        if units > cap[arc]:
            violations.append(
                FlowViolation(
                    "capacity",
                    f"{tail}->{head[arc]}: flow {units} > "
                    f"capacity {cap[arc]}",
                )
            )
        if flow[arc ^ 1] != -units:
            violations.append(
                FlowViolation(
                    "twin",
                    f"{tail}->{head[arc]}: flow {units}, twin {flow[arc ^ 1]}",
                )
            )
        if cap[arc ^ 1] != 0:
            violations.append(
                FlowViolation(
                    "twin",
                    f"{tail}->{head[arc]}: twin capacity {cap[arc ^ 1]}, not 0",
                )
            )
        if cost[arc ^ 1] != -cost[arc]:
            violations.append(
                FlowViolation(
                    "twin",
                    f"{tail}->{head[arc]}: cost {cost[arc]}, "
                    f"twin {cost[arc ^ 1]}",
                )
            )
        net[tail] += units
        net[head[arc]] -= units

    for node, node_net in enumerate(net):
        if node == source or node == sink:
            continue
        if node_net != 0:
            violations.append(
                FlowViolation(
                    "conservation", f"node {node} has net outflow {node_net}"
                )
            )

    if net[source] != -net[sink]:
        violations.append(
            FlowViolation(
                "source-sink-mismatch",
                f"source net {net[source]} vs sink net {net[sink]}",
            )
        )

    if expected_value is not None and net[source] != expected_value:
        violations.append(
            FlowViolation(
                "value",
                f"source routes {net[source]} units, expected {expected_value}",
            )
        )

    return violations

