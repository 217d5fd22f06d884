"""Differential and brute-force property tests for the flow kernel.

Random LTC-shaped bipartite networks (source -> workers -> tasks -> sink,
negative real-valued worker->task costs) are solved three ways:

* the array kernel (:func:`repro.flow.kernel.solve_mcf`) with the O(E)
  DAG potential pass (the dense cases also start it from Bellman-Ford
  potentials and from a warm restart after one routed unit),
* the retained pre-refactor object-graph SSPA
  (:mod:`repro.flow.reference`), and
* on tiny instances, brute-force enumeration of every feasible assignment
  set.

Costs are drawn from a PRNG (full-precision uniform floats), so equal-cost
optima — where implementations may legitimately diverge — have measure
zero and per-pair flows must agree exactly.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow.kernel import (
    ArcArena,
    KernelFlowResult,
    dag_potentials,
    solve_mcf,
)
from repro.flow.reference import LegacyFlowNetwork, legacy_successive_shortest_paths
from repro.flow.validate import validate_arena_flow


def random_ltc_shape(seed, num_workers, num_tasks, capacity, max_need, density):
    """One LTC-shaped reduction as plain data: pairs + capacities."""
    rng = random.Random(seed)
    pairs = {}
    for w in range(num_workers):
        for t in range(num_tasks):
            if rng.random() < density:
                pairs[(w, t)] = rng.uniform(0.1, 1.0)  # Acc* range
    needs = [rng.randint(1, max_need) for _ in range(num_tasks)]
    caps = [rng.randint(1, capacity) for _ in range(num_workers)]
    return pairs, caps, needs


def solve_with_kernel(pairs, caps, needs, route="dag"):
    """Solve on the array kernel.

    ``route`` picks how the kernel starts: ``"dag"`` warm-starts from
    :func:`dag_potentials`, ``"bellman_ford"`` passes no potentials, and
    ``"restart"`` routes one unit, then resumes from that call's
    potentials with the first unit's flow already in the arena.
    """
    arena = ArcArena(2)  # 0 = source, 1 = sink
    worker_nodes = [arena.add_node() for _ in caps]
    task_nodes = [arena.add_node() for _ in needs]
    for node, cap in zip(worker_nodes, caps):
        arena.add_arc(0, node, cap, 0.0)
    pair_arcs = {}
    for (w, t), value in sorted(pairs.items()):
        pair_arcs[(w, t)] = arena.add_arc(worker_nodes[w], task_nodes[t], 1, -value)
    for node, need in zip(task_nodes, needs):
        arena.add_arc(node, 1, need, 0.0)
    topo = [0] + worker_nodes + task_nodes + [1]
    if route == "bellman_ford":
        result = solve_mcf(arena, 0, 1)
    elif route == "restart":
        first = solve_mcf(
            arena, 0, 1, max_flow=1, potentials=dag_potentials(arena, 0, topo)
        )
        rest = solve_mcf(arena, 0, 1, potentials=first.potentials)
        result = KernelFlowResult(
            flow_value=first.flow_value + rest.flow_value,
            total_cost=rest.total_cost,
            augmentations=first.augmentations + rest.augmentations,
            potentials=rest.potentials,
        )
    else:
        result = solve_mcf(arena, 0, 1, potentials=dag_potentials(arena, 0, topo))
    flows = {pair: arena.flow[arc] for pair, arc in pair_arcs.items()}
    violations = validate_arena_flow(arena, 0, 1, expected_value=result.flow_value)
    return result, flows, violations


def solve_with_reference(pairs, caps, needs):
    network = LegacyFlowNetwork()
    for w, cap in enumerate(caps):
        network.add_edge("s", ("w", w), cap, 0.0)
    pair_edges = {}
    for (w, t), value in sorted(pairs.items()):
        pair_edges[(w, t)] = network.add_edge(("w", w), ("t", t), 1, -value)
    for t, need in enumerate(needs):
        network.add_edge(("t", t), "d", need, 0.0)
    value, cost, augmentations = legacy_successive_shortest_paths(network, "s", "d")
    flows = {pair: edge.flow for pair, edge in pair_edges.items()}
    return value, cost, augmentations, flows


class TestKernelMatchesReferenceSSPA:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_workers=st.integers(1, 10),
        num_tasks=st.integers(1, 8),
        capacity=st.integers(1, 4),
        max_need=st.integers(1, 3),
    )
    def test_same_flow_cost_and_per_pair_flows(
        self, seed, num_workers, num_tasks, capacity, max_need
    ):
        pairs, caps, needs = random_ltc_shape(
            seed, num_workers, num_tasks, capacity, max_need, density=0.5
        )
        result, kernel_flows, violations = solve_with_kernel(pairs, caps, needs)
        ref_value, ref_cost, ref_augmentations, ref_flows = solve_with_reference(
            pairs, caps, needs
        )
        assert violations == []
        assert result.flow_value == ref_value
        assert result.total_cost == pytest.approx(ref_cost, abs=1e-9)
        assert kernel_flows == ref_flows
        assert result.augmentations == ref_augmentations

    @pytest.mark.parametrize("route", ["dag", "bellman_ford", "restart"])
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_instances(self, seed, route):
        pairs, caps, needs = random_ltc_shape(
            seed, num_workers=12, num_tasks=9, capacity=4, max_need=3, density=1.0
        )
        result, kernel_flows, violations = solve_with_kernel(
            pairs, caps, needs, route=route
        )
        ref_value, ref_cost, ref_augmentations, ref_flows = solve_with_reference(
            pairs, caps, needs
        )
        assert violations == []
        assert result.flow_value == ref_value
        assert result.total_cost == pytest.approx(ref_cost, abs=1e-9)
        assert kernel_flows == ref_flows
        # Every route takes the same shortest paths, one unit at a time.
        assert result.augmentations == ref_augmentations


def brute_force_best(pairs, caps, needs):
    """Max-cardinality, then max-value assignment set by full enumeration."""
    pair_list = sorted(pairs)
    best_size, best_value = 0, 0.0
    for bits in itertools.product([0, 1], repeat=len(pair_list)):
        load = [0] * len(caps)
        fill = [0] * len(needs)
        value = 0.0
        ok = True
        for chosen, (w, t) in zip(bits, pair_list):
            if not chosen:
                continue
            load[w] += 1
            fill[t] += 1
            if load[w] > caps[w] or fill[t] > needs[t]:
                ok = False
                break
            value += pairs[(w, t)]
        if not ok:
            continue
        size = sum(bits)
        if size > best_size or (size == best_size and value > best_value):
            best_size, best_value = size, value
    return best_size, best_value


class TestKernelMatchesBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_min_cost_max_flow_equals_enumerated_optimum(self, seed):
        pairs, caps, needs = random_ltc_shape(
            seed, num_workers=3, num_tasks=3, capacity=2, max_need=2, density=0.7
        )
        result, _flows, violations = solve_with_kernel(pairs, caps, needs)
        best_size, best_value = brute_force_best(pairs, caps, needs)
        assert violations == []
        assert result.flow_value == best_size
        assert result.total_cost == pytest.approx(-best_value, abs=1e-9)
