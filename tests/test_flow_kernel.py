"""Tests for the array-based min-cost-flow kernel (repro.flow.kernel).

Correctness is checked three ways: hand-computed small networks,
independent validation of flow feasibility (repro.flow.validate), and
comparison against ``networkx``'s min_cost_flow on randomly generated
integer-cost networks (networkx requires integer costs, so the random
networks use integers; the LTC reduction's real-valued costs are covered
by the bipartite assignment test and by the algorithm tests).
"""

import math
import random

import networkx as nx
import pytest

from repro.flow.exceptions import InfeasibleFlowError, NegativeCycleError
from repro.flow.kernel import (
    ArcArena,
    bellman_ford_potentials,
    dag_potentials,
    solve_mcf,
)
from repro.flow.validate import validate_arena_flow


def diamond():
    """s -> {a, b} -> t with different costs; returns (arena, s, a, b, t)."""
    arena = ArcArena(4)
    s, a, b, t = 0, 1, 2, 3
    arena.add_arc(s, a, 2, 1.0)
    arena.add_arc(s, b, 2, 2.0)
    arena.add_arc(a, t, 2, 1.0)
    arena.add_arc(b, t, 2, 1.0)
    return arena, s, a, b, t


class TestArena:
    def test_twin_pairing_via_xor(self):
        arena = ArcArena(2)
        arc = arena.add_arc(0, 1, 3, 2.5)
        assert arc == 0
        twin = arc ^ 1
        assert arena.head[arc] == 1 and arena.head[twin] == 0
        assert arena.tail(arc) == 0 and arena.tail(twin) == 1
        assert arena.cap[twin] == 0
        assert arena.cost[twin] == -2.5
        assert not arena.is_residual(arc) and arena.is_residual(twin)

    def test_add_arc_validates(self):
        arena = ArcArena(2)
        with pytest.raises(ValueError):
            arena.add_arc(0, 1, -1, 0.0)
        with pytest.raises(ValueError):
            arena.add_arc(0, 1, 1.5, 0.0)
        with pytest.raises(ValueError):
            arena.add_arc(0, 5, 1, 0.0)

    def test_push_and_residuals(self):
        arena = ArcArena(2)
        arc = arena.add_arc(0, 1, 5, 1.0)
        arena.push(arc, 3)
        assert arena.flow[arc] == 3
        assert arena.residual(arc) == 2
        assert arena.residual(arc ^ 1) == 3
        arena.push(arc ^ 1, 1)  # cancel one unit over the residual twin
        assert arena.flow[arc] == 2
        with pytest.raises(ValueError):
            arena.push(arc, 10)
        with pytest.raises(ValueError):
            arena.push(arc, -1)

    def test_reset_and_total_cost(self):
        arena = ArcArena(3)
        a0 = arena.add_arc(0, 1, 2, 3.0)
        a1 = arena.add_arc(1, 2, 2, -1.0)
        arena.push(a0, 2)
        arena.push(a1, 1)
        assert arena.total_cost() == pytest.approx(2 * 3.0 + 1 * -1.0)
        arena.reset_flows()
        assert arena.total_cost() == 0.0
        assert all(f == 0 for f in arena.flow)

    def test_csr_is_stable_insertion_order(self):
        arena = ArcArena(3)
        first = arena.add_arc(0, 1, 1, 0.0)
        second = arena.add_arc(0, 2, 1, 0.0)
        third = arena.add_arc(0, 1, 1, 5.0)  # parallel arc
        ptr, arcs = arena.csr()
        assert arcs[ptr[0]:ptr[1]] == [first, second, third]
        # Residual twins hang off their own tail nodes.
        assert arcs[ptr[1]:ptr[2]] == [first ^ 1, third ^ 1]
        assert arcs[ptr[2]:ptr[3]] == [second ^ 1]

    def test_csr_invalidated_by_mutation(self):
        arena = ArcArena(2)
        arena.add_arc(0, 1, 1, 0.0)
        ptr, arcs = arena.csr()
        node = arena.add_node()
        arena.add_arc(1, node, 1, 0.0)
        ptr2, arcs2 = arena.csr()
        assert len(ptr2) == 4 and len(arcs2) == 4

    def test_set_capacity(self):
        arena = ArcArena(2)
        arc = arena.add_arc(0, 1, 1, 0.0)
        arena.set_capacity(arc, 7)
        assert arena.cap[arc] == 7
        with pytest.raises(ValueError):
            arena.set_capacity(arc ^ 1, 3)
        with pytest.raises(ValueError):
            arena.set_capacity(arc, -1)

    def test_truncate_rolls_back_to_watermark(self):
        arena = ArcArena(2)
        base_arc = arena.add_arc(0, 1, 4, 1.0)
        mark = arena.watermark()
        extra = arena.add_node()
        arena.add_arc(0, extra, 1, 0.0)
        arena.push(base_arc, 2)
        arena.truncate(*mark)
        assert arena.num_nodes == 2
        assert arena.num_arcs == 2
        assert arena.flow[base_arc] == 0  # flows zeroed on surviving arcs
        assert arena.cap[base_arc] == 4  # capacities survive
        # The adjacency no longer mentions the dropped arc.
        ptr, arcs = arena.csr()
        assert len(arcs) == 2

    def test_truncate_validates(self):
        arena = ArcArena(1)
        node = arena.add_node()
        arena.add_arc(0, node, 1, 0.0)
        with pytest.raises(ValueError):
            arena.truncate(2, 1)  # odd arc count
        with pytest.raises(ValueError):
            arena.truncate(2, 8)  # beyond current size
        with pytest.raises(ValueError):
            arena.truncate(1, 2)  # surviving arc references dropped node

    def test_nodes_are_allocated_as_a_dense_run(self):
        arena = ArcArena()
        assert arena.num_nodes == 0
        assert arena.add_node() == 0
        assert arena.add_nodes(3) == 1  # first id of the new run
        assert arena.num_nodes == 4
        assert arena.add_nodes(0) == 4 and arena.num_nodes == 4
        arena.add_arc(3, 0, 1, 0.0)  # every allocated id is usable
        with pytest.raises(ValueError):
            arena.add_nodes(-1)
        with pytest.raises(ValueError):
            ArcArena(-1)

    def test_cancelling_over_the_twin_is_bounded_by_the_flow(self):
        arena = ArcArena(2)
        arc = arena.add_arc(0, 1, 2, 1.0)
        arena.push(arc, 2)
        assert arena.residual(arc ^ 1) == 2
        with pytest.raises(ValueError):
            arena.push(arc ^ 1, 3)  # more than the two units carried
        arena.push(arc ^ 1, 2)
        assert arena.flow[arc] == 0 and arena.flow[arc ^ 1] == 0
        assert arena.residual(arc) == 2

    def test_total_cost_counts_forward_arcs_only(self):
        # A twin carries -flow at -cost, so summing every arc would count
        # each unit twice.
        arena = ArcArena(3)
        a0 = arena.add_arc(0, 1, 2, 3.0)
        a1 = arena.add_arc(1, 2, 2, -1.0)
        arena.push(a0, 2)
        arena.push(a1, 2)
        arena.push(a1 ^ 1, 1)
        assert arena.total_cost() == pytest.approx(2 * 3.0 + 1 * -1.0)

    def test_forward_arcs_are_the_even_ids_in_insertion_order(self):
        arena = ArcArena(3)
        added = [
            arena.add_arc(0, 1, 1, 0.0),
            arena.add_arc(1, 2, 1, 0.0),
            arena.add_arc(0, 2, 1, 0.0),
        ]
        forwards = list(arena.forward_arcs())
        assert forwards == added == [0, 2, 4]
        assert arena.num_arcs == 2 * len(forwards)
        assert not any(arena.is_residual(arc) for arc in forwards)

    def test_packed_adjacency_mirrors_csr(self):
        arena, s, a, b, t = diamond()
        arena.add_arc(a, b, 1, 0.5)
        ptr, arcs = arena.csr()
        adj = arena.packed_adjacency()
        for node in range(arena.num_nodes):
            assert [entry[0] for entry in adj[node]] == arcs[ptr[node]:ptr[node + 1]]
            for arc, head, cost in adj[node]:
                assert head == arena.head[arc] and cost == arena.cost[arc]

    def test_packed_adjacency_survives_push_but_not_new_arcs(self):
        arena = ArcArena(3)
        arc = arena.add_arc(0, 1, 2, 1.0)
        adj = arena.packed_adjacency()
        arena.push(arc, 1)  # flow is read live, so the cache stays valid
        assert arena.packed_adjacency() is adj
        arena.add_arc(1, 2, 1, 0.0)
        rebuilt = arena.packed_adjacency()
        assert [entry[0] for entry in rebuilt[1]] == [arc ^ 1, 2]


class TestPotentials:
    def test_bellman_ford_matches_dag_pass_on_ltc_shape(self):
        arena = ArcArena(0)
        s = arena.add_node()
        t = arena.add_node()
        w = [arena.add_node() for _ in range(3)]
        tk = [arena.add_node() for _ in range(2)]
        for node in w:
            arena.add_arc(s, node, 2, 0.0)
        costs = [[-0.9, -0.2], [-0.85, -0.8], [-0.3, -0.75]]
        for i, node in enumerate(w):
            for j, task in enumerate(tk):
                arena.add_arc(node, task, 1, costs[i][j])
        for task in tk:
            arena.add_arc(task, t, 2, 0.0)
        bf = bellman_ford_potentials(arena, s)
        dag = dag_potentials(arena, s, [s] + w + tk + [t])
        assert dag == pytest.approx(bf)

    def test_dag_potentials_skips_saturated_arcs(self):
        arena = ArcArena(2)
        arena.add_arc(0, 1, 0, -5.0)  # zero capacity: never usable
        pot = dag_potentials(arena, 0, [0, 1])
        assert pot[0] == 0.0
        assert pot[1] == math.inf

    def test_bellman_ford_detects_negative_cycle(self):
        arena = ArcArena(3)
        arena.add_arc(0, 1, 1, -1.0)
        arena.add_arc(1, 2, 1, -1.0)
        arena.add_arc(2, 0, 1, -1.0)
        with pytest.raises(NegativeCycleError):
            bellman_ford_potentials(arena, 0)


class TestSolveMcf:
    def test_routes_max_flow_on_diamond(self):
        arena, s, a, b, t = diamond()
        result = solve_mcf(arena, s, t)
        assert result.flow_value == 4
        assert result.total_cost == pytest.approx(2 * 2.0 + 2 * 3.0)
        assert validate_arena_flow(arena, s, t, expected_value=4) == []

    def test_respects_max_flow_and_prefers_cheap_path(self):
        arena, s, a, b, t = diamond()
        result = solve_mcf(arena, s, t, max_flow=2)
        assert result.flow_value == 2
        assert result.total_cost == pytest.approx(4.0)
        assert arena.flow[0] == 2  # s->a carries both units
        assert arena.flow[2] == 0  # s->b unused

    def test_negative_costs(self):
        arena = ArcArena(4)
        s, a, b, t = 0, 1, 2, 3
        arena.add_arc(s, a, 1, 0.0)
        arena.add_arc(s, b, 1, 0.0)
        best = arena.add_arc(a, t, 1, -5.0)
        arena.add_arc(b, t, 1, -1.0)
        result = solve_mcf(arena, s, t, max_flow=1)
        assert arena.flow[best] == 1
        assert result.total_cost == pytest.approx(-5.0)

    def test_disconnected_sink(self):
        arena = ArcArena(3)
        arena.add_arc(0, 1, 1, 1.0)
        result = solve_mcf(arena, 0, 2)
        assert result.flow_value == 0
        assert result.augmentations == 0

    def test_require_max_flow_raises_when_infeasible(self):
        arena = ArcArena(3)
        arena.add_arc(0, 1, 1, 1.0)
        arena.add_arc(1, 2, 1, 1.0)
        with pytest.raises(InfeasibleFlowError):
            solve_mcf(arena, 0, 2, max_flow=2, require_max_flow=True)

    def test_invalid_arguments(self):
        arena, s, a, b, t = diamond()
        with pytest.raises(ValueError):
            solve_mcf(arena, s, 99)
        with pytest.raises(ValueError):
            solve_mcf(arena, s, t, max_flow=-1)
        with pytest.raises(ValueError):
            solve_mcf(arena, s, s)
        with pytest.raises(ValueError):
            solve_mcf(arena, s, t, potentials=[0.0])  # wrong length

    def test_continues_from_existing_flow(self):
        arena, s, a, b, t = diamond()
        solve_mcf(arena, s, t, max_flow=2)
        result = solve_mcf(arena, s, t, max_flow=2)
        assert result.flow_value == 2
        assert validate_arena_flow(arena, s, t, expected_value=4) == []

    def test_warm_started_potentials_give_same_answer(self):
        arena, s, a, b, t = diamond()
        pot = dag_potentials(arena, s, [s, a, b, t])
        warm = solve_mcf(arena, s, t, potentials=pot)
        arena2, s2, a2, b2, t2 = diamond()
        cold = solve_mcf(arena2, s2, t2)
        assert warm.flow_value == cold.flow_value
        assert warm.total_cost == pytest.approx(cold.total_cost)
        assert arena.flow == arena2.flow

    def test_final_potentials_can_warm_start_a_resolve(self):
        arena, s, a, b, t = diamond()
        first = solve_mcf(arena, s, t, max_flow=2)
        second = solve_mcf(arena, s, t, potentials=first.potentials)
        assert first.flow_value + second.flow_value == 4
        assert validate_arena_flow(arena, s, t, expected_value=4) == []

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(3):
            arena, s, a, b, t = diamond()
            solve_mcf(arena, s, t)
            runs.append(list(arena.flow))
        assert runs[0] == runs[1] == runs[2]

    def test_batch_reuse_lifecycle(self):
        """The MCF-LTC pattern: persistent sink arcs, per-batch worker arcs."""
        arena = ArcArena(2)  # 0 = source, 1 = sink
        task = arena.add_node()
        sink_arc = arena.add_arc(task, 1, 2, 0.0)
        mark = arena.watermark()

        # Batch 1: one worker, routes one unit.
        w1 = arena.add_node()
        arena.add_arc(0, w1, 1, 0.0)
        arena.add_arc(w1, task, 1, -0.9)
        r1 = solve_mcf(arena, 0, 1, potentials=dag_potentials(arena, 0, [0, w1, task, 1]))
        assert r1.flow_value == 1

        # Batch 2: roll back, task only needs one more unit now.
        arena.truncate(*mark)
        arena.set_capacity(sink_arc, 1)
        w2 = arena.add_node()
        arena.add_arc(0, w2, 3, 0.0)
        arena.add_arc(w2, task, 1, -0.8)
        r2 = solve_mcf(arena, 0, 1, potentials=dag_potentials(arena, 0, [0, w2, task, 1]))
        assert r2.flow_value == 1
        assert r2.total_cost == pytest.approx(-0.8)
        assert validate_arena_flow(arena, 0, 1, expected_value=1) == []

    def test_augmentations_bounded_by_flow_value(self):
        arena, s, a, b, t = diamond()
        result = solve_mcf(arena, s, t)
        assert 1 <= result.augmentations <= result.flow_value


class TestBipartiteAssignment:
    def test_maximises_total_value_with_real_costs(self):
        """The LTC-style reduction: maximise Acc* = minimise negative cost."""
        values = {
            (0, 0): 0.9, (0, 1): 0.2,
            (1, 0): 0.85, (1, 1): 0.8,
        }
        arena = ArcArena(2)  # 0 = source, 1 = sink
        workers = [arena.add_node() for _ in range(2)]
        tasks = [arena.add_node() for _ in range(2)]
        for worker in workers:
            arena.add_arc(0, worker, 1, 0.0)
        for task in tasks:
            arena.add_arc(task, 1, 1, 0.0)
        arcs = {
            (w, t): arena.add_arc(workers[w], tasks[t], 1, -value)
            for (w, t), value in values.items()
        }
        result = solve_mcf(arena, 0, 1)
        assert result.flow_value == 2
        # Optimal assignment: w0->t0 (0.9) + w1->t1 (0.8) = 1.7.
        assert result.total_cost == pytest.approx(-1.7)
        assert arena.flow[arcs[0, 0]] == 1
        assert arena.flow[arcs[1, 1]] == 1
        assert validate_arena_flow(arena, 0, 1, expected_value=2) == []


def random_network(rng: random.Random, num_nodes: int, num_edges: int):
    """A random arena with integer capacities/costs, mirrored in networkx."""
    arena = ArcArena(num_nodes)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_nodes))
    edges = set()
    for _ in range(num_edges):
        u, v = rng.sample(range(num_nodes), 2)
        if (u, v) in edges:
            continue
        edges.add((u, v))
        capacity = rng.randint(1, 5)
        cost = rng.randint(0, 9)
        arena.add_arc(u, v, capacity, float(cost))
        graph.add_edge(u, v, capacity=capacity, weight=cost)
    return arena, graph


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(12))
    def test_min_cost_matches_networkx(self, seed):
        rng = random.Random(seed)
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        source, sink = 0, 7

        # Maximum routable flow, found with networkx.
        try:
            max_flow_value = nx.maximum_flow_value(
                graph, source, sink, capacity="capacity"
            )
        except nx.NetworkXError:
            max_flow_value = 0
        if max_flow_value == 0:
            result = solve_mcf(arena, source, sink)
            assert result.flow_value == 0
            return

        demand = rng.randint(1, max_flow_value)
        graph.nodes[source]["demand"] = -demand
        graph.nodes[sink]["demand"] = demand
        flow_dict = nx.min_cost_flow(graph, capacity="capacity", weight="weight")
        expected_cost = nx.cost_of_flow(graph, flow_dict, weight="weight")

        result = solve_mcf(arena, source, sink, max_flow=demand,
                           require_max_flow=True)
        assert result.flow_value == demand
        assert result.total_cost == pytest.approx(expected_cost, abs=1e-6)
        assert validate_arena_flow(arena, source, sink, expected_value=demand) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_max_flow_min_cost_matches_networkx(self, seed):
        """Without ``max_flow`` the kernel routes a maximum flow at least cost."""
        rng = random.Random(1000 + seed)
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        source, sink = 0, 7
        flow_dict = nx.max_flow_min_cost(graph, source, sink,
                                         capacity="capacity", weight="weight")
        expected_value = sum(flow_dict[source].values()) - sum(
            flows.get(source, 0) for flows in flow_dict.values()
        )
        expected_cost = nx.cost_of_flow(graph, flow_dict, weight="weight")

        result = solve_mcf(arena, source, sink)
        assert result.flow_value == expected_value
        assert result.total_cost == pytest.approx(expected_cost, abs=1e-6)
        assert validate_arena_flow(
            arena, source, sink, expected_value=expected_value
        ) == []


def two_hop():
    """s -> a -> t, capacity 3 each; returns (arena, first, second)."""
    arena = ArcArena(3)
    first = arena.add_arc(0, 1, 3, 1.0)
    second = arena.add_arc(1, 2, 3, 1.0)
    return arena, first, second


def corrupt(arena, arc, units):
    """Set an arc's flow directly, bypassing push's capacity checks."""
    arena.flow[arc] = units
    arena.flow[arc ^ 1] = -units


class TestValidateArenaFlow:
    def test_valid_flow_has_no_violations(self):
        arena, first, second = two_hop()
        arena.push(first, 2)
        arena.push(second, 2)
        assert validate_arena_flow(arena, 0, 2, expected_value=2) == []

    def test_conservation_violation_detected(self):
        arena, first, second = two_hop()
        arena.push(first, 2)
        arena.push(second, 1)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "conservation" in kinds

    def test_capacity_violation_detected(self):
        arena, first, second = two_hop()
        corrupt(arena, first, 5)
        corrupt(arena, second, 5)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "capacity" in kinds

    def test_negative_flow_detected(self):
        arena, first, second = two_hop()
        corrupt(arena, first, -1)
        corrupt(arena, second, -1)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "negative-flow" in kinds

    def test_value_mismatch_detected(self):
        arena, first, second = two_hop()
        arena.push(first, 1)
        arena.push(second, 1)
        violations = validate_arena_flow(arena, 0, 2, expected_value=3)
        assert [v.kind for v in violations] == ["value"]

    def test_violation_renders_as_string(self):
        arena, first, second = two_hop()
        arena.push(first, 1)
        violations = validate_arena_flow(arena, 0, 2)
        assert violations
        assert str(violations[0]).startswith(violations[0].kind + ": ")

    def test_stranded_flow_breaks_conservation_and_terminal_balance(self):
        arena, first, second = two_hop()
        arena.push(first, 2)  # leaves the source, never reaches the sink
        kinds = [v.kind for v in validate_arena_flow(arena, 0, 2)]
        assert kinds == ["conservation", "source-sink-mismatch"]

    def test_empty_flow_is_valid_at_value_zero(self):
        arena, first, second = two_hop()
        assert validate_arena_flow(arena, 0, 2, expected_value=0) == []
        assert [v.kind for v in validate_arena_flow(arena, 0, 2, expected_value=1)] == [
            "value"
        ]

    def test_a_drifted_twin_is_its_own_violation(self):
        rng = random.Random(3)
        arena, _ = random_network(rng, num_nodes=8, num_edges=18)
        value = solve_mcf(arena, 0, 7).flow_value
        arc = next(a for a in arena.forward_arcs() if arena.flow[a])
        arena.flow[arc ^ 1] += 1  # the forward flow is left as solved
        violations = validate_arena_flow(arena, 0, 7, expected_value=value)
        assert [v.kind for v in violations] == ["twin"]

    def test_a_twin_with_capacity_is_a_violation(self):
        arena, first, second = two_hop()
        arena.push(first, 2)
        arena.push(second, 2)
        arena.cap[second ^ 1] = 1
        violations = validate_arena_flow(arena, 0, 2, expected_value=2)
        assert [v.kind for v in violations] == ["twin"]
        assert "twin capacity 1" in violations[0].detail

    def test_a_twin_whose_cost_is_not_negated_is_a_violation(self):
        arena, first, second = two_hop()
        arena.push(first, 2)
        arena.push(second, 2)
        arena.cost[first ^ 1] = arena.cost[first]
        violations = validate_arena_flow(arena, 0, 2, expected_value=2)
        assert [v.kind for v in violations] == ["twin"]
        assert "cost 1.0, twin 1.0" in violations[0].detail

    @pytest.mark.parametrize("seed", range(6))
    def test_one_unit_off_on_any_arc_of_a_solved_flow_is_detected(self, seed):
        rng = random.Random(seed)
        arena, _ = random_network(rng, num_nodes=8, num_edges=18)
        source, sink = 0, 7
        value = solve_mcf(arena, source, sink).flow_value
        assert validate_arena_flow(arena, source, sink, expected_value=value) == []
        for arc in arena.forward_arcs():
            units = arena.flow[arc]
            for wrong in (units + 1, units - 1):
                corrupt(arena, arc, wrong)
                assert validate_arena_flow(
                    arena, source, sink, expected_value=value
                ), f"arc {arc} at {wrong} units passed validation"
            corrupt(arena, arc, units)
        assert validate_arena_flow(arena, source, sink, expected_value=value) == []
