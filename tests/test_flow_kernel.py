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

from repro.flow.kernel import ArcArena, dag_potentials, solve_mcf
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


def set_flow(arena, arc, units):
    """Set an arc's flow directly, its twin in lockstep."""
    arena.flow[arc] = units
    arena.flow[arc ^ 1] = -units


def nx_potentials(graph, source):
    """Shortest distances from ``source`` in ``graph``, inf where unreachable.

    At zero flow the arena's residual graph is ``graph`` itself, so these
    are exact initial potentials for :func:`solve_mcf`.
    """
    dist = nx.single_source_bellman_ford_path_length(graph, source, weight="weight")
    return [float(dist.get(v, math.inf)) for v in range(graph.number_of_nodes())]


def solve_diamond(arena, s, a, b, t):
    return solve_mcf(arena, s, t, dag_potentials(arena, s, [s, a, b, t]))


class TestArena:
    def test_twin_pairing_via_xor(self):
        arena = ArcArena(2)
        arc = arena.add_arc(0, 1, 3, 2.5)
        assert arc == 0
        twin = arc ^ 1
        assert arena.head[arc] == 1 and arena.head[twin] == 0
        assert arena.cap[twin] == 0
        assert arena.cost[twin] == -2.5

    def test_add_arc_validates(self):
        arena = ArcArena(2)
        with pytest.raises(ValueError):
            arena.add_arc(0, 1, -1, 0.0)
        with pytest.raises(ValueError):
            arena.add_arc(0, 1, 1.5, 0.0)
        with pytest.raises(ValueError):
            arena.add_arc(0, 5, 1, 0.0)

    def test_packed_adjacency_is_stable_insertion_order(self):
        arena = ArcArena(3)
        first = arena.add_arc(0, 1, 1, 0.0)
        second = arena.add_arc(0, 2, 1, 0.0)
        third = arena.add_arc(0, 1, 1, 5.0)  # parallel arc
        adj = arena.packed_adjacency()
        assert [entry[0] for entry in adj[0]] == [first, second, third]
        # Residual twins hang off their own tail nodes.
        assert [entry[0] for entry in adj[1]] == [first ^ 1, third ^ 1]
        assert [entry[0] for entry in adj[2]] == [second ^ 1]

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

    def test_total_cost_counts_forward_arcs_only(self):
        # A twin carries -flow at -cost, so summing every arc would count
        # each unit twice.
        arena = ArcArena(3)
        a0 = arena.add_arc(0, 1, 2, 3.0)
        a1 = arena.add_arc(1, 2, 2, -1.0)
        set_flow(arena, a0, 2)
        set_flow(arena, a1, 1)
        assert arena.total_cost() == pytest.approx(2 * 3.0 + 1 * -1.0)

    def test_forward_arcs_are_the_even_ids_in_insertion_order(self):
        arena = ArcArena(3)
        added = [
            arena.add_arc(0, 1, 1, 0.0),
            arena.add_arc(1, 2, 1, 0.0),
            arena.add_arc(0, 2, 1, 0.0),
        ]
        assert added == [0, 2, 4]
        assert arena.num_arcs == 2 * len(added)

    def test_packed_adjacency_mirrors_the_arc_lists(self):
        arena, s, a, b, t = diamond()
        arena.add_arc(a, b, 1, 0.5)
        adj = arena.packed_adjacency()
        for node in range(arena.num_nodes):
            leaving = [arc for arc in range(arena.num_arcs)
                       if arena.head[arc ^ 1] == node]
            assert [entry[0] for entry in adj[node]] == leaving
            for arc, head, cost in adj[node]:
                assert head == arena.head[arc] and cost == arena.cost[arc]

    def test_packed_adjacency_survives_push_but_not_new_arcs(self):
        arena = ArcArena(3)
        arc = arena.add_arc(0, 1, 2, 1.0)
        adj = arena.packed_adjacency()
        set_flow(arena, arc, 1)  # flow is read live, so the cache stays valid
        assert arena.packed_adjacency() is adj
        arena.add_arc(1, 2, 1, 0.0)
        rebuilt = arena.packed_adjacency()
        assert [entry[0] for entry in rebuilt[1]] == [arc ^ 1, 2]


class TestPotentials:
    def test_dag_pass_matches_networkx_on_ltc_shape(self):
        arena = ArcArena(0)
        graph = nx.DiGraph()
        s = arena.add_node()
        t = arena.add_node()
        w = [arena.add_node() for _ in range(3)]
        tk = [arena.add_node() for _ in range(2)]
        graph.add_nodes_from(range(arena.num_nodes))
        for node in w:
            arena.add_arc(s, node, 2, 0.0)
            graph.add_edge(s, node, weight=0.0)
        costs = [[-0.9, -0.2], [-0.85, -0.8], [-0.3, -0.75]]
        for i, node in enumerate(w):
            for j, task in enumerate(tk):
                arena.add_arc(node, task, 1, costs[i][j])
                graph.add_edge(node, task, weight=costs[i][j])
        for task in tk:
            arena.add_arc(task, t, 2, 0.0)
            graph.add_edge(task, t, weight=0.0)
        dag = dag_potentials(arena, s, [s] + w + tk + [t])
        assert dag == pytest.approx(nx_potentials(graph, s))

    def test_dag_potentials_skips_saturated_arcs(self):
        arena = ArcArena(2)
        arena.add_arc(0, 1, 0, -5.0)  # zero capacity: never usable
        pot = dag_potentials(arena, 0, [0, 1])
        assert pot[0] == 0.0
        assert pot[1] == math.inf


class TestSolveMcf:
    def test_routes_max_flow_on_diamond(self):
        arena, s, a, b, t = diamond()
        result = solve_diamond(arena, s, a, b, t)
        assert result.flow_value == 4
        assert arena.total_cost() == pytest.approx(2 * 2.0 + 2 * 3.0)
        assert validate_arena_flow(arena, s, t, expected_value=4) == []

    def test_negative_costs(self):
        # One unit enters through the source arc; it takes the cheaper path.
        arena = ArcArena(5)
        src, s, a, b, t = 0, 1, 2, 3, 4
        arena.add_arc(src, s, 1, 0.0)
        arena.add_arc(s, a, 1, 0.0)
        arena.add_arc(s, b, 1, 0.0)
        best = arena.add_arc(a, t, 1, -5.0)
        arena.add_arc(b, t, 1, -1.0)
        pot = dag_potentials(arena, src, [src, s, a, b, t])
        result = solve_mcf(arena, src, t, pot)
        assert result.flow_value == 1
        assert arena.flow[best] == 1
        assert arena.total_cost() == pytest.approx(-5.0)

    def test_disconnected_sink(self):
        arena = ArcArena(3)
        arena.add_arc(0, 1, 1, 1.0)
        result = solve_mcf(arena, 0, 2, dag_potentials(arena, 0, [0, 1, 2]))
        assert result.flow_value == 0
        assert result.augmentations == 0

    def test_invalid_arguments(self):
        arena, s, a, b, t = diamond()
        pot = dag_potentials(arena, s, [s, a, b, t])
        with pytest.raises(ValueError):
            solve_mcf(arena, s, 99, pot)
        with pytest.raises(ValueError):
            solve_mcf(arena, s, s, pot)
        with pytest.raises(ValueError):
            solve_mcf(arena, s, t, [0.0])  # wrong length

    def test_rejects_an_arena_that_carries_flow(self):
        arena, s, a, b, t = diamond()
        pot = dag_potentials(arena, s, [s, a, b, t])
        assert solve_mcf(arena, s, t, potentials=pot).flow_value == 4
        routed = list(arena.flow)
        with pytest.raises(ValueError, match="zero flow"):
            solve_mcf(arena, s, t, potentials=pot)
        assert arena.flow == routed

    @pytest.mark.parametrize("arc", [0, 2, 4, 6])
    def test_one_unit_on_any_arc_is_rejected(self, arc):
        arena, s, a, b, t = diamond()
        pot = dag_potentials(arena, s, [s, a, b, t])
        set_flow(arena, arc, 1)
        with pytest.raises(ValueError, match="zero flow"):
            solve_mcf(arena, s, t, pot)

    @pytest.mark.parametrize("seed", range(6))
    def test_writes_only_the_flow_lists(self, seed):
        """Structure, capacities and the adjacency cache survive a solve."""
        rng = random.Random(2000 + seed)
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        structure = (list(arena.head), list(arena.cost), list(arena.cap))
        adj = arena.packed_adjacency()
        rows = [list(row) for row in adj]
        result = solve_mcf(arena, 0, 7, nx_potentials(graph, 0))
        assert (arena.head, arena.cost, arena.cap) == structure
        assert arena.packed_adjacency() is adj
        assert [list(row) for row in adj] == rows
        assert all(
            arena.flow[a ^ 1] == -arena.flow[a] for a in range(0, arena.num_arcs, 2)
        )
        assert validate_arena_flow(
            arena, 0, 7, expected_value=result.flow_value
        ) == []

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(3):
            arena, s, a, b, t = diamond()
            solve_diamond(arena, s, a, b, t)
            runs.append(list(arena.flow))
        assert runs[0] == runs[1] == runs[2]

    def test_augmentations_bounded_by_flow_value(self):
        arena, s, a, b, t = diamond()
        result = solve_diamond(arena, s, a, b, t)
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
        result = solve_mcf(
            arena, 0, 1, dag_potentials(arena, 0, [0, *workers, *tasks, 1])
        )
        assert result.flow_value == 2
        # Optimal assignment: w0->t0 (0.9) + w1->t1 (0.8) = 1.7.
        assert arena.total_cost() == pytest.approx(-1.7)
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
        """A flow of a set value, through a source arc of that capacity."""
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
            result = solve_mcf(arena, source, sink, nx_potentials(graph, source))
            assert result.flow_value == 0
            return

        demand = rng.randint(1, max_flow_value)
        graph.nodes[source]["demand"] = -demand
        graph.nodes[sink]["demand"] = demand
        flow_dict = nx.min_cost_flow(graph, capacity="capacity", weight="weight")
        expected_cost = nx.cost_of_flow(graph, flow_dict, weight="weight")

        # A new source feeds the old one through an arc of capacity
        # ``demand``, so the min-cost max-flow routes exactly ``demand``.
        feed = arena.add_node()
        arena.add_arc(feed, source, demand, 0.0)
        graph.add_edge(feed, source, capacity=demand, weight=0)
        result = solve_mcf(arena, feed, sink, nx_potentials(graph, feed))
        assert result.flow_value == demand
        assert arena.total_cost() == pytest.approx(expected_cost, abs=1e-6)
        assert validate_arena_flow(arena, feed, sink, expected_value=demand) == []

    @pytest.mark.parametrize("seed", range(12))
    def test_max_flow_min_cost_matches_networkx(self, seed):
        """The kernel routes a maximum flow at least cost."""
        rng = random.Random(1000 + seed)
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        source, sink = 0, 7
        flow_dict = nx.max_flow_min_cost(graph, source, sink,
                                         capacity="capacity", weight="weight")
        expected_value = sum(flow_dict[source].values()) - sum(
            flows.get(source, 0) for flows in flow_dict.values()
        )
        expected_cost = nx.cost_of_flow(graph, flow_dict, weight="weight")

        result = solve_mcf(arena, source, sink, nx_potentials(graph, source))
        assert result.flow_value == expected_value
        assert arena.total_cost() == pytest.approx(expected_cost, abs=1e-6)
        assert validate_arena_flow(
            arena, source, sink, expected_value=expected_value
        ) == []


def two_hop():
    """s -> a -> t, capacity 3 each; returns (arena, first, second)."""
    arena = ArcArena(3)
    first = arena.add_arc(0, 1, 3, 1.0)
    second = arena.add_arc(1, 2, 3, 1.0)
    return arena, first, second


class TestValidateArenaFlow:
    def test_valid_flow_has_no_violations(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 2)
        set_flow(arena, second, 2)
        assert validate_arena_flow(arena, 0, 2, expected_value=2) == []

    def test_conservation_violation_detected(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 2)
        set_flow(arena, second, 1)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "conservation" in kinds

    def test_capacity_violation_detected(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 5)
        set_flow(arena, second, 5)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "capacity" in kinds

    def test_negative_flow_detected(self):
        arena, first, second = two_hop()
        set_flow(arena, first, -1)
        set_flow(arena, second, -1)
        kinds = {v.kind for v in validate_arena_flow(arena, 0, 2)}
        assert "negative-flow" in kinds

    def test_value_mismatch_detected(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 1)
        set_flow(arena, second, 1)
        violations = validate_arena_flow(arena, 0, 2, expected_value=3)
        assert [v.kind for v in violations] == ["value"]

    def test_violation_renders_as_string(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 1)
        violations = validate_arena_flow(arena, 0, 2)
        assert violations
        assert str(violations[0]).startswith(violations[0].kind + ": ")

    def test_stranded_flow_breaks_conservation_and_terminal_balance(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 2)  # leaves the source, never reaches the sink
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
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        value = solve_mcf(arena, 0, 7, nx_potentials(graph, 0)).flow_value
        arc = next(a for a in range(0, arena.num_arcs, 2) if arena.flow[a])
        arena.flow[arc ^ 1] += 1  # the forward flow is left as solved
        violations = validate_arena_flow(arena, 0, 7, expected_value=value)
        assert [v.kind for v in violations] == ["twin"]

    def test_a_twin_with_capacity_is_a_violation(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 2)
        set_flow(arena, second, 2)
        arena.cap[second ^ 1] = 1
        violations = validate_arena_flow(arena, 0, 2, expected_value=2)
        assert [v.kind for v in violations] == ["twin"]
        assert "twin capacity 1" in violations[0].detail

    def test_a_twin_whose_cost_is_not_negated_is_a_violation(self):
        arena, first, second = two_hop()
        set_flow(arena, first, 2)
        set_flow(arena, second, 2)
        arena.cost[first ^ 1] = arena.cost[first]
        violations = validate_arena_flow(arena, 0, 2, expected_value=2)
        assert [v.kind for v in violations] == ["twin"]
        assert "cost 1.0, twin 1.0" in violations[0].detail

    @pytest.mark.parametrize("seed", range(6))
    def test_one_unit_off_on_any_arc_of_a_solved_flow_is_detected(self, seed):
        rng = random.Random(seed)
        arena, graph = random_network(rng, num_nodes=8, num_edges=18)
        source, sink = 0, 7
        value = solve_mcf(arena, source, sink, nx_potentials(graph, source)).flow_value
        assert validate_arena_flow(arena, source, sink, expected_value=value) == []
        for arc in range(0, arena.num_arcs, 2):
            units = arena.flow[arc]
            for wrong in (units + 1, units - 1):
                set_flow(arena, arc, wrong)
                assert validate_arena_flow(
                    arena, source, sink, expected_value=value
                ), f"arc {arc} at {wrong} units passed validation"
            set_flow(arena, arc, units)
        assert validate_arena_flow(arena, source, sink, expected_value=value) == []
