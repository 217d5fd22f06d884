"""Differential tests: the certified network simplex against the SSPA.

Random LTC-shaped batch arenas (source -> workers -> tasks -> sink) are
solved by :func:`repro.flow.simplex.network_simplex` and by the kernel's
SSPA (:func:`~repro.flow.kernel.dag_potentials` then
:func:`~repro.flow.kernel.solve_mcf`), the pair MCF-LTC falls back to.
The arenas include completed tasks (sink capacity 0) and workers whose
only arcs lead to them.  Costs come in three regimes:

* ``distinct`` — full-precision uniform floats, so ties have measure zero;
* ``ties`` — drawn from {0.25, 0.5}, so cost-equal optima are common;
* ``near`` — a base cost plus a perturbation in [1e-14, 1e-9].

A certified result must equal the SSPA's flow arc for arc; an uncertified
one (``None``) must leave the arena at zero flow.  The simplex's first
basis, the greedy start, is checked on the same arenas: a feasible flow
on a strongly feasible spanning tree of the pruned network.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.mcf_ltc import solve_mcf as solve_batch
from repro.flow.kernel import ArcArena, dag_potentials, solve_mcf
from repro.flow.simplex import _greedy_start, _optimal_basis, network_simplex
from repro.flow.validate import validate_arena_flow

REGIMES = ("distinct", "ties", "near")


def batch_arena(seed, num_workers, num_tasks, regime):
    """One LTC batch network as MCFLTCSolver lays it out, plus its order.

    Node layout: source 0, sink 1, task nodes, then worker nodes; worker
    arcs are appended grouped by worker with tasks ascending.  About a
    third of the tasks are completed (sink capacity 0), and the last
    worker, when there are completed tasks, links to those tasks only.
    """
    rng = random.Random(seed)
    arena = ArcArena(2)
    task_nodes = [arena.add_node() for _ in range(num_tasks)]
    completed = {t for t in range(num_tasks) if rng.random() < 0.3}
    for t, node in enumerate(task_nodes):
        arena.add_arc(node, 1, 0 if t in completed else rng.randint(1, 3), 0.0)
    base = rng.choice((0.25, 0.5, 0.75))
    worker_nodes = []
    for w in range(num_workers):
        pool = range(num_tasks)
        if completed and w == num_workers - 1:
            pool = sorted(completed)
        tasks = [t for t in pool if rng.random() < 0.6] or [rng.choice(pool)]
        node = arena.add_node()
        worker_nodes.append(node)
        arena.add_arc(0, node, rng.randint(1, 3), 0.0)
        for t in tasks:
            if regime == "distinct":
                value = rng.uniform(0.1, 1.0)
            elif regime == "ties":
                value = rng.choice((0.25, 0.5))
            else:
                value = base + rng.uniform(1e-14, 1e-9)
            arena.add_arc(node, task_nodes[t], 1, -value)
    return arena, [0, *worker_nodes, *task_nodes, 1]


def sspa(seed, num_workers, num_tasks, regime):
    arena, order = batch_arena(seed, num_workers, num_tasks, regime)
    result = solve_mcf(arena, 0, 1, potentials=dag_potentials(arena, 0, order))
    return arena, result


def check(seed, num_workers, num_tasks, regime):
    """Solve both ways; returns whether the simplex was certified."""
    arena, order = batch_arena(seed, num_workers, num_tasks, regime)
    result = network_simplex(arena, 0, 1)
    expected, reference = sspa(seed, num_workers, num_tasks, regime)
    if result is None:
        assert not any(arena.flow)
        return False
    assert arena.flow == expected.flow
    assert result.flow_value == reference.flow_value
    assert validate_arena_flow(arena, 0, 1, expected_value=reference.flow_value) == []
    return True


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_workers=st.integers(1, 8),
    num_tasks=st.integers(1, 8),
    regime=st.sampled_from(REGIMES),
)
def test_certified_flows_match_the_sspa(seed, num_workers, num_tasks, regime):
    check(seed, num_workers, num_tasks, regime)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_workers=st.integers(1, 8),
    num_tasks=st.integers(1, 8),
    regime=st.sampled_from(REGIMES),
)
def test_every_arc_prices_non_negative_in_exact_integers_at_exit(
    seed, num_workers, num_tasks, regime
):
    arena, _ = batch_arena(seed, num_workers, num_tasks, regime)
    basis = _optimal_basis(arena, 0, 1)
    if basis is None:
        return
    S, T, C, x, P1, P2 = basis.S, basis.T, basis.C, basis.x, basis.P1, basis.P2
    ret = len(x) - 1

    # The integer costs are the float costs times one power of two.
    floats = [arena.cost[a] for a in basis.arcs] + [0.0]
    scales = {Fraction(c) / Fraction(f) for c, f in zip(C, floats) if f}
    assert len(scales) == 1
    scale = scales.pop()
    assert scale.denominator == 1 and scale.numerator.bit_count() == 1
    assert all(c == f * scale for c, f in zip(C, floats))

    # Tree arcs price exactly zero, every other arc non-negative on its
    # bound side (lexicographically: flow value first), and the ties are
    # exactly the non-tree arcs at zero.
    tree = {j for j in basis.edge if j >= 0}
    ties = []
    for j, units in enumerate(x):
        reduced = (P1[T[j]] - P1[S[j]] - (j == ret), C[j] - P2[S[j]] + P2[T[j]])
        if j in tree:
            assert reduced == (0, 0)
            continue
        if units:
            reduced = (-reduced[0], -reduced[1])
        assert reduced >= (0, 0)
        if reduced == (0, 0):
            ties.append(j)
    assert sorted(basis.ties) == ties


def pruned(arena, source, sink):
    """The arcs of positive capacity on some source -> sink path."""
    head, cap = arena.head, arena.cap
    arcs = [a for a in range(0, len(head), 2) if cap[a] > 0]

    def closure(start, step):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for a in arcs:
                u, w = step(a)
                if u == v and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    forward = closure(source, lambda a: (head[a ^ 1], head[a]))
    backward = closure(sink, lambda a: (head[a], head[a ^ 1]))
    return [a for a in arcs if head[a ^ 1] in forward and head[a] in backward]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_workers=st.integers(1, 8),
    num_tasks=st.integers(1, 8),
    regime=st.sampled_from(REGIMES),
)
def test_the_greedy_start_is_a_strongly_feasible_basis(
    seed, num_workers, num_tasks, regime
):
    arena, _ = batch_arena(seed, num_workers, num_tasks, regime)
    start = _greedy_start(arena, 0, 1)
    _, reference = sspa(seed, num_workers, num_tasks, regime)
    kept = pruned(arena, 0, 1)
    # Nothing routes exactly when the max flow is zero.
    assert (start is None) == (reference.flow_value == 0) == (not kept)
    if start is None:
        return
    arcs, x, parent, edge = start
    head, cap = arena.head, arena.cap
    S = [head[a ^ 1] for a in arcs] + [1]
    T = [head[a] for a in arcs] + [0]
    U = [cap[a] for a in arcs] + [float("inf")]
    ret = len(arcs)

    # The tree spans the pruned network: its nodes are the kept arcs' ends.
    assert arcs == kept
    nodes = {v for v in range(arena.num_nodes) if parent[v] >= 0}
    assert nodes | {1} == set(S) | set(T)
    assert parent[1] == -1

    # A feasible flow: within bounds and conserved, the return arc
    # carrying it back.
    net = [0] * arena.num_nodes
    for j, units in enumerate(x):
        assert 0 <= units <= U[j]
        net[S[j]] += units
        net[T[j]] -= units
    assert not any(net)
    assert x[ret] > 0

    # Every tree arc joins a node to its parent, and every non-tree arc
    # sits at a bound.
    tree = {edge[v] for v in nodes}
    assert len(tree) == len(nodes)
    for v in nodes:
        assert {S[edge[v]], T[edge[v]]} == {v, parent[v]}
    for j, units in enumerate(x):
        if j not in tree:
            assert units in (0, U[j])

    # Strongly feasible: every node pushes more flow toward the sink.
    for v in nodes:
        steps = 0
        u = v
        while u != 1:
            j = edge[u]
            room = U[j] - x[j] if S[j] == u else x[j]
            assert room > 0, (v, u)
            u = parent[u]
            steps += 1
            assert steps <= len(nodes)


@pytest.mark.parametrize(
    "arcs",
    [
        [(0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)],  # worker -> worker
        [(0, 2, 1), (2, 1, 1)],                        # a worker is a task
        [(0, 2, 2), (2, 3, 2), (3, 1, 2)],             # a two-unit pair arc
        [(0, 2, 1), (0, 2, 1), (2, 3, 1), (3, 1, 1)],  # two source arcs
        [(0, 2, 1), (2, 3, 1), (3, 1, 1), (3, 1, 1)],  # two sink arcs
        [(0, 2, 1), (2, 0, 1), (2, 3, 1), (3, 1, 1)],  # an arc into the source
        [(0, 1, 1)],                                   # source -> sink
    ],
    ids=["chain", "worker-task", "wide-pair", "two-source-arcs",
         "two-sink-arcs", "into-source", "direct"],
)
def test_a_non_layered_arena_is_rejected(arcs):
    arena = ArcArena(5)
    for tail, head, capacity in arcs:
        arena.add_arc(tail, head, capacity, -0.5)
    with pytest.raises(ValueError, match="layered"):
        network_simplex(arena, 0, 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), regime=st.sampled_from(REGIMES))
def test_larger_batches_match_the_sspa(seed, regime):
    check(seed, 40, 60, regime)


def test_distinct_costs_are_always_certified():
    assert all(check(seed, 12, 18, "distinct") for seed in range(30))


def test_forced_ties_make_the_certificate_fire():
    certified = [check(seed, 6, 6, "ties") for seed in range(40)]
    assert not all(certified)
    assert any(certified)


def test_an_exact_two_by_two_tie_is_not_certified():
    # Both perfect matchings of two workers and two tasks cost -1.0.
    arena = ArcArena(6)
    for task in (2, 3):
        arena.add_arc(task, 1, 1, 0.0)
    for worker in (4, 5):
        arena.add_arc(0, worker, 1, 0.0)
        for task in (2, 3):
            arena.add_arc(worker, task, 1, -0.5)
    assert network_simplex(arena, 0, 1) is None
    assert not any(arena.flow)


def test_a_one_ulp_near_tie_is_certified():
    # The two matchings differ by one ulp of 0.5: no tie in exact
    # arithmetic, so the certificate holds and the flow is the SSPA's.
    near = math.nextafter(-0.5, -1.0)
    for costs in ([(near, -0.5), (-0.5, -0.5)], [(-0.5, -0.5), (near, -0.5)]):
        arena, order = two_by_two(costs)
        result = network_simplex(arena, 0, 1)
        assert result is not None and result.flow_value == 2
        expected, order = two_by_two(costs)
        solve_mcf(expected, 0, 1, potentials=dag_potentials(expected, 0, order))
        assert arena.flow == expected.flow


@pytest.mark.parametrize(
    "costs, message",
    [([(-1e-300, -1e300), (-0.5, -0.5)], "binades"),
     ([(-math.inf, -0.5), (-0.5, -0.5)], "finite")],
    ids=["binades-apart", "infinite"],
)
def test_costs_without_a_common_integer_scale_are_rejected(costs, message):
    arena, _ = two_by_two(costs)
    with pytest.raises(ValueError, match=message):
        network_simplex(arena, 0, 1)


def test_a_sink_out_of_reach_routes_nothing():
    arena = ArcArena(4)
    arena.add_arc(0, 2, 1, 0.0)
    arena.add_arc(2, 3, 1, -1.0)
    arena.add_arc(3, 1, 0, 0.0)  # a completed task
    result = network_simplex(arena, 0, 1)
    assert (result.flow_value, result.augmentations) == (0, 0)
    assert not any(arena.flow)


def test_rejects_bad_terminals_and_a_flowing_arena():
    arena, order = batch_arena(7, 3, 3, "distinct")
    for source, sink in ((0, 0), (0, arena.num_nodes)):
        with pytest.raises(ValueError):
            network_simplex(arena, source, sink)
    assert network_simplex(arena, 0, 1).flow_value > 0
    with pytest.raises(ValueError):
        network_simplex(arena, 0, 1)  # the arena now carries flow


def test_the_batch_entry_falls_back_to_the_sspa_on_a_tie():
    fallbacks = 0
    for seed in range(40):
        arena, order = batch_arena(seed, 6, 6, "ties")
        flow = solve_batch(arena, order)
        expected, reference = sspa(seed, 6, 6, "ties")
        assert arena.flow == expected.flow
        assert flow.flow_value == reference.flow_value
        if flow.fallback:
            fallbacks += 1
            assert flow.augmentations == reference.augmentations
    # The SSPA path really runs: 31 of these 40 batches tie exactly.
    assert fallbacks >= 20


def two_by_two(costs):
    """Two unit workers (nodes 4, 5) and two unit tasks (nodes 2, 3).

    ``costs[w][t]`` is the cost of worker ``w``'s arc to task ``t``.
    """
    arena = ArcArena(6)
    for task in (2, 3):
        arena.add_arc(task, 1, 1, 0.0)
    for worker, row in zip((4, 5), costs):
        arena.add_arc(0, worker, 1, 0.0)
        for task, cost in zip((2, 3), row):
            arena.add_arc(worker, task, 1, cost)
    return arena, [0, 4, 5, 2, 3, 1]


def test_an_exact_tie_falls_back_to_the_sspa():
    # Every worker -> task arc costs the same, so both matchings are
    # optimal: the certificate fails and the SSPA's tie-breaking decides.
    costs = [(-0.5, -0.5), (-0.5, -0.5)]
    arena, order = two_by_two(costs)
    flow = solve_batch(arena, order)
    assert flow.fallback is True
    expected, order = two_by_two(costs)
    reference = solve_mcf(expected, 0, 1, potentials=dag_potentials(expected, 0, order))
    assert arena.flow == expected.flow
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)


def test_a_tie_between_workers_that_tell_tasks_apart_falls_back():
    # Both matchings cost -0.625 exactly, yet each worker's two costs
    # differ by 0.25: no single choice is a tie, and the certificate has
    # to catch the tie between whole matchings.
    costs = [(-0.5, -0.25), (-0.375, -0.125)]
    arena, order = two_by_two(costs)
    flow = solve_batch(arena, order)
    assert flow.fallback is True
    expected, order = two_by_two(costs)
    reference = solve_mcf(expected, 0, 1, potentials=dag_potentials(expected, 0, order))
    assert arena.flow == expected.flow
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)
