"""Differential tests: the certified network simplex against the SSPA.

Random LTC-shaped batch networks (source -> workers -> tasks -> sink) are
solved by :func:`repro.flow.simplex.network_simplex` and, on the arena
:meth:`~repro.flow.simplex.BatchNetwork.to_arena` lays out, by the
kernel's SSPA (:func:`~repro.flow.kernel.dag_potentials` then
:func:`~repro.flow.kernel.solve_mcf`), the pair MCF-LTC falls back to.
The networks include completed tasks (sink capacity 0) and workers whose
only pairs lead to them.  Costs come in three regimes:

* ``distinct`` — full-precision uniform floats, so ties have measure zero;
* ``ties`` — drawn from {0.25, 0.5}, so cost-equal optima are common;
* ``near`` — a base cost plus a perturbation in [1e-14, 1e-9].

A certified result must route exactly the SSPA's pairs.  The simplex's
first basis, the greedy start, is checked on the same networks: a
feasible flow on a strongly feasible spanning tree of the pruned network.
Pivot counts and flows of 40 seeded networks are pinned
(``tests/data/simplex_pivots.json``), and the leaving-arc rule is checked
against the cycle list it replaced.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms.mcf_ltc import solve_mcf as solve_batch
from repro.flow.kernel import dag_potentials, solve_mcf
from repro.flow.simplex import (
    BatchNetwork,
    _greedy_start,
    _leaving_arc,
    _optimal_basis,
    network_simplex,
)
from repro.flow.validate import validate_arena_flow

REGIMES = ("distinct", "ties", "near")
PIVOTS = Path(__file__).parent / "data" / "simplex_pivots.json"


def batch_network(seed, num_workers, num_tasks, regime):
    """One LTC batch network as MCFLTCSolver lays it out.

    About a third of the tasks are completed (sink capacity 0), and the
    last worker, when there are completed tasks, links to those tasks
    only.  Pairs are grouped by worker with tasks ascending.
    """
    rng = random.Random(seed)
    completed = {t for t in range(num_tasks) if rng.random() < 0.3}
    task_cap = [0 if t in completed else rng.randint(1, 3) for t in range(num_tasks)]
    base = rng.choice((0.25, 0.5, 0.75))
    worker_cap, pair_worker, pair_task, costs = [], [], [], []
    for w in range(num_workers):
        pool = range(num_tasks)
        if completed and w == num_workers - 1:
            pool = sorted(completed)
        tasks = [t for t in pool if rng.random() < 0.6] or [rng.choice(pool)]
        worker_cap.append(rng.randint(1, 3))
        for t in tasks:
            if regime == "distinct":
                value = rng.uniform(0.1, 1.0)
            elif regime == "ties":
                value = rng.choice((0.25, 0.5))
            else:
                value = base + rng.uniform(1e-14, 1e-9)
            pair_worker.append(w)
            pair_task.append(t)
            costs.append(-value)
    return BatchNetwork(task_cap, worker_cap, pair_worker, pair_task, costs)


def sspa(network):
    """The SSPA on the network's arena: ``(arena, pair_arcs, result)``."""
    arena, order, pair_arcs = network.to_arena()
    result = solve_mcf(arena, 0, 1, potentials=dag_potentials(arena, 0, order))
    return arena, pair_arcs, result


def routed_by(arena, pair_arcs):
    return [j for j, arc in enumerate(pair_arcs) if arena.flow[arc]]


def arena_with_flow(network, routed):
    """The network's arena carrying one unit on each routed pair."""
    arena, _, pair_arcs = network.to_arena()
    source_arc = {arena.head[a]: a for a in range(0, arena.num_arcs, 2)
                  if arena.head[a ^ 1] == 0}
    first_worker = 2 + len(network.task_cap)
    for j in routed:
        worker = first_worker + int(network.pair_worker[j])
        task_arc = 2 * int(network.pair_task[j])
        for arc in (pair_arcs[j], source_arc[worker], task_arc):
            arena.flow[arc] += 1
            arena.flow[arc ^ 1] -= 1
    return arena


def check(seed, num_workers, num_tasks, regime):
    """Solve both ways; returns whether the simplex was certified."""
    network = batch_network(seed, num_workers, num_tasks, regime)
    result = network_simplex(network)
    expected, pair_arcs, reference = sspa(network)
    if result is None:
        return False
    assert result.routed == routed_by(expected, pair_arcs)
    assert result.flow_value == reference.flow_value
    arena = arena_with_flow(network, result.routed)
    assert arena.flow == expected.flow
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
    network = batch_network(seed, num_workers, num_tasks, regime)
    basis = _optimal_basis(network)
    if basis is None:
        return
    S, T, C, x, P1, P2 = basis.S, basis.T, basis.C, basis.x, basis.P1, basis.P2
    ret = len(x) - 1

    # The integer costs are the float costs times one power of two.
    floats = [0.0] * len(x)
    for j, local in zip(basis.kept.tolist(), basis.pair_local.tolist()):
        floats[local] = float(network.costs[j])
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
    network = batch_network(seed, num_workers, num_tasks, regime)
    start = _greedy_start(network)
    arena, _, reference = sspa(network)
    kept = pruned(arena, 0, 1)
    # Nothing routes exactly when the max flow is zero.
    assert (start is None) == (reference.flow_value == 0) == (not kept)
    if start is None:
        return
    S, T, U, x, parent, edge = start.S, start.T, start.U, start.x, start.parent, start.edge
    ret = len(x) - 1
    assert (S[ret], T[ret], U[ret]) == (1, 0, float("inf"))

    # The local arcs are the pruned network's arena arcs, in arena order,
    # with the arena's capacities and the pairs' scaled costs.
    arc_of = {(arena.head[a ^ 1], arena.head[a]): a for a in range(0, arena.num_arcs, 2)}
    assert [arc_of[S[j], T[j]] for j in range(ret)] == kept
    assert all(U[j] == arena.cap[arc_of[S[j], T[j]]] for j in range(ret))
    nodes = {v for v in range(len(parent)) if parent[v] >= 0}
    assert nodes | {1} == set(S) | set(T)
    assert parent[1] == -1

    # A feasible flow: within bounds and conserved, the return arc
    # carrying it back.
    net = [0] * len(parent)
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
    "arrays, message",
    [
        (([1], [1], [0, 0], [0], [-0.5]), "every pair"),
        (([-1], [1], [0], [0], [-0.5]), "non-negative"),
        (([1], [1], [1], [0], [-0.5]), "known workers"),
        (([1], [1], [0], [1], [-0.5]), "known workers"),
        (([1, 1], [1, 1], [1, 0], [0, 1], [-0.5, -0.5]), "ascending"),
    ],
    ids=["lengths", "negative-capacity", "unknown-worker", "unknown-task",
         "workers-out-of-order"],
)
def test_a_malformed_network_is_rejected(arrays, message):
    with pytest.raises(ValueError, match=message):
        BatchNetwork(*arrays)


def test_the_arena_is_mcf_ltcs_layout():
    # Task sink arcs first, then each worker's source arc and its pairs.
    network = BatchNetwork([2, 0], [1, 3], [0, 1, 1], [1, 0, 1], [-0.5, -0.25, -1.0])
    arena, order, pair_arcs = network.to_arena()
    forward = [(arena.head[a ^ 1], arena.head[a], arena.cap[a], arena.cost[a])
               for a in range(0, arena.num_arcs, 2)]
    assert forward == [
        (2, 1, 2, 0.0), (3, 1, 0, 0.0),
        (0, 4, 1, 0.0), (4, 3, 1, -0.5),
        (0, 5, 3, 0.0), (5, 2, 1, -0.25), (5, 3, 1, -1.0),
    ]
    assert order == [0, 4, 5, 2, 3, 1]
    assert pair_arcs == [6, 10, 12]
    assert network.num_arcs == arena.num_arcs == 14
    assert not any(arena.flow)


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


def pinned_cases():
    return json.loads(PIVOTS.read_text())


@pytest.mark.parametrize("case", pinned_cases(), ids=lambda case: f"seed{case['seed']}")
def test_pivots_and_flows_are_pinned(case):
    """Pivot counts and flows recorded from the arena-based simplex."""
    network = batch_network(case["seed"], case["workers"], case["tasks"], case["regime"])
    assert len(network.costs) == case["pairs"]
    result = network_simplex(network)
    assert (result is not None) == case["certified"]
    if result is not None:
        assert result.augmentations == case["pivots"]
        assert result.flow_value == case["flow_value"]
        assert result.routed == case["routed"]


def cycle_list_leaving_arc(i, p, q, w, S, U, x, parent, edge):
    """The leaving arc as the simplex once found it: build the cycle
    ``w -> ... -> p -> q -> ... -> w`` as (arc, node the flow leaves)
    pairs and take its last arc of least residual capacity."""
    down = []
    v = p
    while v != w:
        down.append((edge[v], parent[v]))
        v = parent[v]
    down.reverse()
    entering = len(down)
    cycle = down + [(i, p)]
    v = q
    while v != w:
        cycle.append((edge[v], v))
        v = parent[v]
    delta, leave = math.inf, -1
    for index, (j, v) in enumerate(cycle):
        r = U[j] - x[j] if S[j] == v else x[j]
        if r <= delta:
            delta, leave = r, index
    j, v = cycle[leave]
    return delta, j, v, leave < entering


def two_sided_cycle(left, right, entering, forward):
    """A pivot's tree and cycle, built by hand.

    The apex is node 0.  ``left`` lists the residual capacities of the
    arcs from the apex down to ``p`` and ``right`` those from ``q`` up to
    the apex, each in cycle order; ``entering`` is the entering arc's.
    ``forward[k]`` orients arc ``k`` along the cycle's flow (residual
    ``U - x``) or against it (residual ``x``).  Returns the arguments of
    :func:`_leaving_arc` after the apex.
    """
    n = 1 + len(left) + len(right)
    p_path = [0, *range(1, len(left) + 1)]  # apex .. p
    q_path = [0, *range(len(left) + 1, n)]  # apex .. q
    parent = [-1] * n
    edge = [-1] * n
    S, U, x = [], [], []

    def add(tail, head, residual):
        along = forward[len(S)]
        S.append(tail if along else head)
        U.append(residual + 3 if along else residual + 5)
        x.append(3 if along else residual)

    for upper, lower, residual in zip(p_path, p_path[1:], left):
        parent[lower], edge[lower] = upper, len(S)
        add(upper, lower, residual)  # the flow runs down to p
    for upper, lower, residual in zip(q_path, q_path[1:], right[::-1]):
        parent[lower], edge[lower] = upper, len(S)
        add(lower, upper, residual)  # and up from q
    p, q = p_path[-1], q_path[-1]
    i = len(S)
    add(p, q, entering)
    return i, p, q, S, U, x, parent, edge


@pytest.mark.parametrize(
    "left, right, entering, expected_arc, p_side",
    [
        ([1, 1, 2], [1, 1], 3, 3, False),  # ties on both sides: the q side's last
        ([1, 1, 2], [5, 5], 3, 1, True),   # ties on the p side: the one nearer p
        ([1, 2], [4], 1, 3, False),        # a tie with the entering arc: it leaves
        ([2, 2], [2, 2], 2, 2, False),     # all equal: the last arc into the apex
    ],
    ids=["both-sides", "p-side", "entering", "all-equal"],
)
def test_the_last_blocking_arc_after_the_apex_leaves(
    left, right, entering, expected_arc, p_side
):
    for forward in ([True] * 6, [False, True] * 3, [False] * 6):
        i, p, q, S, U, x, parent, edge = two_sided_cycle(left, right, entering,
                                                         forward)
        found = _leaving_arc(i, p, q, 0, S, U, x, parent, edge)
        assert found == cycle_list_leaving_arc(i, p, q, 0, S, U, x, parent, edge)
        delta, arc, _, on_p_side = found
        assert delta == min(left + right + [entering])
        assert arc == expected_arc
        assert on_p_side is p_side


@settings(max_examples=200, deadline=None)
@given(
    left=st.lists(st.integers(0, 2), min_size=0, max_size=4),
    right=st.lists(st.integers(0, 2), min_size=0, max_size=4),
    entering=st.integers(0, 2),
    forward=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_path_walks_pick_the_cycle_lists_leaving_arc(left, right, entering, forward):
    assume(left or right)  # p and q are distinct nodes
    i, p, q, S, U, x, parent, edge = two_sided_cycle(left, right, entering, forward)
    assert (_leaving_arc(i, p, q, 0, S, U, x, parent, edge)
            == cycle_list_leaving_arc(i, p, q, 0, S, U, x, parent, edge))


def test_an_exact_two_by_two_tie_is_not_certified():
    # Both perfect matchings of two workers and two tasks cost -1.0.
    assert network_simplex(two_by_two([(-0.5, -0.5), (-0.5, -0.5)])) is None


def test_a_one_ulp_near_tie_is_certified():
    # The two matchings differ by one ulp of 0.5: no tie in exact
    # arithmetic, so the certificate holds and the flow is the SSPA's.
    near = math.nextafter(-0.5, -1.0)
    for costs in ([(near, -0.5), (-0.5, -0.5)], [(-0.5, -0.5), (near, -0.5)]):
        network = two_by_two(costs)
        result = network_simplex(network)
        assert result is not None and result.flow_value == 2
        expected, pair_arcs, _ = sspa(network)
        assert result.routed == routed_by(expected, pair_arcs)


@pytest.mark.parametrize(
    "costs, message",
    [([(-1e-300, -1e300), (-0.5, -0.5)], "binades"),
     ([(-math.inf, -0.5), (-0.5, -0.5)], "finite")],
    ids=["binades-apart", "infinite"],
)
def test_costs_without_a_common_integer_scale_are_rejected(costs, message):
    with pytest.raises(ValueError, match=message):
        two_by_two(costs)


def test_a_sink_out_of_reach_routes_nothing():
    network = BatchNetwork([0], [1], [0], [0], [-1.0])  # a completed task
    result = network_simplex(network)
    assert (result.flow_value, result.augmentations, result.routed) == (0, 0, [])


def test_the_batch_entry_falls_back_to_the_sspa_on_a_tie():
    fallbacks = 0
    for seed in range(40):
        network = batch_network(seed, 6, 6, "ties")
        flow = solve_batch(network)
        expected, pair_arcs, reference = sspa(network)
        assert flow.routed == routed_by(expected, pair_arcs)
        assert flow.flow_value == reference.flow_value
        if flow.fallback:
            fallbacks += 1
            assert flow.augmentations == reference.augmentations
    # The SSPA path really runs: 31 of these 40 batches tie exactly.
    assert fallbacks >= 20


def two_by_two(costs):
    """Two unit workers and two unit tasks; ``costs[w][t]`` is the cost of
    worker ``w``'s pair with task ``t``."""
    return BatchNetwork([1, 1], [1, 1], [0, 0, 1, 1], [0, 1, 0, 1],
                        [cost for row in costs for cost in row])


def test_an_exact_tie_falls_back_to_the_sspa():
    # Every worker -> task arc costs the same, so both matchings are
    # optimal: the certificate fails and the SSPA's tie-breaking decides.
    network = two_by_two([(-0.5, -0.5), (-0.5, -0.5)])
    flow = solve_batch(network)
    assert flow.fallback is True
    expected, pair_arcs, reference = sspa(network)
    assert flow.routed == routed_by(expected, pair_arcs)
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)


def test_a_tie_between_workers_that_tell_tasks_apart_falls_back():
    # Both matchings cost -0.625 exactly, yet each worker's two costs
    # differ by 0.25: no single choice is a tie, and the certificate has
    # to catch the tie between whole matchings.
    network = two_by_two([(-0.5, -0.25), (-0.375, -0.125)])
    flow = solve_batch(network)
    assert flow.fallback is True
    expected, pair_arcs, reference = sspa(network)
    assert flow.routed == routed_by(expected, pair_arcs)
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)
