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
one (``None``) must leave the arena at zero flow.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.mcf_ltc import solve_mcf as solve_batch
from repro.flow.kernel import ArcArena, dag_potentials, solve_mcf
from repro.flow.simplex import UNIQUE_MARGIN, indifferent_share, network_simplex
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
    result = network_simplex(arena, 0, 1, order)
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
    assert network_simplex(arena, 0, 1, [0, 4, 5, 2, 3, 1]) is None
    assert not any(arena.flow)


def test_a_tie_wider_than_the_margin_is_certified():
    arena = ArcArena(6)
    for task in (2, 3):
        arena.add_arc(task, 1, 1, 0.0)
    for worker, offset in ((4, 0.0), (5, 10 * UNIQUE_MARGIN)):
        arena.add_arc(0, worker, 1, 0.0)
        arena.add_arc(worker, 2, 1, -0.5 - offset)
        arena.add_arc(worker, 3, 1, -0.5)
    result = network_simplex(arena, 0, 1, [0, 4, 5, 2, 3, 1])
    assert result is not None and result.flow_value == 2
    assert [arena.flow[a] for a in (6, 8, 12, 14)] == [0, 1, 1, 0]


def test_a_sink_out_of_reach_routes_nothing():
    arena = ArcArena(4)
    arena.add_arc(0, 2, 1, 0.0)
    arena.add_arc(2, 3, 1, -1.0)
    arena.add_arc(3, 1, 0, 0.0)  # a completed task
    result = network_simplex(arena, 0, 1, [0, 2, 3, 1])
    assert (result.flow_value, result.augmentations) == (0, 0)
    assert not any(arena.flow)


def test_rejects_bad_terminals_and_a_flowing_arena():
    arena, order = batch_arena(7, 3, 3, "distinct")
    for source, sink in ((0, 0), (0, arena.num_nodes)):
        with pytest.raises(ValueError):
            network_simplex(arena, source, sink, order)
    assert network_simplex(arena, 0, 1, order).flow_value > 0
    with pytest.raises(ValueError):
        network_simplex(arena, 0, 1, order)  # the arena now carries flow


def test_the_batch_entry_falls_back_to_the_sspa_on_a_tie():
    for seed in range(40):
        arena, order = batch_arena(seed, 6, 6, "ties")
        flow = solve_batch(arena, order)
        expected, reference = sspa(seed, 6, 6, "ties")
        assert arena.flow == expected.flow
        assert flow.flow_value == reference.flow_value
        if flow.fallback or flow.tie_prone:
            assert flow.augmentations == reference.augmentations


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


def test_indifferent_share_counts_workers_choosing_within_the_margin():
    arena = ArcArena(8)
    for task in (2, 3, 4):
        arena.add_arc(task, 1, 1, 0.0)
    rows = {
        5: (-0.5, -0.5 - UNIQUE_MARGIN / 2, -0.1),  # indifferent
        6: (-0.5, -0.5 - 2 * UNIQUE_MARGIN),        # tells its tasks apart
        7: (-0.5,),                                 # no choice to make
    }
    for worker, row in rows.items():
        arena.add_arc(0, worker, 2, 0.0)
        for task, cost in zip((2, 3, 4), row):
            arena.add_arc(worker, task, 1, cost)
    assert indifferent_share(arena, 0) == 0.5
    arena.set_capacity(2 * 4, 0)  # worker 5's first arc can carry nothing
    assert indifferent_share(arena, 0) == 0.0
    assert indifferent_share(ArcArena(2), 0) == 0.0


def test_a_tie_prone_batch_skips_the_simplex():
    arena, order = two_by_two([(-0.5, -0.5), (-0.5, -0.5)])
    flow = solve_batch(arena, order)
    assert (flow.tie_prone, flow.fallback) == (True, False)
    expected, order = two_by_two([(-0.5, -0.5), (-0.5, -0.5)])
    reference = solve_mcf(expected, 0, 1, potentials=dag_potentials(expected, 0, order))
    assert arena.flow == expected.flow
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)


def test_a_tie_between_workers_that_tell_tasks_apart_falls_back():
    # Both matchings cost -0.625 exactly, yet each worker's two costs
    # differ by 0.25, so the batch is not tie-prone and the certificate
    # has to catch the tie.
    costs = [(-0.5, -0.25), (-0.375, -0.125)]
    arena, order = two_by_two(costs)
    assert indifferent_share(arena, 0) == 0.0
    flow = solve_batch(arena, order)
    assert (flow.tie_prone, flow.fallback) == (False, True)
    expected, order = two_by_two(costs)
    reference = solve_mcf(expected, 0, 1, potentials=dag_potentials(expected, 0, order))
    assert arena.flow == expected.flow
    assert (flow.flow_value, flow.augmentations) == (2, reference.augmentations)
