"""Differential property tests for the candidate engine.

Random instances — clustered and scattered tasks, workers inside and far
outside the task bounding box, sigmoid and constant accuracy models,
degenerate thresholds — are queried four ways:

* the pre-refactor object-level finder
  (:class:`repro.core.candidates_legacy.LegacyCandidateFinder`), on its
  dict grid and as an exhaustive scan of every task with no radius gate,
* the engine with every query on its scalar loops,
* the engine with every query on its numpy pass, and
* the engine with a cutover inside the drawn block sizes, so queries
  switch passes mid-run (the ``engine_pass`` fixture sets the vector
  cutover for each).

Every query (candidate lists, ``has_candidates``, ``eligible_pairs``
streams, per-task counts) must agree exactly, ordering included (the
exhaustive scan walks instance order, so against it the candidate sets
and counts must agree).  On top
of the query layer, whole solver runs are compared: MCF-LTC / LAF / AAM
(+ ablations) arrangements must be byte-identical across the three
engine passes, and LAF/AAM must be byte-identical to replicas of their
pre-engine observe loops.  Worker accuracies are full-precision
PRNG floats, so threshold-boundary ties have measure zero and exact
agreement is the right bar.
"""

import math
from dataclasses import replace

import pytest
from conftest import ENGINE_PASSES, vector_cutover
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms.aam import AAMSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.registry import build_solver
from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.candidates import CandidateFinder
from repro.core.candidates_legacy import (
    LegacyCandidateFinder,
    legacy_aam_arrangement,
    legacy_laf_arrangement,
)
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point

#: ``engine_pass`` is set once per test, not per example.
FIXTURE_OK = [HealthCheck.function_scoped_fixture]

ONLINE_SPECS = ["LAF", "AAM", "LGF-only", "LRF-only", "Random?seed=3"]
ALL_SPECS = ONLINE_SPECS + ["MCF-LTC", "Base-off"]


@st.composite
def ltc_instances(draw):
    """A random LTC instance stressing the candidate layer's edge cases."""
    rng = draw(st.randoms(use_true_random=False))
    num_tasks = draw(st.integers(min_value=1, max_value=28))
    num_workers = draw(st.integers(min_value=1, max_value=24))
    d_max = draw(st.sampled_from([3.0, 10.0, 30.0]))
    box = draw(st.sampled_from([40.0, 120.0, 400.0]))
    # A few duplicate/cluster locations plus scattered ones.
    cluster_x, cluster_y = rng.uniform(0, box), rng.uniform(0, box)
    tasks = []
    task_ids = rng.sample(range(1000), num_tasks)
    if draw(st.booleans()):
        task_ids.sort()  # both sorted and shuffled id layouts
    for task_id in task_ids:
        if rng.random() < 0.3:
            location = Point(cluster_x + rng.uniform(-2, 2),
                             cluster_y + rng.uniform(-2, 2))
        else:
            location = Point(rng.uniform(0, box), rng.uniform(0, box))
        tasks.append(Task(task_id=task_id, location=location))
    workers = []
    for index in range(1, num_workers + 1):
        if rng.random() < 0.25:
            # Far outside the task bounding box (clamped border cells).
            location = Point(rng.uniform(-3 * box, 4 * box),
                             rng.uniform(-3 * box, 4 * box))
        else:
            location = Point(rng.uniform(0, box), rng.uniform(0, box))
        workers.append(
            Worker(
                index=index,
                location=location,
                accuracy=rng.uniform(0.66, 1.0),
                capacity=rng.randint(1, 5),
            )
        )
    if draw(st.booleans()):
        model = SigmoidDistanceAccuracy(d_max=d_max)
    else:
        model = ConstantAccuracy(rng.uniform(0.5, 1.0))
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=draw(st.sampled_from([0.14, 0.2, 0.3])),
        accuracy_model=model,
    )


class TestQueryDifferential:
    @given(
        instance=ltc_instances(),
        min_accuracy=st.sampled_from([None, 0.0, 0.8]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=FIXTURE_OK)
    def test_engine_matches_the_legacy_scan(
        self, engine_pass, grid_gather, instance, min_accuracy
    ):
        if min_accuracy is not None:
            instance = replace(instance, min_assignable_accuracy=min_accuracy)
        legacy = LegacyCandidateFinder(instance)
        # The exhaustive reference: every task, no radius gate, instance
        # order (so only the candidate sets are compared against it).
        scan = LegacyCandidateFinder(instance, use_spatial_index=False)
        finder = CandidateFinder(instance)
        model = instance.accuracy_model
        for worker in instance.workers:
            expected = [t.task_id for t in legacy.candidates(worker)]
            got = [t.task_id for t in finder.candidates(worker)]
            assert got == expected
            assert sorted(got) == sorted(t.task_id for t in scan.candidates(worker))
            assert finder.has_candidates(worker) == bool(expected)
            # Each candidate carries the model's accuracy, bit for bit.
            assert [
                (t.task_id, acc.hex()) for t, acc in finder.iter_candidates(worker)
            ] == [
                (t.task_id, model.accuracy(worker, t).hex())
                for t in legacy.iter_candidates(worker)
            ]
        assert finder.candidate_count_per_task() == legacy.candidate_count_per_task()
        assert finder.candidate_count_per_task() == scan.candidate_count_per_task()
        expected_pairs = [
            (w.index, t.task_id, model.accuracy(w, t).hex())
            for w, t in legacy.eligible_pairs(instance.workers)
        ]
        got_pairs = [
            (w.index, t.task_id, acc.hex())
            for w, t, acc in finder.eligible_pairs(instance.workers)
        ]
        assert got_pairs == expected_pairs


class TestArrangementEquality:
    @staticmethod
    def _per_pass(spec, instance):
        results = {}
        for name, block in ENGINE_PASSES.items():
            with vector_cutover(block):
                results[name] = build_solver(spec).solve(instance).arrangement.assignments
        return results

    @given(instance=ltc_instances())
    @settings(max_examples=15, deadline=None)
    def test_solvers_agree_across_engine_passes(self, instance):
        for spec in ALL_SPECS:
            results = self._per_pass(spec, instance)
            for name in ("mixed", "vector"):
                assert results[name] == results["scalar"], (spec, name)

    @given(instance=ltc_instances())
    @settings(max_examples=15, deadline=None, suppress_health_check=FIXTURE_OK)
    def test_laf_and_aam_match_their_pre_engine_loops(
        self, engine_pass, grid_gather, instance
    ):
        laf = LAFSolver().solve(instance)
        assert laf.arrangement.assignments == legacy_laf_arrangement(
            instance
        ).assignments
        aam = AAMSolver().solve(instance)
        assert aam.arrangement.assignments == legacy_aam_arrangement(
            instance
        ).assignments

    def test_mcf_ltc_identical_across_engine_passes_on_synthetic(
        self, small_synthetic_instance
    ):
        results = self._per_pass("MCF-LTC", small_synthetic_instance)
        assert results["mixed"] == results["scalar"]
        assert results["vector"] == results["scalar"]


class TestAAMIncrementalStats:
    """The satellite fix: AAM's ``avg``/``maxRemain`` are maintained
    incrementally and must track the naive O(T) recomputation."""

    @staticmethod
    def _naive_stats(instance, arrangement):
        remaining = [
            arrangement.remaining_of(task.task_id)
            for task in instance.tasks
            if not arrangement.is_task_complete(task.task_id)
        ]
        if not remaining:
            return None
        return sum(remaining), max(remaining)

    @given(instance=ltc_instances())
    @settings(max_examples=20, deadline=None)
    def test_incremental_sum_and_max_track_naive_scan(self, instance):
        solver = AAMSolver()
        solver.start(instance)
        for worker in instance.workers:
            naive = self._naive_stats(instance, solver.arrangement)
            if naive is None:
                assert solver._uncompleted_count == 0
                assert solver.observe(worker) == []
                continue
            naive_sum, naive_max = naive
            assert solver._uncompleted_count > 0
            # The max is the same float the naive scan finds; the running
            # sum is compensated but may differ from the left-to-right
            # naive sum in accumulated ulps.
            assert solver._current_max_remaining() == naive_max
            assert solver._remaining_sum == pytest.approx(
                naive_sum, rel=1e-12, abs=1e-12
            )
            solver.observe(worker)

    def test_knife_edge_decision_matches_legacy(self, engine_pass, grid_gather):
        """When avg lands exactly on maxRemain the switch must still take
        the legacy branch: the incremental sum is bypassed inside the
        resolution band and the naive left-to-right sum decides."""
        # |T| == K makes avg == delta == maxRemain at the first arrival.
        tasks = [Task(task_id=i, location=Point(float(i), 0.0)) for i in range(3)]
        workers = [
            Worker(index=i, location=Point(1.0, 0.0), accuracy=0.95, capacity=3)
            for i in range(1, 40)
        ]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)
        result = AAMSolver().solve(instance)
        legacy = legacy_aam_arrangement(instance)
        assert result.arrangement.assignments == legacy.assignments
        # avg == maxRemain takes the LGF branch (>=), as in the paper.
        solver = AAMSolver()
        solver.start(instance)
        solver.observe(instance.worker(1))
        assert solver.diagnostics()["lgf_rounds"] == 1.0
        assert solver.diagnostics()["lrf_rounds"] == 0.0

    def test_incremental_stats_on_synthetic_run(self, small_synthetic_instance):
        instance = small_synthetic_instance
        solver = AAMSolver()
        solver.start(instance)
        for worker in instance.workers:
            if solver._uncompleted_count == 0:
                break
            naive_sum, naive_max = self._naive_stats(instance, solver.arrangement)
            assert solver._current_max_remaining() == naive_max
            assert solver._remaining_sum == pytest.approx(naive_sum, rel=1e-12)
            solver.observe(worker)
        assert solver.arrangement.is_complete()


class TestDegenerateGeometry:
    def test_all_tasks_at_one_point(self, engine_pass, grid_gather):
        tasks = [Task(task_id=i, location=Point(5.0, 5.0)) for i in range(6)]
        workers = [Worker(index=1, location=Point(5.0, 5.0), accuracy=0.9,
                          capacity=2)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)
        finder = CandidateFinder(instance)
        legacy = LegacyCandidateFinder(instance)
        assert [t.task_id for t in finder.candidates(instance.worker(1))] == [
            t.task_id for t in legacy.candidates(instance.worker(1))
        ]

    def test_worker_far_outside_every_cell(self, engine_pass, grid_gather):
        tasks = [Task(task_id=i, location=Point(float(i), 0.0)) for i in range(4)]
        workers = [Worker(index=1, location=Point(1e6, -1e6), accuracy=0.99,
                          capacity=2)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)
        finder = CandidateFinder(instance)
        assert finder.candidates(instance.worker(1)) == []
        assert not finder.has_candidates(instance.worker(1))
