"""Cross-module integration tests.

These exercise the full pipeline — data generation, candidate finding,
solving, constraint re-validation, quality simulation — and check the
relationships between algorithms that the paper's analysis promises
(feasibility, bounds, approximation behaviour on small instances).
"""

import math

import pytest

from repro.algorithms.bounds import latency_lower_bound
from repro.algorithms.exact import ExactSolver
from repro.algorithms.registry import DEFAULT_SOLVER_NAMES, get_solver
from repro.core.accuracy import TabularAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.datagen.rng import generator_for
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance
from repro.geo.point import Point
from repro.quality.hoeffding import empirical_error_rate


class TestAllSolversOnGeneratedData:
    @pytest.mark.parametrize("name", DEFAULT_SOLVER_NAMES)
    def test_solver_completes_and_satisfies_all_constraints(
        self, engine_pass, small_synthetic_instance, name
    ):
        result = get_solver(name).solve(small_synthetic_instance)
        assert result.completed, name
        violations = result.arrangement.constraint_violations(
            small_synthetic_instance.workers_by_index()
        )
        assert violations == [], f"{name}: {violations}"

    @pytest.mark.parametrize("name", DEFAULT_SOLVER_NAMES)
    def test_latency_respects_theorem_2_lower_bound(
        self, small_synthetic_instance, name
    ):
        instance = small_synthetic_instance
        result = get_solver(name).solve(instance)
        lower = latency_lower_bound(instance.num_tasks, instance.delta,
                                    instance.capacity)
        assert result.max_latency >= lower

    @pytest.mark.parametrize("name", DEFAULT_SOLVER_NAMES)
    def test_assignments_only_use_eligible_pairs(
        self, engine_pass, small_synthetic_instance, name
    ):
        """Every assigned pair satisfies Acc(w, t) >= 0.66 (the Theorem 2 regime),
        whichever pass of the candidate engine decided its eligibility."""
        instance = small_synthetic_instance
        result = get_solver(name).solve(instance)
        for assignment in result.arrangement:
            assert assignment.acc >= instance.min_assignable_accuracy - 1e-9

    @pytest.mark.parametrize("name", ["LAF", "AAM", "MCF-LTC"])
    def test_completed_tasks_meet_the_hoeffding_quality_target(
        self, small_synthetic_instance, name
    ):
        instance = small_synthetic_instance
        result = get_solver(name).solve(instance)
        error = empirical_error_rate(instance, result.arrangement, trials=60, seed=11)
        assert error <= instance.error_rate * 1.5  # Monte-Carlo slack


class TestApproximationBehaviour:
    def make_random_small_instance(self, seed, num_tasks=2, num_workers=10, capacity=2):
        rng = generator_for(seed, "approx")
        table = {}
        for worker_index in range(1, num_workers + 1):
            for task_id in range(num_tasks):
                table[(worker_index, task_id)] = float(rng.uniform(0.82, 0.99))
        tasks = [Task(task_id=i, location=Point(i, 0)) for i in range(num_tasks)]
        workers = [
            Worker(index=i, location=Point(0, i), accuracy=0.9, capacity=capacity)
            for i in range(1, num_workers + 1)
        ]
        return LTCInstance(tasks=tasks, workers=workers, error_rate=0.2,
                           accuracy_model=TabularAccuracy(table))

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristics_stay_within_the_proven_factors_of_optimal(self, seed):
        instance = self.make_random_small_instance(seed)
        optimum = ExactSolver().solve(instance)
        if not optimum.completed:
            pytest.skip("random instance infeasible")
        for name, factor in (("MCF-LTC", 7.5), ("LAF", 7.967), ("AAM", 7.738)):
            result = get_solver(name).solve(instance)
            if not result.completed:
                continue
            assert result.max_latency <= math.ceil(factor * optimum.max_latency) + 1, (
                f"{name} exceeded its guarantee on seed {seed}"
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_is_a_true_lower_bound(self, seed):
        instance = self.make_random_small_instance(seed, num_tasks=3, num_workers=9)
        optimum = ExactSolver().solve(instance)
        if not optimum.completed:
            pytest.skip("random instance infeasible")
        for name in DEFAULT_SOLVER_NAMES:
            result = get_solver(name).solve(instance)
            if result.completed:
                assert result.max_latency >= optimum.max_latency


class TestAlgorithmRelationships:
    def test_proposed_online_algorithms_beat_naive_random_on_contended_data(self):
        """AAM (and usually LAF) should not lose to the naive Random baseline."""
        config = SyntheticConfig(
            num_tasks=60, num_workers=900, capacity=6, error_rate=0.14,
            grid_size=140.0, seed=77,
        )
        instance = generate_synthetic_instance(config)
        random_latency = get_solver("Random").solve(instance).max_latency
        aam_latency = get_solver("AAM").solve(instance).max_latency
        assert aam_latency <= random_latency * 1.05

    def test_offline_algorithms_see_the_whole_instance(self, small_synthetic_instance):
        """Offline solvers may use workers out of arrival order; online must not."""
        mcf = get_solver("MCF-LTC").solve(small_synthetic_instance)
        laf = get_solver("LAF").solve(small_synthetic_instance)
        # Online algorithms observe exactly max_latency workers; the offline
        # batch algorithm may have looked further ahead.
        assert laf.workers_observed == laf.max_latency
        assert mcf.workers_observed >= mcf.max_latency
