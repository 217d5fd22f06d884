"""Tests for the synthetic workload generator (Table IV)."""

import math

import pytest

from repro.core.candidates import CandidateFinder
from repro.core.quality_threshold import quality_threshold
from repro.datagen.distributions import UniformAccuracy
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_instance


def small_config(**overrides):
    defaults = dict(
        num_tasks=15, num_workers=300, capacity=6, error_rate=0.14,
        grid_size=90.0, seed=7,
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


class TestSyntheticConfig:
    def test_paper_defaults(self):
        config = SyntheticConfig()
        assert config.num_tasks == 3000
        assert config.num_workers == 40000
        assert config.capacity == 6
        assert config.error_rate == 0.14
        assert config.grid_size == 1000.0
        assert config.d_max == 30.0

    def test_delta_property(self):
        assert small_config().delta == pytest.approx(quality_threshold(0.14))

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(num_tasks=0)
        with pytest.raises(ValueError):
            small_config(capacity=0)
        with pytest.raises(ValueError):
            small_config(error_rate=1.5)
        with pytest.raises(ValueError):
            small_config(grid_size=-1.0)

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_rejects_fewer_than_one_placement_attempt(self, attempts):
        # With no attempt no location is ever drawn, so tasks would be
        # emitted without one.
        with pytest.raises(ValueError, match="max_placement_attempts"):
            small_config(max_placement_attempts=attempts)

    def test_single_placement_attempt_places_every_task(self):
        instance = generate_synthetic_instance(small_config(max_placement_attempts=1))
        assert all(task.location is not None for task in instance.tasks)

    def test_resolved_min_eligible_workers(self):
        config = small_config(error_rate=0.14)
        expected = math.ceil(quality_threshold(0.14) / 0.3)
        assert config.resolved_min_eligible_workers() == expected
        assert small_config(min_eligible_workers=5).resolved_min_eligible_workers() == 5


class TestGeneratedInstances:
    def test_cardinalities_and_attributes(self):
        config = small_config()
        instance = generate_synthetic_instance(config)
        assert instance.num_tasks == config.num_tasks
        assert instance.num_workers == config.num_workers
        assert instance.capacity == config.capacity
        assert instance.error_rate == config.error_rate

    def test_locations_inside_grid(self):
        config = small_config()
        instance = generate_synthetic_instance(config)
        for task in instance.tasks:
            assert 0 <= task.location.x <= config.grid_size
            assert 0 <= task.location.y <= config.grid_size
        for worker in instance.workers:
            assert 0 <= worker.location.x <= config.grid_size
            assert 0 <= worker.location.y <= config.grid_size

    def test_worker_indices_are_arrival_order(self):
        instance = generate_synthetic_instance(small_config())
        assert [w.index for w in instance.workers] == list(range(1, 301))

    def test_deterministic_given_seed(self):
        first = generate_synthetic_instance(small_config(seed=42))
        second = generate_synthetic_instance(small_config(seed=42))
        assert [t.location for t in first.tasks] == [t.location for t in second.tasks]
        assert [w.location for w in first.workers] == [w.location for w in second.workers]
        assert [w.accuracy for w in first.workers] == [w.accuracy for w in second.workers]

    def test_different_seeds_differ(self):
        first = generate_synthetic_instance(small_config(seed=1))
        second = generate_synthetic_instance(small_config(seed=2))
        assert [w.location for w in first.workers] != [w.location for w in second.workers]

    def test_every_task_has_enough_eligible_workers(self):
        config = small_config()
        instance = generate_synthetic_instance(config)
        finder = CandidateFinder(instance)
        counts = finder.candidate_count_per_task()
        minimum = config.resolved_min_eligible_workers()
        assert min(counts.values()) >= min(minimum, 1)

    def test_uniform_accuracy_distribution_is_supported(self):
        config = small_config(accuracy_distribution=UniformAccuracy(mean=0.84))
        instance = generate_synthetic_instance(config)
        accuracies = [w.accuracy for w in instance.workers]
        assert max(accuracies) <= 0.84 + 0.08 + 1e-9

    def test_true_answers_are_balanced(self):
        config = small_config(num_tasks=60, num_workers=400, grid_size=120.0)
        instance = generate_synthetic_instance(config)
        positives = sum(1 for task in instance.tasks if task.true_answer == 1)
        assert 10 <= positives <= 50
