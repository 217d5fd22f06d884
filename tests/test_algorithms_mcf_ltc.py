"""Tests for the MCF-LTC offline solver (Algorithm 1)."""

import math

import pytest

from repro.algorithms import mcf_ltc
from repro.algorithms.baselines import BaseOffSolver
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.core.accuracy import ConstantAccuracy, TabularAccuracy
from repro.core.examples import running_example_instance
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.experiments import get_experiment
from repro.geo.point import Point


class TestConstruction:
    def test_rejects_non_positive_batch_multiplier(self):
        with pytest.raises(ValueError):
            MCFLTCSolver(batch_multiplier=0.0)

    def test_name(self):
        assert MCFLTCSolver().name == "MCF-LTC"
        assert not MCFLTCSolver().is_online


class TestSolving:
    def test_completes_tiny_instance(self, tiny_instance):
        result = MCFLTCSolver().solve(tiny_instance)
        assert result.completed
        assert result.max_latency <= tiny_instance.num_workers
        assert result.arrangement.constraint_violations(
            tiny_instance.workers_by_index()) == []

    def test_completes_synthetic_instance(self, small_synthetic_instance):
        result = MCFLTCSolver().solve(small_synthetic_instance)
        assert result.completed
        assert result.arrangement.constraint_violations(
            small_synthetic_instance.workers_by_index()) == []

    def test_batch_sizes_follow_pseudocode(self, small_synthetic_instance):
        result = MCFLTCSolver().solve(small_synthetic_instance)
        instance = small_synthetic_instance
        expected_batch = math.floor(
            instance.num_tasks * math.ceil(instance.delta) / instance.capacity
        )
        assert result.extra["batch_size"] == float(max(1, expected_batch))
        assert result.extra["batches"] >= 1.0

    def test_flow_units_match_assignments(self, small_synthetic_instance):
        """Every unit of flow becomes an assignment; the greedy fill adds more."""
        result = MCFLTCSolver().solve(small_synthetic_instance)
        assert 0 < result.extra["flow_units"] <= result.num_assignments

    def test_batch_multiplier_changes_batching(self, small_synthetic_instance):
        small_batches = MCFLTCSolver(batch_multiplier=0.5).solve(small_synthetic_instance)
        large_batches = MCFLTCSolver(batch_multiplier=4.0).solve(small_synthetic_instance)
        assert small_batches.completed and large_batches.completed
        assert small_batches.extra["batches"] >= large_batches.extra["batches"]


    def test_incomplete_when_workers_insufficient(self):
        """With too few workers the solver reports (not raises) incompletion."""
        tasks = [Task.at(i, float(i), 0.0) for i in range(3)]
        workers = [Worker.at(1, 0, 0, accuracy=0.9, capacity=1)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.1,
                               accuracy_model=ConstantAccuracy(0.9))
        result = MCFLTCSolver().solve(instance)
        assert not result.completed
        assert result.workers_observed == 1

    def test_greedy_fill_uses_spare_capacity(self):
        """Workers left under capacity by the flow get topped up greedily.

        One task, delta = 1 (epsilon = e^-0.5), two workers with capacity 2:
        the flow needs at most ceil(delta) = 1 assignment from the first
        worker, and the greedy fill must not add duplicate assignments or
        exceed capacity.
        """
        tasks = [Task.at(0, 0, 0), Task.at(1, 1, 0)]
        workers = [Worker.at(i, 0, 0, accuracy=0.9, capacity=2) for i in (1, 2)]
        instance = LTCInstance(tasks=tasks, workers=workers,
                               error_rate=math.exp(-0.5),
                               accuracy_model=ConstantAccuracy(0.9))
        result = MCFLTCSolver().solve(instance)
        assert result.completed
        assert result.arrangement.constraint_violations(
            instance.workers_by_index()) == []

    def test_greedy_fill_breaks_ties_toward_the_earlier_candidate(self):
        """Equal ``Acc*`` candidates fill in candidate order.

        Two tasks absorb ceil(delta) = 2 units each, so the flow places
        four of the five unit workers; the fifth is filled, and its two
        candidates are worth the same.  Under a non-sigmoid model the
        candidate order is the posting order, so task 2 comes first.
        """
        tasks = [Task.at(2, 0, 0), Task.at(1, 0, 0)]
        workers = [Worker.at(i, 0, 0, accuracy=0.8, capacity=1) for i in range(1, 6)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.42,
                               accuracy_model=ConstantAccuracy(0.8))
        result = MCFLTCSolver().solve(instance)
        per_task = [a.task_id for a in result.arrangement]
        assert (per_task.count(2), per_task.count(1)) == (3, 2)
        assert result.extra["flow_units"] == 4

    def test_uses_accuracy_to_reduce_worker_count(self):
        """MCF-LTC should prefer accurate workers within a batch.

        Task 0 can be completed by two very accurate workers or by three
        mediocre ones; the flow solution should pick the accurate pair, so
        the third worker is never needed.
        """
        table = {
            (1, 0): 0.97, (2, 0): 0.97, (3, 0): 0.80,
        }
        tasks = [Task.at(0, 0, 0)]
        workers = [Worker.at(i, 0, 0, accuracy=0.9, capacity=1) for i in (1, 2, 3)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.42,
                               accuracy_model=TabularAccuracy(table))
        # delta = 2 ln(1/0.42) ~= 1.735; two 0.97-workers give 2 * 0.883 = 1.77.
        result = MCFLTCSolver().solve(instance)
        assert result.completed
        assert result.max_latency == 2


class TestFlowFallbacks:
    def test_table_one_ties_are_solved_by_the_sspa(self):
        # Table I repeats accuracies, so some batch has cost-equal optima
        # and the certificate fails on it.
        extra = MCFLTCSolver().solve(running_example_instance()).extra
        assert 1 <= extra["flow_fallbacks"] <= extra["batches"]

    def test_the_paper_default_regime_needs_no_fallback(self):
        factory = get_experiment("fig4_epsilon").instance_factory(0.05)
        result = MCFLTCSolver().solve(factory(0.14, 0))
        assert result.extra["batches"] > 1
        assert result.extra["flow_fallbacks"] == 0

    @pytest.mark.parametrize("repetition", range(3))
    @pytest.mark.parametrize(
        "experiment, value, scale",
        [("fig4_scalability", 50_000, 0.0025), ("fig4_epsilon", 0.14, 0.05)],
        ids=["paper_dense", "paper_sparse"],
    )
    def test_sigmoid_batches_certify_and_match_the_sspa(
        self, monkeypatch, experiment, value, scale, repetition
    ):
        # The e2e paper workloads' instances.  |T| = 50,000 at this scale
        # puts workers close to many tasks, where the sigmoid saturates
        # and a worker's costs differ by ~1e-12.  In exact integers no
        # batch is a tie, so none falls back, and the certified flows
        # give the arrangement of the SSPA alone.
        factory = get_experiment(experiment).instance_factory(scale)
        result = MCFLTCSolver().solve(factory(value, repetition))
        assert result.extra["flow_fallbacks"] == 0
        monkeypatch.setattr(mcf_ltc, "network_simplex", lambda *args: None)
        reference = MCFLTCSolver().solve(factory(value, repetition))
        assert reference.extra["flow_fallbacks"] == reference.extra["batches"]
        assert result.arrangement.assignments == reference.arrangement.assignments


class TestAgainstBaseline:
    def test_not_much_worse_than_baseoff_on_synthetic_data(self, small_synthetic_instance):
        """The paper reports MCF-LTC <= Base-off; allow a small tolerance."""
        mcf = MCFLTCSolver().solve(small_synthetic_instance)
        base = BaseOffSolver().solve(small_synthetic_instance)
        assert mcf.completed and base.completed
        assert mcf.max_latency <= base.max_latency * 1.25
