"""Tests for the exhaustive optimal solver (analysis tool)."""

import math

import pytest

from repro.algorithms.exact import ExactSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.algorithms.registry import available_solvers, build_solver
from repro.core.accuracy import (
    ConstantAccuracy,
    SigmoidDistanceAccuracy,
    TabularAccuracy,
)
from repro.core.candidates import sigmoid_eligibility_radius
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


def small_instance(table, num_tasks, num_workers, capacity, error_rate):
    tasks = [Task(task_id=i, location=Point(i, 0)) for i in range(num_tasks)]
    workers = [
        Worker(index=i, location=Point(0, i), accuracy=0.9, capacity=capacity)
        for i in range(1, num_workers + 1)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=error_rate,
                       accuracy_model=TabularAccuracy(table))


class TestExactSolver:
    def test_finds_the_obvious_optimum(self):
        """One task, one good worker: the optimum uses exactly that worker."""
        table = {(1, 0): 0.97, (2, 0): 0.97}
        instance = small_instance(table, num_tasks=1, num_workers=2, capacity=1,
                                  error_rate=0.42)
        result = ExactSolver().solve(instance)
        # delta ~= 1.735 needs two workers of Acc* 0.883 each.
        assert result.completed
        assert result.max_latency == 2

    def test_optimal_on_running_example(self, running_example):
        result = ExactSolver().solve(running_example)
        assert result.completed
        assert result.max_latency == 6
        assert result.arrangement.constraint_violations(
            running_example.workers_by_index()) == []

    def test_never_worse_than_heuristics(self, running_example, tiny_instance):
        for instance in (running_example, tiny_instance):
            optimum = ExactSolver().solve(instance).max_latency
            for heuristic in (LAFSolver(), MCFLTCSolver()):
                assert optimum <= heuristic.solve(instance).max_latency

    def test_reports_incompletion_for_infeasible_instances(self):
        table = {(1, 0): 0.7}
        instance = small_instance(table, num_tasks=1, num_workers=1, capacity=1,
                                  error_rate=0.1)
        result = ExactSolver().solve(instance)
        assert not result.completed
        assert result.max_latency == 0

    def test_search_budget_is_enforced(self, running_example):
        solver = ExactSolver(max_search_nodes=3)
        with pytest.raises(RuntimeError):
            solver.solve(running_example)

    def test_respects_capacity_constraint_in_optimum(self):
        # delta ~= 1.735 and Acc* = 0.883: every task needs two answers, so
        # all 3 workers x capacity 2 = 6 assignment slots are required.
        tasks = [Task.at(i, i, 0) for i in range(3)]
        workers = [Worker.at(i, 0, 0, accuracy=0.9, capacity=2) for i in (1, 2, 3)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.42,
                               accuracy_model=ConstantAccuracy(0.97))
        result = ExactSolver().solve(instance)
        assert result.completed
        loads: dict[int, int] = {}
        for assignment in result.arrangement:
            loads[assignment.worker_index] = loads.get(assignment.worker_index, 0) + 1
        assert all(load <= 2 for load in loads.values())


def radius_boundary_instance():
    """One task, a worker just beyond its radius, ten workers close by.

    Worker 1 (p = 0.9) stands 3e-12 beyond its eligibility radius, so its
    accuracy, 0.66 - 5e-13, clears the threshold's ``1e-12`` slack while
    the radius gate excludes it.  Workers 2-11 stand 1 unit from the task
    (Acc* just under 0.64); delta = 2.6 needs five of them, or worker 1
    (Acc* ~= 0.1024) plus four.
    """
    radius = sigmoid_eligibility_radius(0.9, 30.0, 0.66)
    workers = [Worker(index=1, location=Point(radius + 3e-12, 0.0),
                      accuracy=0.9, capacity=1)]
    workers += [
        Worker(index=i, location=Point(0.0, 1.0), accuracy=0.9, capacity=1)
        for i in range(2, 12)
    ]
    return LTCInstance(tasks=[Task(task_id=0, location=Point(0.0, 0.0))],
                       workers=workers, error_rate=math.exp(-1.3),
                       accuracy_model=SigmoidDistanceAccuracy(d_max=30.0))


class TestSharedEligibilityRule:
    """Exact decides eligibility like every solver it is compared with."""

    def test_the_boundary_worker_passes_the_threshold_only(self):
        instance = radius_boundary_instance()
        task = instance.task(0)
        acc = instance.accuracy_model.accuracy(instance.worker(1), task)
        assert 0.66 - 1e-12 <= acc < 0.66

    @pytest.mark.parametrize("name", available_solvers())
    def test_no_solver_assigns_a_worker_beyond_its_radius(self, name):
        result = build_solver(name).solve(radius_boundary_instance())
        assert result.completed
        assert 1 not in {a.worker_index for a in result.arrangement}
        # Five of the close workers, after the skipped first arrival.
        assert result.max_latency == 6
