"""Tests for the LAF online solver (Algorithm 2)."""

import pytest

from repro.algorithms.laf import LAFSolver
from repro.core.accuracy import TabularAccuracy
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point


def tabular_instance(table, num_tasks, num_workers, capacity=2, error_rate=0.2):
    tasks = [Task(task_id=i, location=Point(i, 0)) for i in range(num_tasks)]
    workers = [
        Worker(index=i, location=Point(0, i), accuracy=0.9, capacity=capacity)
        for i in range(1, num_workers + 1)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=error_rate,
                       accuracy_model=TabularAccuracy(table))


class TestLAFBehaviour:
    def test_picks_largest_acc_star_tasks_first(self):
        # Worker 1 is much better at tasks 0 and 2 than at task 1.
        table = {(1, 0): 0.95, (1, 1): 0.7, (1, 2): 0.9}
        instance = tabular_instance(table, num_tasks=3, num_workers=1, capacity=2)
        solver = LAFSolver()
        solver.start(instance)
        assignments = solver.observe(instance.worker(1))
        assert {a.task_id for a in assignments} == {0, 2}

    def test_skips_completed_tasks(self, tiny_instance):
        solver = LAFSolver()
        solver.start(tiny_instance)
        for worker in tiny_instance.workers:
            solver.observe(worker)
            if solver.is_complete():
                break
        completed_before = set(solver.arrangement.uncompleted_tasks())
        # After completion no further pushes should target completed tasks.
        assert solver.arrangement.is_complete()
        assert completed_before == set()

    def test_respects_capacity(self, small_synthetic_instance):
        result = LAFSolver().solve(small_synthetic_instance)
        loads = {}
        for assignment in result.arrangement:
            loads[assignment.worker_index] = loads.get(assignment.worker_index, 0) + 1
        capacity = small_synthetic_instance.capacity
        assert all(load <= capacity for load in loads.values())

    def test_solve_stops_at_completion(self, tiny_instance):
        result = LAFSolver().solve(tiny_instance)
        assert result.completed
        assert result.max_latency <= tiny_instance.num_workers
        assert result.workers_observed == result.max_latency

    def test_observe_before_start_raises(self, tiny_instance):
        solver = LAFSolver()
        with pytest.raises(RuntimeError):
            solver.observe(tiny_instance.worker(1))
        with pytest.raises(RuntimeError):
            _ = solver.arrangement

    def test_diagnostics_count_used_workers(self, tiny_instance):
        solver = LAFSolver()
        result = solver.solve(tiny_instance)
        assert result.extra["workers_with_assignments"] == float(result.workers_used)

    def test_restart_resets_state(self, tiny_instance):
        solver = LAFSolver()
        first = solver.solve(tiny_instance)
        second = solver.solve(tiny_instance)
        assert first.max_latency == second.max_latency
        assert len(second.arrangement) == len(first.arrangement)

    def test_online_constraint_never_uses_future_workers(self, tiny_instance):
        """Assignments for worker i are made knowing only workers 1..i."""
        solver = LAFSolver()
        solver.start(tiny_instance)
        seen_indices = []
        for worker in tiny_instance.workers:
            assignments = solver.observe(worker)
            seen_indices.append(worker.index)
            for assignment in assignments:
                assert assignment.worker_index == worker.index
                assert assignment.worker_index <= max(seen_indices)
            if solver.is_complete():
                break

