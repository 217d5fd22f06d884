"""Candidate-engine queries and top-k, through both sides of the vector cutover.

Every test taking the ``engine_pass`` fixture runs three times: with every
query on the scalar loops, with every query on the numpy pass, and with a
cutover inside the test's block sizes, so each query picks its own pass.
"""

import math
from dataclasses import replace

import pytest
from conftest import MIXED_CUTOVER

from repro.core.accuracy import ConstantAccuracy, SigmoidDistanceAccuracy
from repro.core.candidate_engine import CandidateEngine
from repro.core.candidate_engine import engine as engine_module
from repro.core.candidates import CandidateFinder
from repro.core.candidates_legacy import LegacyCandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox
from repro.geo.grid_index import GridIndex
from repro.geo.point import Point
from repro.structures.topk import TopKHeap


def spatial_instance(task_xs, worker_xs=(0.0,), worker_accuracy=0.9, d_max=30.0):
    tasks = [Task(task_id=i, location=Point(x, 0.0)) for i, x in enumerate(task_xs)]
    workers = [
        Worker(index=i + 1, location=Point(x, 0.0), accuracy=worker_accuracy,
               capacity=4)
        for i, x in enumerate(worker_xs)
    ]
    return LTCInstance(
        tasks=tasks,
        workers=workers,
        error_rate=0.2,
        accuracy_model=SigmoidDistanceAccuracy(d_max=d_max),
    )


class TestInfiniteRadiusRegression:
    """``min_accuracy <= 0`` makes the eligibility radius infinite; both
    the dict grid and the CSR grid must clamp the scan to their extent
    instead of overflowing (``int(inf // cell_size)``)."""

    def test_grid_index_accepts_infinite_radius(self):
        grid = GridIndex(BoundingBox(0.0, 0.0, 100.0, 100.0), 10.0)
        for i in range(5):
            grid.insert(i, Point(20.0 * i, 20.0 * i))
        assert sorted(grid.query_radius(Point(50.0, 50.0), math.inf)) == list(range(5))

    def test_grid_index_still_rejects_bad_radii(self):
        grid = GridIndex(BoundingBox(0.0, 0.0, 10.0, 10.0), 1.0)
        with pytest.raises(ValueError):
            grid.query_radius(Point(0, 0), -1.0)
        with pytest.raises(ValueError):
            grid.query_radius(Point(0, 0), math.nan)

    def test_zero_threshold_returns_every_task(self, engine_pass, grid_gather):
        instance = spatial_instance([0.0, 50.0, 500.0])
        finder = CandidateFinder(replace(instance, min_assignable_accuracy=0.0))
        worker = instance.worker(1)
        assert [t.task_id for t in finder.candidates(worker)] == [0, 1, 2]
        assert finder.has_candidates(worker)

    def test_legacy_finder_also_survives_zero_threshold(self):
        instance = spatial_instance([0.0, 50.0, 500.0])
        finder = LegacyCandidateFinder(instance, min_accuracy=0.0)
        assert [t.task_id for t in finder.candidates(instance.worker(1))] == [0, 1, 2]


class TestEngineQueries:
    def test_matches_legacy_on_synthetic_instance(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        legacy = LegacyCandidateFinder(small_synthetic_instance)
        finder = CandidateFinder(small_synthetic_instance)
        for worker in small_synthetic_instance.workers[:60]:
            expected = [t.task_id for t in legacy.candidates(worker)]
            assert [t.task_id for t in finder.candidates(worker)] == expected
            assert finder.has_candidates(worker) == bool(expected)

    def test_count_per_task_matches_naive(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        finder = CandidateFinder(small_synthetic_instance)
        naive = {task.task_id: 0 for task in small_synthetic_instance.tasks}
        for worker in small_synthetic_instance.workers:
            for task in finder.candidates(worker):
                naive[task.task_id] += 1
        assert finder.candidate_count_per_task() == naive

    def test_eligible_pairs_order_and_accuracy(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        legacy = LegacyCandidateFinder(small_synthetic_instance)
        finder = CandidateFinder(small_synthetic_instance)
        workers = small_synthetic_instance.workers[:30]
        model = small_synthetic_instance.accuracy_model
        # Each pair carries the model's accuracy, bit for bit.
        expected = [
            (w.index, t.task_id, model.accuracy(w, t).hex())
            for w, t in legacy.eligible_pairs(workers)
        ]
        got = [
            (w.index, t.task_id, acc.hex())
            for w, t, acc in finder.eligible_pairs(workers)
        ]
        assert got == expected

    def test_non_contiguous_task_ids(self, engine_pass, grid_gather):
        tasks = [Task(task_id=i, location=Point(float(i % 7), 0.0))
                 for i in (90, 3, 41, 17, 55)]
        workers = [Worker(index=1, location=Point(0.0, 0.0), accuracy=0.9,
                          capacity=3)]
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)
        finder = CandidateFinder(instance)
        got = [t.task_id for t in finder.candidates(instance.worker(1))]
        assert got == sorted(got) == [3, 17, 41, 55, 90]

    def test_generic_model_scans_in_instance_order(self, engine_pass, grid_gather):
        # Non-sigmoid models fall back to the instance-order scan, which is
        # scalar on both sides of the cutover.
        tasks = [Task.at(5, 0, 0), Task.at(2, 500, 500), Task.at(9, 1, 1)]
        workers = [Worker.at(1, 0, 0, accuracy=0.9, capacity=3)]
        instance = LTCInstance(
            tasks=tasks, workers=workers, error_rate=0.2,
            accuracy_model=ConstantAccuracy(0.9),
        )
        finder = CandidateFinder(instance)
        assert [t.task_id for t in finder.candidates(instance.worker(1))] == [5, 2, 9]


class TestTopK:
    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_topk_acc_star_matches_manual_heap(
        self, engine_pass, grid_gather, k, small_synthetic_instance
    ):
        instance = small_synthetic_instance
        finder = CandidateFinder(instance)
        engine = finder.engine
        for worker in instance.workers[:25]:
            heap: TopKHeap = TopKHeap(k)
            for task in finder.candidates(worker):
                heap.push(instance.acc_star(worker, task), task)
            expected = [task.task_id for _, task in heap.pop_all()]
            got = [t.task_id for t, _ in engine.topk_acc_star(worker, k)]
            assert got == expected

    def test_topk_skips_tombstoned_tasks(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        instance = small_synthetic_instance
        engine = CandidateEngine(instance)
        worker = instance.workers[0]
        full = engine.topk_acc_star(worker, 4)
        if not full:
            pytest.skip("worker has no candidates")
        first = full[0][0].task_id
        engine.retire_tasks([first])
        reduced = engine.topk_acc_star(worker, 4)
        assert first not in {t.task_id for t, _ in reduced}
        assert reduced[:3] == full[1:4]

    def test_topk_need_modes_match_manual_scores(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        instance = small_synthetic_instance
        engine = CandidateEngine(instance)
        delta = instance.delta
        # Perturb needs so the two modes genuinely disagree with acc_star.
        need = [
            delta * (0.1 + (position % 5) / 5.0)
            for position in range(engine.num_tasks)
        ]
        for mode in ("gain", "need"):
            for worker in instance.workers[:15]:
                heap: TopKHeap = TopKHeap(3)
                for task in engine.eligible_tasks(worker):
                    position = engine.position_of[task.task_id]
                    star = instance.acc_star(worker, task)
                    score = min(star, need[position]) if mode == "gain" else need[position]
                    heap.push(float(score), task)
                expected = [task.task_id for _, task in heap.pop_all()]
                got = [t.task_id for t, _ in engine.topk(worker, 3, mode, need)]
                assert got == expected, (mode, worker.index)

    def test_topk_unknown_mode_raises(
        self, engine_pass, grid_gather, small_synthetic_instance
    ):
        engine = CandidateEngine(small_synthetic_instance)
        with pytest.raises(ValueError, match="unknown topk mode"):
            engine.topk(small_synthetic_instance.workers[0], 2, "weird")

    @pytest.mark.parametrize("k", [1, 2])
    def test_topk_need_mode_requires_need(
        self, engine_pass, grid_gather, k, small_synthetic_instance
    ):
        # k=1 leaves more candidates than k, so the vector pass would reach
        # its preselect; the contractual error must come first.
        engine = CandidateEngine(small_synthetic_instance)
        worker = small_synthetic_instance.workers[0]
        for mode in ("need", "gain"):
            with pytest.raises(ValueError, match="requires a need array"):
                engine.topk(worker, k, mode)


class TestVectorCutover:
    def test_block_size_counts_cells_and_spill(self, small_synthetic_instance):
        engine = CandidateEngine(small_synthetic_instance)
        order = engine.cell_positions
        xs, ys = engine.xs, engine.ys
        for worker in small_synthetic_instance.workers[:20]:
            radius = engine.radius_of(worker)
            if radius < 0:
                continue
            slices, size = engine._cell_slices(worker, radius)
            assert size == sum(hi - lo for lo, hi in slices)
            col0, col1, row0, row1 = engine.cell_span(
                worker.location.x, worker.location.y, radius
            )
            gathered = {
                p for lo, hi in slices for p in order[lo:hi]
            }
            for p in range(engine.num_tasks):
                col = int((xs[p] - engine.grid_min_x) // engine.cell_size)
                row = int((ys[p] - engine.grid_min_y) // engine.cell_size)
                col = min(max(col, 0), engine.cols - 1)
                row = min(max(row, 0), engine.rows - 1)
                inside = col0 <= col <= col1 and row0 <= row <= row1
                assert (p in gathered) == inside
        extra = [Task(task_id=10_000 + i, location=Point(0.0, 0.0)) for i in range(3)]
        engine.add_tasks(extra)
        worker = small_synthetic_instance.workers[0]
        slices, size = engine._cell_slices(worker, max(engine.radius_of(worker), 0.0))
        assert size == sum(hi - lo for lo, hi in slices) + 3

    def test_cutover_picks_the_pass(self, monkeypatch):
        # Four tasks inside one worker's disk, one of them completed: a
        # cutover at the block size vectorizes eligibility and top-k, one
        # above it stays scalar, and the routing fallback over completed
        # tasks is scalar at any size.  Results agree either way.
        instance = spatial_instance([0.0, 1.0, 2.0, 3.0])
        worker = instance.worker(1)
        calls = []
        original = CandidateEngine._vector_block

        def spy(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(CandidateEngine, "_vector_block", spy)
        engine = CandidateEngine(instance)
        engine.retire_tasks([0])
        # The gathered block counts tombstoned members too.
        _, size = engine._cell_slices(worker, engine.radius_of(worker))
        assert size == 4
        results = {}
        for cutover in (size + 1, size):
            monkeypatch.setattr(engine_module, "VECTOR_MIN_BLOCK", cutover)
            calls.clear()
            results[cutover] = (
                engine.eligible_positions(worker),
                engine.reaches_completed(worker),
                engine.topk_acc_star(worker, 2),
            )
            assert len(calls) == (2 if cutover == size else 0)
        assert results[size + 1] == results[size]

    def test_mixed_cutover_splits_the_synthetic_queries(
        self, monkeypatch, grid_gather, small_synthetic_instance
    ):
        # The ``mixed`` engine pass is only a third check if its cutover
        # really sends some of the fixture's queries each way.
        calls = []
        original = CandidateEngine._vector_block

        def spy(self, *args):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(CandidateEngine, "_vector_block", spy)
        monkeypatch.setattr(engine_module, "VECTOR_MIN_BLOCK", MIXED_CUTOVER)
        engine = CandidateEngine(small_synthetic_instance)
        workers = small_synthetic_instance.workers
        for worker in workers:
            engine.eligible_positions(worker)
        assert 0 < len(calls) < len(workers)

    def test_scalar_engine_never_builds_numpy_mirrors(self, small_synthetic_instance):
        engine = CandidateEngine(small_synthetic_instance)
        engine.retire_tasks(engine.task_ids[::2])
        for worker in small_synthetic_instance.workers[:10]:
            engine.topk_acc_star(worker, 3)
            engine.reaches_completed(worker)
        # The synthetic fixture's blocks stay far below the shipped cutover.
        assert engine._mirrors is None


class TestFinderFacade:
    def test_engine_exposed(self, small_synthetic_instance):
        finder = CandidateFinder(small_synthetic_instance)
        assert finder.engine.num_tasks == small_synthetic_instance.num_tasks
