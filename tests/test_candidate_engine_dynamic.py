"""The dynamic candidate snapshot: appends, tombstones, spill, rebuilds.

The engine's incremental layer must be invisible at the query surface:
after any interleaving of ``add_tasks`` / ``retire_tasks`` calls, every
query must answer exactly like a from-scratch
:class:`~repro.core.candidates_legacy.LegacyCandidateFinder` built over
the currently-alive tasks in posting order.  The hypothesis suite below
drives randomized insert/complete/expire interleavings through both sides
of the engine's vector cutover, and through a cutover that switches
between them mid-run, against that rebuild-from-scratch oracle; the unit
tests pin the machinery itself — position stability, epoch counters,
spill thresholds, tombstone idempotence, the out-of-order-id sort switch,
and the numpy mirror sync.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.accuracy import ConstantAccuracy
from repro.core.candidate_engine import CandidateEngine
from repro.core.candidate_engine import engine as engine_module
from repro.core.candidates import CandidateFinder
from repro.core.candidates_legacy import LegacyCandidateFinder
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point
from repro.structures.topk import TopKHeap

#: ``engine_pass`` is set once per test, not per example.
HEALTH_OK = [HealthCheck.large_base_example, HealthCheck.function_scoped_fixture]


def make_instance(num_tasks=8, num_workers=10, box=100.0, seed=0, first_id=0):
    rng = random.Random(seed)
    tasks = [
        Task(task_id=first_id + i,
             location=Point(rng.uniform(0, box), rng.uniform(0, box)))
        for i in range(num_tasks)
    ]
    workers = [
        Worker(index=i + 1,
               location=Point(rng.uniform(0, box), rng.uniform(0, box)),
               accuracy=rng.uniform(0.7, 1.0), capacity=3)
        for i in range(num_workers)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=0.2)


def fresh_tasks(count, box, rng, used_ids):
    """New tasks at random locations with ids not yet posted."""
    batch = []
    while len(batch) < count:
        task_id = rng.randrange(100_000)
        if task_id in used_ids:
            continue
        used_ids.add(task_id)
        batch.append(
            Task(task_id=task_id,
                 location=Point(rng.uniform(0, box), rng.uniform(0, box)))
        )
    return batch


class TestDynamicMachinery:
    def test_positions_are_append_only_and_stable(self):
        instance = make_instance()
        engine = CandidateEngine(instance)
        before = dict(engine.position_of)
        engine.add_tasks([Task.at(500, 1.0, 1.0), Task.at(501, 2.0, 2.0)])
        engine.retire_tasks([instance.tasks[0].task_id])
        for task_id, position in before.items():
            assert engine.position_of[task_id] == position
        assert engine.position_of[500] == len(before)
        assert engine.position_of[501] == len(before) + 1
        assert engine.num_tasks == len(before) + 2

    def test_epoch_counters_track_mutations(self):
        engine = CandidateEngine(make_instance())
        epoch = engine.epoch
        engine.add_tasks([Task.at(500, 1.0, 1.0)])
        assert engine.epoch == epoch + 1
        engine.retire_tasks([500])
        assert engine.epoch == epoch + 2
        # Re-retiring is a no-op and does not bump the epoch.
        engine.retire_tasks([500])
        assert engine.epoch == epoch + 2

    def test_duplicate_and_unknown_ids_raise(self):
        instance = make_instance()
        engine = CandidateEngine(instance)
        existing = instance.tasks[0].task_id
        with pytest.raises(ValueError, match="already in the snapshot"):
            engine.add_tasks([Task.at(existing, 0.0, 0.0)])
        with pytest.raises(ValueError, match="already in the snapshot"):
            engine.add_tasks([Task.at(700, 0.0, 0.0), Task.at(700, 1.0, 1.0)])
        with pytest.raises(KeyError, match="not in the snapshot"):
            engine.retire_tasks([999_999])
        # A retired id stays reserved: positions are never reused.
        engine.retire_tasks([existing])
        with pytest.raises(ValueError, match="already in the snapshot"):
            engine.add_tasks([Task.at(existing, 0.0, 0.0)])

    def test_spill_threshold_triggers_grid_rebuild(self, monkeypatch):
        monkeypatch.setattr(engine_module, "SPILL_REBUILD_MIN", 4)
        engine = CandidateEngine(make_instance(num_tasks=6))
        assert engine.mode == "grid"
        assert engine.rebuild_count == 0
        spill_before = engine.spill_start
        engine.add_tasks([Task.at(500 + i, 1.0, 1.0) for i in range(3)])
        # Below the threshold: the appends stay in the spill range.
        assert engine.rebuild_count == 0
        assert engine.spill_start == spill_before
        assert engine.num_tasks - engine.spill_start == 3
        engine.add_tasks([Task.at(600 + i, 2.0, 2.0) for i in range(3)])
        # Crossing it merges the spill into the CSR cells.
        assert engine.rebuild_count == 1
        assert engine.spill_start == engine.num_tasks

    def test_spill_threshold_is_capped_absolutely(self, monkeypatch):
        """On large grids the fractional threshold alone would let every
        query scan a spill of ~25% of the snapshot; the absolute cap
        bounds it."""
        monkeypatch.setattr(engine_module, "SPILL_REBUILD_MIN", 1)
        monkeypatch.setattr(engine_module, "SPILL_REBUILD_MAX", 5)
        engine = CandidateEngine(make_instance(num_tasks=100))
        engine.add_tasks([Task.at(1_000 + i, 1.0, 1.0) for i in range(6)])
        # fraction * 100 = 25 would not have triggered yet; the cap did.
        assert engine.rebuild_count == 1
        assert engine.spill_start == engine.num_tasks

    def test_rebuild_sweeps_tombstones_out_of_the_grid(self):
        instance = make_instance(num_tasks=10)
        engine = CandidateEngine(instance)
        assert len(engine.cell_positions) == 10
        engine.retire_tasks([task.task_id for task in instance.tasks[:4]])
        # Lazy: tombstones stay in the cells until a rebuild...
        assert len(engine.cell_positions) == 10
        engine.rebuild_index()
        # ...which drops them (only alive positions are packed).
        assert len(engine.cell_positions) == 6
        assert all(engine.alive[p] for p in engine.cell_positions)

    def test_rebuild_index_is_a_noop_off_grid(self):
        instance = replace(make_instance(), accuracy_model=ConstantAccuracy(0.9))
        engine = CandidateEngine(instance)
        assert engine.mode == "generic"
        grid_epoch = engine.grid_epoch
        engine.rebuild_index()
        assert engine.grid_epoch == grid_epoch

    def test_out_of_order_ids_flip_the_sort_key(self):
        instance = make_instance(first_id=100)
        engine = CandidateEngine(instance)
        assert engine.positions_id_ordered
        engine.add_tasks([Task.at(7, 1.0, 1.0)])  # id below every existing one
        assert not engine.positions_id_ordered
        worker = Worker.at(1, 1.0, 1.0, accuracy=0.95, capacity=3)
        got = [t.task_id for t in engine.eligible_tasks(worker)]
        assert got == sorted(got)

    def test_all_tasks_retired_leaves_empty_queries(self, engine_pass, grid_gather):
        instance = make_instance(num_tasks=4)
        engine = CandidateEngine(replace(instance, min_assignable_accuracy=0.0))
        worker = instance.workers[0]
        assert engine.eligible_tasks(worker)
        ids = [task.task_id for task in instance.tasks]
        engine.retire_tasks(ids[:2], expired=True)
        engine.retire_tasks(ids[2:])
        assert engine.eligible_tasks(worker) == []
        assert engine.topk_acc_star(worker, 3) == []
        # Only the routing fallback still sees the completed pair.
        assert engine.reaches_completed(worker)
        # A rebuild over the empty alive set must also survive, and it
        # sweeps the cells, not the completed list.
        engine.rebuild_index()
        assert engine.eligible_tasks(worker) == []
        assert engine.topk_acc_star(worker, 3) == []
        assert engine.reaches_completed(worker)

    def test_expired_tasks_never_reach_routing(self, engine_pass, grid_gather):
        instance = make_instance(num_tasks=4)
        engine = CandidateEngine(replace(instance, min_assignable_accuracy=0.0))
        worker = instance.workers[0]
        assert not engine.reaches_completed(worker)
        engine.retire_tasks([task.task_id for task in instance.tasks], expired=True)
        assert not engine.reaches_completed(worker)
        assert engine.topk_acc_star(worker, 3) == []
        # Retiring again as completed is a no-op: retirement is permanent.
        engine.retire_tasks([instance.tasks[0].task_id])
        assert not engine.reaches_completed(worker)

    def test_failed_retire_changes_nothing(self):
        instance = make_instance(num_tasks=4)
        engine = CandidateEngine(instance)
        first = instance.tasks[0].task_id
        engine.retire_tasks([instance.tasks[1].task_id])
        state = (list(engine.alive), engine.dead_count, engine.epoch,
                 list(engine._tombstone_log), list(engine._completed))
        with pytest.raises(KeyError):
            engine.retire_tasks([first, 99_999])
        assert (list(engine.alive), engine.dead_count, engine.epoch,
                list(engine._tombstone_log), list(engine._completed)) == state
        assert engine.alive[engine.position_of[first]]

    def test_numpy_mirrors_sync_incrementally(self):
        instance = make_instance()
        engine = CandidateEngine(instance)
        assert engine._mirrors is None  # built on the first vector query
        mirrors = engine.numpy_mirrors()
        engine.add_tasks([Task.at(500, 3.0, 4.0)])
        engine.retire_tasks([instance.tasks[0].task_id])
        synced = engine.numpy_mirrors()
        assert synced is mirrors  # one cached mirror object, synced in place
        assert len(synced.xs) == engine.num_tasks
        assert synced.task_ids[engine.position_of[500]] == 500
        assert not synced.alive[engine.position_of[instance.tasks[0].task_id]]
        assert bool(synced.alive[engine.position_of[500]])


@st.composite
def interleavings(draw):
    """A base instance plus a random insert/retire/query interleaving."""
    rng = draw(st.randoms(use_true_random=False))
    num_tasks = draw(st.integers(min_value=2, max_value=12))
    num_workers = draw(st.integers(min_value=2, max_value=10))
    box = draw(st.sampled_from([60.0, 150.0]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    instance = make_instance(num_tasks, num_workers, box, seed,
                             first_id=draw(st.sampled_from([0, 5_000])))
    steps = []
    used_ids = {task.task_id for task in instance.tasks}
    for _ in range(draw(st.integers(min_value=3, max_value=12))):
        kind = rng.random()
        if kind < 0.45:
            steps.append(("add", fresh_tasks(rng.randint(1, 4), box, rng, used_ids)))
        else:
            steps.append(("retire", rng.random()))
    return instance, steps, box


class TestDynamicDifferential:
    """Randomized interleavings vs the rebuild-from-scratch legacy oracle."""

    @staticmethod
    def _legacy(tasks, workers, min_accuracy, use_spatial_index=True):
        """``(instance, LegacyCandidateFinder)`` over ``tasks``, or Nones."""
        if not tasks:
            return None, None
        instance = LTCInstance(tasks=tasks, workers=workers, error_rate=0.2,
                               min_assignable_accuracy=min_accuracy)
        return instance, LegacyCandidateFinder(
            instance, use_spatial_index=use_spatial_index
        )

    @classmethod
    def _check_against_oracle(cls, engine, posted, alive_ids, completed_ids,
                              workers):
        """Every engine query against legacy scans rebuilt from scratch."""
        min_accuracy = engine.min_accuracy
        alive_tasks = [task for task in posted if task.task_id in alive_ids]
        oracle_instance, oracle = cls._legacy(alive_tasks, workers, min_accuracy)
        # The exhaustive reference (no radius gate, posting order): the
        # dict-grid oracle above pins the order, this one the sets.
        _, scan = cls._legacy(alive_tasks, workers, min_accuracy,
                              use_spatial_index=False)
        # Routing's oracle: every task that has not expired, completed
        # ones included; its fallback walk sees the completed ones alone.
        _, routable = cls._legacy(
            [task for task in posted
             if task.task_id in alive_ids or task.task_id in completed_ids],
            workers, min_accuracy,
        )
        _, completed = cls._legacy(
            [task for task in posted if task.task_id in completed_ids],
            workers, min_accuracy,
        )
        model = engine.model
        # Per-position needs for the gain/need modes, keyed on task id so
        # the oracle can score the same values.
        need_of = {task.task_id: 0.4 + (task.task_id % 7) / 5.0 for task in posted}
        need = [need_of[task_id] for task_id in engine.task_ids]
        counts = {task.task_id: 0 for task in posted}
        task_ids = engine.task_ids
        for worker in workers:
            candidates = oracle.candidates(worker) if oracle is not None else []
            expected = [task.task_id for task in candidates]
            for task_id in expected:
                counts[task_id] += 1
            got = [task.task_id for task in engine.eligible_tasks(worker)]
            assert got == expected
            scanned = scan.candidates(worker) if scan is not None else []
            assert sorted(got) == sorted(task.task_id for task in scanned)
            assert [task_ids[p] for p in engine.eligible_positions(worker)] == expected
            # Routing: eligible for a task that has not expired exactly
            # when the top-k over the open tasks is non-empty or the
            # fallback walk reaches a completed one.
            eligible = routable is not None and bool(routable.candidates(worker))
            reaches = completed is not None and bool(completed.candidates(worker))
            assert engine.reaches_completed(worker) == reaches
            routed = bool(engine.topk_acc_star(worker, 2)) or reaches
            assert routed == eligible
            for mode in ("acc_star", "gain", "need"):
                heap: TopKHeap = TopKHeap(2)
                for task in candidates:
                    star = oracle_instance.acc_star(worker, task)
                    score = {
                        "acc_star": star,
                        "gain": min(star, need_of[task.task_id]),
                        "need": need_of[task.task_id],
                    }[mode]
                    heap.push(score, task)
                expected_top = [task.task_id for _, task in heap.pop_all()]
                picks = engine.topk(worker, 2, mode, need)
                assert [task.task_id for task, _ in picks] == expected_top, mode
                # Each pick carries the model's accuracy, bit for bit.
                assert [acc.hex() for _, acc in picks] == [
                    model.accuracy(worker, task).hex() for task, _ in picks
                ], mode
        expected_pairs = [] if oracle is None else [
            (w.index, t.task_id, model.accuracy(w, t).hex())
            for w, t in oracle.eligible_pairs(workers)
        ]
        got_pairs = [
            (w.index, t.task_id, acc.hex())
            for w, t, acc in engine.eligible_pairs(workers)
        ]
        assert got_pairs == expected_pairs
        # Posting order, retired tasks included (they count 0).
        assert list(engine.candidate_counts().items()) == list(counts.items())

    @given(data=interleavings())
    @settings(max_examples=30, deadline=None, suppress_health_check=HEALTH_OK)
    def test_engine_matches_rebuild_from_scratch(
        self, engine_pass, grid_gather, data
    ):
        instance, steps, box = data
        self.replay(instance, steps)

    @classmethod
    def replay(cls, instance, steps):
        """Apply ``steps`` to a fresh engine, checking every query after
        each one; returns the engine."""
        engine = CandidateEngine(instance)
        posted = list(instance.tasks)
        alive_ids = {task.task_id for task in instance.tasks}
        completed_ids = set()
        rng = random.Random(4242)
        for kind, payload in steps:
            if kind == "add":
                engine.add_tasks(payload)
                posted.extend(payload)
                alive_ids.update(task.task_id for task in payload)
            elif alive_ids:
                count = max(1, int(payload * len(alive_ids)) // 2)
                victims = rng.sample(sorted(alive_ids), count)
                expired = rng.random() < 0.5
                engine.retire_tasks(victims, expired=expired)
                alive_ids.difference_update(victims)
                if not expired:
                    completed_ids.update(victims)
            cls._check_against_oracle(
                engine, posted, alive_ids, completed_ids, instance.workers
            )
        return engine

    @given(data=interleavings())
    @settings(max_examples=15, deadline=None, suppress_health_check=HEALTH_OK)
    def test_forced_rebuilds_change_nothing(self, engine_pass, grid_gather, data):
        """Same interleaving, with the grid rebuilt after every mutation."""
        instance, steps, box = data
        engines = [CandidateEngine(instance)]
        eager = [CandidateEngine(instance)]
        posted = list(instance.tasks)
        alive_ids = {task.task_id for task in instance.tasks}
        rng = random.Random(99)
        for kind, payload in steps:
            if kind == "add":
                for engine in engines + eager:
                    engine.add_tasks(payload)
                posted.extend(payload)
                alive_ids.update(task.task_id for task in payload)
            elif alive_ids:
                count = max(1, int(payload * len(alive_ids)) // 2)
                victims = rng.sample(sorted(alive_ids), count)
                for engine in engines + eager:
                    engine.retire_tasks(victims)
                alive_ids.difference_update(victims)
            for engine in eager:
                engine.rebuild_index()
            for worker in instance.workers[:4]:
                for lazy, rebuilt in zip(engines, eager):
                    assert (
                        [t.task_id for t in lazy.eligible_tasks(worker)]
                        == [t.task_id for t in rebuilt.eligible_tasks(worker)]
                    )


@st.composite
def straddling_interleavings(draw):
    """Snapshots of 1-96 tasks whose appends cross the flat-gather limit.

    The base snapshot is drawn across the whole range and appends grow it
    towards 96 tasks, so one interleaving may start on the flat gather,
    cross ``SPILL_REBUILD_MIN`` onto the construction-time grid plus a
    long spill, and trigger the first rebuild once the spill itself
    exceeds the minimum.  Appended ids either keep ascending (positions
    stay in id order) or are random (ordered queries sort by id).
    """
    rng = draw(st.randoms(use_true_random=False))
    num_tasks = draw(st.integers(min_value=1, max_value=96))
    box = draw(st.sampled_from([60.0, 150.0]))
    instance = make_instance(
        num_tasks, draw(st.integers(min_value=2, max_value=6)), box,
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    ascending_ids = draw(st.booleans())
    used_ids = {task.task_id for task in instance.tasks}
    size, steps = num_tasks, []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        room = 96 - size
        if room and rng.random() < 0.6:
            count = rng.randint(1, min(room, 40))
            if ascending_ids:
                first = max(used_ids) + 1
                batch = [
                    Task(task_id=first + i,
                         location=Point(rng.uniform(0, box), rng.uniform(0, box)))
                    for i in range(count)
                ]
                used_ids.update(task.task_id for task in batch)
            else:
                batch = fresh_tasks(count, box, rng, used_ids)
            steps.append(("add", batch))
            size += count
        else:
            steps.append(("retire", rng.random()))
    return instance, steps


class TestFlatAndGridGathers:
    """Snapshots of at most ``SPILL_REBUILD_MIN`` tasks skip the CSR cells
    and scan every position; larger ones gather cells plus spill.  Both
    gathers must answer every query exactly like the legacy oracle, in
    every engine pass, across the threshold."""

    @given(
        data=straddling_interleavings(),
        min_accuracy=st.sampled_from([None, 0.0]),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=HEALTH_OK)
    def test_gathers_match_the_oracle_across_the_threshold(
        self, engine_pass, data, min_accuracy
    ):
        instance, steps = data
        if min_accuracy is not None:
            instance = replace(instance, min_assignable_accuracy=min_accuracy)
        TestDynamicDifferential.replay(instance, steps)

    def test_appends_cross_the_limit_and_trigger_the_first_rebuild(
        self, engine_pass
    ):
        rng = random.Random(7)
        instance = make_instance(num_tasks=10, num_workers=8, box=90.0, seed=3)
        used_ids = {task.task_id for task in instance.tasks}
        limit = engine_module.SPILL_REBUILD_MIN
        # 10 -> 40 (flat) -> 70 (grid over the first cells, spill 60)
        # -> 90 (spill 80 > 64: the first rebuild).
        steps = [
            ("add", fresh_tasks(30, 90.0, rng, used_ids)),
            ("retire", 0.3),
            ("add", fresh_tasks(30, 90.0, rng, used_ids)),
            ("retire", 0.3),
            ("add", fresh_tasks(20, 90.0, rng, used_ids)),
            ("retire", 0.3),
        ]
        engines = []
        for cut in (1, 3, 5, 6):
            engines.append(TestDynamicDifferential.replay(instance, steps[:cut]))
        flat, stale_grid, rebuilt, swept = engines
        assert flat.num_tasks <= limit < stale_grid.num_tasks
        assert stale_grid.rebuild_count == 0
        assert stale_grid.num_tasks - stale_grid.spill_start == 60
        assert rebuilt.rebuild_count == swept.rebuild_count == 1
        assert rebuilt.spill_start == rebuilt.num_tasks


class TestFinderFacadeDynamics:
    def test_facade_add_and_retire_delegate(self):
        instance = make_instance()
        finder = CandidateFinder(instance)
        worker = Worker.at(1, 50.0, 50.0, accuracy=0.99, capacity=3)
        finder.add_tasks([Task.at(900, 50.0, 50.0)])
        assert 900 in {task.task_id for task in finder.candidates(worker)}
        finder.retire_tasks([900])
        assert 900 not in {task.task_id for task in finder.candidates(worker)}
        # eligible_pairs and counts see the same open set.
        pairs = {t.task_id for _, t, _ in finder.eligible_pairs([worker])}
        assert 900 not in pairs
        assert finder.candidate_count_per_task()[900] == 0
