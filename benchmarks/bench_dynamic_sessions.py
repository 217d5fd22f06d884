"""Benchmark: long-lived dynamic sessions vs rebuild-per-submit.

The paper's online setting is a stream — tasks keep being posted while
workers trickle in — and before the dynamic snapshot layer the candidate
engine had to be **rebuilt from scratch on every task submission** (full
re-sort, CSR re-pack, per-solver state re-derivation).  This benchmark
pins the win of the incremental path on exactly that regime, plus a
steady-state control:

* **dynamic** — one long LAF (and AAM) session: an initial task set,
  a long worker stream, and a batch of new tasks submitted every
  ``--submit-every`` arrivals through ``Session.submit_tasks``.  Two
  drivers consume the identical event sequence:

  - ``incremental`` — the shipped path: appends land in the engine's
    spill arrays, completions tombstone, the CSR grid rebuilds only at
    the spill threshold;
  - ``rebuild`` — a driver that mimics the pre-dynamic behaviour by
    rebuilding the solver's ``CandidateFinder`` from scratch at every
    submission (and re-applying the retired set to the fresh snapshot).

  Both must produce **byte-identical arrangements**; the speedup is the
  honest price of rebuild-per-submit.

* **steady_state** — the same solvers with every task posted up front
  and no mid-stream submissions, against the retained pre-engine legacy
  observe loops.  This guards the other side of the tentpole: the
  tombstone/spill machinery must not tax the static query path (the
  speedup-vs-legacy here should match the ``candidates`` suite's).

Timings are medians over interleaved repeats.  The suite registers with
the shared registry in :mod:`_common`, reports in the shared schema, and
is run through ``benchmarks/bench_all.py`` into ``BENCH_all.json``; a
standalone run writes a scratch report under ``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic_sessions.py --smoke
    PYTHONPATH=src python benchmarks/bench_dynamic_sessions.py \
        --tasks 120 --workers 2500 --submit-batch 20 --submit-every 80 \
        --repeats 2
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

from repro.algorithms.aam import AAMSolver
from repro.algorithms.laf import LAFSolver
from repro.core.candidates import CandidateFinder
from repro.core.candidates_legacy import (
    LegacyCandidateFinder,
    legacy_aam_observe,
    legacy_laf_observe,
)
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point

def build_workload(args) -> tuple:
    """The long stream: a base instance plus timed task-batch events.

    Returns ``(base_instance, events)`` where ``events`` interleaves
    ``("worker", w)`` arrivals with ``("tasks", [...])`` submissions every
    ``submit_every`` arrivals, all ids increasing in posting order (the
    common production shape, which keeps the engine's position order equal
    to id order).
    """
    rng = random.Random(args.seed)
    box = args.box
    if box is None:
        radius = 29.0
        box = math.sqrt(args.tasks * math.pi * radius * radius / args.degree)

    def new_task(task_id):
        return Task(task_id=task_id,
                    location=Point(rng.uniform(0, box), rng.uniform(0, box)))

    base_tasks = [new_task(i) for i in range(args.tasks)]
    workers = [
        Worker(
            index=index,
            location=Point(rng.uniform(-0.05 * box, 1.05 * box),
                           rng.uniform(-0.05 * box, 1.05 * box)),
            accuracy=rng.uniform(0.72, 0.98),
            capacity=args.capacity,
        )
        for index in range(1, args.workers + 1)
    ]
    base = LTCInstance(tasks=base_tasks, workers=workers,
                       error_rate=args.error_rate, name="bench_dynamic")
    events = []
    next_id = args.tasks
    submissions = 0
    for count, worker in enumerate(workers, start=1):
        events.append(("worker", worker))
        if count % args.submit_every == 0:
            batch = [new_task(next_id + i) for i in range(args.submit_batch)]
            next_id += args.submit_batch
            events.append(("tasks", batch))
            submissions += 1
    return base, events, box, submissions


def clone_instance(base: LTCInstance) -> LTCInstance:
    """Dynamic sessions mutate their instance in place; each run gets a copy."""
    return LTCInstance(
        tasks=list(base.tasks),
        workers=list(base.workers),
        error_rate=base.error_rate,
        accuracy_model=base.accuracy_model,
        name=base.name,
        min_assignable_accuracy=base.min_assignable_accuracy,
    )


class _RebuildPerSubmitMixin:
    """Mimics the pre-dynamic engine: full snapshot rebuild per submission.

    ``add_tasks`` extends instance and arrangement exactly like the
    shipped path, then throws the candidate snapshot away, rebuilds it
    from scratch over the enlarged task set, and re-applies the retired
    (completed) set to the fresh snapshot — which is precisely the work
    the incremental spill/tombstone layer avoids.  Decisions (and so
    arrangements) are identical to the incremental driver by the same
    argument that makes the dynamic test-suite oracle exact.
    """

    def add_tasks(self, tasks):
        tasks = list(tasks)
        self._instance.add_tasks(tasks)
        self._arrangement.add_tasks(tasks)
        retired = [
            task.task_id
            for task in self._instance.tasks
            if self._arrangement.is_task_complete(task.task_id)
        ]
        self._candidates = CandidateFinder(self._instance)
        self._candidates.retire_tasks(retired)
        self._after_rebuild()

    def _after_rebuild(self):
        pass


class RebuildLAF(_RebuildPerSubmitMixin, LAFSolver):
    pass


class RebuildAAM(_RebuildPerSubmitMixin, AAMSolver):
    def _after_rebuild(self):
        # Every piece of position-indexed / derived state must be
        # re-derived over the fresh snapshot — the rest of the rebuild
        # tax the incremental path avoids.  The running sum is reseeded
        # with the naive left-to-right order, exactly like ``start()``;
        # the knife-edge band keeps the LGF/LRF switch identical.
        import heapq

        arrangement = self._arrangement
        engine = self._candidates.engine
        delta = arrangement.delta
        need = [delta] * engine.num_tasks
        heap = []
        total = 0.0
        count = 0
        for task in self._instance.tasks:
            task_id = task.task_id
            if arrangement.is_task_complete(task_id):
                continue
            position = engine.position_of[task_id]
            value = delta - arrangement.accumulated_of(task_id)
            need[position] = value
            heap.append((-value, position))
            total += value
            count += 1
        heapq.heapify(heap)
        self._need = need
        self._need_heap = heap
        self._uncompleted_count = count
        self._remaining_sum = total
        self._sum_compensation = 0.0
        self._abs_update_total = total


def drive_session(solver, base: LTCInstance, events) -> tuple:
    """Feed the event stream through a session; stop once fully complete
    with no submissions left (the long-lived serving loop).  Completion
    is tracked incrementally from the returned assignments — an O(T)
    ``is_complete`` poll per arrival would dominate the candidate path
    being measured, identically for every driver."""
    session = solver.open_session(clone_instance(base))
    total_batches = sum(1 for kind, _ in events if kind == "tasks")
    arrivals = 0
    consumed_batches = 0
    open_tasks = base.num_tasks
    finished = set()
    arrangement = None
    for kind, payload in events:
        if kind == "tasks":
            session.submit_tasks(payload)
            consumed_batches += 1
            open_tasks += len(payload)
        else:
            if open_tasks == 0 and consumed_batches == total_batches:
                break
            assignments = session.on_worker(payload)
            arrivals += 1
            if arrangement is None:
                arrangement = session.arrangement
            for assignment in assignments:
                task_id = assignment.task_id
                if task_id not in finished and arrangement.is_task_complete(
                    task_id
                ):
                    finished.add(task_id)
                    open_tasks -= 1
    result = session.result()
    return result.arrangement.assignments, arrivals, result.completed


def bench_dynamic(base, events, repeats):
    sections = {}
    witnesses = {}
    cases = {"LAF": (LAFSolver, RebuildLAF), "AAM": (AAMSolver, RebuildAAM)}
    for name, (solver_cls, rebuild_cls) in cases.items():
        runners = {
            "rebuild": lambda cls=rebuild_cls: drive_session(cls(), base, events),
            "incremental": lambda cls=solver_cls: drive_session(
                cls(), base, events
            ),
        }
        times, outputs = _common.run_interleaved(runners, repeats)
        base_assignments, base_arrivals, base_completed = outputs["incremental"]
        assignments, arrivals, _ = outputs["rebuild"]
        if assignments != base_assignments or arrivals != base_arrivals:
            raise AssertionError(
                f"{name}/rebuild diverged from incremental "
                f"({len(assignments)} vs {len(base_assignments)} assignments)"
            )
        entry = {
            "arrivals": base_arrivals,
            "assignments": len(base_assignments),
            "completed": base_completed,
        }
        medians_s = {impl: statistics.median(times[impl]) for impl in runners}
        for impl in runners:
            entry[f"{impl}_ms_median"] = round(medians_s[impl] * 1000, 3)
        speedup = _common.ratio(medians_s["rebuild"], medians_s["incremental"])
        entry["incremental_speedup_vs_rebuild"] = speedup
        sections[f"dynamic_{name.lower()}"] = {
            "baseline": "rebuild",
            "timings_ms": {
                impl: round(value * 1000, 3)
                for impl, value in medians_s.items()
            },
            "speedups": {"incremental_vs_rebuild": speedup},
            "detail": entry,
        }
        witnesses[name] = {
            "arrivals": base_arrivals,
            "assignments": len(base_assignments),
            "completed": base_completed,
            "arrangement_digest": _common.digest(base_assignments),
        }
    return sections, witnesses


def drive_legacy_static(instance: LTCInstance, observe) -> tuple:
    """The retained pre-engine observe loop over a static instance."""
    arrangement = instance.new_arrangement()
    finder = LegacyCandidateFinder(instance)
    arrivals = 0
    open_tasks = instance.num_tasks
    finished = set()
    for worker in instance.workers:
        if open_tasks == 0:
            break
        assigned_ids = observe(instance, arrangement, finder, worker)
        arrivals += 1
        for task_id in assigned_ids:
            if task_id not in finished and arrangement.is_task_complete(task_id):
                finished.add(task_id)
                open_tasks -= 1
    return arrangement.assignments, arrivals


def drive_engine_static(instance: LTCInstance, solver_cls) -> tuple:
    solver = solver_cls()
    solver.start(clone_instance(instance))
    arrangement = solver.arrangement
    arrivals = 0
    open_tasks = instance.num_tasks
    finished = set()
    for worker in instance.workers:
        if open_tasks == 0:
            break
        assignments = solver.observe(worker)
        arrivals += 1
        for assignment in assignments:
            task_id = assignment.task_id
            if task_id not in finished and arrangement.is_task_complete(task_id):
                finished.add(task_id)
                open_tasks -= 1
    return arrangement.assignments, arrivals


def bench_steady_state(base: LTCInstance, events, repeats):
    """Static control: all tasks up front, no submissions, vs legacy loops.

    Uses the *full* task set (base plus every batch the dynamic section
    submits), so the workload matches the dynamic section's end state.
    """
    all_tasks = list(base.tasks)
    for kind, payload in events:
        if kind == "tasks":
            all_tasks.extend(payload)
    static = LTCInstance(
        tasks=all_tasks, workers=list(base.workers),
        error_rate=base.error_rate, accuracy_model=base.accuracy_model,
        name=base.name, min_assignable_accuracy=base.min_assignable_accuracy,
    )
    sections = {}
    witnesses = {}
    cases = {
        "LAF": (legacy_laf_observe, LAFSolver),
        "AAM": (legacy_aam_observe, AAMSolver),
    }
    for name, (legacy_observe, solver_cls) in cases.items():
        runners = {
            "legacy": lambda lo=legacy_observe: drive_legacy_static(static, lo),
            "engine": lambda cls=solver_cls: drive_engine_static(static, cls),
        }
        times, outputs = _common.run_interleaved(runners, repeats)
        base_assignments, base_arrivals = outputs["legacy"]
        for impl, (assignments, arrivals) in outputs.items():
            if assignments != base_assignments or arrivals != base_arrivals:
                raise AssertionError(f"steady_state {name}/{impl} diverged")
        entry = {"arrivals": base_arrivals,
                 "assignments": len(base_assignments)}
        medians_s = {impl: statistics.median(times[impl]) for impl in runners}
        for impl in runners:
            entry[f"{impl}_ms_median"] = round(medians_s[impl] * 1000, 3)
            entry[f"{impl}_us_per_arrival"] = round(
                medians_s[impl] * 1e6 / max(1, base_arrivals), 2
            )
        speedup = _common.ratio(medians_s["legacy"], medians_s["engine"])
        entry["engine_speedup_vs_legacy"] = speedup
        sections[f"steady_{name.lower()}"] = {
            "baseline": "legacy",
            "timings_ms": {
                impl: round(value * 1000, 3)
                for impl, value in medians_s.items()
            },
            "speedups": {"engine_vs_legacy": speedup},
            "detail": entry,
        }
        witnesses[name] = {
            "arrivals": base_arrivals,
            "assignments": len(base_assignments),
            "arrangement_digest": _common.digest(base_assignments),
        }
    return sections, witnesses


def run_suite(args) -> SuiteResult:
    base, events, box, submissions = build_workload(args)
    total_tasks = args.tasks + submissions * args.submit_batch
    print(f"workload: {args.tasks} initial + {submissions} x "
          f"{args.submit_batch} submitted tasks (total {total_tasks}), "
          f"{args.workers} arrivals, box={box:.1f}")

    sections, dynamic_witnesses = bench_dynamic(base, events, args.repeats)
    for name in ("LAF", "AAM"):
        entry = sections[f"dynamic_{name.lower()}"]["detail"]
        print(f"dynamic {name:>4}  arrivals={entry['arrivals']:>6}  "
              f"incremental={entry['incremental_ms_median']:>9.2f}ms  "
              f"rebuild={entry['rebuild_ms_median']:>9.2f}ms  "
              f"incremental vs rebuild: "
              f"{entry['incremental_speedup_vs_rebuild']:>5.2f}x")

    steady_sections, steady_witnesses = bench_steady_state(
        base, events, args.repeats
    )
    sections.update(steady_sections)
    for name in ("LAF", "AAM"):
        entry = sections[f"steady_{name.lower()}"]["detail"]
        print(f"steady  {name:>4}  per-arrival  "
              f"legacy={entry['legacy_us_per_arrival']:>8.1f}us  "
              f"engine={entry['engine_us_per_arrival']:>8.1f}us  "
              f"vs legacy: {entry['engine_speedup_vs_legacy']:>5.2f}x")

    headline = {}
    for name in ("laf", "aam"):
        headline[f"{name}_incremental_vs_rebuild"] = (
            sections[f"dynamic_{name}"]["speedups"]["incremental_vs_rebuild"]
        )
        headline[f"{name}_steady_engine_vs_legacy"] = (
            sections[f"steady_{name}"]["speedups"]["engine_vs_legacy"]
        )

    config = {
        "initial_tasks": args.tasks,
        "submitted_batches": submissions,
        "submit_batch": args.submit_batch,
        "submit_every": args.submit_every,
        "total_tasks": total_tasks,
        "workers": args.workers,
        "box": round(box, 2),
        "capacity": args.capacity,
        "error_rate": args.error_rate,
        "repeats": args.repeats,
        "seed": args.seed,
    }
    return SuiteResult(
        config=config,
        sections=sections,
        headline_speedups=headline,
        fingerprint_payload={
            "dynamic": dynamic_witnesses,
            "steady_state": steady_witnesses,
        },
    )


def add_arguments(parser) -> None:
    parser.add_argument("--tasks", type=int, default=2000,
                        help="initial task set size")
    parser.add_argument("--workers", type=int, default=6000,
                        help="length of the merged arrival stream")
    parser.add_argument("--submit-batch", type=int, default=25,
                        help="tasks posted per mid-stream submission")
    parser.add_argument("--submit-every", type=int, default=40,
                        help="arrivals between submissions (small frequent "
                             "batches are the production stream shape — and "
                             "the regime where rebuild-per-submit hurts)")
    parser.add_argument("--box", type=float, default=None,
                        help="side of the square region (default: sized for "
                             "a worker degree around --degree)")
    parser.add_argument("--degree", type=float, default=60.0,
                        help="target mean candidates per worker when --box "
                             "is not given")
    parser.add_argument("--capacity", type=int, default=6)
    parser.add_argument("--error-rate", type=float, default=0.14)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20180416)


SUITE = _common.register_suite(BenchSuite(
    name="dynamic_sessions",
    description=(
        "Long-lived sessions over an interleaved task/worker stream: "
        "the incremental candidate snapshot (spill appends + lazy "
        "tombstones + threshold grid rebuilds) vs a driver that "
        "rebuilds the snapshot from scratch at every mid-stream task "
        "submission (the pre-dynamic behaviour).  'steady_*' is "
        "the static control: the same solvers with all tasks posted "
        "up front, vs the retained pre-engine legacy observe loops. "
        "Arrangements are asserted byte-identical in both sections."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"tasks": 120, "workers": 1500, "degree": 40.0,
                     "submit_batch": 15, "submit_every": 60, "repeats": 2},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
