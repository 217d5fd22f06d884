"""Microbenchmark: the candidate engine vs the pre-engine object scan.

Measures the two hot candidate paths on a dense sigmoid instance (defaults:
2k tasks, target worker degree 260 — far above the paper's sparse ~12):

* **online** — the per-arrival candidate path of the online solvers: a full
  LAF and AAM drive to completion, arrival by arrival, through

  - ``legacy`` — the retained pre-engine observe loops
    (:mod:`repro.core.candidates_legacy`): dict-grid query, python ``Task``
    objects, one ``math.exp`` per pair, plus AAM's O(T) remaining rescan;
  - ``engine`` — the candidate engine (CSR rows, scalar loops below its
    vector cutover and one numpy pass above it, incremental AAM stats).

* **pairs** — the per-batch pairs of the MCF-LTC reduction:
  ``list(finder.eligible_pairs(batch))`` over a batch-sized worker slice,
  mid-run: a quarter of the tasks is completed.  The engine's
  ``eligible_pairs`` iterates its batch pass (``batch_pairs``), the one
  candidate pass MCF-LTC makes per batch; the legacy oracle makes one
  query per worker.  The engine's finder has the completed tasks
  retired, as MCF-LTC retires them; the legacy oracle filters them out
  with its ``allowed_ids`` restriction.

Exactness is asserted on every case: both implementations must produce
identical arrangements / identical pair streams.  Timings are medians over
interleaved repeats.  The suite registers with the shared registry in
:mod:`_common`, reports in the shared schema, and is run through
``benchmarks/bench_all.py`` into ``BENCH_all.json``; a standalone run
writes a scratch report under ``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_candidates.py --smoke
    PYTHONPATH=src python benchmarks/bench_candidates.py \
        --tasks 300 --workers 500 --repeats 2
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

def build_instance(num_tasks: int, num_workers: int, box: float, seed: int,
                   capacity: int, error_rate: float) -> LTCInstance:
    """A dense urban-style instance: uniform tasks, workers mostly inside."""
    rng = random.Random(seed)
    tasks = [
        Task(task_id=i, location=Point(rng.uniform(0, box), rng.uniform(0, box)))
        for i in range(num_tasks)
    ]
    workers = [
        Worker(
            index=index,
            location=Point(rng.uniform(-0.05 * box, 1.05 * box),
                           rng.uniform(-0.05 * box, 1.05 * box)),
            accuracy=rng.uniform(0.72, 0.98),
            capacity=capacity,
        )
        for index in range(1, num_workers + 1)
    ]
    return LTCInstance(tasks=tasks, workers=workers, error_rate=error_rate,
                       name="bench_candidates")


def mean_degree(instance: LTCInstance, sample: int = 200) -> float:
    finder = CandidateFinder(instance)
    workers = instance.workers[:sample]
    return sum(len(finder.candidates(w)) for w in workers) / len(workers)


# ------------------------------------------------------------------ drivers
# Each driver runs one full online solve to completion and returns the
# assignment list (the exactness witness) plus how many arrivals it consumed.


def drive_legacy(instance: LTCInstance, observe) -> tuple:
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
        # Completion is tracked incrementally (identically in both
        # drivers): an O(T) is_complete() poll per arrival would dominate
        # the candidate path being measured for every implementation.
        for task_id in assigned_ids:
            if task_id not in finished and arrangement.is_task_complete(task_id):
                finished.add(task_id)
                open_tasks -= 1
    return arrangement.assignments, arrivals, open_tasks == 0


def drive_engine(instance: LTCInstance, solver_cls) -> tuple:
    solver = solver_cls()
    solver.start(instance)
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
    return arrangement.assignments, arrivals, open_tasks == 0


def _finish_entry(entry, times, runners, per_arrival=None):
    """Medians, per-arrival costs and speedups, shared by every section."""
    medians_s = {impl: statistics.median(times[impl]) for impl in runners}
    for impl in runners:
        entry[f"{impl}_ms_median"] = round(medians_s[impl] * 1000, 3)
        if per_arrival:
            entry[f"{impl}_us_per_arrival"] = round(
                medians_s[impl] * 1e6 / max(1, per_arrival), 2
            )
    entry["engine_speedup_vs_legacy"] = _common.ratio(
        medians_s["legacy"], medians_s["engine"]
    )
    return entry, medians_s


def _timed_section(entry, medians_s) -> dict:
    return {
        "baseline": "legacy",
        "timings_ms": {
            impl: round(value * 1000, 3) for impl, value in medians_s.items()
        },
        "speedups": {"engine_vs_legacy": entry["engine_speedup_vs_legacy"]},
        "detail": entry,
    }


def bench_online(instance: LTCInstance, repeats: int):
    """Time full LAF and AAM drives for every implementation."""
    sections = {}
    witnesses = {}
    cases = {
        "LAF": (legacy_laf_observe, LAFSolver),
        "AAM": (legacy_aam_observe, AAMSolver),
    }
    for name, (legacy_observe, solver_cls) in cases.items():
        runners = {
            "legacy": lambda lo=legacy_observe: drive_legacy(instance, lo),
            "engine": lambda cls=solver_cls: drive_engine(instance, cls),
        }
        times, outputs = _common.run_interleaved(runners, repeats)
        base_assignments, base_arrivals, base_completed = outputs["legacy"]
        for impl, (assignments, arrivals, _) in outputs.items():
            if assignments != base_assignments or arrivals != base_arrivals:
                raise AssertionError(
                    f"{name}/{impl} diverged from the legacy arrangement "
                    f"({len(assignments)} vs {len(base_assignments)} assignments)"
                )
        entry = {
            "arrivals": base_arrivals,
            "assignments": len(base_assignments),
            "completed": base_completed,
        }
        entry, medians_s = _finish_entry(entry, times, runners,
                                         per_arrival=base_arrivals)
        sections[f"online_{name.lower()}"] = _timed_section(entry, medians_s)
        witnesses[name] = {
            "arrivals": base_arrivals,
            "assignments": len(base_assignments),
            "completed": base_completed,
            "arrangement_digest": _common.digest(base_assignments),
        }
    return sections, witnesses


def bench_selection(instance: LTCInstance, repeats: int, sample: int = 800):
    """The candidate path itself: per-arrival selection on a frozen state.

    The full drives above include the arrangement mutation
    (``Arrangement.assign`` re-evaluates the accuracy model per landed
    assignment), which every implementation pays identically and which
    caps the observable end-to-end ratio.  This section isolates what the
    engine replaced: candidate generation + batched ``Acc*`` evaluation +
    top-``K`` selection.  A canonical LAF run is frozen mid-stream
    (realistic mix of completed and open tasks) and each implementation
    answers the *same* ``sample`` of arrivals read-only; outputs are
    asserted identical.
    """
    from repro.structures.topk import TopKHeap

    solver = LAFSolver()
    solver.start(instance)
    consumed = 0
    finished = 0
    finished_ids = set()
    for worker in instance.workers:
        assignments = solver.observe(worker)
        consumed += 1
        for assignment in assignments:
            task_id = assignment.task_id
            if task_id not in finished_ids and solver.arrangement.is_task_complete(
                task_id
            ):
                finished_ids.add(task_id)
                finished += 1
        if finished >= instance.num_tasks // 2:
            break
    arrangement = solver.arrangement
    sample_workers = instance.workers[consumed:consumed + sample]
    capacity = instance.capacity

    legacy_finder = LegacyCandidateFinder(instance)

    def run_legacy():
        selections = []
        for worker in sample_workers:
            heap: TopKHeap = TopKHeap(capacity)
            for task in legacy_finder.candidates(worker):
                if arrangement.is_task_complete(task.task_id):
                    continue
                heap.push(instance.acc_star(worker, task), task)
            selections.append([task.task_id for _, task in heap.pop_all()])
        return selections

    # Finished tasks are retired, as the solvers retire them.
    engine = CandidateFinder(instance).engine
    engine.retire_tasks(finished_ids)

    def run_engine():
        return [
            [task.task_id for task, _ in engine.topk_acc_star(worker, capacity)]
            for worker in sample_workers
        ]

    runners = {"legacy": run_legacy, "engine": run_engine}
    times, outputs = _common.run_interleaved(runners, repeats)
    baseline = outputs["legacy"]
    for impl, selections in outputs.items():
        if selections != baseline:
            raise AssertionError(f"selection/{impl} diverged from legacy")
    entry = {
        "sample_arrivals": len(sample_workers),
        "frozen_after_arrivals": consumed,
        "completed_tasks": finished,
    }
    entry, medians_s = _finish_entry(entry, times, runners,
                                     per_arrival=len(sample_workers))
    section = _timed_section(entry, medians_s)
    witness = {
        "sample_arrivals": len(sample_workers),
        "frozen_after_arrivals": consumed,
        "completed_tasks": finished,
        "selection_digest": _common.digest(baseline),
    }
    return section, witness


def bench_pairs(instance: LTCInstance, repeats: int, batch_size: int):
    """Time one batch's pairs (the MCF-LTC reduction's input)."""
    batch = instance.workers[:batch_size]
    # Model a mid-run batch: a quarter of the tasks already completed.
    allowed = {task.task_id for task in instance.tasks
               if task.task_id % 4 != 0}
    legacy = LegacyCandidateFinder(instance)
    engine = CandidateFinder(instance)
    engine.retire_tasks(task.task_id for task in instance.tasks
                        if task.task_id not in allowed)

    def emit(pairs):
        # The engine's pairs also carry their accuracy; the legacy oracle's
        # do not, so the comparison reads the pair alone.
        return [(pair[0].index, pair[1].task_id) for pair in pairs]

    runners = {
        "legacy": lambda: emit(legacy.eligible_pairs(batch, allowed)),
        "engine": lambda: emit(engine.eligible_pairs(batch)),
    }
    times, outputs = _common.run_interleaved(runners, repeats)
    baseline = outputs["legacy"]
    for impl, pairs in outputs.items():
        if pairs != baseline:
            raise AssertionError(f"pairs/{impl} diverged from the legacy stream")
    entry = {
        "batch_workers": len(batch),
        "allowed_tasks": len(allowed),
        "pairs": len(baseline),
    }
    entry, medians_s = _finish_entry(entry, times, runners)
    section = _timed_section(entry, medians_s)
    witness = {
        "batch_workers": len(batch),
        "allowed_tasks": len(allowed),
        "pairs": len(baseline),
        "pairs_digest": _common.digest(baseline),
    }
    return section, witness


def _report_line(detail, unit: str = "ms_median", scale: str = "ms") -> str:
    return (
        f"legacy={detail[f'legacy_{unit}']:>9.2f}{scale}  "
        f"engine={detail[f'engine_{unit}']:>9.2f}{scale}  "
        f"speedup={detail['engine_speedup_vs_legacy']:>5.2f}x"
    )


def run_suite(args) -> SuiteResult:
    box = args.box
    if box is None:
        # degree ~= tasks * pi * r^2 / box^2 with r ~= d_max for accurate
        # workers; solve for the box side.
        radius = 29.0
        box = math.sqrt(args.tasks * math.pi * radius * radius / args.degree)
    instance = build_instance(args.tasks, args.workers, box, args.seed,
                              args.capacity, args.error_rate)
    degree = mean_degree(instance)
    print(f"instance: {args.tasks} tasks, {args.workers} workers, "
          f"box={box:.1f}, mean degree={degree:.1f}")

    sections, online_witnesses = bench_online(instance, args.repeats)
    for name in ("LAF", "AAM"):
        detail = sections[f"online_{name.lower()}"]["detail"]
        print(f"online {name:>4}  arrivals={detail['arrivals']:>5}  "
              f"{_report_line(detail)}")

    selection, selection_witness = bench_selection(instance, args.repeats)
    sections["selection"] = selection
    print(f"selection    per-arrival  "
          f"{_report_line(selection['detail'], 'us_per_arrival', 'us')}")

    pairs, pairs_witness = bench_pairs(instance, args.repeats, args.batch_size)
    sections["pairs"] = pairs
    print(f"pairs  emit  pairs={pairs['detail']['pairs']:>7}  "
          f"{_report_line(pairs['detail'])}")

    headline = {
        f"{section}_engine_vs_legacy":
            sections[section]["speedups"]["engine_vs_legacy"]
        for section in ("online_laf", "online_aam", "selection", "pairs")
    }
    config = {
        "tasks": args.tasks,
        "workers": args.workers,
        "box": round(box, 2),
        "mean_degree": round(degree, 1),
        "capacity": args.capacity,
        "error_rate": args.error_rate,
        "batch_size": args.batch_size,
        "repeats": args.repeats,
        "seed": args.seed,
    }
    return SuiteResult(
        config=config,
        sections=sections,
        headline_speedups=headline,
        fingerprint_payload={
            "online": online_witnesses,
            "selection": selection_witness,
            "pairs": pairs_witness,
        },
    )


def add_arguments(parser) -> None:
    parser.add_argument("--tasks", type=int, default=2000)
    parser.add_argument("--workers", type=int, default=6000,
                        help="length of the arrival stream (drives stop at "
                             "completion)")
    parser.add_argument("--box", type=float, default=None,
                        help="side of the square region (default: sized for "
                             "a worker degree around --degree)")
    parser.add_argument("--degree", type=float, default=260.0,
                        help="target mean candidates per worker when --box "
                             "is not given (the dense-city regime; the "
                             "paper's sparse setup is ~12)")
    parser.add_argument("--capacity", type=int, default=6)
    parser.add_argument("--error-rate", type=float, default=0.14)
    parser.add_argument("--batch-size", type=int, default=400,
                        help="worker slice for the arc-emission section")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20180416)


SUITE = _common.register_suite(BenchSuite(
    name="candidates",
    description=(
        "Candidate-generation hot paths: the struct-of-arrays engine "
        "vs the retained "
        "pre-engine object scan (dict grid, per-pair math.exp, AAM's "
        "O(T) remaining rescan). 'online_laf'/'online_aam' time full "
        "LAF/AAM drives to completion arrival by arrival; 'selection' "
        "isolates the frozen per-arrival top-k path; 'pairs' times one "
        "batch pass of eligible pairs for the MCF-LTC reduction. "
        "All implementations are asserted to produce identical "
        "arrangements / pair streams."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"tasks": 250, "workers": 500, "degree": 40.0,
                     "batch_size": 120, "repeats": 2},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
