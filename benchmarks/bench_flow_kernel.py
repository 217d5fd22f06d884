"""Microbenchmark: the flow kernel vs the pre-refactor object-graph SSPA.

Builds LTC-shaped batch reductions (source -> workers -> tasks -> sink,
negative real-valued worker->task costs, exactly what ``MCFLTCSolver``
feeds the flow layer per batch) at several batch sizes and times one full
solve through each implementation:

* **reference** — the retained pre-kernel path (:mod:`repro.flow.reference`):
  ``Edge`` objects, dict adjacency, O(V*E) Bellman-Ford initial potentials;
  network built from scratch, as the old solver did per batch.
* **kernel** — :class:`repro.flow.kernel.ArcArena` + one O(E) DAG potential
  pass + :func:`repro.flow.kernel.solve_mcf`.

Each timing covers build + potentials + solve (what MCF-LTC pays per
batch); the implementations are interleaved within each repeat so slow
background drift hits both equally.  Exactness is asserted on every case:
the kernel must agree with the reference on flow value and cost.

The suite registers with the shared registry in :mod:`_common`, reports
in the shared schema (``sections`` / ``headline_speedups`` / exactness
``fingerprint``), and is run through ``benchmarks/bench_all.py`` into
``BENCH_all.json``; a standalone run writes a scratch report under
``benchmarks/results/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_flow_kernel.py --smoke
    PYTHONPATH=src python benchmarks/bench_flow_kernel.py \
        --sizes 20 40 --repeats 2
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

from repro.flow.kernel import ArcArena, dag_potentials, solve_mcf
from repro.flow.reference import LegacyFlowNetwork, legacy_successive_shortest_paths

# Shape parameters mirroring a paper-default batch: epsilon = 0.14 gives
# delta = 2 ln(1/0.14) ~= 3.93, so every task absorbs ceil(delta) = 4 useful
# answers; worker capacity K = 6; the batch sizing m = |T| * ceil(delta) / K
# implies |T| = 1.5 * batch_size tasks per batch.
CAPACITY = 6
TASK_NEED = math.ceil(2 * math.log(1 / 0.14))
TASKS_PER_WORKER = 1.5
DEGREE = 12  # eligible tasks per worker (grid-index candidates)


def build_case(num_workers: int, seed: int):
    """One LTC-shaped batch reduction as plain data."""
    rng = random.Random(seed)
    num_tasks = max(2, int(num_workers * TASKS_PER_WORKER))
    pairs = []
    for w in range(num_workers):
        row_degree = min(num_tasks, DEGREE)
        for t in sorted(rng.sample(range(num_tasks), row_degree)):
            pairs.append((w, t, rng.uniform(0.1, 1.0)))
    return num_tasks, pairs


def run_reference(num_workers: int, num_tasks: int, pairs):
    network = LegacyFlowNetwork()
    for w in range(num_workers):
        network.add_edge("s", ("w", w), CAPACITY, 0.0)
    for w, t, value in pairs:
        network.add_edge(("w", w), ("t", t), 1, -value)
    for t in range(num_tasks):
        network.add_edge(("t", t), "d", TASK_NEED, 0.0)
    return legacy_successive_shortest_paths(network, "s", "d")


def run_kernel(num_workers: int, num_tasks: int, pairs):
    # Same node layout as MCFLTCSolver: source 0, sink 1, then tasks, then
    # workers.  Low task ids make Dijkstra's node-id tie-breaking pop
    # zero-distance task nodes (and then the sink) before exploring more of
    # the worker frontier.
    arena = ArcArena(2)  # 0 = source, 1 = sink
    task_base = arena.add_nodes(num_tasks)
    worker_base = arena.add_nodes(num_workers)
    for w in range(num_workers):
        arena.add_arc(0, worker_base + w, CAPACITY, 0.0)
    for w, t, value in pairs:
        arena.add_arc(worker_base + w, task_base + t, 1, -value)
    for t in range(num_tasks):
        arena.add_arc(task_base + t, 1, TASK_NEED, 0.0)
    topo = (
        [0]
        + list(range(worker_base, worker_base + num_workers))
        + list(range(task_base, task_base + num_tasks))
        + [1]
    )
    potentials = dag_potentials(arena, 0, topo)
    result = solve_mcf(arena, 0, 1, potentials=potentials)
    return result.flow_value, result.total_cost, result.augmentations


def bench_size(num_workers: int, repeats: int, seed: int):
    """One batch size; returns ``(entry, medians_s)`` per implementation."""
    num_tasks, pairs = build_case(num_workers, seed)
    runners = {
        "reference": lambda: run_reference(num_workers, num_tasks, pairs),
        "kernel": lambda: run_kernel(num_workers, num_tasks, pairs),
    }
    times, outputs = _common.run_interleaved(runners, repeats)

    base_value, base_cost, base_augs = outputs["reference"]
    value, cost, augs = outputs["kernel"]
    if value != base_value or abs(cost - base_cost) > 1e-6:
        raise AssertionError(
            f"kernel disagrees with the reference at {num_workers} workers: "
            f"({value}, {cost}) vs ({base_value}, {base_cost})"
        )

    entry = {
        "batch_workers": num_workers,
        "tasks": num_tasks,
        "degree": DEGREE,
        "pair_arcs": len(pairs),
        "flow_value": base_value,
        "total_cost": base_cost,
        "augmentations": augs,
        "reference_augmentations": base_augs,
    }
    medians_s = {name: statistics.median(times[name]) for name in runners}
    for name in runners:
        entry[f"{name}_ms_median"] = round(medians_s[name] * 1000, 3)
        entry[f"{name}_ms_best"] = round(min(times[name]) * 1000, 3)
    entry["kernel_speedup_vs_reference"] = _common.ratio(
        medians_s["reference"], medians_s["kernel"]
    )
    return entry, medians_s


def run_suite(args) -> SuiteResult:
    results = []
    fingerprint_cases = []
    totals_s = {"reference": 0.0, "kernel": 0.0}
    for size in args.sizes:
        entry, medians_s = bench_size(size, args.repeats, args.seed)
        results.append(entry)
        for impl, value in medians_s.items():
            totals_s[impl] += value
        fingerprint_cases.append({
            "section": "sparse",
            "batch_workers": entry["batch_workers"],
            "tasks": entry["tasks"],
            "pair_arcs": entry["pair_arcs"],
            "flow_value": entry["flow_value"],
            "total_cost": round(entry["total_cost"], 9),
            "augmentations": entry["augmentations"],
            "reference_augmentations": entry["reference_augmentations"],
        })
        print(
            f"batch={entry['batch_workers']:>5}  tasks={entry['tasks']:>5}  "
            f"reference={entry['reference_ms_median']:>9.2f}ms  "
            f"kernel={entry['kernel_ms_median']:>9.2f}ms  "
            f"speedup={entry['kernel_speedup_vs_reference']:>5.2f}x  "
            f"augmentations={entry['augmentations']}"
        )
    speedup = _common.ratio(totals_s["reference"], totals_s["kernel"])
    sections = {
        "sparse": {
            "baseline": "reference",
            "timings_ms": {
                impl: round(value * 1000, 3) for impl, value in totals_s.items()
            },
            "speedups": {"kernel_vs_reference": speedup},
            "cases": results,
        }
    }
    config = {
        "sizes": list(args.sizes),
        "repeats": args.repeats,
        "seed": args.seed,
        "capacity": CAPACITY,
        "task_need": TASK_NEED,
        "degree": DEGREE,
    }
    return SuiteResult(
        config=config,
        sections=sections,
        headline_speedups={"sparse_kernel_vs_reference": speedup},
        fingerprint_payload=fingerprint_cases,
    )


def add_arguments(parser) -> None:
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 200, 800],
                        help="batch sizes (workers) to benchmark")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per size (median reported)")
    parser.add_argument("--seed", type=int, default=20180416)


SUITE = _common.register_suite(BenchSuite(
    name="flow_kernel",
    description=(
        "Per-batch MCF-LTC flow solve: the array kernel (ArcArena + DAG "
        "potentials + solve_mcf) vs the pre-refactor object-graph SSPA "
        "(Edge objects, dict adjacency, Bellman-Ford). Times are medians "
        "over repeated interleaved build+solve runs; both implementations "
        "are asserted to agree on every case."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"sizes": [20, 40], "repeats": 2},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
