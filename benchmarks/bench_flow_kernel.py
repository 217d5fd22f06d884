"""Microbenchmark: MCF-LTC's batch flow solve, three ways.

Builds LTC-shaped batch reductions (source -> workers -> tasks -> sink,
negative real-valued worker->task costs, exactly what ``MCFLTCSolver``
feeds the flow layer per batch) at several batch sizes and times one full
solve through each implementation:

* **reference** — the retained pre-kernel path (:mod:`repro.flow.reference`):
  ``Edge`` objects, dict adjacency, O(V*E) Bellman-Ford initial potentials;
  network built from scratch, as the old solver did per batch.
* **kernel** — :class:`repro.flow.kernel.ArcArena` + one O(E) DAG potential
  pass + :func:`repro.flow.kernel.solve_mcf` (the SSPA).
* **simplex** — the same arena through MCF-LTC's batch entry
  :func:`repro.algorithms.mcf_ltc.solve_mcf`: the certified network
  simplex, with the kernel's SSPA as the fallback on an exact tie
  between optima (each case reports whether it fell back).

Each timing covers build + solve (what MCF-LTC pays per batch); the
implementations are interleaved within each repeat so slow background
drift hits all equally.  Exactness is asserted on every case: the kernel
must agree with the reference on flow value and cost, and the simplex
with the kernel arc for arc.

Two sections share the batch sizes:

* ``sparse`` draws each worker -> task value from ``uniform(0.1, 1.0)``,
  so near-ties have measure zero; its speedups are gated.
* ``saturated`` takes ``Acc*`` of the paper's sigmoid accuracy at
  distances of at most ``d_max / 2``, two cases per size.  Close to a
  task the sigmoid saturates, so a worker's values to its nearest tasks
  differ by about 1e-12, as on the e2e ``paper_dense`` workload.  The
  simplex decides such near-ties in exact integers, so every case
  certifies unless two optima tie exactly.  The kernel and the simplex
  are compared arc for arc; the timings are reported as observations,
  not gated.

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
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

from repro.algorithms import mcf_ltc
from repro.algorithms.mcf_ltc import MCFLTCSolver, solve_mcf as solve_batch
from repro.core.candidate_engine import CandidateEngine
from repro.experiments.configs import get_experiment
from repro.flow import simplex
from repro.core.accuracy import SigmoidDistanceAccuracy, acc_star
from repro.core.task import Task
from repro.core.worker import Worker
from repro.flow.kernel import ArcArena, dag_potentials, solve_mcf
from repro.flow.simplex import BatchNetwork
from repro.flow.reference import LegacyNetwork, legacy_sspa

# Shape parameters mirroring a paper-default batch: epsilon = 0.14 gives
# delta = 2 ln(1/0.14) ~= 3.93, so every task absorbs ceil(delta) = 4 useful
# answers; worker capacity K = 6; the batch sizing m = |T| * ceil(delta) / K
# implies |T| = 1.5 * batch_size tasks per batch.
CAPACITY = 6
TASK_NEED = math.ceil(2 * math.log(1 / 0.14))
TASKS_PER_WORKER = 1.5
DEGREE = 12  # eligible tasks per worker (grid-index candidates)
# The saturated section: the paper's accuracy model and its d_max, with
# historical accuracies spanning the e2e paper_dense workers' deciles.
SIGMOID = SigmoidDistanceAccuracy()
SATURATED_CASES = 2  # seeds per batch size


def build_case(num_workers: int, seed: int, saturated: bool = False):
    """One LTC-shaped batch reduction as plain data.

    ``saturated`` replaces the uniform values by ``Acc*`` of the sigmoid
    accuracy at a distance drawn from ``uniform(0, d_max / 2)``.
    """
    rng = random.Random(seed)
    num_tasks = max(2, int(num_workers * TASKS_PER_WORKER))
    pairs = []
    for w in range(num_workers):
        row_degree = min(num_tasks, DEGREE)
        if saturated:
            worker = Worker.at(w + 1, 0.0, 0.0, accuracy=rng.uniform(0.75, 0.95),
                               capacity=CAPACITY)
        for t in sorted(rng.sample(range(num_tasks), row_degree)):
            if saturated:
                task = Task.at(t, rng.uniform(0.0, SIGMOID.d_max / 2), 0.0)
                value = acc_star(SIGMOID.accuracy(worker, task))
            else:
                value = rng.uniform(0.1, 1.0)
            pairs.append((w, t, value))
    return num_tasks, pairs


def run_reference(num_workers: int, num_tasks: int, pairs):
    network = LegacyNetwork()
    for w in range(num_workers):
        network.add_edge("s", ("w", w), CAPACITY, 0.0)
    for w, t, value in pairs:
        network.add_edge(("w", w), ("t", t), 1, -value)
    for t in range(num_tasks):
        network.add_edge(("t", t), "d", TASK_NEED, 0.0)
    return legacy_sspa(network, "s", "d")


def build_arena(num_workers: int, num_tasks: int, pairs):
    """The case as an arena and its topological order.

    Same node layout as MCFLTCSolver: source 0, sink 1, then tasks, then
    workers.  Low task ids make Dijkstra's node-id tie-breaking pop
    zero-distance task nodes (and then the sink) before exploring more of
    the worker frontier.
    """
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
    return arena, topo


def run_kernel(num_workers: int, num_tasks: int, pairs):
    arena, topo = build_arena(num_workers, num_tasks, pairs)
    potentials = dag_potentials(arena, 0, topo)
    result = solve_mcf(arena, 0, 1, potentials=potentials)
    return result.flow_value, arena.total_cost(), result.augmentations, arena.flow


def run_simplex(num_workers: int, num_tasks: int, pairs):
    """MCF-LTC's batch entry on the case's :class:`BatchNetwork`.

    The network's pairs are the arena's pair arcs, in the same order, so
    the routed pairs compare with the kernel's flow arc for arc.
    """
    network = BatchNetwork(
        [TASK_NEED] * num_tasks,
        [CAPACITY] * num_workers,
        [w for w, _, _ in pairs],
        [t for _, t, _ in pairs],
        [-value for _, _, value in pairs],
    )
    result = solve_batch(network)
    return result.flow_value, result.augmentations, result.fallback, result.routed


def bench_size(num_workers: int, repeats: int, seed: int,
               saturated: bool = False):
    """One batch size; returns ``(entry, medians_s)`` per implementation.

    A saturated case skips the reference: it checks the simplex against
    the kernel in the near-tie regime.
    """
    num_tasks, pairs = build_case(num_workers, seed, saturated)
    runners = {
        "reference": lambda: run_reference(num_workers, num_tasks, pairs),
        "kernel": lambda: run_kernel(num_workers, num_tasks, pairs),
        "simplex": lambda: run_simplex(num_workers, num_tasks, pairs),
    }
    if saturated:
        del runners["reference"]
    times, outputs = _common.run_interleaved(runners, repeats)

    value, cost, augs, flow = outputs["kernel"]
    if saturated:
        base_value, base_cost = value, cost
    else:
        base_value, base_cost, base_augs = outputs["reference"]
        if value != base_value or abs(cost - base_cost) > 1e-6:
            raise AssertionError(
                f"kernel disagrees with the reference at {num_workers} workers: "
                f"({value}, {cost}) vs ({base_value}, {base_cost})"
            )
    simplex_value, pivots, fallback, routed = outputs["simplex"]
    # build_arena lays out the source arcs first, then the pairs in order.
    pair_flow = flow[2 * num_workers:2 * (num_workers + len(pairs)):2]
    if simplex_value != value or routed != [j for j, units in enumerate(pair_flow) if units]:
        raise AssertionError(
            f"the simplex's flow differs from the kernel's at {num_workers} "
            f"workers (seed {seed})"
        )

    entry = {
        "batch_workers": num_workers,
        "tasks": num_tasks,
        "degree": DEGREE,
        "pair_arcs": len(pairs),
        "flow_value": base_value,
        "total_cost": base_cost,
        "augmentations": augs,
    }
    if saturated:
        entry["seed"] = seed
    else:
        entry["reference_augmentations"] = base_augs
    entry.update(pivots=pivots, fallback=fallback)
    medians_s = {name: statistics.median(times[name]) for name in runners}
    for name in runners:
        entry[f"{name}_ms_median"] = round(medians_s[name] * 1000, 3)
        entry[f"{name}_ms_best"] = round(min(times[name]) * 1000, 3)
    if not saturated:
        entry["kernel_speedup_vs_reference"] = _common.ratio(
            medians_s["reference"], medians_s["kernel"]
        )
    entry["simplex_speedup_vs_kernel"] = _common.ratio(
        medians_s["kernel"], medians_s["simplex"]
    )
    return entry, medians_s


# The e2e paper workloads' instances (benchmarks/e2e/workloads.py):
# experiment, sweep value, scale and instances per pass, at seed 1.
PAPER_WORKLOADS = {
    "paper_sparse": ("fig4_epsilon", 0.14, 0.05, 8),
    "paper_dense": ("fig4_scalability", 50_000, 0.0025, 6),
}
PHASE_SEED = 1
PHASES = ("candidates", "start", "pivots", "apply", "fill", "other")


@contextmanager
def timed_calls(totals):
    """Add the wall time of MCF-LTC's batch steps to ``totals`` (seconds)."""
    clock = time.perf_counter
    steps = [
        (CandidateEngine, "batch_pairs", "batch_pairs"),
        (mcf_ltc, "BatchNetwork", "network"),
        (simplex, "_greedy_start", "tree"),
        (simplex, "_thread", "tree"),
        (simplex, "_potentials", "tree"),
        (mcf_ltc, "solve_mcf", "flow"),
        (MCFLTCSolver, "_solve_batch", "batch"),
        (MCFLTCSolver, "_greedy_fill", "fill"),
    ]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in steps]

    def timed(original, key):
        def call(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                totals[key] += clock() - start
        return call

    try:
        for (owner, name, original), (_, _, key) in zip(originals, steps):
            setattr(owner, name, timed(original, key))
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def bench_batch_phases(repeats: int) -> dict:
    """Where MCF-LTC's time goes on the e2e paper instances, per pass.

    One pass solves every instance of the workload; each phase is its
    smallest time over ``repeats`` passes, in ms:

    * ``candidates`` — the batch's candidate-engine pass;
    * ``start`` — the flow network's arrays with their exact integer
      costs, the greedy start, the first tree and its potentials;
    * ``pivots`` — the rest of the flow solve: pivots with their major
      passes, the certificate, and the SSPA on a fallback batch;
    * ``apply`` — task capacities and applying the flow;
    * ``fill`` — the greedy fill;
    * ``other`` — the rest of the solve (batching, set-up).

    Observational: printed and reported, never gated.
    """
    phases = {}
    for workload, (experiment, value, scale, count) in PAPER_WORKLOADS.items():
        factory = replace(get_experiment(experiment), seed=PHASE_SEED).instance_factory(scale)
        instances = [factory(value, repetition) for repetition in range(count)]
        best = {}
        for _ in range(repeats):
            totals = dict.fromkeys(("batch_pairs", "network", "tree", "flow",
                                    "batch", "fill"), 0.0)
            with timed_calls(totals):
                start = time.perf_counter()
                for instance in instances:
                    MCFLTCSolver().solve(instance)
                total = time.perf_counter() - start
            times = {
                "candidates": totals["batch_pairs"],
                "start": totals["network"] + totals["tree"],
                "pivots": totals["flow"] - totals["tree"],
                "apply": totals["batch"] - totals["flow"] - totals["network"],
                "fill": totals["fill"],
            }
            times["other"] = total - totals["batch_pairs"] - totals["batch"] - totals["fill"]
            times["total"] = total
            for phase, seconds in times.items():
                best[phase] = min(best.get(phase, math.inf), seconds)
        phases[workload] = {phase: round(seconds * 1000, 2)
                            for phase, seconds in best.items()}
        print(f"phases     {workload:<13} " + "  ".join(
            f"{phase}={ms:.1f}ms" for phase, ms in phases[workload].items()))
    return phases


_FINGERPRINT_KEYS = ("seed", "batch_workers", "tasks", "pair_arcs",
                     "flow_value", "augmentations", "reference_augmentations",
                     "pivots", "fallback")


def _fingerprint_case(section: str, entry: dict) -> dict:
    case = {key: entry[key] for key in _FINGERPRINT_KEYS if key in entry}
    case.update(section=section, total_cost=round(entry["total_cost"], 9))
    return case


def _print_case(section: str, entry: dict) -> None:
    timings = "  ".join(
        f"{impl}={entry[f'{impl}_ms_median']:>9.2f}ms"
        for impl in ("reference", "kernel", "simplex")
        if f"{impl}_ms_median" in entry
    )
    print(
        f"{section:<9}  batch={entry['batch_workers']:>5}  "
        f"tasks={entry['tasks']:>5}  {timings}  "
        f"augmentations={entry['augmentations']}  pivots={entry['pivots']}"
        + ("  (fell back to the SSPA)" if entry["fallback"] else "")
    )


def run_suite(args) -> SuiteResult:
    results = []
    fingerprint_cases = []
    totals_s = {"reference": 0.0, "kernel": 0.0, "simplex": 0.0}
    for size in args.sizes:
        entry, medians_s = bench_size(size, args.repeats, args.seed)
        results.append(entry)
        for impl, value in medians_s.items():
            totals_s[impl] += value
        fingerprint_cases.append(_fingerprint_case("sparse", entry))
        _print_case("sparse", entry)
    saturated = []
    saturated_s = {"kernel": 0.0, "simplex": 0.0}
    for size in args.sizes:
        for seed in range(args.seed, args.seed + SATURATED_CASES):
            entry, medians_s = bench_size(size, args.repeats, seed,
                                          saturated=True)
            saturated.append(entry)
            for impl, value in medians_s.items():
                saturated_s[impl] += value
            fingerprint_cases.append(_fingerprint_case("saturated", entry))
            _print_case("saturated", entry)
    phases = bench_batch_phases(args.repeats)
    speedup = _common.ratio(totals_s["reference"], totals_s["kernel"])
    simplex_speedup = _common.ratio(totals_s["kernel"], totals_s["simplex"])
    sections = {
        "sparse": {
            "baseline": "reference",
            "timings_ms": {
                impl: round(value * 1000, 3) for impl, value in totals_s.items()
            },
            "speedups": {
                "kernel_vs_reference": speedup,
                "simplex_vs_kernel": simplex_speedup,
            },
            "fallbacks": sum(entry["fallback"] for entry in results),
            "cases": results,
        },
        "saturated": {
            "metrics": {
                "timings_ms": {
                    impl: round(value * 1000, 3)
                    for impl, value in saturated_s.items()
                },
                "simplex_vs_kernel": _common.ratio(
                    saturated_s["kernel"], saturated_s["simplex"]
                ),
                "fallbacks": sum(entry["fallback"] for entry in saturated),
                "cases": saturated,
            }
        },
        "batch_phases": {"metrics": {"seed": PHASE_SEED, "ms_per_pass": phases}},
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
        headline_speedups={
            "sparse_kernel_vs_reference": speedup,
            "sparse_simplex_vs_kernel": simplex_speedup,
        },
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
        "(Edge objects, dict adjacency, Bellman-Ford), and MCF-LTC's batch "
        "entry (certified network simplex, SSPA fallback) vs the kernel. "
        "Times are medians over repeated interleaved build+solve runs; the "
        "kernel is asserted to agree with the reference on every case, and "
        "the simplex with the kernel arc for arc.  A saturated section "
        "(sigmoid accuracies close to their tasks, costs within about "
        "1e-12) runs the near-tie regime, which the simplex decides in "
        "exact integers, timed but not gated."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"sizes": [20, 40], "repeats": 2},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
