"""Benchmark: the paper's ten experiments, fingerprinted.

Every experiment in :mod:`repro.experiments.configs` (the eight figure
columns of Fig. 3 and Fig. 4 plus the two ablations) runs through
:func:`repro.experiments.harness.run_experiment` at its definition's
default scale.  Nothing here is timed against a baseline: each experiment
becomes one observational section, ``figures.<experiment_id>``, holding

* the mean latency, runtime and memory series the paper's panels plot;
* the deviations :meth:`PanelExpectation.check` finds against the paper's
  qualitative claims;
* the paired wins, ties and losses of every ``latency_better`` claim
  (:meth:`PanelExpectation.paired_outcomes`).

Two passes run per experiment.  The timing pass solves every instance
untraced (``track_memory=False``), ``--repetitions`` times per sweep value.
The memory pass re-runs the first ``--memory-repetitions`` of them with the
``tracemalloc`` peak metered, which costs about 12x per solve; its
latencies must equal the timing pass's before anything is reported.

Latencies are deterministic for a seed, so ``max_latency`` and
``completed`` of every (experiment, sweep value, repetition, algorithm)
form the fingerprint: ``bench_all.py --check`` fails on an arrangement
change in any of the ten experiments.  ``scripts/build_experiments_md.py``
renders EXPERIMENTS.md from these sections.  Other scales and repetition
counts stay with ``repro-experiments --scale/--repetitions``.

Usage::

    PYTHONPATH=src python benchmarks/bench_figures.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

from repro.experiments.configs import list_experiments
from repro.experiments.harness import run_experiment
from repro.experiments.paper_reference import PAPER_EXPECTATIONS


def _latencies(table) -> dict:
    return {
        (record.sweep_value, record.repetition, record.algorithm):
            (record.max_latency, record.completed)
        for record in table.records
    }


def run_figure(experiment_id: str, repetitions: int, memory_repetitions: int):
    """One experiment's section and fingerprint witness."""
    table = run_experiment(experiment_id, repetitions=repetitions,
                           track_memory=False)
    series = {
        "max_latency": table.mean_series("max_latency"),
        "runtime_seconds": table.mean_series("runtime_seconds"),
    }
    if memory_repetitions:
        memory = run_experiment(experiment_id, repetitions=memory_repetitions,
                                track_memory=True)
        timed = _latencies(table)
        for key, outcome in _latencies(memory).items():
            if timed.get(key) != outcome:
                raise AssertionError(
                    f"{experiment_id}: the memory pass solved {key} to "
                    f"{outcome}, the timing pass to {timed.get(key)}"
                )
        series["peak_memory_mb"] = memory.mean_series("peak_memory_mb")
    expectation = PAPER_EXPECTATIONS[experiment_id]
    section = {"metrics": {
        "sweep_parameter": table.sweep_parameter,
        "series": series,
        "deviations": expectation.check(table),
        "paired_outcomes": expectation.paired_outcomes(table),
    }}
    witness = [
        [record.sweep_value, record.repetition, record.algorithm,
         record.max_latency, record.completed]
        for record in table.records
    ]
    return section, witness


def run_suite(args) -> SuiteResult:
    if args.memory_repetitions > args.repetitions:
        raise ValueError("--memory-repetitions cannot exceed --repetitions")
    sections = {}
    witnesses = {}
    for experiment_id in list_experiments():
        start = time.perf_counter()
        section, witnesses[experiment_id] = run_figure(
            experiment_id, args.repetitions, args.memory_repetitions
        )
        sections[experiment_id] = section
        deviations = section["metrics"]["deviations"]
        print(f"{experiment_id:>22}  {time.perf_counter() - start:>7.1f}s  "
              f"{len(deviations)} deviation(s) from the paper's claims")
    return SuiteResult(
        config={"repetitions": args.repetitions,
                "memory_repetitions": args.memory_repetitions},
        sections=sections,
        headline_speedups={},
        fingerprint_payload=witnesses,
    )


def add_arguments(parser) -> None:
    parser.add_argument("--repetitions", type=int, default=30,
                        help="repetitions per sweep value of the untraced "
                             "timing pass (the paper's 30)")
    parser.add_argument("--memory-repetitions", type=int, default=1,
                        help="repetitions of the traced memory pass; 0 "
                             "skips it and the memory series")


SUITE = _common.register_suite(BenchSuite(
    name="figures",
    description=(
        "The paper's ten experiments (Fig. 3, Fig. 4 and two ablations) "
        "at their default scales: one observational section per "
        "experiment with the mean latency, runtime and memory series, "
        "the deviations from the paper's qualitative claims and the "
        "paired wins/ties/losses of each latency claim. Every run's "
        "latency and completion are fingerprinted."
    ),
    add_arguments=add_arguments,
    run=run_suite,
    smoke_overrides={"repetitions": 1, "memory_repetitions": 0},
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
