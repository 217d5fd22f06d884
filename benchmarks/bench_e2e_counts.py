"""Benchmark: the e2e workloads' per-layer counts, fingerprinted.

Runs the end-to-end benchmark's traced pass for each of its four
workloads, one subprocess each::

    python3 benchmarks/e2e/run.py --workload W --seed 20180416 \
        --seconds 0 --trace 1

and parses the JSON result line ``run.py`` prints last.  Every metric
with unit ``count`` — the ``*.calls``, ``flow.arcs``,
``flow.augmentations``, ``recovery.journal.appends``,
``recovery.journal_entries_end``, ``recovery.replayed_arrivals``,
``candidates.eligible_pairs.pairs`` and
``candidates.iter_candidates.yields`` — repeats exactly for a seed
(``benchmarks/e2e/README.md``, "Repeated seed"), so those counts form the
suite's fingerprint, and ``bench_all.py --check`` fails on any change in
them.  A change that means to move a count regenerates the baseline and
says why.  Each workload's section records the counts with the run's
``correct``, ``attempted`` and ``failed``; a run that is not correct, or
that fails any unit, stops the suite.

The suite only calls ``run.py`` and reads its output; it imports and
edits nothing under ``benchmarks/e2e/``.  It has no options and no
smoke configuration of its own: the counts are fingerprinted for the
four workloads at the reference seed only, and a traced run takes a few
seconds per workload.

Usage::

    python benchmarks/bench_e2e_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _common
from _common import BenchSuite, SuiteResult

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"
WORKLOADS = ("paper_sparse", "paper_dense", "dispatch_churn", "sharded_churn")
SEED = 20180416  # the e2e reference seed


def traced_counts(workload: str, seed: int) -> dict:
    """One traced ``run.py`` pass: its checks and its count metrics."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py --workload {workload} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"run.py --workload {workload}: {lines[-1]}")
    counts = {
        name: metric["value"]
        for name, metric in sorted(result["metrics"].items())
        if metric["unit"] == "count"
    }
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "counts": counts}


def run_suite(args) -> SuiteResult:
    sections = {}
    witnesses = {}
    for workload in WORKLOADS:
        outcome = traced_counts(workload, SEED)
        sections[workload] = {"metrics": outcome}
        witnesses[workload] = outcome["counts"]
        print(f"{workload:>16}  {len(outcome['counts'])} counts, "
              f"flow.augmentations {outcome['counts']['flow.augmentations']}")
    return SuiteResult(
        config={"workloads": list(WORKLOADS), "seed": SEED},
        sections=sections,
        headline_speedups={},
        fingerprint_payload=witnesses,
    )


SUITE = _common.register_suite(BenchSuite(
    name="e2e_counts",
    description=(
        "The e2e benchmark's four workloads, one traced run.py pass each "
        "at the reference seed: every count metric (calls, arcs, "
        "augmentations, journal and replay counts, candidate pairs and "
        "yields) is fingerprinted, so --check fails on any change."
    ),
    add_arguments=lambda parser: None,
    run=run_suite,
))


if __name__ == "__main__":
    sys.exit(_common.suite_main(SUITE))
