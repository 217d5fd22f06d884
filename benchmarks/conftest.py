"""Shared helpers for the figure-regeneration benchmarks.

This conftest serves only the pytest-benchmark suites that regenerate the
paper's figures (``test_fig*.py``, ``test_ablation*.py``): each one
re-measures a figure column (latency, runtime and memory series for all
five algorithms) at the experiment's scaled-down default size, renders
the same tables the paper plots, writes them to
``benchmarks/results/<experiment_id>.txt`` and checks the measured shapes
against the qualitative claims extracted from the paper.

The microbenchmark *scripts* in this directory (``bench_flow_kernel.py``,
``bench_candidates.py``, ``bench_dynamic_sessions.py``,
``bench_dispatch_scale.py``) do not use pytest at all — they are thin
suites registered with :mod:`_common` and orchestrated by
``bench_all.py``, which emits the committed ``BENCH_all.json`` report and
drives the CI perf-regression gate (see ``docs/benchmarks.md``).

Environment knobs:

* ``REPRO_BENCH_SCALE`` — override the scale factor (e.g. ``0.1`` for a
  larger, slower run closer to the paper's sizes).
* ``REPRO_BENCH_REPETITIONS`` — override the repetitions per setting
  (default 1 for benchmarks; the paper uses 30).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.experiments.harness import run_experiment
from repro.experiments.paper_reference import PAPER_EXPECTATIONS
from repro.experiments.report import render_table

RESULTS_DIR = Path(__file__).parent / "results"


def _env_float(name: str) -> Optional[float]:
    # Explicit None/blank checks: a truthiness test would silently treat
    # legitimate zero values like REPRO_BENCH_SCALE=0 as "unset".
    value = os.environ.get(name)
    if value is None or not value.strip():
        return None
    return float(value)


def _env_int(name: str) -> Optional[int]:
    value = os.environ.get(name)
    if value is None or not value.strip():
        return None
    return int(value)


def regenerate_figure(
    experiment_id: str,
    algorithms: Optional[Sequence[str]] = None,
    sweep_values: Optional[Sequence[float]] = None,
):
    """Run one experiment end to end and persist its rendered tables."""
    repetitions = _env_int("REPRO_BENCH_REPETITIONS")
    table = run_experiment(
        experiment_id,
        scale=_env_float("REPRO_BENCH_SCALE"),
        repetitions=1 if repetitions is None else repetitions,
        algorithms=algorithms,
        sweep_values=sweep_values,
        track_memory=True,
    )

    rendered = render_table(table)
    expectation = PAPER_EXPECTATIONS.get(experiment_id)
    deviation_lines = []
    if expectation is not None:
        deviations = expectation.check(table)
        if deviations:
            deviation_lines = ["", "Deviations from the paper's qualitative claims:"]
            deviation_lines += [f"  - {line}" for line in deviations]
        else:
            deviation_lines = ["", "Measured shapes match the paper's qualitative claims."]

    RESULTS_DIR.mkdir(exist_ok=True)
    artefact = RESULTS_DIR / f"{experiment_id}.txt"
    artefact.write_text(rendered + "\n" + "\n".join(deviation_lines) + "\n")
    return table


@pytest.fixture
def figure_runner():
    """Fixture exposing :func:`regenerate_figure` to benchmark modules."""
    return regenerate_figure
