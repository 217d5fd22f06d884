"""Runtime and memory metering around a solver run.

The paper's efficiency panels report wall-clock running time and process
memory of a C++ implementation.  Here we measure wall-clock time with
``perf_counter`` and peak allocation of the solve call with ``tracemalloc``.
Absolute values are not comparable to the paper's testbed, but the *relative*
comparison between algorithms (the paper's actual claim) is preserved.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict

from repro.algorithms.base import Solver, SolveResult
from repro.core.instance import LTCInstance


@dataclass
class SolveMeasurement:
    """A solver result together with its efficiency measurements."""

    result: SolveResult
    runtime_seconds: float
    peak_memory_bytes: int

    @property
    def peak_memory_mb(self) -> float:
        """Peak memory of the solve call in megabytes."""
        return self.peak_memory_bytes / (1024.0 * 1024.0)

    def summary(self) -> Dict[str, float]:
        """Flat summary merging effectiveness and efficiency metrics."""
        data = self.result.summary()
        data["runtime_seconds"] = self.runtime_seconds
        data["peak_memory_mb"] = self.peak_memory_mb
        return data


def measure_solver(
    solver: Solver,
    instance: LTCInstance,
    track_memory: bool = True,
) -> SolveMeasurement:
    """Run ``solver`` on ``instance`` and meter runtime and peak memory.

    The timed solve runs untraced: ``tracemalloc`` slows the solvers 4.8x
    (AAM) to 10.5x (MCF-LTC) on ``fig4_epsilon``.  The peak comes from a
    second, traced solve of the same instance.  A caller that is already
    tracing cannot be untraced, so its timed solve runs traced.
    """
    start = time.perf_counter()
    result = solver.solve(instance)
    elapsed = time.perf_counter() - start
    if track_memory:
        tracemalloc_was_tracing = tracemalloc.is_tracing()
        if not tracemalloc_was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        solver.solve(instance)
        _, peak = tracemalloc.get_traced_memory()
        if not tracemalloc_was_tracing:
            tracemalloc.stop()
    else:
        peak = 0
    return SolveMeasurement(
        result=result,
        runtime_seconds=elapsed,
        peak_memory_bytes=int(peak),
    )
