"""Running experiments end-to-end.

:func:`run_experiment` resolves an experiment id, builds its runner and
returns the populated :class:`~repro.simulation.results.ResultTable`.  The
``repro-experiments`` CLI and the ``figures`` benchmark suite
(``benchmarks/bench_figures.py``, which EXPERIMENTS.md is rendered from)
both call this function.

Solver configuration is fully declarative: ``algorithms`` accepts registry
names and parameterized spec strings (``"MCF-LTC?batch_multiplier=2.0"``)
alike, and experiments whose sweep varies a solver parameter (the batch-size
ablation) declare the per-sweep specs on their
:class:`~repro.experiments.configs.ExperimentDefinition` — there are no
harness-level solver overrides.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.algorithms.spec import SolverSpecLike
from repro.experiments.configs import get_experiment
from repro.simulation.results import ResultTable


def run_experiment(
    experiment_id: str,
    scale: Optional[float] = None,
    repetitions: Optional[int] = None,
    algorithms: Optional[Sequence[SolverSpecLike]] = None,
    sweep_values: Optional[Sequence[float]] = None,
    track_memory: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> ResultTable:
    """Run one of the paper's experiments and return its result table.

    Parameters mirror :meth:`ExperimentDefinition.build_runner`; leaving them
    ``None`` uses the definition's scaled-down defaults.  ``algorithms``
    entries may be bare solver names or spec strings like
    ``"MCF-LTC?batch_multiplier=2.0"``.
    """
    definition = get_experiment(experiment_id)
    runner = definition.build_runner(
        scale=scale,
        repetitions=repetitions,
        algorithms=algorithms,
        sweep_values=sweep_values,
        track_memory=track_memory,
        progress=progress,
    )
    return runner.run()
