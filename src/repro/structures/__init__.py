"""Small data-structure substrate shared by the algorithms.

:class:`RunningStats` aggregates repeated experiment measurements.  The
paper's per-worker heap ``Q`` bounded by the worker's capacity
(Algorithms 1-3) survives as :mod:`repro.structures.topk`, which only the
pre-engine candidate oracle uses; it is not re-exported here.
"""

from repro.structures.stats import RunningStats

__all__ = ["RunningStats"]
