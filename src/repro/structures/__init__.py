"""Small data-structure substrate shared by the algorithms.

The paper's pseudo-code keeps, for every worker, a heap ``Q`` bounded by the
worker's capacity that holds the best candidate tasks (Algorithms 1-3).  The
:class:`TopKHeap` here is that structure, and :class:`RunningStats`
aggregates repeated experiment measurements.
"""

from repro.structures.topk import TopKHeap
from repro.structures.stats import RunningStats

__all__ = ["TopKHeap", "RunningStats"]
