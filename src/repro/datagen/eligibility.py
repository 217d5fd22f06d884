"""Eligible-worker counts for candidate task locations.

Both generators place each task by rejection sampling: they draw candidate
locations until one has at least a minimum number of *eligible* workers,
those whose predicted accuracy at the location reaches the spam threshold
``MIN_WORKER_ACCURACY``.  :class:`EligibleWorkerCounter` answers that count
with one vectorized pass over the nearby workers, so a candidate costs a few
numpy calls instead of a Python loop.

The count is exact, equal to the scalar
``SigmoidDistanceAccuracy.accuracy(worker, task) >= MIN_WORKER_ACCURACY``
test applied to every worker.  Numpy's ``hypot`` and ``exp`` may differ from
``math``'s by an ulp, so every worker whose vectorized accuracy lies within
``_BAND`` of the threshold is re-decided with the scalar model.

A worker's historical accuracy is at most 1, so an eligible worker lies
within ``d_max - 0.66`` of the location.  The workers are therefore kept
sorted by x, and only the slab ``|x - location.x| <= d_max`` (two binary
searches) is evaluated; at the paper's density that is a few percent of
the workers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.quality_threshold import MIN_WORKER_ACCURACY
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.point import Point

#: Half-width of the band around the threshold that is re-decided by the
#: scalar model; far wider than any ulp-level numpy/math difference.
_BAND = 1e-9


class EligibleWorkerCounter:
    """Counts the workers able to perform a task at a given location.

    Build it once per instance; :meth:`count` is then called once per
    candidate location.
    """

    def __init__(
        self, workers: Sequence[Worker], model: SigmoidDistanceAccuracy
    ) -> None:
        xs = np.array([worker.location.x for worker in workers])
        order = np.argsort(xs, kind="stable")
        self._workers = [workers[i] for i in order.tolist()]
        self._model = model
        self._xs = xs[order]
        self._ys = np.array([worker.location.y for worker in self._workers])
        self._accuracies = np.array([worker.accuracy for worker in self._workers])

    def count(self, location: Point) -> int:
        """How many workers reach ``MIN_WORKER_ACCURACY`` at ``location``."""
        d_max = self._model.d_max
        lo = int(np.searchsorted(self._xs, location.x - d_max, side="left"))
        hi = int(np.searchsorted(self._xs, location.x + d_max, side="right"))
        distances = np.hypot(self._xs[lo:hi] - location.x, self._ys[lo:hi] - location.y)
        # Far workers overflow exp() to inf, i.e. an accuracy of 0, as the
        # scalar model's own overflow guard returns.
        with np.errstate(over="ignore"):
            accuracies = self._accuracies[lo:hi] / (1.0 + np.exp(-(d_max - distances)))
        count = int(np.count_nonzero(accuracies >= MIN_WORKER_ACCURACY + _BAND))
        band = np.flatnonzero(np.abs(accuracies - MIN_WORKER_ACCURACY) < _BAND)
        if band.size:
            probe = Task(task_id=0, location=location)
            count += sum(
                1
                for i in band.tolist()
                if self._model.accuracy(self._workers[lo + i], probe)
                >= MIN_WORKER_ACCURACY
            )
        return count
