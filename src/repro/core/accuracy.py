"""Predicted-accuracy functions (Definition 3).

The paper's default accuracy function is a logistic decay of the worker's
historical accuracy with distance:

    Acc(w, t) = p_w / (1 + exp(-(d_max - ||l_w - l_t||)))

where ``d_max`` is the largest distance at which workers still perform tasks
with high accuracy (30 grid units = 300 m in the experiments).  The paper
notes that other accuracy functions also apply, so the model is expressed as
a small strategy interface; the worked examples in the paper (Tables I/II)
use a :class:`TabularAccuracy` that reads the table directly.
"""

from __future__ import annotations

import abc
import math
from typing import Mapping, Tuple

from repro.core.task import Task
from repro.core.worker import Worker


def acc_star(accuracy: float) -> float:
    """``Acc*(w, t) = (2 * Acc(w, t) - 1)^2`` — the Hoeffding contribution."""
    weight = 2.0 * accuracy - 1.0
    return weight * weight


class AccuracyModel(abc.ABC):
    """Maps a (worker, task) pair to a predicted accuracy in ``[0, 1]``."""

    @abc.abstractmethod
    def accuracy(self, worker: Worker, task: Task) -> float:
        """Predicted probability that ``worker`` answers ``task`` correctly."""

    def acc_star(self, worker: Worker, task: Task) -> float:
        """``(2 * Acc(w, t) - 1)^2`` for the pair.

        Not meant to be overridden: :meth:`Arrangement.assign
        <repro.core.arrangement.Arrangement.assign>` derives ``Acc*`` from
        the recorded ``Acc`` with :func:`acc_star` instead of calling this.
        """
        return acc_star(self.accuracy(worker, task))

    def voting_weight(self, worker: Worker, task: Task) -> float:
        """The weighted-majority-voting weight ``2 * Acc(w, t) - 1``."""
        return 2.0 * self.accuracy(worker, task) - 1.0


class SigmoidDistanceAccuracy(AccuracyModel):
    """The paper's default accuracy function (Equation 1).

    Parameters
    ----------
    d_max:
        The largest distance (in the dataset's coordinate units) at which a
        worker still answers with high accuracy.  The experiments use 30 grid
        units (300 m), taken from the Foursquare region-preference study.
    """

    def __init__(self, d_max: float = 30.0) -> None:
        if d_max <= 0:
            raise ValueError("d_max must be positive")
        self.d_max = float(d_max)

    def accuracy(self, worker: Worker, task: Task) -> float:
        distance = worker.location.distance_to(task.location)
        exponent = -(self.d_max - distance)
        # Guard against overflow for workers extremely far away: the sigmoid
        # saturates to 0 well before exp() overflows.
        if exponent > 700.0:
            return 0.0
        return worker.accuracy / (1.0 + math.exp(exponent))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SigmoidDistanceAccuracy(d_max={self.d_max})"


class ConstantAccuracy(AccuracyModel):
    """Every pair has the same predicted accuracy.

    This is the setting of McNaughton's rule in Theorem 2 (all workers equally
    accurate on all tasks); it is used by the bounds module and by tests.
    """

    def __init__(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        self.value = float(value)

    def accuracy(self, worker: Worker, task: Task) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantAccuracy({self.value})"


class TabularAccuracy(AccuracyModel):
    """Accuracy looked up from an explicit (worker_index, task_id) table.

    The paper's running example (Table I) specifies per-pair accuracies
    directly; this model reproduces such tables exactly.  Pairs missing from
    the table fall back to ``default`` (the worker's historical accuracy when
    ``default`` is ``None``).
    """

    def __init__(
        self,
        table: Mapping[Tuple[int, int], float],
        default: float | None = None,
    ) -> None:
        for (worker_index, task_id), value in table.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"accuracy for worker {worker_index}, task {task_id} "
                    f"must be in [0, 1], got {value}"
                )
        self._table = dict(table)
        self._default = default

    def accuracy(self, worker: Worker, task: Task) -> float:
        key = (worker.index, task.task_id)
        if key in self._table:
            return self._table[key]
        if self._default is not None:
            return self._default
        return worker.accuracy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TabularAccuracy({len(self._table)} entries)"
