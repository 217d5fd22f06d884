"""Crowd workers (Definition 2).

A worker ``w = <o_w, l_w, p_w, K>`` is the ``o_w``-th person to check in, at
location ``l_w``, with historical accuracy ``p_w`` and a capacity of at most
``K`` tasks per check-in.  Workers below the platform's minimum historical
accuracy (66% in the paper) are treated as spam and filtered out before an
instance is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.quality_threshold import MIN_WORKER_ACCURACY
from repro.geo.point import Point


@dataclass(frozen=True, slots=True)
class Worker:
    """A crowd worker checking in at a location.

    Attributes
    ----------
    index:
        Arrival order ``o_w`` (1-based, matching the paper).  The latency of
        an arrangement is the largest index among the workers it uses.
    location:
        Check-in location ``l_w``.
    accuracy:
        Historical accuracy ``p_w`` in ``[MIN_WORKER_ACCURACY, 1]``.
    capacity:
        Maximum number of distinct tasks the worker will answer, ``K``.
    arrival_time:
        Optional wall-clock timestamp of the check-in (seconds).  Used only
        by the check-in data generator and reporting; the algorithms order
        workers by ``index``.
    metadata:
        Optional free-form attributes (home city, user id, ...).
    """

    index: int
    location: Point
    accuracy: float
    capacity: int
    arrival_time: float = 0.0
    # Excluded from equality/hashing, as for Task.metadata.
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("worker index (arrival order) must be >= 1")
        if not 0.0 < self.accuracy <= 1.0:
            raise ValueError("historical accuracy must be in (0, 1]")
        if self.accuracy < MIN_WORKER_ACCURACY - 1e-12:
            raise ValueError(
                f"historical accuracy {self.accuracy:.3f} below the spam threshold "
                f"{MIN_WORKER_ACCURACY:.2f}; filter such workers before building an "
                "instance"
            )
        if self.capacity < 1:
            raise ValueError("capacity K must be >= 1")

    def with_index(self, index: int) -> "Worker":
        """This worker at arrival ``index``: ``dataclasses.replace(self,
        index=index)``, about twice as fast.

        The dispatcher re-indexes every delivered arrival into its
        session's arrival order, so this sits on the serving hot path.
        Every other field is passed on as is.
        """
        return Worker(
            index, self.location, self.accuracy, self.capacity,
            self.arrival_time, self.metadata,
        )

    def distance_to(self, location: Point) -> float:
        """Euclidean distance from the worker's check-in to ``location``."""
        return self.location.distance_to(location)

    @classmethod
    def at(
        cls,
        index: int,
        x: float,
        y: float,
        accuracy: float,
        capacity: int,
        **kwargs: object,
    ) -> "Worker":
        """Convenience constructor from raw coordinates."""
        return cls(
            index=index,
            location=Point(float(x), float(y)),
            accuracy=accuracy,
            capacity=capacity,
            **kwargs,  # type: ignore[arg-type]
        )
