"""Bounded arrival queues with explicit backpressure policies.

Each shard of a :class:`~repro.service.sharding.ShardedDispatcher` owns one
:class:`BoundedArrivalQueue` between the router (``feed_worker``) and the
shard's dispatcher.  The queue is bounded on purpose: a shard falling
behind (a stalled shard) must surface that
fact instead of growing an unbounded backlog.  What happens at the bound
is the *backpressure policy*:

* ``"block"`` — the new arrival is refused with :class:`QueueFullError`
  (lossless: nothing is dropped, the caller learns the shard is stuck;
  the default);
* ``"drop-oldest"`` — the oldest queued arrival is evicted to admit the new
  one (bounded staleness; the evicted arrival is *shed*);
* ``"reject"`` — the new arrival is refused (bounded lag; the refused
  arrival is shed).

Shed arrivals are counted (``evicted`` / ``rejected`` / ``shed``), so a
load harness can report shed rate against offered traffic honestly.  Note
that any shedding breaks the byte-identity guarantee with a single-process
dispatcher — an exact run requires the lossless ``"block"`` policy (or a
queue that never fills).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

#: The accepted policy names, in documentation order.
BACKPRESSURE_POLICIES: Tuple[str, ...] = ("block", "drop-oldest", "reject")


class QueueClosedError(RuntimeError):
    """An arrival was offered to a closed queue."""


class QueueFullError(RuntimeError):
    """A full ``"block"`` queue refused an arrival; nothing can consume it."""


class BoundedArrivalQueue:
    """A bounded FIFO with a selectable full-queue policy and shed counters.

    The router calls :meth:`put`; the shard's drain loop calls :meth:`get`
    until it returns ``None``; :meth:`close` refuses further arrivals.

    Counters (monotone, readable at any time):

    * ``accepted`` — arrivals admitted to the queue;
    * ``evicted`` — arrivals shed by ``drop-oldest`` to make room;
    * ``rejected`` — arrivals refused by ``reject``;
    * ``shed`` — ``evicted + rejected``;
    * ``processed`` — arrivals taken by :meth:`get`.
    """

    def __init__(self, capacity: int, policy: str = "block") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {', '.join(BACKPRESSURE_POLICIES)}"
            )
        self._capacity = capacity
        self._policy = policy
        self._items: Deque[object] = deque()
        self._closed = False
        self._accepted = 0
        self._evicted = 0
        self._rejected = 0
        self._processed = 0

    # ------------------------------------------------------------ properties

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def size(self) -> int:
        """Arrivals currently queued."""
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self._capacity

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def accepted(self) -> int:
        return self._accepted

    @property
    def evicted(self) -> int:
        return self._evicted

    @property
    def rejected(self) -> int:
        return self._rejected

    @property
    def shed(self) -> int:
        """Arrivals lost to backpressure (evicted + rejected)."""
        return self._evicted + self._rejected

    @property
    def processed(self) -> int:
        return self._processed

    # ------------------------------------------------------------- lifecycle

    def put(self, item: object) -> bool:
        """Offer one arrival; return whether it was admitted.

        A full queue applies its policy: ``"block"`` raises
        :class:`QueueFullError` (nothing admitted, no counter moves),
        ``"drop-oldest"`` evicts its head and admits the new arrival
        (returns ``True``; the eviction is counted), ``"reject"`` refuses
        the arrival (returns ``False``).

        Raises :class:`QueueClosedError` if the queue is closed.
        """
        if self._closed:
            raise QueueClosedError("queue is closed")
        if self.full:
            if self._policy == "reject":
                self._rejected += 1
                return False
            if self._policy == "block":
                raise QueueFullError(
                    f"queue is full ({self._capacity} arrivals)"
                )
            self._items.popleft()
            self._evicted += 1
        self._items.append(item)
        self._accepted += 1
        return True

    def get(self) -> Optional[object]:
        """Take the next arrival, or ``None`` if the queue is empty."""
        if not self._items:
            return None
        self._processed += 1
        return self._items.popleft()

    def flush(self) -> int:
        """Discard every queued arrival; return how many were dropped.

        The failure path for dead/quarantined shards.  The caller owns the
        discard accounting; these drops are *not* added to the
        backpressure ``shed`` counters.
        """
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def close(self) -> None:
        """Refuse further arrivals (idempotent); queued ones stay gettable."""
        self._closed = True
