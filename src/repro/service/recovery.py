"""Journaled recovery for the sharded dispatch runtime.

A shard of a :class:`~repro.service.sharding.ShardedDispatcher` is one
:class:`~repro.service.LTCDispatcher` plus a FIFO arrival queue.  That
makes a failed shard *replayable*: everything that defines its state is
the ordered sequence of control-plane operations (session opens,
mid-stream ``submit_tasks``, ``expire_tasks``, ``close``) interleaved
with the routed worker arrivals it processed.  :class:`ArrivalJournal`
records exactly that sequence, and :meth:`ArrivalJournal.replay` feeds it
to a fresh dispatcher — which, because every layer below is
deterministic, rebuilds **byte-identical** session state (the same FIFO
argument as the sharding differential suite: per-session sub-streams are
replayed in their original per-session order).

Worker arrivals are journaled **write-ahead** (before the dispatch
attempt) so the arrival in flight when a shard crashes is not lost;
control-plane operations are journaled **after success** so a rejected
operation (duplicate id, affinity violation, offline solver) never
pollutes the journal.  The one thing that cannot be replayed is a
session opened with a *prebuilt* :class:`~repro.algorithms.base.Solver`
object — the dispatcher forbids reusing a solver object across sessions,
and rebuilding would need the constructor spec; such opens are recorded
as unreplayable and :meth:`replay` raises :class:`JournalReplayError`,
which the sharded dispatcher escalates like any other shard failure.

:class:`RecoveryPolicy` configures what a shard failure does
(:data:`FAILURE_POLICIES`):

* ``"fail-fast"`` — mark the shard failed, flush its queue (counting the
  discards) and raise the error from the call that processed the
  arrival.  No journal is kept.
* ``"restart"`` — rebuild the dead shard's dispatcher by replaying its
  journal, at most :data:`MAX_RESTARTS` times per shard.
* ``"quarantine"`` — rebuild the shard's sessions *once* (same replay)
  and migrate them to the overflow shard; the geo shard stops serving
  and subsequent arrivals routed to it are discarded (counted).

Before any of these, a
:class:`~repro.service.faults.TransientSolverError` is retried in place
up to :data:`TRANSIENT_RETRIES` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.spec import SolverSpecLike
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker

#: The accepted shard-failure policies, in documentation order.
FAILURE_POLICIES: Tuple[str, ...] = ("fail-fast", "restart", "quarantine")

#: Per-shard restart budget under ``"restart"``; once it is spent the
#: shard fails fast.
MAX_RESTARTS = 3

#: In-place retries of one arrival's dispatch attempt after a
#: :class:`~repro.service.faults.TransientSolverError`, before the failure
#: escalates to the shard-failure path.
TRANSIENT_RETRIES = 2

#: Sentinel recorded for session opens that cannot be replayed (prebuilt
#: Solver objects; see the module docstring).
UNREPLAYABLE = object()


class JournalReplayError(RuntimeError):
    """A journal cannot rebuild its shard's state exactly."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a shard failure does.

    Parameters
    ----------
    on_shard_failure:
        One of :data:`FAILURE_POLICIES`.  Journaling is enabled exactly
        when the policy can need a replay (``restart`` / ``quarantine``);
        ``fail-fast`` pays zero journaling overhead.
    """

    on_shard_failure: str = "fail-fast"

    def __post_init__(self) -> None:
        if self.on_shard_failure not in FAILURE_POLICIES:
            raise ValueError(
                f"unknown shard-failure policy {self.on_shard_failure!r}; "
                f"expected one of {', '.join(FAILURE_POLICIES)}"
            )

    @property
    def journaling(self) -> bool:
        """Whether this policy requires per-shard arrival journals."""
        return self.on_shard_failure in ("restart", "quarantine")


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed recovery action, for reporting and benchmarks."""

    shard_id: int
    action: str  # "restart" | "quarantine"
    replayed_arrivals: int
    duration_seconds: float
    error: str


class ArrivalJournal:
    """One shard's append-only operation log.

    Entries are ``(kind, *payload)`` tuples in append order — the exact
    order the shard's dispatcher observed the operations.
    """

    __slots__ = ("_entries", "_worker_count", "_taint")

    def __init__(self) -> None:
        self._entries: List[tuple] = []
        self._worker_count = 0
        self._taint: Optional[str] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def worker_count(self) -> int:
        """Journaled worker arrivals (the replay volume that matters)."""
        return self._worker_count

    @property
    def replayable(self) -> bool:
        return self._taint is None

    # ------------------------------------------------------------ recording

    def record_open(
        self,
        session_id: str,
        instance: LTCInstance,
        solver: Optional[SolverSpecLike],
        replayable: bool = True,
    ) -> None:
        self._entries.append(
            ("open", session_id, instance, solver if replayable else UNREPLAYABLE)
        )

    def record_tasks(self, session_id: str, tasks: Sequence[Task]) -> None:
        self._entries.append(("tasks", session_id, tuple(tasks)))

    def record_expire(self, session_id: str, task_ids: Sequence[int]) -> None:
        self._entries.append(("expire", session_id, tuple(task_ids)))

    def record_worker(self, worker: Worker) -> None:
        self._entries.append(("worker", worker))
        self._worker_count += 1

    def record_close(self, session_id: str) -> None:
        self._entries.append(("close", session_id))

    def mark_unreplayable(self, reason: str) -> None:
        """Poison the journal (e.g. after adopting foreign sessions)."""
        self._taint = reason

    # -------------------------------------------------------------- replay

    def replay(self, dispatcher) -> int:
        """Re-apply every entry, in order, to a fresh ``LTCDispatcher``.

        Returns the number of worker arrivals replayed.  Raises
        :class:`JournalReplayError` if the journal is tainted or contains
        an unreplayable session open; the target dispatcher may then be
        partially populated and must be discarded.
        """
        if self._taint is not None:
            raise JournalReplayError(f"journal is not replayable: {self._taint}")
        replayed = 0
        for entry in self._entries:
            kind = entry[0]
            if kind == "worker":
                dispatcher.feed_worker(entry[1])
                replayed += 1
            elif kind == "open":
                _, session_id, instance, solver = entry
                if solver is UNREPLAYABLE:
                    raise JournalReplayError(
                        f"session {session_id!r} was opened with a prebuilt "
                        "Solver object, which cannot be rebuilt from a spec; "
                        "journal replay is impossible for this shard"
                    )
                dispatcher.submit_instance(
                    instance, solver=solver, session_id=session_id
                )
            elif kind == "tasks":
                dispatcher.submit_tasks(entry[1], list(entry[2]))
            elif kind == "expire":
                dispatcher.expire_tasks(entry[1], list(entry[2]))
            else:  # close
                dispatcher.close(entry[1])
        return replayed

