"""Deterministic, seeded fault injection for the sharded dispatch runtime.

Chaos testing is only useful if the chaos is *reproducible*: a fault
schedule that depends on wall-clock timing produces unreviewable flakes.
Every fault here is therefore keyed on a **per-shard processed-arrival
ordinal** — "crash shard 2 on its 37th arrival" means the same thing on
a laptop and in CI, because each shard's queue is FIFO and its arrival
sub-sequence is fixed by the router.

Three fault kinds are supported (:data:`FAULT_KINDS`):

* ``"crash"`` — the shard's dispatch loop raises
  :class:`InjectedShardCrash` *instead of* processing the arrival.  The
  arrival itself is not lost: under a journaling recovery policy it was
  journaled before the attempt, so a restart replays it.
* ``"transient"`` — the arrival's dispatch attempt raises
  :class:`TransientSolverError` for the first ``failures`` attempts and
  then succeeds, exercising the bounded in-place retry.
* ``"stall"`` — the shard stops consuming its queue once ``at_arrival``
  arrivals have been processed, until :meth:`FaultInjector.release_stalls`
  is called (or the runtime stops).  Backlog and backpressure become
  observable without any sleeps, and ``drain()`` reports the backlog
  instead of waiting on it.

A :class:`FaultPlan` is a frozen, validated schedule; build one by hand
or with :meth:`FaultPlan.seeded`.  The plan compiles to a
:class:`FaultInjector`, the small mutable object the
:class:`~repro.service.sharding.ShardedDispatcher` consults from its
hook points.  Faults are **one-shot**: once fired (or passed, for
transients) they never fire again, so journal replay after a crash does
not re-trigger the fault that caused it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: The accepted fault kinds, in documentation order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "transient", "stall")


class InjectedShardCrash(RuntimeError):
    """A deterministic crash injected into a shard's dispatch loop."""


class TransientSolverError(RuntimeError):
    """A retryable dispatch failure (injected or genuine).

    The sharded dispatcher retries the *same* arrival in place up to
    :data:`~repro.service.recovery.TRANSIENT_RETRIES` times before
    escalating to the shard-failure path.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_arrival`` is the 1-based ordinal of the shard's processed
    arrivals: a ``"crash"``/``"transient"`` fault fires when the shard
    attempts its ``at_arrival``-th arrival; a ``"stall"`` fault activates
    once the shard has *completed* ``at_arrival`` arrivals.  ``failures``
    is how many consecutive attempts a ``"transient"`` fault fails before
    the arrival succeeds (ignored for the other kinds).
    """

    kind: str
    shard_id: int
    at_arrival: int
    failures: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.shard_id < 0:
            raise ValueError("fault shard_id must be non-negative")
        if self.at_arrival < 1:
            raise ValueError("at_arrival is a 1-based arrival ordinal (>= 1)")
        if self.failures < 1:
            raise ValueError("a transient fault must fail at least once")


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, validated schedule of :class:`FaultSpec` entries.

    At most one fault may target a given ``(shard_id, at_arrival)`` point
    — an ambiguous schedule cannot be deterministic.
    """

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        seen: Set[Tuple[int, int]] = set()
        for spec in self.faults:
            key = (spec.shard_id, spec.at_arrival)
            if key in seen:
                raise ValueError(
                    f"two faults target shard {spec.shard_id} at arrival "
                    f"{spec.at_arrival}; fault plans must be unambiguous"
                )
            seen.add(key)

    @property
    def shard_ids(self) -> List[int]:
        """Shards this plan touches (sorted, deduplicated)."""
        return sorted({spec.shard_id for spec in self.faults})

    def for_shard(self, shard_id: int) -> List[FaultSpec]:
        """The faults scheduled for one shard, by arrival ordinal."""
        return sorted(
            (spec for spec in self.faults if spec.shard_id == shard_id),
            key=lambda spec: spec.at_arrival,
        )

    def injector(self) -> "FaultInjector":
        """Compile the plan into a fresh runtime injector."""
        return FaultInjector(self)

    @classmethod
    def seeded(
        cls,
        seed: int,
        shard_ids: Sequence[int],
        max_arrival: int,
        crashes: int = 1,
        transients: int = 0,
        stalls: int = 0,
        transient_failures: int = 1,
    ) -> "FaultPlan":
        """A deterministic plan drawn from ``seed``.

        Places ``crashes`` + ``transients`` + ``stalls`` faults on
        distinct ``(shard, at_arrival)`` points with shards drawn from
        ``shard_ids`` and ordinals from ``1..max_arrival``.  The same
        seed always yields the same plan (the RNG is string-seeded and
        private to this call).
        """
        if not shard_ids:
            raise ValueError("seeded fault plans need at least one shard id")
        if max_arrival < 1:
            raise ValueError("max_arrival must be at least 1")
        total = crashes + transients + stalls
        if total > len(shard_ids) * max_arrival:
            raise ValueError(
                f"cannot place {total} faults on "
                f"{len(shard_ids) * max_arrival} distinct (shard, arrival) points"
            )
        rng = random.Random(f"{seed}-fault-plan")
        kinds = ["crash"] * crashes + ["transient"] * transients + ["stall"] * stalls
        taken: Set[Tuple[int, int]] = set()
        specs: List[FaultSpec] = []
        for kind in kinds:
            while True:
                point = (rng.choice(list(shard_ids)), rng.randint(1, max_arrival))
                if point not in taken:
                    taken.add(point)
                    break
            specs.append(
                FaultSpec(
                    kind=kind,
                    shard_id=point[0],
                    at_arrival=point[1],
                    failures=transient_failures if kind == "transient" else 1,
                )
            )
        return cls(faults=tuple(specs))


@dataclass
class _StallState:
    """Runtime state of one scheduled stall."""

    after_arrivals: int
    released: bool = False


class FaultInjector:
    """The mutable runtime consulted by the dispatcher's hook points.

    One injector serves one :class:`ShardedDispatcher` run; build a fresh
    one (``plan.injector()``) per run — fired faults are consumed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._ordinals: Dict[int, int] = {}
        self._scheduled: Dict[Tuple[int, int], FaultSpec] = {
            (spec.shard_id, spec.at_arrival): spec
            for spec in plan.faults
            if spec.kind in ("crash", "transient")
        }
        self._consumed: Set[Tuple[int, int]] = set()
        self._stalls: Dict[int, List[_StallState]] = {}
        for spec in plan.faults:
            if spec.kind == "stall":
                self._stalls.setdefault(spec.shard_id, []).append(
                    _StallState(after_arrivals=spec.at_arrival)
                )

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    # ------------------------------------------------------- crash/transient

    def begin_arrival(self, shard_id: int) -> int:
        """Claim the next 1-based arrival ordinal for ``shard_id``.

        Called once per *live* arrival attempt (journal replay bypasses
        the injector, so replayed arrivals do not advance the ordinal —
        the schedule stays aligned with the offered stream).
        """
        self._ordinals[shard_id] = self._ordinals.get(shard_id, 0) + 1
        return self._ordinals[shard_id]

    def raise_for(self, shard_id: int, ordinal: int, attempt: int) -> None:
        """Fire the fault scheduled at this arrival, if any.

        ``attempt`` is 0-based: a transient fault with ``failures=f``
        raises on attempts ``0..f-1`` and passes (consuming itself) on
        attempt ``f``.  Crash faults consume themselves *before* raising,
        so a restarted shard does not crash again on replay.
        """
        key = (shard_id, ordinal)
        spec = self._scheduled.get(key)
        if spec is None or key in self._consumed:
            return
        if spec.kind == "crash":
            self._consumed.add(key)
            raise InjectedShardCrash(
                f"injected crash: shard {shard_id}, arrival {ordinal}"
            )
        if attempt < spec.failures:
            raise TransientSolverError(
                f"injected transient dispatch failure: shard {shard_id}, "
                f"arrival {ordinal}, attempt {attempt + 1}/{spec.failures}"
            )
        self._consumed.add(key)

    # ---------------------------------------------------------------- stalls

    def stall_active(self, shard_id: int, processed: int) -> bool:
        """Whether ``shard_id`` should pause consumption right now."""
        return any(
            not stall.released and processed >= stall.after_arrivals
            for stall in self._stalls.get(shard_id, ())
        )

    def release_stalls(self, shard_id: Optional[int] = None) -> None:
        """Release scheduled stalls (all shards, or one), active or not."""
        targets = (
            self._stalls.keys() if shard_id is None else
            [shard_id] if shard_id in self._stalls else []
        )
        for sid in targets:
            for stall in self._stalls[sid]:
                stall.released = True
