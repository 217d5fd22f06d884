"""Worker-process shards: the ``"process"`` executor's plumbing.

Thread shards share the GIL, so pure-python routing tops out well short
of the shard count.  This module runs each shard's
:class:`~repro.service.LTCDispatcher` in a **worker process** instead:

* :func:`shard_worker_main` is the child entry point — it owns the
  shard's dispatcher and applies messages from a duplex pipe strictly in
  order, preserving the per-shard FIFO contract;
* :class:`ShardProcessChannel` is the parent's handle on one process
  incarnation: a pipe, a receiver thread, ack/latency accounting, and
  single-shot death detection;
* :class:`ProcessShardClient` duck-types the slice of the
  ``LTCDispatcher`` surface the :class:`ShardedDispatcher` control plane
  uses, so the sharded runtime drives a process shard through the same
  code paths as an in-process one.  Cheap mirrors (open session ids,
  instances, last metrics snapshot) live parent-side; everything else is
  a synchronous request/reply round-trip.

Task batches cross the boundary as shared-memory snapshots
(:mod:`repro.service.sharding.shm`) — the worker attaches numpy views
and never re-pickles positions — with an inline-pickle fallback when
numpy or shared memory is unavailable.

**Failure transport.**  A dispatch failure in the worker (escalated
transient, injected crash, any bug) sends a final ``("failed", pickled
exception, repr, traceback)`` frame and exits — injected crashes with
:data:`INJECTED_CRASH_EXIT` so tests can tell them from organic deaths.
The parent rebuilds the original exception when it unpickles (so
supervisor ``last_error`` bookkeeping matches the thread executor) and
always attaches the worker-side traceback string as
``worker_traceback``.  A death with no final frame (hard kill) surfaces
as :class:`ShardProcessDied` with the exit code.  Either way the
channel's death callback fires exactly once, and the sharded runtime
resolves it like a PR 8 crash fault: journal replay into a fresh
process (``("replay", ...)``) under the restart policy, or migration of
the rebuilt sessions into the overflow shard's process (``("adopt",
...)``) under quarantine.

**Fault injection.**  Per-shard :class:`~repro.service.faults.FaultSpec`
schedules ship to the worker, which counts its own 1-based arrival
ordinals (one per ``("worker", ...)`` message, so the counter equals the
journal's worker-entry index).  A worker death reports the ordinal it
died on; recovery then *splits the journal at that cut*: the prefix —
exactly the arrivals the dead incarnation consumed — is replayed into
the fresh process with the ordinal counter advancing but the fault
schedule bypassed (the thread executor's "replayed arrivals bypass the
injector" rule, so a consumed ordinal can never re-fire), while the
suffix — arrivals that were in the pipe but never processed — is
**re-sent live** and fault-checked normally.  That is precisely the
thread executor's split (its replay covers what the dead dispatcher
consumed; everything behind it is still in the queue), so the same
seeded plan fires every fault exactly once, at identical stream
positions, under every executor.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import Solver
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.service.faults import (
    FaultSpec,
    InjectedShardCrash,
    TransientSolverError,
)
from repro.service.metrics import DispatcherMetrics
from repro.service.recovery import UNREPLAYABLE, JournalReplayError
from repro.service.sharding.shm import (
    ExportedTaskBlock,
    TaskSnapshotHandle,
    attach_tasks,
    export_tasks,
)

#: Exit code of a worker process killed by an injected crash fault, so
#: chaos tests (and operators) can tell injected kills from organic ones.
INJECTED_CRASH_EXIT = 86

#: Environment override for the multiprocessing start method
#: ("fork" / "spawn" / "forkserver"); defaults to fork where available.
MP_CONTEXT_ENV = "REPRO_SHARD_MP_CONTEXT"

#: Serialises pipe creation, worker start and the parent's close of the
#: child end.  A worker forked while another channel's child end is still
#: open in the parent would inherit it; that pipe then never reports EOF or
#: EPIPE when its own worker dies, and the parent's sends block forever.
_SPAWN_LOCK = threading.Lock()


class ShardProcessError(RuntimeError):
    """A shard worker process failed; carries the worker-side traceback."""

    def __init__(self, message: str, worker_traceback: Optional[str] = None):
        super().__init__(message)
        self.worker_traceback = worker_traceback


class ShardProcessDied(ShardProcessError):
    """A shard worker process died without a final failure frame."""

    def __init__(self, message: str, exitcode: Optional[int] = None):
        super().__init__(message)
        self.exitcode = exitcode


def _start_method() -> str:
    import multiprocessing

    override = os.environ.get(MP_CONTEXT_ENV)
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def process_executor_available() -> bool:
    """Whether this platform can run worker-process shards at all.

    Shared memory is *not* required — task snapshots fall back to inline
    pickle — but a working ``multiprocessing`` context is.
    """
    if sys.platform in ("emscripten", "wasi"):
        return False
    try:
        import multiprocessing

        multiprocessing.get_context(_start_method())
    except (ImportError, ValueError, OSError):
        return False
    return True


@dataclass(frozen=True)
class WorkerShardConfig:
    """Everything a shard worker process needs to build its dispatcher.

    Must stay picklable under the ``spawn`` start method: solver specs
    (never prebuilt :class:`~repro.algorithms.base.Solver` objects),
    backend *names*, frozen fault specs.
    """

    shard_id: int
    default_solver: object = "AAM"
    keep_streams: bool = False
    candidates: Optional[str] = None
    transient_retries: int = 2
    fault_specs: Tuple[FaultSpec, ...] = ()


@dataclass(frozen=True)
class _InstancePayload:
    """A picklable :class:`LTCInstance` with its tasks in shared memory."""

    handle: TaskSnapshotHandle
    workers: Tuple[Worker, ...]
    error_rate: float
    accuracy_model: object
    name: str
    min_assignable_accuracy: float

    def build(self) -> LTCInstance:
        return LTCInstance(
            tasks=attach_tasks(self.handle),
            workers=list(self.workers),
            error_rate=self.error_rate,
            accuracy_model=self.accuracy_model,
            name=self.name,
            min_assignable_accuracy=self.min_assignable_accuracy,
        )


def export_instance(
    instance: LTCInstance,
) -> Tuple[_InstancePayload, Optional[ExportedTaskBlock]]:
    """Export an instance for the wire; tasks ride shared memory."""
    handle, block = export_tasks(instance.tasks)
    payload = _InstancePayload(
        handle=handle,
        workers=tuple(instance.workers),
        error_rate=instance.error_rate,
        accuracy_model=instance.accuracy_model,
        name=instance.name,
        min_assignable_accuracy=instance.min_assignable_accuracy,
    )
    return payload, block


def build_wire_entries(
    entries: Sequence[tuple],
) -> Tuple[List[tuple], List[ExportedTaskBlock]]:
    """Convert journal entries into picklable wire entries.

    Session opens and task batches are re-exported into fresh
    shared-memory blocks; the caller must release every returned block
    once the receiving worker acknowledged the message.  Raises
    :class:`JournalReplayError` on an unreplayable open (the
    :data:`UNREPLAYABLE` sentinel loses identity across pickle, so it
    must never reach the wire).
    """
    wire: List[tuple] = []
    blocks: List[ExportedTaskBlock] = []
    try:
        for entry in entries:
            kind = entry[0]
            if kind == "open":
                _, session_id, instance, solver = entry
                if solver is UNREPLAYABLE:
                    raise JournalReplayError(
                        f"session {session_id!r} was opened with a prebuilt "
                        "Solver object, which cannot be rebuilt from a spec; "
                        "journal replay is impossible for this shard"
                    )
                payload, block = export_instance(instance)
                if block is not None:
                    blocks.append(block)
                wire.append(("open", session_id, payload, solver))
            elif kind == "tasks":
                handle, block = export_tasks(list(entry[2]))
                if block is not None:
                    blocks.append(block)
                wire.append(("tasks", entry[1], handle))
            else:  # "worker" / "expire" / "close" are picklable as-is
                wire.append(entry)
    except BaseException:
        for block in blocks:
            block.release()
        raise
    return wire, blocks


# ======================================================== worker process


class _WorkerShard:
    """The child-process side: one dispatcher, one message loop."""

    def __init__(self, conn, config: WorkerShardConfig) -> None:
        from repro.service.dispatcher import LTCDispatcher

        self._conn = conn
        self._config = config
        self._make = lambda: LTCDispatcher(
            default_solver=config.default_solver,
            keep_streams=config.keep_streams,
            candidates=config.candidates,
        )
        self._dispatcher = self._make()
        self._ordinal = 0
        self._faults: Dict[int, FaultSpec] = {
            spec.at_arrival: spec for spec in config.fault_specs
        }
        self._consumed: set = set()

    # ----------------------------------------------------------- main loop

    def run(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing to serve
            kind = message[0]
            if kind == "worker":
                self._on_worker(message[1])
            elif kind == "stop":
                self._reply_ok(None)
                return
            else:
                try:
                    payload = self._control(message)
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    self._reply_err(exc)
                else:
                    self._reply_ok(payload)

    def _reply_ok(self, payload) -> None:
        self._conn.send(("ok", payload, self._dispatcher.metrics.copy()))

    def _reply_err(self, exc: BaseException) -> None:
        try:
            blob: Optional[bytes] = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - falls back to repr transport
            blob = None
        self._conn.send(("err", blob, repr(exc), traceback.format_exc()))

    # ------------------------------------------------------------ arrivals

    def _raise_fault(self, ordinal: int, attempt: int) -> None:
        """Mirror of :meth:`FaultInjector.raise_for`, worker-local."""
        spec = self._faults.get(ordinal)
        if spec is None or ordinal in self._consumed:
            return
        if spec.kind == "crash":
            self._consumed.add(ordinal)
            raise InjectedShardCrash(
                f"injected crash: shard {self._config.shard_id}, "
                f"arrival {ordinal}"
            )
        if attempt < spec.failures:
            raise TransientSolverError(
                f"injected transient dispatch failure: shard "
                f"{self._config.shard_id}, arrival {ordinal}, "
                f"attempt {attempt + 1}/{spec.failures}"
            )
        self._consumed.add(ordinal)

    def _on_worker(self, worker: Worker) -> None:
        self._ordinal += 1
        attempt = 0
        while True:
            try:
                self._raise_fault(self._ordinal, attempt)
                self._dispatcher.feed_worker(worker)
                break
            except TransientSolverError as exc:
                attempt += 1
                if attempt > self._config.transient_retries:
                    self._die(exc, exitcode=1)
            except BaseException as exc:  # noqa: BLE001 - shard failure
                code = (
                    INJECTED_CRASH_EXIT
                    if isinstance(exc, InjectedShardCrash)
                    else 1
                )
                self._die(exc, exitcode=code)
        self._conn.send(("done",))

    def _die(self, exc: BaseException, exitcode: int) -> None:
        """Ship the failure and hard-exit — shard state is genuinely lost.

        The frame carries the arrival ordinal the worker died on: the
        parent cuts the journal there, replaying what this incarnation
        consumed and re-sending the rest live.
        """
        try:
            blob: Optional[bytes] = pickle.dumps(exc)
        except Exception:  # noqa: BLE001
            blob = None
        try:
            self._conn.send(
                ("failed", blob, repr(exc), traceback.format_exc(),
                 self._ordinal)
            )
        except (OSError, ValueError):
            pass
        os._exit(exitcode)

    # ------------------------------------------------------- control plane

    def _control(self, message: tuple):
        kind = message[0]
        if kind == "open":
            _, session_id, payload, solver = message
            return self._dispatcher.submit_instance(
                payload.build(), solver=solver, session_id=session_id
            )
        if kind == "tasks":
            return self._dispatcher.submit_tasks(
                message[1], attach_tasks(message[2])
            )
        if kind == "expire":
            return self._dispatcher.expire_tasks(message[1], list(message[2]))
        if kind == "close":
            return self._dispatcher.close(message[1])
        if kind == "poll":
            return self._dispatcher.poll()
        if kind == "metrics":
            return None  # the metrics snapshot rides every ok-frame
        if kind == "routed_stream":
            return self._dispatcher.routed_stream(message[1])
        if kind == "all_complete":
            return self._dispatcher.all_complete
        if kind == "replay":
            return self._apply_entries(
                self._dispatcher, message[1], advance_ordinals=True
            )
        if kind == "adopt":
            scratch = self._make()
            self._apply_entries(scratch, message[1], advance_ordinals=False)
            return self._dispatcher.adopt_sessions(scratch)
        raise RuntimeError(f"unknown shard-worker message kind {kind!r}")

    def _apply_entries(
        self, dispatcher, wire: Sequence[tuple], advance_ordinals: bool
    ) -> int:
        """Apply wire entries in order; returns replayed arrival count.

        Replay advances the live-arrival ordinal counter without firing
        faults (see the module docstring), so the restarted shard's
        schedule stays aligned with the offered stream.
        """
        replayed = 0
        for entry in wire:
            kind = entry[0]
            if kind == "worker":
                if advance_ordinals:
                    self._ordinal += 1
                dispatcher.feed_worker(entry[1])
                replayed += 1
            elif kind == "open":
                _, session_id, payload, solver = entry
                dispatcher.submit_instance(
                    payload.build(), solver=solver, session_id=session_id
                )
            elif kind == "tasks":
                dispatcher.submit_tasks(entry[1], attach_tasks(entry[2]))
            elif kind == "expire":
                dispatcher.expire_tasks(entry[1], list(entry[2]))
            else:  # close
                dispatcher.close(entry[1])
        return replayed


def shard_worker_main(conn, config: WorkerShardConfig) -> None:
    """Entry point of a shard worker process."""
    try:
        _WorkerShard(conn, config).run()
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ======================================================== parent channel


class ShardProcessChannel:
    """Parent handle on one worker-process incarnation.

    Owns the pipe, the daemon process, and a receiver thread that
    dispatches ``("done",)`` acks, control replies, and (exactly once)
    the death of the worker.  All sends go through one lock so message
    order on the pipe equals call order.
    """

    def __init__(
        self,
        config: WorkerShardConfig,
        on_done: Callable[[Optional[float]], None],
        on_death: Callable[["ShardProcessChannel", BaseException], None],
    ) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(_start_method())
        with _SPAWN_LOCK:
            self._conn, child_conn = ctx.Pipe(duplex=True)
            self._process = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, config),
                name=f"repro-shard-{config.shard_id}",
                daemon=True,
            )
            self._process.start()
            child_conn.close()  # the parent's copy; the child keeps its own
        self._on_done = on_done
        self._on_death = on_death
        self._send_lock = threading.Lock()
        self._cv = threading.Condition()
        self._reply: Optional[tuple] = None
        self._dead = False
        self._death_error: Optional[BaseException] = None
        self._stopping = False
        self._sent = 0
        self._acked = 0
        self._reconciled = False
        self._consumed_ordinal: Optional[int] = None
        self._send_times: deque = deque()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-shard-{config.shard_id}-rx",
            daemon=True,
        )
        self._receiver.start()

    # ------------------------------------------------------------- queries

    @property
    def broken(self) -> bool:
        with self._cv:
            return self._dead

    @property
    def exitcode(self) -> Optional[int]:
        return self._process.exitcode

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def consumed_ordinal(self) -> Optional[int]:
        """Ordinal the worker reported dying on; ``None`` without a frame."""
        with self._cv:
            return self._consumed_ordinal

    @property
    def acked(self) -> int:
        """Arrivals acknowledged by this incarnation."""
        with self._cv:
            return self._acked

    def take_unacked(self) -> int:
        """Arrivals sent but never acked, counted once (death recovery)."""
        with self._cv:
            if self._reconciled:
                return 0
            self._reconciled = True
            return self._sent - self._acked

    # --------------------------------------------------------------- sends

    def send_worker(self, worker: Worker) -> bool:
        """Ship one arrival; ``False`` (without counting) when broken.

        Lock order is always ``_cv`` → ``_send_lock`` (as in
        :meth:`request`); the cv is never acquired while holding the
        send lock.
        """
        with self._cv:
            if self._dead or self._stopping:
                return False
        try:
            with self._send_lock:
                self._conn.send(("worker", worker))
        except (OSError, ValueError, BrokenPipeError):
            return False
        with self._cv:
            self._sent += 1
            self._send_times.append(time.perf_counter())
        return True

    def request(self, message: tuple):
        """One synchronous control round-trip; re-raises worker errors."""
        with self._cv:
            if self._dead:
                raise self._death_error
            self._reply = None
            try:
                with self._send_lock:
                    self._conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                # The receiver will (or already did) resolve the death;
                # surface it to this caller either way.
                self._cv.wait_for(lambda: self._dead, timeout=10.0)
                raise self._death_error or ShardProcessDied(
                    "shard worker pipe closed mid-request"
                )
            while self._reply is None and not self._dead:
                self._cv.wait()
            if self._reply is None:
                raise self._death_error
            reply, self._reply = self._reply, None
        if reply[0] == "ok":
            return reply[1], reply[2]  # payload, metrics snapshot
        _, blob, repr_str, tb = reply
        raise _rebuild_exception(blob, repr_str, tb)

    # ------------------------------------------------------------ shutdown

    def stop(self) -> Optional[DispatcherMetrics]:
        """Graceful shutdown: stop frame, join, close.  Idempotent."""
        with self._cv:
            if self._stopping:
                return None
            self._stopping = True
            if self._dead:
                self._close_conn()
                return None
        metrics: Optional[DispatcherMetrics] = None
        try:
            _, metrics = self.request(("stop",))
        except BaseException:  # noqa: BLE001 - dying worker; still join
            pass
        self._process.join(timeout=10.0)
        self._close_conn()
        return metrics

    def abandon(self) -> None:
        """Drop an incarnation without the stop handshake.

        Closes the pipe first: an abandoned worker that is still alive
        (a failed replay leaves the process running) exits on the EOF,
        so the join below is prompt either way.
        """
        with self._cv:
            self._stopping = True
        self._close_conn()
        self._process.join(timeout=10.0)

    def _close_conn(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------ receiver

    def _receive_loop(self) -> None:
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "done":
                with self._cv:
                    self._acked += 1
                    sent_at = (
                        self._send_times.popleft()
                        if self._send_times
                        else None
                    )
                latency = (
                    None if sent_at is None
                    else time.perf_counter() - sent_at
                )
                self._on_done(latency)
            elif kind == "failed":
                _, blob, repr_str, tb, ordinal = message
                with self._cv:
                    self._consumed_ordinal = ordinal
                self._deliver_death(_rebuild_exception(blob, repr_str, tb))
            else:  # "ok" / "err" control reply
                with self._cv:
                    self._reply = message
                    self._cv.notify_all()
        with self._cv:
            stopping = self._stopping
        if stopping:
            return
        self._process.join(timeout=10.0)
        code = self._process.exitcode
        self._deliver_death(
            ShardProcessDied(
                f"shard worker process died without a failure frame "
                f"(exit code {code})",
                exitcode=code,
            )
        )

    def _deliver_death(self, error: BaseException) -> None:
        with self._cv:
            if self._dead:
                return
            self._dead = True
            self._death_error = error
            self._cv.notify_all()
        self._on_death(self, error)


def _rebuild_exception(
    blob: Optional[bytes], repr_str: str, tb: str
) -> BaseException:
    """Reconstruct a worker-side exception; always attach the traceback.

    Unpickling the original instance keeps the supervisor's
    ``last_error`` (``repr`` of the error) identical to what the thread
    executor would record for the same fault; unpicklable exceptions
    degrade to :class:`ShardProcessError` carrying the repr.
    """
    exc: Optional[BaseException] = None
    if blob is not None:
        try:
            candidate = pickle.loads(blob)
            if isinstance(candidate, BaseException):
                exc = candidate
        except Exception:  # noqa: BLE001 - degrade to repr transport
            exc = None
    if exc is None:
        exc = ShardProcessError(
            f"shard worker failed with unpicklable error {repr_str}",
            worker_traceback=tb,
        )
    else:
        exc.worker_traceback = tb  # type: ignore[attr-defined]
    return exc


def split_journal_entries(
    entries: Sequence[tuple], consumed_ordinal: int
) -> Tuple[List[tuple], List[Worker]]:
    """Split journal entries at the dead incarnation's consumed ordinal.

    Returns ``(prefix, resend)``: the prefix (everything the dead worker
    actually applied, including the arrival it died on) is replayed with
    faults bypassed; ``resend`` holds the arrivals that were journaled
    and piped but never reached the worker — they go back down the fresh
    pipe as live, fault-checked sends.  Control entries always land in
    the prefix: a control reply only arrives after the worker processed
    everything sent before it, so no journaled control entry can follow
    an unprocessed arrival.
    """
    prefix: List[tuple] = []
    resend: List[Worker] = []
    seen = 0
    for entry in entries:
        if entry[0] == "worker":
            seen += 1
            if seen <= consumed_ordinal:
                prefix.append(entry)
            else:
                resend.append(entry[1])
        else:
            prefix.append(entry)
    return prefix, resend


# ========================================================= parent client


class ProcessShardClient:
    """The parent-side stand-in for one shard's ``LTCDispatcher``.

    Presents the dispatcher surface the sharded control plane uses
    (``submit_instance`` / ``submit_tasks`` / ``expire_tasks`` / ``poll``
    / ``close`` / ``metrics`` / ``session_ids`` / ``instance_of`` /
    ``routed_stream`` / ``all_complete``), backed by request/reply
    round-trips to the worker process.  The caller (the sharded
    dispatcher) serialises access under the shard's runtime lock, which
    also makes journal order equal pipe-send order.

    Lifecycle: the worker process spawns lazily on first use and
    survives :meth:`mark_stopping` while sessions remain open, so both
    ``stop()``-then-``close_all()`` and ``close_all()``-then-``stop()``
    orders work; the channel shuts down once stopping *and* empty.
    Metrics snapshots ride every control reply, so the cached metrics
    stay serviceable after the channel is gone.
    """

    def __init__(
        self,
        config: WorkerShardConfig,
        on_done: Callable[[Optional[float]], None],
        on_death: Callable[[ShardProcessChannel, BaseException], None],
    ) -> None:
        self._config = config
        self._on_done = on_done
        self._on_death = on_death
        self._channel: Optional[ShardProcessChannel] = None
        self._session_ids: List[str] = []
        self._instances: Dict[str, LTCInstance] = {}
        self._metrics = DispatcherMetrics()
        self._stopping = False
        #: Set while a restart/quarantine is rebuilding the channel, so a
        #: death of the *fresh* process mid-replay surfaces to the
        #: resolving caller instead of re-entering the failure path.
        self._resolving = False
        #: Worker-ordinal value the current incarnation started from
        #: (the replayed prefix length) — lets the parent reconstruct an
        #: absolute consumed ordinal for frameless (hard-kill) deaths.
        self._replay_base = 0

    # ------------------------------------------------------------ plumbing

    @property
    def shard_id(self) -> int:
        return self._config.shard_id

    @property
    def alive(self) -> bool:
        return self._channel is not None and not self._channel.broken

    def _dispatch_death(
        self, channel: ShardProcessChannel, error: BaseException
    ) -> None:
        if self._resolving or self._stopping:
            return
        self._on_death(channel, error)

    def _ensure_channel(self) -> ShardProcessChannel:
        if self._channel is None:
            self._channel = ShardProcessChannel(
                self._config, self._on_done, self._dispatch_death
            )
        return self._channel

    def _note_metrics(self, metrics: Optional[DispatcherMetrics]) -> None:
        if metrics is not None:
            self._metrics = metrics

    def _request(self, message: tuple):
        payload, metrics = self._ensure_channel().request(message)
        self._note_metrics(metrics)
        return payload

    def send_worker(self, worker: Worker) -> bool:
        return self._ensure_channel().send_worker(worker)

    # --------------------------------------------- LTCDispatcher surface

    def submit_instance(self, instance, solver=None, session_id=None) -> str:
        if isinstance(solver, Solver):
            raise ValueError(
                "prebuilt Solver objects cannot cross the process boundary "
                "(their mutable state is not replayable); pass a solver "
                "spec, or use the serial/thread executor"
            )
        payload, block = export_instance(instance)
        try:
            self._request(("open", session_id, payload, solver))
        finally:
            if block is not None:
                block.release()
        self._session_ids.append(session_id)
        self._instances[session_id] = instance
        return session_id

    def submit_tasks(self, session_id: str, tasks: Sequence[Task]) -> str:
        handle, block = export_tasks(list(tasks))
        try:
            return self._request(("tasks", session_id, handle))
        finally:
            if block is not None:
                block.release()

    def expire_tasks(
        self, session_id: str, task_ids: Sequence[int]
    ) -> List[int]:
        return self._request(("expire", session_id, tuple(task_ids)))

    @property
    def session_ids(self) -> List[str]:
        return list(self._session_ids)

    @property
    def all_complete(self) -> bool:
        if not self._session_ids:
            return True
        try:
            return bool(self._request(("all_complete",)))
        except BaseException:  # noqa: BLE001 - dead shard: not complete
            return False

    def instance_of(self, session_id: str) -> LTCInstance:
        try:
            return self._instances[session_id]
        except KeyError:
            from repro.service.dispatcher import UnknownSessionError

            known = ", ".join(self._session_ids) or "<none>"
            raise UnknownSessionError(
                f"unknown session {session_id!r}; open sessions: {known}"
            ) from None

    def poll(self):
        if not self._session_ids:
            return {}
        return self._request(("poll",))

    def routed_stream(self, session_id: str):
        return self._request(("routed_stream", session_id))

    @property
    def metrics(self) -> DispatcherMetrics:
        """A fresh snapshot when the worker is up; the cache otherwise."""
        if self.alive:
            try:
                self._request(("metrics",))
            except BaseException:  # noqa: BLE001 - death races the read
                pass
        return self._metrics

    def close(self, session_id: str):
        result = self._request(("close", session_id))
        if session_id in self._instances:
            del self._instances[session_id]
            self._session_ids.remove(session_id)
        if self._stopping and not self._session_ids:
            self._shutdown_channel()
        return result

    # ------------------------------------------------------------ recovery

    def death_ordinal(self, channel: ShardProcessChannel) -> int:
        """The absolute arrival ordinal a dead incarnation consumed through.

        A failure frame carries it exactly; a frameless death (hard
        kill) falls back to the replay base plus this incarnation's
        acks, which classifies any arrival the worker was processing
        when it was killed as *unconsumed* — it is re-sent live, never
        silently dropped.
        """
        ordinal = channel.consumed_ordinal
        if ordinal is not None:
            return ordinal
        return self._replay_base + channel.acked

    def respawn(
        self, entries: Sequence[tuple], consumed_ordinal: int
    ) -> int:
        """Replace a dead incarnation; rebuild it from the journal.

        The journal is split at ``consumed_ordinal`` (see
        :func:`split_journal_entries`): the prefix is replayed into the fresh
        process with faults bypassed, then the never-processed suffix is
        re-sent as ordinary live arrivals so their fault checks (and ack
        accounting) happen exactly as they would have in the dead
        incarnation.  Returns the number of arrivals replayed.  On a
        replay failure the fresh channel is abandoned and the error
        propagates — the caller (the supervisor loop) decides what
        happens next.
        """
        self._resolving = True
        try:
            if self._channel is not None:
                self._channel.abandon()
                self._channel = None
            prefix, resend = split_journal_entries(entries, consumed_ordinal)
            wire, blocks = build_wire_entries(prefix)
            channel = ShardProcessChannel(
                self._config, self._on_done, self._dispatch_death
            )
            try:
                payload, metrics = channel.request(("replay", wire))
            except BaseException:
                channel.abandon()
                raise
            finally:
                for block in blocks:
                    block.release()
            self._channel = channel
            self._replay_base = int(payload)
            self._note_metrics(metrics)
            # Rebuild the mirrors from the journal: opens minus closes,
            # in submission order.
            self._session_ids = []
            self._instances = {}
            for entry in entries:
                if entry[0] == "open":
                    self._session_ids.append(entry[1])
                    self._instances[entry[1]] = entry[2]
                elif entry[0] == "close":
                    self._session_ids.remove(entry[1])
                    del self._instances[entry[1]]
        finally:
            self._resolving = False
        # Live re-delivery happens outside the resolving window: a fault
        # firing on a re-sent arrival kills the fresh worker and is
        # dispatched as a new failure through the normal death path (it
        # blocks on the shard runtime lock until this recovery returns).
        # A send failing mid-loop means exactly that happened; the rest
        # of the suffix stays journaled for the next recovery's split.
        for worker in resend:
            if not channel.send_worker(worker):
                break
        return self._replay_base

    def adopt_entries(
        self,
        entries: Sequence[tuple],
        instances: Dict[str, LTCInstance],
    ) -> List[str]:
        """Adopt a quarantined shard's sessions (rebuilt by replay)."""
        wire, blocks = build_wire_entries(entries)
        try:
            adopted = self._request(("adopt", wire))
        finally:
            for block in blocks:
                block.release()
        for session_id in adopted:
            self._session_ids.append(session_id)
            self._instances[session_id] = instances[session_id]
        return list(adopted)

    def retire(self) -> None:
        """Drop the (dead) channel and clear the mirrors (quarantine)."""
        self._resolving = True
        try:
            if self._channel is not None:
                self._channel.abandon()
                self._channel = None
            self._session_ids = []
            self._instances = {}
        finally:
            self._resolving = False

    # ------------------------------------------------------------ shutdown

    def mark_stopping(self) -> None:
        """No new traffic will come; shut the channel once it empties."""
        self._stopping = True
        if not self._session_ids:
            self._shutdown_channel()

    def _shutdown_channel(self) -> None:
        if self._channel is None:
            return
        channel, self._channel = self._channel, None
        metrics = channel.stop()
        self._note_metrics(metrics)
