"""The struct-of-arrays candidate engine.

A :class:`CandidateEngine` snapshots an instance's tasks into flat
position-indexed arrays — ``xs[p]``, ``ys[p]``, ``task_ids[p]`` with
positions sorted ascending by task id — and, under the paper's sigmoid
accuracy model, packs them into a CSR grid: tasks are permuted into
row-major cell order (``cell_positions``) with per-cell offsets
(``cell_start``), so a radius query gathers one *contiguous slice per
cell row* instead of chasing a dict of python lists.  All candidate
queries the solvers need — eligibility sets, bulk ``eligible_pairs`` arc
emission, top-``k`` ``Acc*`` selection, cheap ``has_candidates`` routing
tests — run over these arrays through a pluggable
:class:`~repro.core.candidate_engine.base.CandidateBackend`.

The snapshot is **dynamic**: the paper's online setting is a stream in
which tasks are posted and expire while workers trickle in, so a
long-lived engine must not be rebuilt per change.  Three invariants make
the incremental layer safe for callers that keep per-position state:

* **Positions are append-only and stable for the engine's lifetime.**
  :meth:`CandidateEngine.add_tasks` appends new tasks at the next free
  positions; nothing is ever compacted or re-sorted, so a solver's
  per-position containers (completed flags, remaining needs) stay valid
  across every mutation — they only need growing, via
  :meth:`CandidateEngine.grow_bool_array` /
  :meth:`CandidateEngine.grow_float_array`.
* **Retirement is a lazy tombstone, not a rebuild.**
  :meth:`CandidateEngine.retire_tasks` flips the per-position ``alive``
  bit; every query of every backend filters tombstoned positions out of
  its candidate pool *before* the accuracy evaluation, which is
  bit-equivalent to the completed-mask filtering it replaces.  Retired
  positions are physically dropped from the CSR grid only at the next
  rebuild.
* **Appends land in spill arrays; the grid merges them lazily.**  In
  grid mode, positions appended after the last (re)build are not in the
  CSR cells; queries scan that spill range linearly (it is bounded by
  the rebuild threshold) in the same pinned float expressions.  Once
  the spill exceeds ``max(SPILL_REBUILD_MIN,
  min(SPILL_REBUILD_FRACTION * grid-covered, SPILL_REBUILD_MAX))`` the
  grid is rebuilt over the alive snapshot (``grid_epoch`` bumps,
  tombstones are swept out of the cells, and ``spill_start`` advances
  to ``num_tasks``).

``epoch`` counts every mutation (append or retirement); ``grid_epoch``
counts grid rebuilds.  The numpy mirrors re-sync from these counters on
access — tail-appends and tombstone replay are incremental, a grid
rebuild refreshes the mirrors wholesale.  Task ids are normally posted
in increasing order, so position order keeps equalling id order and the
ordered-output sort stays the plain position sort; if an added id breaks
monotonicity, ``positions_id_ordered`` flips and ordered queries sort by
task-id key instead (same output order, slightly slower sort).

The engine operates in one of three modes, chosen at construction:

``grid``
    Sigmoid accuracy model with the spatial index enabled.  The accuracy
    threshold converts to a per-worker eligibility radius
    (:func:`~repro.core.candidates.sigmoid_eligibility_radius`); queries
    gather grid cells, filter by exact squared distance, then apply the
    accuracy decision.  Output order: ascending task id.
``scan``
    Sigmoid model, spatial index disabled: the accuracy decision is
    applied to every task, in instance order (matching the pre-engine
    exhaustive scan byte for byte, including its lack of a radius gate).
``generic``
    Any other accuracy model: per-pair scalar evaluation over the tasks
    in instance order.  Vectorized backends delegate this mode to the
    scalar backend — an arbitrary python model cannot be batched.

Floating-point ground rules (see ``docs/candidates.md``): the squared
distance ``dx*dx + dy*dy`` is evaluated in the same association order
everywhere, so the radius prefilter is bit-exact across backends; the
sigmoid accuracy and ``Acc*`` *decisions* are pinned to the scalar
:meth:`CandidateEngine.scalar_accuracy` / :meth:`CandidateEngine.scalar_acc_star`
paths, which replicate
:class:`~repro.core.accuracy.SigmoidDistanceAccuracy` expression by
expression.
"""

from __future__ import annotations

import math
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.accuracy import SigmoidDistanceAccuracy
from repro.core.candidate_engine.base import CandidateBackend, ELIGIBILITY_EPS
# Cycle-free: repro.core.candidates only imports this package lazily,
# inside CandidateFinder.__init__.  Sharing the one implementation keeps
# the (bit-sensitive) radius gate identical between the legacy oracle and
# both engine backends.
from repro.core.candidates import sigmoid_eligibility_radius
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox

#: Soft cap on total grid cells: keeps the dense ``cell_start`` offset
#: array O(tasks) even for workloads whose extent dwarfs ``d_max`` (the
#: dict grid was sparse and did not care).  Coarsening cells only changes
#: how much a query over-gathers before the exact distance filter — never
#: the result.
_MAX_CELLS_PER_TASK = 8

#: Minimum spill size (positions appended since the last grid build)
#: before :meth:`CandidateEngine.add_tasks` triggers a rebuild.  Below
#: this the linear spill scan is cheaper than re-packing the cells.
SPILL_REBUILD_MIN = 64

#: Fractional rebuild threshold: the spill may grow to this fraction of
#: the grid-covered positions before a rebuild.  Together with the
#: minimum this amortises rebuild cost O(n) over O(n) appended tasks.
SPILL_REBUILD_FRACTION = 0.25

#: Absolute spill cap.  Every grid query scans the spill linearly, so on
#: large snapshots the fractional threshold alone would let per-query
#: spill cost approach scan-mode cost (25% of 100k tasks); capping the
#: spill bounds that scan while still amortising the O(n) rebuild over
#: thousands of appends.  All three knobs only trade query overhead
#: against rebuild frequency — the exact distance/accuracy filters
#: decide membership either way.
SPILL_REBUILD_MAX = 2048


def _as_position_list(positions) -> List[int]:
    """Materialise backend output as a python list (numpy iteration yields
    ``np.int64`` scalars whose per-element overhead would cancel part of
    the vectorized win on the facade paths)."""
    tolist = getattr(positions, "tolist", None)
    if tolist is not None:
        return tolist()
    return positions if isinstance(positions, list) else list(positions)


class _NumpyMirrors:
    """Numpy views of the engine's arrays, kept in sync incrementally.

    ``xs_cell``/``ys_cell`` hold the coordinates pre-permuted into CSR
    cell order, so a radius query reads its per-row coordinate blocks as
    contiguous slices instead of fancy-index gathers.

    Sync strategy (see :meth:`sync`): a grid rebuild (``grid_epoch``
    changed) refreshes every mirror wholesale; otherwise appended tasks
    are tail-concatenated onto the flat arrays and retirements are
    replayed from the engine's tombstone log via a cursor — both O(delta)
    in array terms, never a per-query O(n) rebuild.
    """

    __slots__ = (
        "_np",
        "_grid_epoch",
        "_count",
        "_dead_cursor",
        "xs",
        "ys",
        "task_ids",
        "alive",
        "cell_positions",
        "xs_cell",
        "ys_cell",
        "instance_positions",
    )

    def __init__(self, np, engine: "CandidateEngine") -> None:
        self._np = np
        self._grid_epoch = -1  # force a full build on the first sync
        self._count = 0
        self._dead_cursor = 0
        self.sync(engine)

    def sync(self, engine: "CandidateEngine") -> None:
        """Bring the mirrors up to date with the engine's arrays."""
        np = self._np
        log = engine._tombstone_log
        if self._grid_epoch == engine.grid_epoch:
            if self._count == engine.num_tasks and self._dead_cursor == len(log):
                return
            if self._count < engine.num_tasks:
                lo = self._count
                self.xs = np.concatenate(
                    [self.xs, np.asarray(engine.xs[lo:], dtype=np.float64)]
                )
                self.ys = np.concatenate(
                    [self.ys, np.asarray(engine.ys[lo:], dtype=np.float64)]
                )
                self.task_ids = np.concatenate(
                    [self.task_ids, np.asarray(engine.task_ids[lo:], dtype=np.int64)]
                )
                self.alive = np.concatenate(
                    [self.alive, np.asarray(engine.alive[lo:], dtype=bool)]
                )
                self.instance_positions = np.concatenate(
                    [
                        self.instance_positions,
                        np.asarray(engine.instance_positions[lo:], dtype=np.int64),
                    ]
                )
                self._count = engine.num_tasks
            if self._dead_cursor < len(log):
                dead = np.asarray(log[self._dead_cursor :], dtype=np.int64)
                self.alive[dead] = False
                self._dead_cursor = len(log)
            return
        # Grid rebuild (or first use): refresh everything from the engine.
        self.xs = np.asarray(engine.xs, dtype=np.float64)
        self.ys = np.asarray(engine.ys, dtype=np.float64)
        self.task_ids = np.asarray(engine.task_ids, dtype=np.int64)
        self.alive = np.asarray(engine.alive, dtype=bool)
        self.instance_positions = np.asarray(
            engine.instance_positions, dtype=np.int64
        )
        if engine.cell_positions is not None:
            self.cell_positions = np.asarray(engine.cell_positions, dtype=np.int64)
            self.xs_cell = self.xs[self.cell_positions]
            self.ys_cell = self.ys[self.cell_positions]
        else:
            self.cell_positions = None
            self.xs_cell = None
            self.ys_cell = None
        self._grid_epoch = engine.grid_epoch
        self._count = engine.num_tasks
        self._dead_cursor = len(log)


class CandidateEngine:
    """Array-based candidate generation for one instance.

    Parameters
    ----------
    instance:
        The LTC instance whose tasks are snapshotted.
    min_accuracy:
        Eligibility threshold on predicted accuracy; defaults to the
        instance's ``min_assignable_accuracy``.
    use_spatial_index:
        Build the CSR grid when the accuracy model is the sigmoid model.
        Disabling it forces the exhaustive scan (``scan`` mode).
    backend:
        A resolved :class:`~repro.core.candidate_engine.base.CandidateBackend`
        instance, a registered backend name, ``"auto"``, or ``None`` to
        defer to the ``REPRO_CANDIDATES_BACKEND`` environment variable /
        auto-detection.
    """

    def __init__(
        self,
        instance: LTCInstance,
        min_accuracy: Optional[float] = None,
        use_spatial_index: bool = True,
        backend=None,
    ) -> None:
        if isinstance(backend, CandidateBackend):
            resolved = backend
        else:
            from repro.core.candidate_engine import resolve_candidate_backend

            resolved = resolve_candidate_backend(backend)
        self.backend: CandidateBackend = resolved
        self.instance = instance
        self.model = instance.accuracy_model
        self.min_accuracy = (
            instance.min_assignable_accuracy if min_accuracy is None else min_accuracy
        )
        #: The pinned eligibility decision threshold (``accuracy >= threshold``).
        self.threshold = self.min_accuracy - ELIGIBILITY_EPS

        # --- struct-of-arrays snapshot, positions ascending by task id ----
        by_id = sorted(instance.tasks, key=lambda task: task.task_id)
        self.tasks: List[Task] = list(by_id)
        self.num_tasks = len(by_id)
        self.task_ids: List[int] = [task.task_id for task in by_id]
        self.xs: List[float] = [task.location.x for task in by_id]
        self.ys: List[float] = [task.location.y for task in by_id]
        self.position_of: Dict[int, int] = {
            task_id: position for position, task_id in enumerate(self.task_ids)
        }
        #: Positions in the instance's task-list order (the scan-mode pool);
        #: dynamically added tasks append in posting order.
        self.instance_positions: List[int] = [
            self.position_of[task.task_id] for task in instance.tasks
        ]

        # --- dynamic-snapshot state (see the module docstring) ------------
        #: Per-position liveness; ``False`` marks a retired (completed or
        #: expired) task that every query must skip.  Positions are never
        #: reused, so this is a write-once-per-position tombstone mask.
        self.alive: List[bool] = [True] * self.num_tasks
        #: How many positions are tombstoned.  ``0`` lets hot loops skip
        #: the per-position liveness check entirely.
        self.dead_count = 0
        #: Bumps on every mutation (append or retirement).  Callers that
        #: cache derived per-snapshot state key it on this counter.
        self.epoch = 0
        #: Bumps whenever the CSR grid is rebuilt; the numpy mirrors
        #: refresh wholesale when it changes.
        self.grid_epoch = 0
        #: How many grid rebuilds have run (diagnostics / benchmarks).
        self.rebuild_count = 0
        #: True while position order equals ascending-task-id order (the
        #: construction sort guarantees it; an out-of-order append clears
        #: it and ordered queries switch to sorting by id key).
        self.positions_id_ordered = True
        #: Positions retired since the last grid rebuild, in retirement
        #: order — the numpy mirrors replay this log via a cursor.
        self._tombstone_log: List[int] = []
        #: First position not covered by the CSR cells (grid mode):
        #: positions in ``[spill_start, num_tasks)`` are the spill that
        #: queries scan linearly until the next rebuild merges them.
        self.spill_start = self.num_tasks

        self.sigmoid = isinstance(self.model, SigmoidDistanceAccuracy)
        self.d_max = self.model.d_max if self.sigmoid else 0.0

        # --- CSR grid (grid mode only) ------------------------------------
        self.cell_size = 0.0
        self.grid_min_x = 0.0
        self.grid_min_y = 0.0
        self.cols = 0
        self.rows = 0
        self.cell_start: Optional[List[int]] = None
        self.cell_positions: Optional[List[int]] = None
        if self.sigmoid and use_spatial_index:
            self.mode = "grid"
            self._build_csr_grid()
        elif self.sigmoid:
            self.mode = "scan"
        else:
            self.mode = "generic"

        self._mirrors: Optional[_NumpyMirrors] = None

    # ------------------------------------------------------------ CSR grid

    def _build_csr_grid(self) -> None:
        """Pack the alive snapshot into row-major cells with CSR offsets.

        Cell geometry mirrors the pre-engine dict grid: the alive tasks'
        bounding box expanded by one eligibility radius, square cells of
        side ``max(d_max, 1)`` — except that the cell side grows when the
        extent would need more than ``_MAX_CELLS_PER_TASK`` cells per
        alive task (a pure space/perf knob; the exact distance filter
        decides membership either way).  Tombstoned positions are left
        out of the cells entirely, and the spill watermark advances: the
        freshly built grid covers every current position.
        """
        alive_positions = [
            position for position in range(self.num_tasks) if self.alive[position]
        ]
        self.spill_start = self.num_tasks
        self._tombstone_log.clear()
        self.grid_epoch += 1
        if not alive_positions:
            # Every task is retired: a degenerate 1-cell empty grid keeps
            # the query paths uniform (they gather nothing).
            self.cell_size = 1.0
            self.grid_min_x = 0.0
            self.grid_min_y = 0.0
            self.cols = 1
            self.rows = 1
            self.cell_start = [0, 0]
            self.cell_positions = []
            return
        bounds = BoundingBox.from_points(
            self.tasks[position].location for position in alive_positions
        )
        bounds = bounds.expanded(max(self.d_max, 1.0))
        cell = max(self.d_max, 1.0)
        cols = max(1, int(math.ceil(bounds.width / cell)))
        rows = max(1, int(math.ceil(bounds.height / cell)))
        max_cells = max(16, _MAX_CELLS_PER_TASK * len(alive_positions))
        while cols * rows > max_cells:
            cell *= 2.0
            cols = max(1, int(math.ceil(bounds.width / cell)))
            rows = max(1, int(math.ceil(bounds.height / cell)))
        self.cell_size = cell
        self.grid_min_x = bounds.min_x
        self.grid_min_y = bounds.min_y
        self.cols = cols
        self.rows = rows

        num_cells = cols * rows
        cell_of: List[int] = []
        counts = [0] * num_cells
        for position in alive_positions:
            col = int((self.xs[position] - bounds.min_x) // cell)
            row = int((self.ys[position] - bounds.min_y) // cell)
            col = min(max(col, 0), cols - 1)
            row = min(max(row, 0), rows - 1)
            index = row * cols + col
            cell_of.append(index)
            counts[index] += 1

        start = [0] * (num_cells + 1)
        for index in range(num_cells):
            start[index + 1] = start[index] + counts[index]
        cursor = list(start[:num_cells])
        order = [0] * len(alive_positions)
        # Alive positions are visited ascending, so each cell's slice is
        # itself ascending by position.
        for position, index in zip(alive_positions, cell_of):
            order[cursor[index]] = position
            cursor[index] += 1
        self.cell_start = start
        self.cell_positions = order

    # -------------------------------------------------- dynamic snapshot

    def add_tasks(self, tasks: Sequence[Task]) -> None:
        """Append newly posted tasks to the live snapshot.

        Appended tasks take the next free positions — existing positions
        are never moved, so per-position caller state stays valid (grow
        it with :meth:`grow_bool_array` / :meth:`grow_float_array`).  In
        grid mode the new positions land in the spill range, which every
        query scans alongside the CSR cells; once the spill crosses the
        rebuild threshold the grid is rebuilt over the alive snapshot.

        Raises
        ------
        ValueError
            If a task id is already in the snapshot (alive or retired —
            positions are never reused, so ids cannot be either).
        """
        if not tasks:
            return
        position_of = self.position_of
        fresh = set()
        for task in tasks:
            if task.task_id in position_of or task.task_id in fresh:
                raise ValueError(
                    f"task id {task.task_id} is already in the snapshot"
                )
            fresh.add(task.task_id)
        for task in tasks:
            position = self.num_tasks
            task_id = task.task_id
            if self.task_ids and task_id < self.task_ids[-1]:
                self.positions_id_ordered = False
            self.tasks.append(task)
            self.task_ids.append(task_id)
            self.xs.append(task.location.x)
            self.ys.append(task.location.y)
            self.alive.append(True)
            position_of[task_id] = position
            self.instance_positions.append(position)
            self.num_tasks = position + 1
        self.epoch += 1
        if self.mode == "grid":
            spill = self.num_tasks - self.spill_start
            threshold = max(
                SPILL_REBUILD_MIN,
                min(
                    int(SPILL_REBUILD_FRACTION * self.spill_start),
                    SPILL_REBUILD_MAX,
                ),
            )
            if spill > threshold:
                self.rebuild_index()

    def retire_tasks(self, task_ids: Iterable[int]) -> None:
        """Tombstone tasks (completed or expired) without rebuilding.

        Retired positions stay in the arrays (so caller state keeps its
        indexing) but are filtered out of every backend's candidate pool
        before the accuracy evaluation.  Retiring an already-retired task
        is a no-op; retirement is permanent.

        Raises
        ------
        KeyError
            If a task id was never part of the snapshot.
        """
        position_of = self.position_of
        alive = self.alive
        changed = False
        for task_id in task_ids:
            position = position_of.get(task_id)
            if position is None:
                raise KeyError(f"task id {task_id} is not in the snapshot")
            if alive[position]:
                alive[position] = False
                self.dead_count += 1
                self._tombstone_log.append(position)
                changed = True
        if changed:
            self.epoch += 1

    def rebuild_index(self) -> None:
        """Rebuild the CSR grid over the alive snapshot (grid mode only).

        Merges the spill range into the cells and sweeps tombstoned
        positions out of them; positions themselves do not move.  Called
        automatically by :meth:`add_tasks` at the spill threshold, and
        callable directly (e.g. after mass expiry) — a no-op for scan and
        generic engines, which have no spatial index to refresh.
        """
        if self.mode != "grid":
            return
        self.rebuild_count += 1
        self.epoch += 1
        self._build_csr_grid()

    def sort_positions(self, positions: List[int]) -> None:
        """In-place sort into the oracle output order (ascending task id).

        While ids were appended monotonically this is the plain position
        sort; after an out-of-order append it sorts by id key instead.
        """
        if self.positions_id_ordered:
            positions.sort()
        else:
            positions.sort(key=self.task_ids.__getitem__)

    def cell_span(self, wx: float, wy: float, radius: float) -> Tuple[int, int, int, int]:
        """Clamped inclusive cell range ``(col0, col1, row0, row1)`` covering
        the query disk.  An infinite radius (``min_accuracy <= 0``) covers
        the whole grid — the regression the dict grid used to overflow on.
        """
        if math.isinf(radius):
            return 0, self.cols - 1, 0, self.rows - 1
        cell = self.cell_size
        col0 = int((wx - radius - self.grid_min_x) // cell)
        col1 = int((wx + radius - self.grid_min_x) // cell)
        row0 = int((wy - radius - self.grid_min_y) // cell)
        row1 = int((wy + radius - self.grid_min_y) // cell)
        col0 = min(max(col0, 0), self.cols - 1)
        col1 = min(max(col1, 0), self.cols - 1)
        row0 = min(max(row0, 0), self.rows - 1)
        row1 = min(max(row1, 0), self.rows - 1)
        return col0, col1, row0, row1

    def grid_block_positions(self, wx: float, wy: float, radius: float) -> List[int]:
        """Scalar radius gather: alive positions with ``dx*dx + dy*dy <= radius**2``.

        The association order of the squared-distance expression is pinned
        (it matches both the dict grid's ``Point.squared_distance_to`` and
        the vectorized backend's elementwise arithmetic), so every backend
        produces this exact set.  Gathers the CSR cells first, then the
        spill range of positions appended since the last grid rebuild;
        tombstoned positions are skipped in both.
        """
        assert self.cell_start is not None and self.cell_positions is not None
        col0, col1, row0, row1 = self.cell_span(wx, wy, radius)
        r2 = radius * radius
        xs, ys = self.xs, self.ys
        alive = self.alive
        has_dead = self.dead_count > 0
        start, order = self.cell_start, self.cell_positions
        out: List[int] = []
        for row in range(row0, row1 + 1):
            base = row * self.cols
            for position in order[start[base + col0] : start[base + col1 + 1]]:
                if has_dead and not alive[position]:
                    continue
                dx = xs[position] - wx
                dy = ys[position] - wy
                if dx * dx + dy * dy <= r2:
                    out.append(position)
        for position in range(self.spill_start, self.num_tasks):
            if has_dead and not alive[position]:
                continue
            dx = xs[position] - wx
            dy = ys[position] - wy
            if dx * dx + dy * dy <= r2:
                out.append(position)
        return out

    def numpy_mirrors(self, np) -> _NumpyMirrors:
        """Numpy views of the arrays (lazily built, incrementally synced)."""
        if self._mirrors is None:
            self._mirrors = _NumpyMirrors(np, self)
        else:
            self._mirrors.sync(self)
        return self._mirrors

    # ------------------------------------------------- scalar float oracle

    def radius_of(self, worker: Worker) -> float:
        """The worker's eligibility radius (grid/scan modes only).

        Negative when no task can ever reach the threshold; ``math.inf``
        when every distance qualifies (``min_accuracy <= 0``).
        """
        return sigmoid_eligibility_radius(
            worker.accuracy, self.d_max, self.min_accuracy
        )

    def scalar_accuracy(self, worker: Worker, position: int) -> float:
        """``Acc(w, t)`` for a snapshot position, bit-identical to the model.

        Replicates :meth:`SigmoidDistanceAccuracy.accuracy` expression by
        expression over the flat arrays (``math.hypot`` of the coordinate
        deltas, the same saturation guard) for sigmoid engines; any other
        model is called directly.
        """
        if self.sigmoid:
            distance = math.hypot(self.xs[position] - worker.location.x,
                                  self.ys[position] - worker.location.y)
            exponent = -(self.d_max - distance)
            if exponent > 700.0:
                return 0.0
            return worker.accuracy / (1.0 + math.exp(exponent))
        return self.model.accuracy(worker, self.tasks[position])

    def scalar_acc_star(self, worker: Worker, position: int) -> float:
        """``Acc*(w, t)`` for a snapshot position (scalar association order)."""
        weight = 2.0 * self.scalar_accuracy(worker, position) - 1.0
        return weight * weight

    def scalar_eligible(self, worker: Worker, position: int) -> bool:
        """The pinned eligibility decision for one pair."""
        return self.scalar_accuracy(worker, position) >= self.threshold

    # ------------------------------------------------------------- queries

    def eligible_positions(
        self,
        worker: Worker,
        allowed: Optional[Sequence[bool]] = None,
        ordered: bool = True,
    ) -> Sequence[int]:
        """Task positions assignable to ``worker`` (see the backend contract)."""
        return self.backend.eligible_positions(self, worker, allowed, ordered)

    def eligible_tasks(
        self, worker: Worker, allowed_ids: Optional[AbstractSet[int]] = None
    ) -> List[Task]:
        """Assignable :class:`Task` objects in the oracle iteration order.

        ``allowed_ids`` restricts by task id.  The restriction is turned
        into a position mask and pushed into the backend, so it filters
        *before* the accuracy evaluation — callers pay nothing for tasks
        they would discard anyway.  Mask construction allocates O(tasks)
        per call; callers iterating many workers against one restriction
        set should use :meth:`eligible_pairs`, which builds the mask once
        for the whole batch.
        """
        tasks = self.tasks
        if allowed_ids is not None and not allowed_ids:
            return []
        mask = None if allowed_ids is None else self.make_allowed_mask(allowed_ids)
        positions = _as_position_list(
            self.backend.eligible_positions(self, worker, mask, True)
        )
        return [tasks[position] for position in positions]

    def eligible_pairs(
        self,
        workers: Iterable[Worker],
        allowed_ids: Optional[AbstractSet[int]] = None,
    ) -> Iterator[Tuple[Worker, Task]]:
        """Bulk-iterate assignable pairs, grouped by worker, ids ascending.

        The restriction set is converted to a per-position mask **once**
        and pushed into the backend, so vectorized backends filter it
        inside their array pass instead of per pair.
        """
        if allowed_ids is not None and not allowed_ids:
            return
        mask = None if allowed_ids is None else self.make_allowed_mask(allowed_ids)
        tasks = self.tasks
        for worker in workers:
            positions = _as_position_list(
                self.backend.eligible_positions(self, worker, mask, True)
            )
            for position in positions:
                yield worker, tasks[position]

    def has_candidates(self, worker: Worker) -> bool:
        """Whether at least one task is assignable to the worker."""
        return self.backend.has_candidates(self, worker)

    def topk(
        self,
        worker: Worker,
        k: int,
        mode: str = "acc_star",
        completed: Optional[Sequence[bool]] = None,
        need: Optional[Sequence[float]] = None,
    ) -> List[Task]:
        """The worker's best-``k`` assignable tasks, in assignment order."""
        return [
            self.tasks[position]
            for position in self.backend.topk(self, worker, k, mode, completed, need)
        ]

    def topk_acc_star(
        self, worker: Worker, k: int, completed: Optional[Sequence[bool]] = None
    ) -> List[Task]:
        """LAF's selection: the ``k`` uncompleted tasks of largest ``Acc*``."""
        return self.topk(worker, k, "acc_star", completed)

    def candidate_counts(self) -> Dict[int, int]:
        """Eligible-worker counts per task id (posting order).

        Iterates the snapshot's own posting order (the base instance's
        task order followed by dynamically added tasks), so tasks added
        after construction are counted too; retired tasks count 0.
        """
        counts = self.backend.count_eligible(self)
        task_ids = self.task_ids
        return {
            task_ids[position]: int(counts[position])
            for position in self.instance_positions
        }

    # --------------------------------------------------- state containers

    def bool_array(self) -> Sequence[bool]:
        """A per-position ``False`` flag container in the backend's format."""
        return self.backend.bool_array(self.num_tasks)

    def float_array(self, fill: float) -> Sequence[float]:
        """A per-position float container in the backend's format."""
        return self.backend.float_array(self.num_tasks, fill)

    def grow_bool_array(self, array: Sequence[bool]) -> Sequence[bool]:
        """``array`` extended with ``False`` up to the current ``num_tasks``.

        The companion of :meth:`add_tasks` for callers holding
        per-position flag state: existing entries keep their positions
        (the append-only invariant), new positions start ``False``.
        """
        return self.backend.grow_bool_array(array, self.num_tasks)

    def grow_float_array(
        self, array: Sequence[float], fill: float
    ) -> Sequence[float]:
        """``array`` extended with ``fill`` up to the current ``num_tasks``."""
        return self.backend.grow_float_array(array, self.num_tasks, fill)

    def make_allowed_mask(
        self, allowed_ids: AbstractSet[int]
    ) -> Sequence[bool]:
        """A per-position mask for an id restriction set (unknown ids ignored)."""
        mask = self.backend.bool_array(self.num_tasks)
        position_of = self.position_of
        for task_id in allowed_ids:
            position = position_of.get(task_id)
            if position is not None:
                mask[position] = True
        return mask
