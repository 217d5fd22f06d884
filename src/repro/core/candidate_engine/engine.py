"""The struct-of-arrays candidate engine.

A :class:`CandidateEngine` snapshots an instance's tasks into flat
position-indexed arrays — ``xs[p]``, ``ys[p]``, ``task_ids[p]`` with
positions sorted ascending by task id — and, under the paper's sigmoid
accuracy model, packs them into a CSR grid: tasks are permuted into
row-major cell order (``cell_positions``) with per-cell offsets
(``cell_start``), so a radius query gathers one *contiguous slice per
cell row* instead of chasing a dict of python lists.  All candidate
queries the solvers need — eligibility sets, MCF-LTC's batch pass
(:meth:`CandidateEngine.batch_pairs`), top-``k`` ``Acc*`` selection, and
the routing fallback over completed tasks
(:meth:`CandidateEngine.reaches_completed`) — run over these arrays.

**One engine, two gathers, two passes.**  Each grid query computes the
worker's radius once and picks its *gathered block*.  A snapshot of at
most :data:`SPILL_REBUILD_MIN` positions is gathered flat: the block is
every position, scanned in ascending order the way the spill is, and no
cell span is computed.  A larger one computes its cell span and sums the
block — the candidates in the CSR cells the disk overlaps, plus the
spill — from the CSR offsets with plain ints.  Below
:data:`VECTOR_MIN_BLOCK` the query runs scalar loops over the lists; at
or above it, one vectorized numpy pass (gather the block, filter by exact
squared distance, evaluate the sigmoid over it, preselect top-``k`` with
``np.partition``).  Generic mode and ``reaches_completed`` (which stops
at the first eligible task) are always scalar.  ``docs/candidates.md``
("Vector cutover") has the measurements behind both thresholds.
Top-``k`` picks carry the scalar accuracy they were ranked by, so the
arrangement records it without evaluating the model again.

**Exactness contract.**  Both passes return identical results, ordering
included:

* eligibility queries return positions ascending by task id in grid
  mode and in posting order in generic mode — exactly the pre-engine
  ``CandidateFinder`` iteration orders;
* every query filters **tombstoned positions** (the ``alive`` mask; see
  :meth:`CandidateEngine.retire_tasks`) out of its candidate pool
  *before* the accuracy evaluation, and grid-mode pools are the CSR cells
  **plus the spill range** ``[spill_start, num_tasks)`` of positions
  appended since the last grid rebuild, or, for a flat gather, every
  position;
* the squared distance ``dx*dx + dy*dy`` is evaluated in the same
  association order in both passes (elementwise IEEE-754 ops give the
  same bits), so the radius prefilter gathers the exact same set;
* the eligibility decision is pinned to the scalar expression
  ``Acc(w, t) >= min_accuracy``, with no slack, with ``Acc`` from
  :meth:`CandidateEngine.scalar_accuracy`; the radius gate is a
  superset of it
  (:func:`~repro.core.candidates.sigmoid_eligibility_radius`).  The
  vector pass trusts its own sigmoid **only outside**
  :data:`DECISION_BAND` around the threshold; inside the band it
  re-checks each pair with the scalar path;
* top-``k`` returns positions in the exact pop order of a
  :class:`~repro.structures.topk.TopKHeap` fed the *scalar* scores in
  candidate order (largest first; ties favour the earlier-pushed, i.e.
  lower-id, task).  The vector pass preselects a superset — every
  candidate within :data:`TOPK_SCORE_MARGIN` of its approximate k-th best
  survives — and rescores it through the one scalar ranking
  (``_rank_topk``), which sorts by (score descending, candidate
  order) instead of pushing through a heap; the order is the same.

The snapshot is **dynamic**: the paper's online setting is a stream in
which tasks are posted and expire while workers trickle in, so a
long-lived engine must not be rebuilt per change.  Three invariants make
the incremental layer safe for callers that keep per-position state:

* **Positions are append-only and stable for the engine's lifetime.**
  :meth:`CandidateEngine.add_tasks` appends new tasks at the next free
  positions; nothing is ever compacted or re-sorted, so a solver's
  per-position lists (remaining needs) stay valid across every mutation —
  they only need extending.
* **Retirement is a lazy tombstone, not a rebuild.**
  :meth:`CandidateEngine.retire_tasks` flips the per-position ``alive``
  bit; every query filters tombstoned positions out of its candidate pool
  before the accuracy evaluation.  Retired positions are physically
  dropped from the CSR grid only at the next rebuild.  Positions retired
  as *completed* (not expired) are also kept in a list of their own, which
  no rebuild sweeps: routing still counts a worker eligible for a
  completed task as a session arrival.
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
counts grid rebuilds.  The numpy mirrors the vector pass reads are built
on its first use (an engine that never crosses the cutover never builds
them) and re-sync from these counters — tail-appends and tombstone
replay are incremental, a grid rebuild refreshes the mirrors wholesale.
Task ids are normally posted in increasing order, so position order keeps
equalling id order and the ordered-output sort stays the plain position
sort; if an added id breaks monotonicity, ``positions_id_ordered`` flips
and ordered queries sort by task-id key instead.

The engine operates in one of two modes, picked by the instance's
accuracy model:

``grid``
    The sigmoid accuracy model.  The instance's threshold converts to a
    per-worker eligibility radius
    (:func:`~repro.core.candidates.sigmoid_eligibility_radius`); queries
    gather grid cells (or, on a small snapshot, every position), filter by
    exact squared distance, then apply the accuracy decision.  Output
    order: ascending task id.
``generic``
    Any other accuracy model: per-pair scalar evaluation over the tasks
    in instance order.  An arbitrary python model cannot be batched.

``docs/candidates.md`` derives why the band/margin constants are safe.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.accuracy import SigmoidDistanceAccuracy
# Cycle-free: repro.core.candidates only imports this package lazily,
# inside CandidateFinder.__init__.  Sharing the one implementation keeps
# the (bit-sensitive) radius gate identical between the legacy oracle and
# the engine.
from repro.core.candidates import sigmoid_eligibility_radius
from repro.core.instance import LTCInstance
from repro.core.task import Task
from repro.core.worker import Worker
from repro.geo.bbox import BoundingBox

#: Half-width of the accuracy interval around the eligibility threshold in
#: which the vector pass must fall back to the scalar evaluation.
#: Vectorized and scalar sigmoid evaluations agree to ~1e-14 absolute
#: (accuracies live in [0, 1]); outside +-1e-9 their decisions provably
#: coincide, inside it the scalar path is authoritative.
DECISION_BAND = 1e-9

#: Score margin for vectorized top-k preselection: every candidate whose
#: approximate score is within this of the approximate k-th best must be
#: kept for the scalar rescoring pass.  Scores are ``Acc*`` values (or
#: remaining-need caps of similar magnitude), approximated to ~1e-14
#: absolute, so 1e-9 keeps every candidate the scalar heap could retain.
TOPK_SCORE_MARGIN = 1e-9

#: Scoring rules :meth:`CandidateEngine.topk` understands, matching the
#: three online greedy rules of the paper's Algorithms 2-3:
#: ``Acc*`` (LAF), ``min(Acc*, need)`` (LGF), ``need`` (LRF).
TOPK_MODES = ("acc_star", "gain", "need")

#: Gathered-block size at which ``eligible_positions`` and ``topk`` switch
#: from the scalar loops to the vectorized numpy pass.  Numpy pays a fixed
#: cost of some 40-60 us per query; measured per query against the scalar
#: ``topk`` that evaluates each candidate's accuracy once, the scalar
#: loops win every query kind below 96 gathered candidates, and ``gain``
#: top-k and plain eligibility break even at 96-111 (``docs/candidates.md``,
#: "Vector cutover").  Both passes give identical results, so this only
#: trades speed.
VECTOR_MIN_BLOCK = 96

#: Soft cap on total grid cells: keeps the dense ``cell_start`` offset
#: array O(tasks) even for workloads whose extent dwarfs ``d_max`` (the
#: dict grid was sparse and did not care).  Coarsening cells only changes
#: how much a query over-gathers before the exact distance filter — never
#: the result.
_MAX_CELLS_PER_TASK = 8

#: Minimum spill size (positions appended since the last grid build)
#: before :meth:`CandidateEngine.add_tasks` triggers a rebuild.  Below
#: this the linear spill scan is cheaper than re-packing the cells, and
#: for the same reason a grid-mode snapshot of at most this many positions
#: skips the cells altogether and is scanned flat.
SPILL_REBUILD_MIN = 64

#: Fractional rebuild threshold: the spill may grow to this fraction of
#: the grid-covered positions before a rebuild.  Together with the
#: minimum this amortises rebuild cost O(n) over O(n) appended tasks.
SPILL_REBUILD_FRACTION = 0.25

#: Absolute spill cap.  Every grid query scans the spill linearly, so on
#: large snapshots the fractional threshold alone would let per-query
#: spill cost approach a full scan's cost (25% of 100k tasks); capping the
#: spill bounds that scan while still amortising the O(n) rebuild over
#: thousands of appends.  All three knobs only trade query overhead
#: against rebuild frequency — the exact distance/accuracy filters
#: decide membership either way.
SPILL_REBUILD_MAX = 2048

#: How many worker-candidate entries :meth:`CandidateEngine.batch_pairs`
#: filters by distance in one numpy step (float64 arrays of 512 KiB).
_BATCH_BLOCK = 1 << 16

#: CSR ``(lo, hi)`` slices of the cells a query disk overlaps.
_Slices = List[Tuple[int, int]]


class BatchPairs(NamedTuple):
    """A batch's assignable pairs, as :meth:`CandidateEngine.batch_pairs`
    returns them: one entry per pair, grouped by worker."""

    #: The worker's index in the batch, non-decreasing.
    workers: np.ndarray
    #: The task's snapshot position, in the oracle order per worker.
    positions: np.ndarray
    #: ``Acc(w, t)``, bit-identical to :meth:`CandidateEngine.scalar_accuracy`.
    acc: np.ndarray


class _NumpyMirrors:
    """Numpy copies of the engine's lists, kept in sync incrementally.

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
        "_grid_epoch",
        "_count",
        "_dead_cursor",
        "xs",
        "ys",
        "task_ids",
        "alive",
        "cell_start",
        "cell_positions",
        "xs_cell",
        "ys_cell",
    )

    def __init__(self, engine: "CandidateEngine") -> None:
        self._grid_epoch = -1  # force a full build on the first sync
        self._count = 0
        self._dead_cursor = 0
        self.sync(engine)

    def sync(self, engine: "CandidateEngine") -> None:
        """Bring the mirrors up to date with the engine's lists."""
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
        if engine.cell_positions is not None:
            self.cell_start = np.asarray(engine.cell_start, dtype=np.int64)
            self.cell_positions = np.asarray(engine.cell_positions, dtype=np.int64)
            self.xs_cell = self.xs[self.cell_positions]
            self.ys_cell = self.ys[self.cell_positions]
        else:
            self.cell_start = None
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
        The LTC instance whose tasks are snapshotted.  Its accuracy model
        picks the mode and its ``min_assignable_accuracy`` is the
        eligibility threshold.
    """

    def __init__(self, instance: LTCInstance) -> None:
        self.instance = instance
        self.model = instance.accuracy_model
        self.min_accuracy = instance.min_assignable_accuracy
        #: The eligibility decision is exactly ``accuracy >= threshold``.
        self.threshold = self.min_accuracy

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
        #: Positions in the instance's task-list order (the generic-mode
        #: pool); dynamically added tasks append in posting order.
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
        #: Positions retired as completed (not expired), in retirement
        #: order, for :meth:`reaches_completed`.  Never swept.
        self._completed: List[int] = []
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
        if self.sigmoid:
            self.mode = "grid"
            self._build_csr_grid()
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
        are never moved, so per-position caller state stays valid (extend
        it to ``num_tasks``).  In grid mode the new positions land in the
        spill range, which every query scans alongside the CSR cells; once
        the spill crosses the rebuild threshold the grid is rebuilt over
        the alive snapshot.

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

    def retire_tasks(self, task_ids: Iterable[int], expired: bool = False) -> None:
        """Tombstone completed (or, with ``expired=True``, expired) tasks.

        Retired positions stay in the arrays (so caller state keeps its
        indexing) but are filtered out of every query's candidate pool
        before the accuracy evaluation.  Completed positions stay visible
        to :meth:`reaches_completed`; expired ones leave every query.
        Retiring an already-retired task is a no-op; retirement is
        permanent.

        Raises
        ------
        KeyError
            If a task id was never part of the snapshot.  Every id is
            checked before any is retired, so a failed call changes
            nothing.
        """
        position_of = self.position_of
        positions = []
        for task_id in task_ids:
            position = position_of.get(task_id)
            if position is None:
                raise KeyError(f"task id {task_id} is not in the snapshot")
            positions.append(position)
        alive = self.alive
        changed = False
        for position in positions:
            if alive[position]:
                alive[position] = False
                self.dead_count += 1
                self._tombstone_log.append(position)
                if not expired:
                    self._completed.append(position)
                changed = True
        if changed:
            self.epoch += 1

    def rebuild_index(self) -> None:
        """Rebuild the CSR grid over the alive snapshot (grid mode only).

        Merges the spill range into the cells and sweeps tombstoned
        positions out of them; positions themselves do not move.  Called
        automatically by :meth:`add_tasks` at the spill threshold, and
        callable directly (e.g. after mass expiry) — a no-op for a generic
        engine, which has no spatial index to refresh.
        """
        if self.mode != "grid":
            return
        self.rebuild_count += 1
        self.epoch += 1
        self._build_csr_grid()

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

    def _cell_spans(self, wx, wy, radius):
        """:meth:`cell_span` over arrays: ``(col0, col1, row0, row1)`` int arrays.

        numpy's float floor division follows Python's, so every span
        equals :meth:`cell_span`'s; an infinite radius covers the grid.
        """
        infinite = np.isinf(radius)
        radius = np.where(infinite, 0.0, radius)
        bounds = []
        for centre, origin, count in ((wx, self.grid_min_x, self.cols),
                                      (wy, self.grid_min_y, self.rows)):
            for edge, whole in ((centre - radius, 0), (centre + radius, count - 1)):
                bound = np.clip((edge - origin) // self.cell_size, 0, count - 1)
                bound[infinite] = whole
                bounds.append(bound.astype(np.int64))
        return bounds

    def numpy_mirrors(self) -> _NumpyMirrors:
        """Numpy copies of the lists (built on first use, synced incrementally)."""
        if self._mirrors is None:
            self._mirrors = _NumpyMirrors(self)
        else:
            self._mirrors.sync(self)
        return self._mirrors

    # ------------------------------------------------- scalar float oracle

    def radius_of(self, worker: Worker) -> float:
        """The worker's eligibility radius (grid mode only).

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

    def scalar_eligible(self, worker: Worker, position: int) -> bool:
        """The pinned eligibility decision for one pair."""
        return self.scalar_accuracy(worker, position) >= self.threshold

    # ------------------------------------------------------ query routing

    def _cell_slices(self, worker: Worker, radius: float) -> Tuple[_Slices, int]:
        """The CSR slices the worker's disk overlaps, and the block size.

        The block size counts every candidate the query would gather: the
        cell slices plus the spill range (tombstoned members included, so
        it over-estimates after retirements).  Plain int arithmetic on the
        offsets — no position is touched.
        """
        col0, col1, row0, row1 = self.cell_span(
            worker.location.x, worker.location.y, radius
        )
        start = self.cell_start
        assert start is not None
        cols = self.cols
        size = self.num_tasks - self.spill_start
        slices: _Slices = []
        for row in range(row0, row1 + 1):
            base = row * cols
            lo = start[base + col0]
            hi = start[base + col1 + 1]
            if lo < hi:
                slices.append((lo, hi))
                size += hi - lo
        return slices, size

    def _route(self, worker: Worker):
        """Pick the gather and the pass for one query.

        Returns ``None`` when the worker can reach no task (grid mode,
        negative radius), else ``(vector, radius, slices)``: ``radius`` and
        ``slices`` are only meaningful in grid mode, the only mode that
        vectorizes.  A grid-mode snapshot of at most
        :data:`SPILL_REBUILD_MIN` positions skips the cells: ``slices`` is
        ``None`` and the query scans every position the way it scans the
        spill, so the gathered block is the whole snapshot.
        """
        if self.mode == "grid":
            radius = self.radius_of(worker)
            if radius < 0:
                return None
            if self.num_tasks <= SPILL_REBUILD_MIN:
                return self.num_tasks >= VECTOR_MIN_BLOCK, radius, None
            slices, size = self._cell_slices(worker, radius)
            return size >= VECTOR_MIN_BLOCK, radius, slices
        return False, 0.0, None

    # ---------------------------------------------------------- scalar pass

    def _scalar_pass(
        self, worker: Worker, radius: float, slices: Optional[_Slices]
    ) -> List[Tuple[int, float]]:
        """Eligible ``(position, scalar_accuracy)`` pairs in the oracle order.

        One walk applies the tombstone filter, the radius gate (grid mode:
        the CSR cells, then the spill; or, for a flat gather, every
        position) and the pinned decision, with :meth:`scalar_accuracy`'s
        expression inlined for the sigmoid model, so each candidate's
        accuracy is evaluated once — top-``k`` scores reuse it.  Grid-mode
        results are sorted into ascending task id unless the pool already
        is in it (a flat gather over id-ordered positions); the generic
        pool is already in posting order.
        """
        threshold = self.threshold
        alive = self.alive
        has_dead = self.dead_count > 0
        wx, wy = worker.location.x, worker.location.y
        p_w, d_max = worker.accuracy, self.d_max
        xs, ys = self.xs, self.ys
        hypot, exp = math.hypot, math.exp
        eligible: List[Tuple[int, float]] = []
        if self.mode == "grid":
            r2 = radius * radius
            if slices is None:
                pools = [range(self.num_tasks)]
                # Ascending positions are the oracle order while ids are.
                needs_sort = not self.positions_id_ordered
            else:
                needs_sort = True
                order = self.cell_positions
                assert order is not None
                pools = [order[lo:hi] for lo, hi in slices]
                pools.append(range(self.spill_start, self.num_tasks))
            for pool in pools:
                for p in pool:
                    if has_dead and not alive[p]:
                        continue
                    dx = xs[p] - wx
                    dy = ys[p] - wy
                    if dx * dx + dy * dy <= r2:
                        exponent = -(d_max - hypot(dx, dy))
                        acc = 0.0 if exponent > 700.0 else p_w / (1.0 + exp(exponent))
                        if acc >= threshold:
                            eligible.append((p, acc))
            if needs_sort:
                if self.positions_id_ordered:
                    eligible.sort()
                else:
                    task_ids = self.task_ids
                    eligible.sort(key=lambda entry: task_ids[entry[0]])
        else:
            accuracy = self.scalar_accuracy
            for p in self.instance_positions:
                if has_dead and not alive[p]:
                    continue
                acc = accuracy(worker, p)
                if acc >= threshold:
                    eligible.append((p, acc))
        return eligible

    @staticmethod
    def _rank_topk(
        scored: Sequence[Tuple[int, float]],
        k: int,
        mode: str,
        need: Optional[Sequence[float]],
    ) -> List[Tuple[int, float]]:
        """The best ``k`` of ``(position, scalar_accuracy)`` pairs, best first.

        Ties go to the pair earlier in ``scored`` — the pop order of a
        :class:`~repro.structures.topk.TopKHeap` fed them in order.  Both
        passes end here — the vector pass feeds it its preselected
        superset — which is what makes their orders identical.
        """
        ranked = []
        for seq, (p, acc) in enumerate(scored):
            if mode == "need":
                score = float(need[p])
            else:
                weight = 2.0 * acc - 1.0
                score = weight * weight
                if mode == "gain":
                    score = min(score, float(need[p]))
            ranked.append((-score, seq, p, acc))
        ranked.sort()
        return [(p, acc) for _, _, p, acc in ranked[:k]]

    # ---------------------------------------------------------- vector pass

    def _vector_block(self, worker: Worker, radius: float, slices: Optional[_Slices]):
        """``(positions, squared_distances)`` after the exact radius prefilter.

        The block is the CSR cells plus the spill range, tombstones
        filtered out of both; a flat gather (``slices is None``) takes no
        cells and reads every position as spill.
        """
        mirrors = self.numpy_mirrors()
        wx, wy = worker.location.x, worker.location.y
        r2 = radius * radius
        if slices:
            if len(slices) == 1:
                lo, hi = slices[0]
                block = mirrors.cell_positions[lo:hi]
                block_x = mirrors.xs_cell[lo:hi]
                block_y = mirrors.ys_cell[lo:hi]
            else:
                block = np.concatenate(
                    [mirrors.cell_positions[lo:hi] for lo, hi in slices]
                )
                block_x = np.concatenate([mirrors.xs_cell[lo:hi] for lo, hi in slices])
                block_y = np.concatenate([mirrors.ys_cell[lo:hi] for lo, hi in slices])
            dxs = block_x - wx
            dys = block_y - wy
            d2 = dxs * dxs + dys * dys
            keep = d2 <= r2
            if self.dead_count:
                keep &= mirrors.alive[block]
            block, d2 = block[keep], d2[keep]
        else:
            block = d2 = np.empty(0, dtype=np.int64)
        spill_lo = 0 if slices is None else self.spill_start
        if spill_lo < self.num_tasks:
            dxs = mirrors.xs[spill_lo:] - wx
            dys = mirrors.ys[spill_lo:] - wy
            spill_d2 = dxs * dxs + dys * dys
            keep = spill_d2 <= r2
            if self.dead_count:
                keep &= mirrors.alive[spill_lo:]
            spill = np.arange(spill_lo, self.num_tasks, dtype=np.int64)
            spill, spill_d2 = spill[keep], spill_d2[keep]
            if len(block):
                block = np.concatenate([block, spill])
                d2 = np.concatenate([d2, spill_d2])
            else:
                block, d2 = spill, spill_d2
        return block, d2

    def _vector_decide(self, worker: Worker, positions, d2):
        """Exact eligibility decisions for a candidate block.

        The vectorized sigmoid decides outright outside the band around
        the threshold; inside it (essentially never hit in practice) the
        scalar path is consulted per pair.  ``sqrt`` of the prefilter's
        squared distances and a clipped exponent stand in for the scalar
        path's ``hypot`` and saturation guard — both approximations stay
        ulps away from the scalar values, far inside the band.
        """
        exponent = np.minimum(np.sqrt(d2) - self.d_max, 700.0)
        acc = worker.accuracy / (1.0 + np.exp(exponent))
        threshold = self.threshold
        eligible = acc >= threshold + DECISION_BAND
        band = (acc >= threshold - DECISION_BAND) & ~eligible
        if band.any():
            scalar_eligible = self.scalar_eligible
            for i in np.nonzero(band)[0]:
                eligible[i] = scalar_eligible(worker, int(positions[i]))
        return eligible, acc

    def _vector_eligible(
        self, worker: Worker, radius: float, slices: Optional[_Slices]
    ):
        """Eligible positions and their (approximate) accuracies, unsorted."""
        positions, d2 = self._vector_block(worker, radius, slices)
        if not len(positions):
            return positions, d2
        eligible, acc = self._vector_decide(worker, positions, d2)
        return positions[eligible], acc[eligible]

    def _vector_order(self, positions) -> List[int]:
        """Positions in the oracle order (ascending task id)."""
        if self.positions_id_ordered:
            return np.sort(positions).tolist()
        ids = self.numpy_mirrors().task_ids[positions]
        return positions[np.argsort(ids)].tolist()

    def _vector_topk(
        self,
        worker: Worker,
        radius: float,
        slices: Optional[_Slices],
        k: int,
        mode: str,
        need: Optional[Sequence[float]],
    ) -> List[Tuple[int, float]]:
        positions, acc = self._vector_eligible(worker, radius, slices)
        count = len(positions)
        if count == 0:
            return []
        if count > k:
            if mode == "acc_star":
                weight = 2.0 * acc - 1.0
                scores = weight * weight
            else:
                # The caller's need list is gathered for this block only.
                scores = np.array(
                    [need[p] for p in positions.tolist()], dtype=np.float64
                )
                if mode == "gain":
                    weight = 2.0 * acc - 1.0
                    scores = np.minimum(weight * weight, scores)
            kth = np.partition(scores, count - k)[count - k]
            positions = positions[scores >= kth - TOPK_SCORE_MARGIN]
        superset = self._vector_order(positions)
        accuracy = self.scalar_accuracy
        if mode == "need":
            # The remaining need alone ranks, so only the picks get their
            # scalar accuracy.
            ranked = self._rank_topk([(p, 0.0) for p in superset], k, mode, need)
            return [(p, accuracy(worker, p)) for p, _ in ranked]
        scored = [(p, accuracy(worker, p)) for p in superset]
        return self._rank_topk(scored, k, mode, need)

    # ------------------------------------------------------------- queries

    def eligible_positions(self, worker: Worker) -> List[int]:
        """Task positions the worker may be assigned, in the oracle order.

        Ascending task id in grid mode, posting order in generic mode.
        """
        route = self._route(worker)
        if route is None:
            return []
        vector, radius, slices = route
        if not vector:
            return [p for p, _ in self._scalar_pass(worker, radius, slices)]
        return self._vector_order(self._vector_eligible(worker, radius, slices)[0])

    def eligible_tasks(self, worker: Worker) -> List[Task]:
        """Assignable :class:`Task` objects in the oracle order."""
        tasks = self.tasks
        return [tasks[position] for position in self.eligible_positions(worker)]

    def _scored(self, worker: Worker) -> List[Tuple[int, float]]:
        """:meth:`eligible_positions` as ``(position, scalar_accuracy)`` pairs.

        The scalar pass hands over the accuracy each decision read; the
        vector pass evaluates the scalar accuracy of its eligible
        positions only.
        """
        route = self._route(worker)
        if route is None:
            return []
        vector, radius, slices = route
        if not vector:
            return self._scalar_pass(worker, radius, slices)
        accuracy = self.scalar_accuracy
        positions = self._vector_order(self._vector_eligible(worker, radius, slices)[0])
        return [(p, accuracy(worker, p)) for p in positions]

    def scored_tasks(self, worker: Worker) -> List[Tuple[Task, float]]:
        """:meth:`eligible_tasks` as ``(task, Acc(w, task))`` pairs.

        Each accuracy is the scalar one, bit-identical to the accuracy
        model's, so callers rank by it and hand it to
        :meth:`~repro.core.arrangement.Arrangement.assign` without
        evaluating the model again.
        """
        tasks = self.tasks
        return [(tasks[p], acc) for p, acc in self._scored(worker)]

    def batch_pairs(self, workers: Sequence[Worker]) -> BatchPairs:
        """Every assignable pair of a batch of workers, in one pass.

        The pairs are :meth:`scored_tasks` of each worker in turn,
        concatenated: workers in the given order, each one's tasks in the
        oracle order, each accuracy the scalar one.  In grid mode every
        worker gathers the block its own query would (:meth:`_gathered`),
        numpy filters the entries by the exact squared distance, and the
        survivors get :meth:`scalar_accuracy`'s expressions and the pinned
        decision.  The entries come in chunks of at most
        :data:`_BATCH_BLOCK`, so memory grows with the pairs gathered,
        never with batch size times snapshot size.  Generic mode runs
        each worker's scalar pass.
        """
        if self.mode != "grid":
            rows = [self._scalar_pass(worker, 0.0, None) for worker in workers]
            flat = [entry for row in rows for entry in row]
            return BatchPairs(
                np.repeat(np.arange(len(rows), dtype=np.int64),
                          [len(row) for row in rows]),
                np.array([p for p, _ in flat], dtype=np.int64),
                np.array([acc for _, acc in flat], dtype=np.float64),
            )

        radius = np.array([self.radius_of(worker) for worker in workers],
                          dtype=np.float64)
        wx = np.array([worker.location.x for worker in workers], dtype=np.float64)
        wy = np.array([worker.location.y for worker in workers], dtype=np.float64)
        reach = np.flatnonzero(radius >= 0)
        r2 = radius * radius

        mirrors = self.numpy_mirrors()
        found = []  # (worker indices, positions, dx, dy) per chunk
        for index, positions in self._gathered(reach, wx, wy, radius):
            dxs = mirrors.xs[positions] - wx[index]
            dys = mirrors.ys[positions] - wy[index]
            keep = dxs * dxs + dys * dys <= r2[index]
            found.append((index[keep], positions[keep], dxs[keep], dys[keep]))
        if not found:
            empty = np.empty(0, dtype=np.int64)
            return BatchPairs(empty, empty, np.empty(0, dtype=np.float64))
        index, positions, dxs, dys = (np.concatenate(part) for part in zip(*found))

        # Back into the oracle order: workers as given, task ids ascending.
        if self.positions_id_ordered:
            order = np.argsort(index * self.num_tasks + positions, kind="stable")
        else:
            order = np.lexsort((mirrors.task_ids[positions], index))
        index, positions = index[order], positions[order]

        # scalar_accuracy, expression by expression: math.hypot and
        # math.exp per pair, the rest elementwise (the same IEEE-754 ops).
        distance = np.array(list(map(math.hypot, dxs[order].tolist(),
                                     dys[order].tolist())), dtype=np.float64)
        exponent = -(self.d_max - distance)
        saturated = exponent > 700.0
        growth = np.array(list(map(math.exp, np.minimum(exponent, 700.0).tolist())),
                          dtype=np.float64)
        p_w = np.array([worker.accuracy for worker in workers], dtype=np.float64)
        acc = p_w[index] / (1.0 + growth)
        acc[saturated] = 0.0
        eligible = acc >= self.threshold
        return BatchPairs(index[eligible], positions[eligible], acc[eligible])

    def _gathered(self, reach, wx, wy, radius):
        """The workers' gathered blocks as ``(workers, positions)`` entries.

        Worker ``reach[i]`` gathers what its own query would: the CSR
        cells its disk overlaps, then the spill range, or every position
        for a flat gather; tombstones are masked out.  The entries come
        in chunks of whole workers, each of at most :data:`_BATCH_BLOCK`
        entries unless one worker's block alone is larger.
        """
        mirrors = self.numpy_mirrors()
        if self.num_tasks <= SPILL_REBUILD_MIN:
            spill = np.arange(self.num_tasks, dtype=np.int64)
            rows = np.zeros(len(reach), dtype=np.int64)
            lo = hi = np.empty(0, dtype=np.int64)
        else:
            spill = np.arange(self.spill_start, self.num_tasks, dtype=np.int64)
            col0, col1, row0, row1 = self._cell_spans(wx[reach], wy[reach],
                                                      radius[reach])
            # One CSR slice per worker and cell row.
            rows = row1 - row0 + 1
            first = np.cumsum(rows) - rows
            row = np.repeat(row0 - first, rows) + np.arange(int(rows.sum()))
            start = mirrors.cell_start
            lo = start[row * self.cols + np.repeat(col0, rows)]
            hi = start[row * self.cols + np.repeat(col1, rows) + 1]
        lengths = hi - lo
        slice_worker = np.repeat(reach, rows)
        segments = np.concatenate(([0], np.cumsum(rows)))
        covered = np.concatenate(([0], np.cumsum(lengths)))
        sizes = covered[segments[1:]] - covered[segments[:-1]] + len(spill)
        done = np.concatenate(([0], np.cumsum(sizes)))
        begin = 0
        while begin < len(reach):
            end = max(begin + 1, int(np.searchsorted(
                done, done[begin] + _BATCH_BLOCK, side="right")) - 1)
            s0, s1 = segments[begin], segments[end]
            count = lengths[s0:s1]
            cells = np.repeat(lo[s0:s1] - covered[s0:s1] + covered[s0], count)
            cells += np.arange(int(count.sum()))
            workers = reach[begin:end]
            index = np.concatenate((np.repeat(slice_worker[s0:s1], count),
                                    np.repeat(workers, len(spill))))
            positions = np.concatenate((mirrors.cell_positions[cells],
                                        np.tile(spill, len(workers))))
            if self.dead_count:
                alive = mirrors.alive[positions]
                index, positions = index[alive], positions[alive]
            yield index, positions
            begin = end

    def eligible_pairs(
        self, workers: Iterable[Worker]
    ) -> Iterator[Tuple[Worker, Task, float]]:
        """:meth:`batch_pairs` as ``(worker, task, Acc(w, task))`` triples."""
        workers = list(workers)
        pairs = self.batch_pairs(workers)
        tasks = self.tasks
        for index, position, acc in zip(pairs.workers.tolist(),
                                        pairs.positions.tolist(),
                                        pairs.acc.tolist()):
            yield workers[index], tasks[position], acc

    def reaches_completed(self, worker: Worker) -> bool:
        """Whether the worker is eligible for a task retired as completed.

        The routing fallback: a session counts a worker eligible for any
        task that has not expired, completed ones included, so a session
        whose selection over the open tasks comes back empty asks this
        next.  The walk covers the positions :meth:`retire_tasks`
        recorded as completed — grid rebuilds sweep
        them out of the cells, not out of this list — with the pinned
        radius gate and decision, and stops at the first eligible one.
        Always scalar.
        """
        completed = self._completed
        if not completed:
            return False
        scalar_eligible = self.scalar_eligible
        if self.mode != "grid":
            return any(scalar_eligible(worker, p) for p in completed)
        radius = self.radius_of(worker)
        if radius < 0:
            return False
        wx, wy = worker.location.x, worker.location.y
        r2 = radius * radius
        xs, ys = self.xs, self.ys
        for p in completed:
            dx = xs[p] - wx
            dy = ys[p] - wy
            if dx * dx + dy * dy <= r2 and scalar_eligible(worker, p):
                return True
        return False

    def topk(
        self,
        worker: Worker,
        k: int,
        mode: str = "acc_star",
        need: Optional[Sequence[float]] = None,
    ) -> List[Tuple[Task, float]]:
        """The worker's best-``k`` assignable tasks, in assignment order.

        Each pick comes as ``(task, Acc(w, task))``: the scalar accuracy
        it was ranked by, bit-identical to the accuracy model's, which
        :meth:`~repro.core.arrangement.Arrangement.assign` records without
        evaluating the model again.  ``mode`` picks the score (see
        :data:`TOPK_MODES`); ``need`` supplies the per-position remaining
        need ``delta - S[t]`` for the ``gain`` and ``need`` modes.  The
        order is largest scalar score first, ties broken towards the
        lower-id task.  Finished tasks are excluded by retiring them
        (:meth:`retire_tasks`).
        """
        if mode not in TOPK_MODES:
            raise ValueError(f"unknown topk mode {mode!r}")
        if mode != "acc_star" and need is None:
            raise ValueError(f"topk mode {mode!r} requires a need array")
        route = self._route(worker)
        if route is None:
            return []
        vector, radius, slices = route
        if vector:
            picked = self._vector_topk(worker, radius, slices, k, mode, need)
        else:
            scored = self._scalar_pass(worker, radius, slices)
            picked = self._rank_topk(scored, k, mode, need)
        tasks = self.tasks
        return [(tasks[position], acc) for position, acc in picked]

    def topk_acc_star(self, worker: Worker, k: int) -> List[Tuple[Task, float]]:
        """LAF's selection: the ``k`` open tasks of largest ``Acc*``."""
        return self.topk(worker, k, "acc_star")

    def candidate_counts(self) -> Dict[int, int]:
        """Eligible-worker counts per task id (posting order).

        Iterates the snapshot's own posting order (the base instance's
        task order followed by dynamically added tasks), so tasks added
        after construction are counted too; retired tasks count 0.
        """
        counts = [0] * self.num_tasks
        for worker in self.instance.workers:
            for position in self.eligible_positions(worker):
                counts[position] += 1
        task_ids = self.task_ids
        return {task_ids[position]: counts[position] for position in self.instance_positions}
