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
tests — run over these arrays.

**One engine, two passes.**  Each grid query computes the worker's
radius and cell span once and sums the *gathered block* — the candidates
in the CSR cells the disk overlaps, plus the spill — from the CSR offsets
with plain ints.  Below :data:`VECTOR_MIN_BLOCK` it runs scalar loops
over the lists; at or above it, one vectorized numpy pass (gather the
cell slices, filter by exact squared distance, evaluate the sigmoid over
the block, preselect top-``k`` with ``np.partition``).  Scan mode
vectorizes when ``num_tasks`` reaches the same constant; generic mode and
``has_candidates`` (which stops at the first eligible task) are always
scalar.  ``docs/candidates.md`` ("Vector cutover") has the
measured block sizes behind the constant.

**Exactness contract.**  Both passes return identical results, ordering
included:

* ordered eligibility queries return positions ascending by task id in
  grid mode and in posting order in scan/generic modes — exactly the
  pre-engine ``CandidateFinder`` iteration orders;
* every query filters **tombstoned positions** (the ``alive`` mask; see
  :meth:`CandidateEngine.retire_tasks`) out of its candidate pool
  *before* the accuracy evaluation, and grid-mode pools are the CSR cells
  **plus the spill range** ``[spill_start, num_tasks)`` of positions
  appended since the last grid rebuild;
* the squared distance ``dx*dx + dy*dy`` is evaluated in the same
  association order in both passes (elementwise IEEE-754 ops give the
  same bits), so the radius prefilter gathers the exact same set;
* the eligibility decision is pinned to the scalar expression
  ``Acc(w, t) >= min_accuracy - ELIGIBILITY_EPS`` with ``Acc`` from
  :meth:`CandidateEngine.scalar_accuracy`.  The vector pass trusts its
  own sigmoid **only outside** :data:`DECISION_BAND` around the
  threshold; inside the band it re-checks each pair with the scalar path;
* top-``k`` returns positions in the exact pop order of a
  :class:`~repro.structures.topk.TopKHeap` fed the *scalar* scores in
  candidate order (largest first; ties favour the earlier-pushed, i.e.
  lower-id, task).  The vector pass preselects a superset — every
  candidate within :data:`TOPK_SCORE_MARGIN` of its approximate k-th best
  survives — and rescores it through the one scalar heap loop.

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
  dropped from the CSR grid only at the next rebuild.
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
    in instance order.  An arbitrary python model cannot be batched.

``docs/candidates.md`` derives why the band/margin constants are safe.
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
from repro.structures.topk import TopKHeap

#: The slack applied to the eligibility threshold, shared with
#: ``CandidateFinder.is_eligible`` (the decision is
#: ``accuracy >= min_accuracy - ELIGIBILITY_EPS``).
ELIGIBILITY_EPS = 1e-12

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
#: cost of some 40-50 us per query; measured per query, the vector pass
#: starts winning top-k at about 64 gathered candidates and breaks even on
#: plain eligibility there (``docs/candidates.md``, "Vector cutover").
#: Both passes give identical results, so this only trades speed.
VECTOR_MIN_BLOCK = 64

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

#: CSR ``(lo, hi)`` slices of the cells a query disk overlaps.
_Slices = List[Tuple[int, int]]


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
        "cell_positions",
        "xs_cell",
        "ys_cell",
        "instance_positions",
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
    """

    def __init__(
        self,
        instance: LTCInstance,
        min_accuracy: Optional[float] = None,
        use_spatial_index: bool = True,
    ) -> None:
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

    def retire_tasks(self, task_ids: Iterable[int]) -> None:
        """Tombstone tasks (completed or expired) without rebuilding.

        Retired positions stay in the arrays (so caller state keeps its
        indexing) but are filtered out of every query's candidate pool
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

    def numpy_mirrors(self) -> _NumpyMirrors:
        """Numpy copies of the lists (built on first use, synced incrementally)."""
        if self._mirrors is None:
            self._mirrors = _NumpyMirrors(self)
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
        """Pick the pass for one query.

        Returns ``None`` when the worker can reach no task (grid mode,
        negative radius), else ``(vector, radius, slices)``: ``radius`` and
        ``slices`` are only meaningful in grid mode.
        """
        if self.mode == "grid":
            radius = self.radius_of(worker)
            if radius < 0:
                return None
            slices, size = self._cell_slices(worker, radius)
            return size >= VECTOR_MIN_BLOCK, radius, slices
        if self.mode == "scan":
            return self.num_tasks >= VECTOR_MIN_BLOCK, 0.0, None
        return False, 0.0, None

    # ---------------------------------------------------------- scalar pass

    def _grid_block(self, worker: Worker, radius: float, slices: _Slices) -> List[int]:
        """Alive positions with ``dx*dx + dy*dy <= radius**2``, cells then spill."""
        wx, wy = worker.location.x, worker.location.y
        r2 = radius * radius
        xs, ys = self.xs, self.ys
        alive = self.alive
        has_dead = self.dead_count > 0
        order = self.cell_positions
        assert order is not None
        out: List[int] = []
        for lo, hi in slices:
            for position in order[lo:hi]:
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

    def _scalar_eligible(
        self,
        worker: Worker,
        radius: float,
        slices: Optional[_Slices],
        allowed: Optional[Sequence[bool]],
        ordered: bool,
    ) -> List[int]:
        if self.mode == "grid":
            # The grid gather already skips tombstoned positions.
            block = self._grid_block(worker, radius, slices)
            if ordered:
                self.sort_positions(block)
            pool_is_alive = True
        else:
            block = self.instance_positions
            pool_is_alive = self.dead_count == 0
        scalar_eligible = self.scalar_eligible
        if pool_is_alive:
            if allowed is None:
                return [p for p in block if scalar_eligible(worker, p)]
            return [p for p in block if allowed[p] and scalar_eligible(worker, p)]
        alive = self.alive
        if allowed is None:
            return [p for p in block if alive[p] and scalar_eligible(worker, p)]
        return [
            p
            for p in block
            if alive[p] and allowed[p] and scalar_eligible(worker, p)
        ]

    def _rescore_topk(
        self,
        worker: Worker,
        positions: Sequence[int],
        k: int,
        mode: str,
        need: Optional[Sequence[float]],
    ) -> List[int]:
        """Scalar-score ``positions`` (in the given order) through the heap.

        Both passes end here — the vector pass feeds it its preselected
        superset — which is what makes their pop orders identical.
        """
        heap: TopKHeap = TopKHeap(k)
        acc_star = self.scalar_acc_star
        for p in positions:
            if mode == "acc_star":
                score = acc_star(worker, p)
            elif mode == "gain":
                score = min(acc_star(worker, p), float(need[p]))
            else:
                score = float(need[p])
            heap.push(score, p)
        return [p for _, p in heap.pop_all()]

    # ---------------------------------------------------------- vector pass

    def _vector_block(self, worker: Worker, radius: float, slices: Optional[_Slices]):
        """``(positions, squared_distances)`` after the exact radius prefilter.

        In scan mode the block is every alive task in posting order (the
        oracle scan applies no radius gate, and neither may we).  In grid
        mode the block is the CSR cells plus the spill range, tombstones
        filtered out of both.
        """
        mirrors = self.numpy_mirrors()
        wx, wy = worker.location.x, worker.location.y
        if self.mode != "grid":
            # Boolean masking is order-preserving, so downstream filters
            # keep the oracle's posting order.
            block = mirrors.instance_positions
            if self.dead_count:
                block = block[mirrors.alive[block]]
            dxs = mirrors.xs[block] - wx
            dys = mirrors.ys[block] - wy
            return block, dxs * dxs + dys * dys
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
        spill_lo = self.spill_start
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
        self,
        worker: Worker,
        radius: float,
        slices: Optional[_Slices],
        allowed: Optional[Sequence[bool]],
    ):
        """Eligible positions and their (approximate) accuracies, unsorted.

        The ``allowed`` list is gathered after the accuracy decision, over
        the eligible positions only: the filters commute, and the gather is
        the costly part.
        """
        positions, d2 = self._vector_block(worker, radius, slices)
        if not len(positions):
            return positions, d2
        eligible, acc = self._vector_decide(worker, positions, d2)
        positions, acc = positions[eligible], acc[eligible]
        if allowed is not None and len(positions):
            keep = np.array([allowed[p] for p in positions.tolist()], dtype=bool)
            positions, acc = positions[keep], acc[keep]
        return positions, acc

    def _vector_order(self, positions) -> List[int]:
        """Grid-mode positions in the oracle order (ascending task id)."""
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
    ) -> List[int]:
        positions, acc = self._vector_eligible(worker, radius, slices, None)
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
        if self.mode == "grid":
            superset = self._vector_order(positions)
        else:
            # Scan blocks stream in posting order — the oracle push order —
            # and every filter above preserved it.
            superset = positions.tolist()
        return self._rescore_topk(worker, superset, k, mode, need)

    # ------------------------------------------------------------- queries

    def eligible_positions(
        self,
        worker: Worker,
        allowed: Optional[Sequence[bool]] = None,
        ordered: bool = True,
    ) -> List[int]:
        """Task positions the worker may be assigned.

        ``allowed`` optionally restricts the result by a per-position flag
        list (built with :meth:`make_allowed_mask`).  ``ordered=True`` returns the oracle iteration order
        (ascending task id in grid mode, posting order in scan modes);
        ``ordered=False`` may return any order — callers that only count
        or test membership use it to skip the sort.
        """
        route = self._route(worker)
        if route is None:
            return []
        vector, radius, slices = route
        if not vector:
            return self._scalar_eligible(worker, radius, slices, allowed, ordered)
        positions, _ = self._vector_eligible(worker, radius, slices, allowed)
        if ordered and self.mode == "grid":
            return self._vector_order(positions)
        return positions.tolist()

    def eligible_tasks(
        self, worker: Worker, allowed_ids: Optional[AbstractSet[int]] = None
    ) -> List[Task]:
        """Assignable :class:`Task` objects in the oracle iteration order.

        ``allowed_ids`` restricts by task id, through a position mask.
        Mask construction allocates O(tasks) per call; callers iterating
        many workers against one restriction set should use
        :meth:`eligible_pairs`, which builds the mask once for the batch.
        """
        tasks = self.tasks
        if allowed_ids is not None and not allowed_ids:
            return []
        mask = None if allowed_ids is None else self.make_allowed_mask(allowed_ids)
        return [tasks[position] for position in self.eligible_positions(worker, mask)]

    def eligible_pairs(
        self,
        workers: Iterable[Worker],
        allowed_ids: Optional[AbstractSet[int]] = None,
    ) -> Iterator[Tuple[Worker, Task]]:
        """Bulk-iterate assignable pairs, grouped by worker, ids ascending.

        The restriction set is converted to a per-position mask **once**
        for the whole batch.
        """
        if allowed_ids is not None and not allowed_ids:
            return
        mask = None if allowed_ids is None else self.make_allowed_mask(allowed_ids)
        tasks = self.tasks
        for worker in workers:
            for position in self.eligible_positions(worker, mask):
                yield worker, tasks[position]

    def has_candidates(self, worker: Worker) -> bool:
        """Whether at least one task is assignable to the worker.

        Always the scalar loops, at any block size: the walk stops at the
        first eligible task, which beat the vector pass at every block
        size measured (``docs/candidates.md``).  The walk repeats
        :meth:`_grid_block` inline because a shared generator costs this
        routing hot path about 20%.
        """
        scalar_eligible = self.scalar_eligible
        alive = self.alive
        has_dead = self.dead_count > 0
        if self.mode != "grid":
            if has_dead:
                return any(
                    alive[p] and scalar_eligible(worker, p)
                    for p in self.instance_positions
                )
            return any(scalar_eligible(worker, p) for p in self.instance_positions)
        radius = self.radius_of(worker)
        if radius < 0:
            return False
        slices, _ = self._cell_slices(worker, radius)
        wx, wy = worker.location.x, worker.location.y
        r2 = radius * radius
        xs, ys = self.xs, self.ys
        order = self.cell_positions
        assert order is not None
        for lo, hi in slices:
            for p in order[lo:hi]:
                if has_dead and not alive[p]:
                    continue
                dx = xs[p] - wx
                dy = ys[p] - wy
                if dx * dx + dy * dy <= r2 and scalar_eligible(worker, p):
                    return True
        for p in range(self.spill_start, self.num_tasks):
            if has_dead and not alive[p]:
                continue
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
    ) -> List[Task]:
        """The worker's best-``k`` assignable tasks, in assignment order.

        ``mode`` picks the score (see :data:`TOPK_MODES`); ``need``
        supplies the per-position remaining need ``delta - S[t]`` for the
        ``gain`` and ``need`` modes.  The order is largest scalar score
        first, ties broken towards the lower-id task.  Finished tasks are
        excluded by retiring them (:meth:`retire_tasks`).
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
            positions = self._scalar_eligible(worker, radius, slices, None, True)
            picked = self._rescore_topk(worker, positions, k, mode, need)
        tasks = self.tasks
        return [tasks[position] for position in picked]

    def topk_acc_star(self, worker: Worker, k: int) -> List[Task]:
        """LAF's selection: the ``k`` open tasks of largest ``Acc*``."""
        return self.topk(worker, k, "acc_star")

    def candidate_counts(self) -> Dict[int, int]:
        """Eligible-worker counts per task id (posting order).

        Iterates the snapshot's own posting order (the base instance's
        task order followed by dynamically added tasks), so tasks added
        after construction are counted too; retired tasks count 0.  Each
        worker contributes its unordered pool — nothing is sorted.
        """
        counts = [0] * self.num_tasks
        for worker in self.instance.workers:
            for position in self.eligible_positions(worker, ordered=False):
                counts[position] += 1
        task_ids = self.task_ids
        return {task_ids[position]: counts[position] for position in self.instance_positions}

    def make_allowed_mask(self, allowed_ids: AbstractSet[int]) -> List[bool]:
        """A per-position mask for an id restriction set (unknown ids ignored)."""
        mask = [False] * self.num_tasks
        position_of = self.position_of
        for task_id in allowed_ids:
            position = position_of.get(task_id)
            if position is not None:
                mask[position] = True
        return mask
