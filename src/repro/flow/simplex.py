"""Primal network simplex for MCF-LTC's batch network, with a certificate.

:func:`network_simplex` solves the same min-cost max-flow as
:func:`repro.flow.kernel.solve_mcf` on the layered LTC batch network
(``source -> workers -> tasks -> sink``, unit worker -> task arcs), but
moves whole paths of flow per pivot instead of one unit per Dijkstra.  It
reads the network as flat arrays (:class:`BatchNetwork`), not as an
arena, and reports the pairs its flow uses only when that flow is
provably the unique optimum:

* **Exact integer costs.** Every float is a dyadic rational, so one power
  of two turns all of a batch's costs into integers without rounding
  (:func:`_integer_costs`, once per network).  Potentials, pivots and the
  certificate work on those integers: an arc enters only if its reduced
  cost is negative, the simplex stops at the exact optimum of the float
  costs, and only an exactly cost-equal second optimum fails the
  certificate.
* **Max flow first.** A return arc ``sink -> source`` of unbounded
  capacity turns the problem into a min-cost circulation.  Its cost is
  lexicographic — primary ``-1``, secondary ``0`` — so every extra unit
  of flow beats any cost difference.
* **A greedy start, no artificial root.** Arcs of zero capacity and the
  workers and tasks they strand are pruned.  The worker -> task arcs then
  route one unit each, cheapest first, while both ends have capacity
  left, and the first tree is built around that flow, rooted at the sink
  (:func:`_greedy_start`).  Every tree arc can carry more flow toward the
  root, so the tree is strongly feasible, and the leaving-arc rule (last
  blocking arc after the apex) keeps it so: no cycling under degeneracy.
* **Candidate-list pricing.** A *major pass* (:func:`_major_pass`) prices
  every arc at once in float64 numpy arrays and keeps the
  :data:`CANDIDATES` most violating arcs, most violating first.  Before
  each pivot the return arc and then those candidates are re-priced in
  integers, and the first one still violating enters; when none is left,
  the next major pass runs.  The float pass only ranks: an arc whose
  float reduced cost lies within its rounding-error bound of zero is
  priced in integers there, so the simplex stops exactly when no arc
  prices negative.

**The uniqueness certificate.**  Among equal-cost optimal flows the SSPA's
tie-breaking decides which one MCF-LTC applies, and the simplex may pick
another.  So the simplex result is used only when the optimum is unique,
that is when no residual cycle has reduced cost exactly zero.  The last
major pass lists the non-tree arcs that price exactly zero (*ties*); with
none, the optimum is unique.  Otherwise tree arcs strictly between their
bounds are contracted (they are residual both ways), and the remaining
tree arcs in their residual direction plus the ties in theirs form a
directed graph in which any zero-cost cycle passes a tie.  If it is
acyclic, the optimum is unique (:func:`_unique`).

When the certificate fails, :func:`network_simplex` returns ``None``, and
the caller re-solves :meth:`BatchNetwork.to_arena` with the SSPA.  That
happens only on an exact tie between two optima, such as the repeated
accuracies of the paper's Table I; near-ties of the sigmoid accuracy
model, however close, are decided exactly (``docs/flow_kernel.md``,
"Exact costs").
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.flow.kernel import ArcArena

#: How many entering-arc candidates a major pass keeps.  Chosen by a
#: sweep on the e2e ``paper_dense`` and ``paper_sparse`` instances
#: (``docs/flow_kernel.md``, "Candidate-list pricing").
CANDIDATES = 96

_INF = math.inf
_SOURCE = 0
_SINK = 1


class BatchNetwork:
    """One MCF-LTC batch network as flat arrays.

    The source (node 0) feeds worker ``k`` (node ``2 + len(task_cap) + k``)
    up to ``worker_cap[k]`` units; task ``i`` (node ``2 + i``) drains up to
    ``task_cap[i]`` units into the sink (node 1); pair ``j`` is a unit arc
    from worker ``pair_worker[j]`` to task ``pair_task[j]`` costing
    ``costs[j]``.  Pairs come grouped by worker, workers ascending.  That
    is the arena MCF-LTC's reduction lays out (:meth:`to_arena`), in the
    same arc order: the task -> sink arcs, then each worker's source arc
    followed by its pairs.

    The costs are scaled to exact integers once, here (``scaled``, see
    :func:`_integer_costs`).  ``ValueError`` if they have no common
    integer scale, or if the arrays describe no such network.
    """

    __slots__ = ("task_cap", "worker_cap", "pair_worker", "pair_task",
                 "costs", "scaled")

    def __init__(
        self,
        task_cap: Sequence[int],
        worker_cap: Sequence[int],
        pair_worker,
        pair_task,
        costs,
    ) -> None:
        self.task_cap = list(task_cap)
        self.worker_cap = list(worker_cap)
        self.pair_worker = np.asarray(pair_worker, dtype=np.int64)
        self.pair_task = np.asarray(pair_task, dtype=np.int64)
        self.costs = np.asarray(costs, dtype=np.float64)
        pairs = len(self.costs)
        if not len(self.pair_worker) == len(self.pair_task) == pairs:
            raise ValueError("every pair needs a worker, a task and a cost")
        if min(self.task_cap + self.worker_cap, default=0) < 0:
            raise ValueError("capacities must be non-negative")
        if pairs and (
            self.pair_worker[0] < 0
            or self.pair_worker[-1] >= len(self.worker_cap)
            or (np.diff(self.pair_worker) < 0).any()
            or self.pair_task.min() < 0
            or self.pair_task.max() >= len(self.task_cap)
        ):
            raise ValueError(
                "pairs must name known workers and tasks, grouped by "
                "worker in ascending order"
            )
        self.scaled = _integer_costs(self.costs)

    @property
    def num_arcs(self) -> int:
        """Arcs of :meth:`to_arena`'s arena, residual twins included."""
        return 2 * (len(self.task_cap) + len(self.worker_cap) + len(self.costs))

    def to_arena(self) -> Tuple[ArcArena, List[int], List[int]]:
        """The network as an arena at zero flow, for the SSPA.

        Returns ``(arena, order, pair_arcs)``: ``order`` is the zero-flow
        DAG's topological order (source, workers, tasks, sink) that
        :func:`~repro.flow.kernel.dag_potentials` takes, and
        ``pair_arcs[j]`` the arena arc of pair ``j``.
        """
        num_tasks = len(self.task_cap)
        arena = ArcArena(2 + num_tasks)
        for i, cap in enumerate(self.task_cap):
            arena.add_arc(2 + i, _SINK, cap, 0.0)
        pair_worker = self.pair_worker.tolist()
        pair_task = self.pair_task.tolist()
        costs = self.costs.tolist()
        worker_nodes = []
        pair_arcs = []
        j = 0
        for k, cap in enumerate(self.worker_cap):
            node = arena.add_node()
            worker_nodes.append(node)
            arena.add_arc(_SOURCE, node, cap, 0.0)
            while j < len(costs) and pair_worker[j] == k:
                pair_arcs.append(arena.add_arc(node, 2 + pair_task[j], 1, costs[j]))
                j += 1
        order = [_SOURCE, *worker_nodes, *range(2, 2 + num_tasks), _SINK]
        return arena, order, pair_arcs


class SimplexFlow(NamedTuple):
    """A certified optimum, as :func:`network_simplex` returns it."""

    #: Units routed from the source to the sink.
    flow_value: int
    #: Pivots from the greedy start.
    augmentations: int
    #: The pairs that carry a unit, ascending.
    routed: List[int]


def network_simplex(network: BatchNetwork) -> Optional[SimplexFlow]:
    """Min-cost max-flow by network simplex, or ``None`` if not unique.

    On success the result names the pairs of the unique optimal flow and
    counts pivots as ``augmentations``.
    """
    basis = _optimal_basis(network)
    if basis is None:
        return SimplexFlow(0, 0, [])
    x = basis.x
    if basis.ties and not _unique(basis.edge, basis.S, basis.T, basis.U, x,
                                  basis.ties, len(basis.edge)):
        return None
    units = np.array(x, dtype=np.int64)[basis.pair_local]
    return SimplexFlow(x[-1], basis.pivots, basis.kept[units > 0].tolist())


class _Basis(NamedTuple):
    """An optimal basis, as :func:`_optimal_basis` leaves it.

    Local arc ``j`` runs ``S[j] -> T[j]`` with capacity ``U[j]``, integer
    cost ``C[j]`` and flow ``x[j]``; the last one is the return arc.
    Pair ``kept[i]`` is local arc ``pair_local[i]``.  ``edge[v]`` is node
    ``v``'s parent arc in the tree (``-1`` for the root and pruned nodes),
    and ``P1``/``P2`` price every tree arc at exactly zero.  ``ties``
    lists the non-tree arcs that price exactly zero.
    """

    kept: np.ndarray
    pair_local: np.ndarray
    S: List[int]
    T: List[int]
    U: list
    C: List[int]
    x: List[int]
    edge: List[int]
    P1: List[int]
    P2: List[int]
    ties: List[int]
    pivots: int


def _optimal_basis(network: BatchNetwork) -> Optional[_Basis]:
    """Pivot from the greedy start to an optimal basis.

    ``None`` when the max flow is zero (nothing to route).
    """
    start = _greedy_start(network)
    if start is None:
        return None
    S, T, U, C, x, parent, edge = start.S, start.T, start.U, start.C, start.x, \
        start.parent, start.edge
    source, sink = _SOURCE, _SINK
    n = len(parent)
    ret = len(x) - 1  # the return arc sink -> source

    pre, size, nxt, prv, last = _thread(parent, sink)
    P1, P2 = _potentials(pre, parent, edge, S, C, ret, n)

    # The major pass's arrays.  ``sign[j]`` is -1 when arc j carries flow:
    # a non-tree arc then sits at its upper bound and prices negated.
    # Only the leaving arc of a pivot can change it.
    sign = start.sign
    cost_max = float(np.abs(start.scaled).max())
    arrays = (start.S_array, start.T_array, start.scaled, sign, cost_max)

    candidates: List[int] = []
    ties: List[int] = []
    position = 0
    pivots = 0
    while True:
        # The return arc first, then the candidates in order: the first
        # arc whose exact reduced cost is still lexicographically
        # negative, primary (flow value) before secondary (cost), enters.
        k = P1[source] - P1[sink] - 1
        if k < 0 or (k == 0 and P2[source] < P2[sink]):
            i = ret
        else:
            i = -1
            while position < len(candidates):
                j = candidates[position]
                position += 1
                s = S[j]
                t = T[j]
                k = P1[t] - P1[s]
                c = C[j] - P2[s] + P2[t]
                if x[j]:
                    k = -k
                    c = -c
                if k < 0 or (k == 0 and c < 0):
                    i = j
                    break
            if i < 0:
                candidates, ties = _major_pass(P1, P2, S, T, C, x, edge, arrays)
                position = 0
                if not candidates:
                    break
                continue
        pivots += 1
        if x[i]:
            p, q = T[i], S[i]
        else:
            p, q = S[i], T[i]

        # The pivot cycle runs apex -> ... -> p -> q -> ... -> apex.
        w = _apex(p, q, parent, size)
        delta, j_out, s_out, p_side = _leaving_arc(i, p, q, w, S, U, x,
                                                   parent, edge)
        if delta:
            v = p
            while v != w:
                j = edge[v]
                u = parent[v]
                if S[j] == u:
                    x[j] += delta
                else:
                    x[j] -= delta
                v = u
            if S[i] == p:
                x[i] += delta
            else:
                x[i] -= delta
            v = q
            while v != w:
                j = edge[v]
                if S[j] == v:
                    x[j] += delta
                else:
                    x[j] -= delta
                v = parent[v]
        sign[j_out] = -1.0 if x[j_out] else 1.0
        if j_out == i:
            continue
        t_out = T[j_out] if S[j_out] == s_out else S[j_out]
        if parent[t_out] != s_out:
            s_out, t_out = t_out, s_out
        if p_side:
            # The leaving arc lies on the apex -> p side, so the subtree
            # cut off contains p: re-enter it through p.
            p, q = q, p

        # Cut the subtree under t_out out of the thread and its ancestors.
        size_t = size[t_out]
        prev_t = prv[t_out]
        last_t = last[t_out]
        after = nxt[last_t]
        parent[t_out] = -1
        edge[t_out] = -1
        nxt[prev_t] = after
        prv[after] = prev_t
        nxt[last_t] = t_out
        prv[t_out] = last_t
        v = s_out
        while v != -1:
            size[v] -= size_t
            if last[v] == last_t:
                last[v] = prev_t
            v = parent[v]

        # Re-root the cut subtree at q.
        path = []
        v = q
        while v != -1:
            path.append(v)
            v = parent[v]
        path.reverse()
        for a, b in zip(path, path[1:]):
            size_a = size[a]
            last_a = last[a]
            prev_b = prv[b]
            last_b = last[b]
            after = nxt[last_b]
            parent[a] = b
            parent[b] = -1
            edge[a] = edge[b]
            edge[b] = -1
            size[a] = size_a - size[b]
            size[b] = size_a
            nxt[prev_b] = after
            prv[after] = prev_b
            nxt[last_b] = b
            prv[b] = last_b
            if last_a == last_b:
                last[a] = prev_b
                last_a = prev_b
            prv[a] = last_b
            nxt[last_b] = a
            nxt[last_a] = b
            prv[b] = last_a
            last[b] = last_a

        # Hang it under p by the entering arc.
        last_p = last[p]
        after = nxt[last_p]
        size_q = size[q]
        last_q = last[q]
        parent[q] = p
        edge[q] = i
        nxt[last_p] = q
        prv[q] = last_p
        prv[after] = last_q
        nxt[last_q] = after
        v = p
        while v != -1:
            size[v] += size_q
            if last[v] == last_p:
                last[v] = last_q
            v = parent[v]

        # Shift the subtree's potentials so the entering arc prices at 0.
        c1 = -1 if i == ret else 0
        if q == T[i]:
            d1 = P1[p] - c1 - P1[q]
            d2 = P2[p] - C[i] - P2[q]
        else:
            d1 = P1[p] + c1 - P1[q]
            d2 = P2[p] + C[i] - P2[q]
        v = q
        while True:
            P1[v] += d1
            P2[v] += d2
            if v == last_q:
                break
            v = nxt[v]

    return _Basis(start.kept, start.pair_local, S, T, U, C, x, edge, P1, P2,
                  ties, pivots)


def _thread(parent: List[int], root: int):
    """The tree's bookkeeping: ``(pre, size, nxt, prv, last)``.

    ``pre`` lists the nodes under ``root`` in preorder (children by
    ascending id); per node, ``size`` is its subtree's size, ``nxt`` and
    ``prv`` link the circular preorder thread, and ``last`` is its
    subtree's last node in that thread.
    """
    n = len(parent)
    children: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    pre: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(reversed(children[v]))
    size = [1] * n
    for v in reversed(pre):
        if v != root:
            size[parent[v]] += size[v]
    nxt = [-1] * n
    prv = [-1] * n
    last = [-1] * n
    for i, v in enumerate(pre):
        nxt[v] = pre[(i + 1) % len(pre)]
        prv[nxt[v]] = v
        last[v] = pre[i + size[v] - 1]
    return pre, size, nxt, prv, last


def _leaving_arc(i, p, q, w, S, U, x, parent, edge):
    """The leaving arc of the pivot entering ``i`` from ``p`` to ``q``.

    The cycle runs ``w -> ... -> p``, over ``i`` to ``q``, then
    ``q -> ... -> w`` with ``w`` the apex; the leaving arc is its last
    arc of least residual capacity in that order.  Walking up from ``p``
    visits the first side in reverse, so a tie there keeps the arc found
    first; the entering arc and the walk up from ``q`` follow the cycle's
    order, so a tie moves on to the later arc.  Returns ``(delta, arc,
    node, p_side)``: the residual capacity, the leaving arc, the node the
    flow leaves along it, and whether it lies on the ``w -> p`` side.
    """
    delta = _INF
    leave = out = -1
    v = p
    while v != w:
        j = edge[v]
        u = parent[v]
        r = U[j] - x[j] if S[j] == u else x[j]
        if r < delta:
            delta = r
            leave = j
            out = u
        v = u
    p_side = leave >= 0
    r = U[i] - x[i] if S[i] == p else x[i]
    if r <= delta:
        delta = r
        leave = i
        out = p
        p_side = False
    v = q
    while v != w:
        j = edge[v]
        r = U[j] - x[j] if S[j] == v else x[j]
        if r <= delta:
            delta = r
            leave = j
            out = v
            p_side = False
        v = parent[v]
    return delta, leave, out, p_side


def _integer_costs(costs) -> np.ndarray:
    """The costs scaled by one power of two to exact integers.

    A nonzero float is ``m * 2**(e - 53)`` with an integer mantissa ``m``
    and ``e`` its :func:`math.frexp` exponent, so scaling by ``2**shift``
    with ``shift = 53 - min(e)`` over the costs makes every one an
    integer, and scaling by a power of two rounds nothing.  For ``-Acc*``
    in ``[-1, -0.1024]`` that is ``2**56``.  Returns them as a float64
    array holding those integers exactly.  ``ValueError`` if a cost is
    not finite, or if a scaled cost would reach ``2**960``, where sums of
    them (the potentials) could overflow a float.
    """
    values = np.asarray(costs, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("network_simplex needs finite costs")
    nonzero = values[values != 0]
    shift = 0
    if nonzero.size:
        exponents = np.frexp(nonzero)[1]
        shift = max(0, 53 - int(exponents.min()))
        if int(exponents.max()) + shift > 960:
            raise ValueError("network_simplex needs costs within 900 binades")
    return np.ldexp(values, shift)


class _Start(NamedTuple):
    """The first basis, as :func:`_greedy_start` builds it (see there)."""

    kept: np.ndarray
    pair_local: np.ndarray
    S: List[int]
    T: List[int]
    U: list
    C: List[int]
    x: List[int]
    S_array: np.ndarray
    T_array: np.ndarray
    scaled: np.ndarray
    sign: np.ndarray
    parent: List[int]
    edge: List[int]


def _greedy_start(network: BatchNetwork) -> Optional[_Start]:
    """The first basis: a greedy flow on a strongly feasible tree.

    Pruned are the pairs whose worker or task has capacity 0, and the
    workers and tasks left with no pair.  The kept pairs route one unit
    each, in ascending ``(cost, pair)`` order, while the worker has
    source capacity and the task sink capacity left.  Nothing routes
    exactly when no pair is kept, that is when the max flow is 0; then
    the result is ``None``.

    Otherwise the local arcs are the kept arena arcs in arena order —
    the kept tasks' sink arcs, then each kept worker's source arc and its
    kept pairs — and then the return arc ``sink -> source``.  The start
    holds the kept pairs and their local arcs; each local arc's ends,
    capacity, integer cost (as ints and as float64) and flow; the major
    pass's sign per arc (-1 where it carries flow); and each node's
    parent and parent arc (a local index) in a tree rooted at the sink,
    ``-1`` for the sink and pruned nodes.  The source hangs under the
    sink by the return arc, loaded workers under the source, tasks with
    room under the sink, full tasks under their first assigned worker
    and unloaded workers under their first kept task.  Every tree arc can
    carry more flow toward the sink, so the tree is strongly feasible,
    and every non-tree arc sits at a bound.
    """
    num_tasks = len(network.task_cap)
    pair_worker, pair_task = network.pair_worker, network.pair_task
    task_cap = np.array(network.task_cap, dtype=np.int64)
    worker_cap = np.array(network.worker_cap, dtype=np.int64)
    kept = np.flatnonzero((worker_cap[pair_worker] > 0) & (task_cap[pair_task] > 0))
    if not kept.size:
        return None

    room_w = list(network.worker_cap)
    room_t = list(network.task_cap)
    routed = np.zeros(len(pair_worker), dtype=np.int64)
    first_in = [-1] * num_tasks  # each task's first routed pair
    total = 0
    order = kept[np.argsort(network.scaled[kept], kind="stable")]
    for j, w, t in zip(order.tolist(), pair_worker[order].tolist(),
                       pair_task[order].tolist()):
        if room_w[w] and room_t[t]:
            room_w[w] -= 1
            room_t[t] -= 1
            routed[j] = 1
            total += 1
            if first_in[t] < 0:
                first_in[t] = j

    # Local arcs: each kept worker's source arc sits just before its
    # first kept pair.
    kept_w, kept_t = pair_worker[kept], pair_task[kept]
    workers, first = np.unique(kept_w, return_index=True)
    tasks = np.flatnonzero(np.bincount(kept_t, minlength=num_tasks))
    nt, nw, nk = len(tasks), len(workers), len(kept)
    ret = nt + nw + nk
    rank = np.repeat(np.arange(nw), np.diff(np.append(first, nk)))
    pair_local = nt + 1 + rank + np.arange(nk)
    source_local = nt + np.arange(nw) + first
    worker_nodes = 2 + num_tasks + workers
    room_w = np.array(room_w, dtype=np.int64)
    room_t = np.array(room_t, dtype=np.int64)

    S = np.empty(ret + 1, dtype=np.int64)
    T = np.empty(ret + 1, dtype=np.int64)
    U = np.empty(ret + 1, dtype=np.int64)
    x = np.empty(ret + 1, dtype=np.int64)
    S[:nt], T[:nt], U[:nt] = 2 + tasks, _SINK, task_cap[tasks]
    x[:nt] = U[:nt] - room_t[tasks]
    S[source_local], T[source_local] = _SOURCE, worker_nodes
    U[source_local] = worker_cap[workers]
    x[source_local] = worker_cap[workers] - room_w[workers]
    S[pair_local], T[pair_local], U[pair_local] = 2 + num_tasks + kept_w, 2 + kept_t, 1
    x[pair_local] = routed[kept]
    S[ret], T[ret], U[ret], x[ret] = _SINK, _SOURCE, 0, total
    scaled = np.zeros(ret + 1)
    scaled[pair_local] = network.scaled[kept]

    n = 2 + num_tasks + len(network.worker_cap)
    parent = np.full(n, -1, dtype=np.int64)
    edge = np.full(n, -1, dtype=np.int64)
    parent[_SOURCE], edge[_SOURCE] = _SINK, ret
    loaded = room_w[workers] < worker_cap[workers]
    parent[worker_nodes] = np.where(loaded, _SOURCE, 2 + kept_t[first])
    edge[worker_nodes] = np.where(loaded, source_local, pair_local[first])
    full = room_t[tasks] == 0
    feeder = np.array(first_in, dtype=np.int64)[tasks]
    parent[2 + tasks] = np.where(full, 2 + num_tasks + pair_worker[feeder], _SINK)
    edge[2 + tasks] = np.where(
        full, pair_local[np.searchsorted(kept, feeder)], np.arange(nt)
    )

    U_list = U.tolist()
    U_list[ret] = _INF
    return _Start(
        kept, pair_local, S.tolist(), T.tolist(), U_list,
        [int(c) for c in scaled.tolist()], x.tolist(), S, T, scaled,
        np.where(x > 0, -1.0, 1.0), parent.tolist(), edge.tolist(),
    )


def _major_pass(P1, P2, S, T, C, x, edge, arrays):
    """Price every arc at once: ``(candidates, ties)``.

    ``candidates`` lists up to :data:`CANDIDATES` arcs whose exact reduced
    cost is lexicographically negative, most violating first.  When there
    are none the flow is optimal, and ``ties`` lists the non-tree arcs
    whose exact reduced cost is zero; otherwise ``ties`` is empty.

    Both parts of each reduced cost go into one float64 key: the primary
    part times ``big``, a power of two above four times every secondary
    one, plus the secondary part.  The costs are exact in float64 (scaled
    integers), and the potentials and the two operations round once
    each, so a key is off by at most ``12 * 2**-53 * big``, under half of
    ``band``.  An arc keyed below ``-band`` is therefore violating, one
    above ``band`` is not, and only the arcs in between are priced in
    integers, and only when no arc is certainly violating.
    """
    S_a, T_a, costs, sign, cost_max = arrays
    P2_f = np.array(P2, dtype=np.float64)
    big = 2.0 ** (math.frexp(cost_max + float(np.abs(P2_f).max()))[1] + 2)
    band = 2.0 ** -48 * big
    costs[-1] = -big  # the return arc: primary cost -1, secondary 0
    # P1 is 1 on the nodes hanging below the return arc, 0 elsewhere.
    P = P2_f + big * np.frombuffer(bytes(P1), dtype=np.int8)
    key = ((costs - P[S_a]) + P[T_a]) * sign
    violating = np.flatnonzero(key < -band)
    if violating.size:
        keys = key[violating]
        if violating.size > CANDIDATES:
            keep = np.argpartition(keys, CANDIDATES - 1)[:CANDIDATES]
            violating = violating[keep]
            keys = keys[keep]
        return violating[np.argsort(keys, kind="stable")].tolist(), []

    near = np.abs(key) <= band
    near[[j for j in edge if j >= 0]] = False  # tree arcs price exactly 0
    candidates = []
    ties = []
    for j in np.flatnonzero(near).tolist():
        reduced = C[j] - P2[S[j]] + P2[T[j]]
        if x[j]:
            reduced = -reduced
        if reduced < 0:
            candidates.append(j)
        elif reduced == 0:
            ties.append(j)
    if candidates:
        return candidates, []
    return candidates, ties


def _apex(p: int, q: int, parent: List[int], size: List[int]) -> int:
    """The deepest common ancestor of ``p`` and ``q`` (by subtree sizes)."""
    size_p, size_q = size[p], size[q]
    while True:
        while size_p < size_q:
            p = parent[p]
            size_p = size[p]
        while size_p > size_q:
            q = parent[q]
            size_q = size[q]
        if size_p == size_q:
            if p == q:
                return p
            p = parent[p]
            size_p = size[p]
            q = parent[q]
            size_q = size[q]


def _potentials(pre, parent, edge, S, C, ret, n):
    """Node potentials that price every tree arc at exactly zero.

    Reduced costs are ``c - P[S] + P[T]``; ``P1`` is the primary
    component (only the return arc costs ``-1``), ``P2`` the secondary,
    in the integer costs ``C``.  ``pre`` lists the tree in preorder from
    the root.
    """
    P1 = [0] * n
    P2 = [0] * n
    for v in pre[1:]:
        j = edge[v]
        p = parent[v]
        c1 = -1 if j == ret else 0
        if S[j] == v:
            P1[v] = c1 + P1[p]
            P2[v] = C[j] + P2[p]
        else:
            P1[v] = P1[p] - c1
            P2[v] = P2[p] - C[j]
    return P1, P2


def _unique(edge, S, T, U, x, ties, n) -> bool:
    """Whether no residual cycle of zero reduced cost exists (module docs).

    Such a cycle runs only over tree arcs and ``ties``, the non-tree arcs
    that price exactly zero.  Contract the tree arcs residual both ways,
    then look for a directed cycle among the rest of the tree and the
    ties, each in its residual direction.
    """
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    directed = []
    for j in edge:
        if j < 0:
            continue
        if 0 < x[j] < U[j]:
            root[find(S[j])] = find(T[j])
        else:
            directed.append(j)
    successors: dict = {}
    indegree: dict = {}
    for j in directed + ties:
        a, b = (S[j], T[j]) if x[j] == 0 else (T[j], S[j])
        a, b = find(a), find(b)
        if a == b:
            return False
        successors.setdefault(a, []).append(b)
        indegree[b] = indegree.get(b, 0) + 1
        indegree.setdefault(a, 0)
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in successors.get(v, ()):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen == len(indegree)
