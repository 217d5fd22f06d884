"""Primal network simplex for MCF-LTC's batch network, with a certificate.

:func:`network_simplex` solves the same min-cost max-flow as
:func:`repro.flow.kernel.solve_mcf` on the layered LTC batch network
(``source -> workers -> tasks -> sink``, unit worker -> task arcs), but
moves whole paths of flow per pivot instead of one unit per Dijkstra.  It
keeps its own parallel arrays and touches the arena only to write the
final flow, and only when that flow is provably the unique optimum:

* **Exact integer costs.** Every float is a dyadic rational, so one power
  of two turns all of a batch's costs into integers without rounding
  (:func:`_integer_costs`).  Potentials, pivots and the certificate work
  on those integers: an arc enters only if its reduced cost is negative,
  the simplex stops at the exact optimum of the float costs, and only an
  exactly cost-equal second optimum fails the certificate.
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

When the certificate fails, :func:`network_simplex` returns ``None`` and
leaves the arena at zero flow, and the caller re-solves with the SSPA.
That happens only on an exact tie between two optima, such as the
repeated accuracies of the paper's Table I; near-ties of the sigmoid
accuracy model, however close, are decided exactly
(``docs/flow_kernel.md``, "Exact costs").
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

import numpy as np

from repro.flow.kernel import ArcArena, KernelFlowResult

#: How many entering-arc candidates a major pass keeps.  Chosen by a
#: sweep on the e2e ``paper_dense`` and ``paper_sparse`` instances
#: (``docs/flow_kernel.md``, "Candidate-list pricing").
CANDIDATES = 96

_INF = math.inf


def network_simplex(
    graph: ArcArena, source: int, sink: int
) -> Optional[KernelFlowResult]:
    """Min-cost max-flow by network simplex, or ``None`` if not unique.

    The arena must hold a layered batch network at zero flow (the layout
    :func:`_greedy_start` checks; ``ValueError`` otherwise).  On success
    the arena holds the unique optimal flow (twins in lockstep) and the
    result counts pivots as ``augmentations``.
    On ``None`` the arena is untouched.
    """
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= sink < n) or source == sink:
        raise ValueError("source and sink must be distinct nodes of the graph")
    if any(graph.flow):
        raise ValueError("network_simplex needs an arena at zero flow")
    basis = _optimal_basis(graph, source, sink)
    if basis is None:
        return KernelFlowResult(flow_value=0, augmentations=0)
    x = basis.x
    if basis.ties and not _unique(basis.edge, basis.S, basis.T, basis.U, x,
                                  basis.ties, n):
        return None
    flow = graph.flow
    for j, a in enumerate(basis.arcs):
        if x[j]:
            flow[a] = x[j]
            flow[a ^ 1] = -x[j]
    return KernelFlowResult(flow_value=x[-1], augmentations=basis.pivots)


class _Basis(NamedTuple):
    """An optimal basis, as :func:`_optimal_basis` leaves it.

    Local arc ``j`` runs ``S[j] -> T[j]`` with capacity ``U[j]``, integer
    cost ``C[j]`` and flow ``x[j]``; the last one is the return arc.
    ``arcs`` maps the others to arena arcs.  ``edge[v]`` is node ``v``'s
    parent arc in the tree (``-1`` for the root and pruned nodes), and
    ``P1``/``P2`` price every tree arc at exactly zero.  ``ties`` lists the
    non-tree arcs that price exactly zero.
    """

    arcs: List[int]
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


def _optimal_basis(graph: ArcArena, source: int, sink: int) -> Optional[_Basis]:
    """Pivot from the greedy start to an optimal basis.

    ``None`` when the max flow is zero (nothing to route).
    """
    head = graph.head
    n = graph.num_nodes
    start = _greedy_start(graph, source, sink)
    if start is None:
        return None
    arcs, x, parent, edge = start
    ret = len(arcs)  # the return arc sink -> source
    S = [head[a ^ 1] for a in arcs]
    T = [head[a] for a in arcs]
    U: list = [graph.cap[a] for a in arcs]
    cost = graph.cost
    C, scaled = _integer_costs([cost[a] for a in arcs] + [0.0])
    S.append(sink)
    T.append(source)
    U.append(_INF)

    # Tree: parent, parent arc, subtree size, circular preorder thread
    # (nxt/prv) and each subtree's last node in that thread.
    children: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    pre: List[int] = []
    stack = [sink]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack.extend(reversed(children[v]))
    size = [1] * n
    for v in reversed(pre):
        if v != sink:
            size[parent[v]] += size[v]
    nxt = [-1] * n
    prv = [-1] * n
    last = [-1] * n
    for i, v in enumerate(pre):
        nxt[v] = pre[(i + 1) % len(pre)]
        prv[nxt[v]] = v
        last[v] = pre[i + size[v] - 1]
    P1, P2 = _potentials(pre, parent, edge, S, C, ret, n)

    # The major pass's arrays.  ``sign[j]`` is -1 when arc j carries flow:
    # a non-tree arc then sits at its upper bound and prices negated.
    # Only the leaving arc of a pivot can change it.
    sign = np.array([-1.0 if units else 1.0 for units in x])
    cost_max = float(np.abs(scaled).max())
    arrays = (np.array(S), np.array(T), scaled, sign, cost_max)

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

        # The pivot cycle: apex -> ... -> p -> q -> ... -> apex, as
        # (arc, node the flow leaves along that arc) pairs.
        w = _apex(p, q, parent, size)
        down = []
        v = p
        while v != w:
            down.append((edge[v], parent[v]))
            v = parent[v]
        down.reverse()
        entering = len(down)
        cycle = down
        cycle.append((i, p))
        v = q
        while v != w:
            cycle.append((edge[v], v))
            v = parent[v]

        # Leaving arc: the last blocking arc after the apex.
        delta = _INF
        leave = -1
        for index, (j, v) in enumerate(cycle):
            r = U[j] - x[j] if S[j] == v else x[j]
            if r <= delta:
                delta = r
                leave = index
        j_out, s_out = cycle[leave]
        if delta:
            for j, v in cycle:
                if S[j] == v:
                    x[j] += delta
                else:
                    x[j] -= delta
        sign[j_out] = -1.0 if x[j_out] else 1.0
        if j_out == i:
            continue
        t_out = T[j_out] if S[j_out] == s_out else S[j_out]
        if parent[t_out] != s_out:
            s_out, t_out = t_out, s_out
        if leave < entering:
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

    return _Basis(arcs, S, T, U, C, x, edge, P1, P2, ties, pivots)


def _integer_costs(costs: List[float]):
    """The costs scaled by one power of two to exact integers.

    A nonzero float is ``m * 2**(e - 53)`` with an integer mantissa ``m``
    and ``e`` its :func:`math.frexp` exponent, so scaling by ``2**shift``
    with ``shift = 53 - min(e)`` over the costs makes every one an
    integer, and scaling by a power of two rounds nothing.  For ``-Acc*``
    in ``[-1, -0.1024]`` that is ``2**56``.  Returns the integers as a
    list of Python ints, for exact arithmetic, and as a float64 array
    holding the same values, for the major pass.  ``ValueError`` if a
    cost is not finite, or if a scaled cost would reach ``2**960``, where
    sums of them (the potentials) could overflow a float.
    """
    values = np.array(costs, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("network_simplex needs finite costs")
    nonzero = values[values != 0]
    shift = 0
    if nonzero.size:
        exponents = np.frexp(nonzero)[1]
        shift = max(0, 53 - int(exponents.min()))
        if int(exponents.max()) + shift > 960:
            raise ValueError("network_simplex needs costs within 900 binades")
    scaled = np.ldexp(values, shift)
    return [int(v) for v in scaled.tolist()], scaled


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


def _greedy_start(graph: ArcArena, source: int, sink: int):
    """The first basis: a greedy flow on a strongly feasible tree.

    The arena must be a layered batch network, or ``ValueError`` is
    raised: one arc from ``source`` into each *worker*, one arc from each
    *task* into ``sink``, no node both, and every other arc from a worker
    to a task with capacity at most 1.  Pruned are the arcs of capacity
    0, the worker -> task arcs whose worker or task has capacity 0, and
    the workers and tasks left with no worker -> task arc.

    The kept worker -> task arcs route one unit each, in ascending
    ``(cost, arc id)`` order, while the worker has source capacity and
    the task sink capacity left.  Nothing routes exactly when no arc is
    kept, that is when the max flow is 0; then the result is ``None``.
    Otherwise it is ``(arcs, x, parent, edge)``: the kept arena arcs
    ascending; the flow on each of them, then on the return arc
    ``sink -> source`` (local index ``len(arcs)``); and each node's parent
    and parent arc (a local index) in a tree rooted at the sink, ``-1``
    for the sink and pruned nodes.  The source hangs under the sink by
    the return arc, loaded workers under the source, tasks with room
    under the sink, full tasks under their first assigned worker and
    unloaded workers under their first kept task.  Every tree arc can
    carry more flow toward the sink, so the tree is strongly feasible,
    and every non-tree arc sits at a bound.
    """
    head, cap = graph.head, graph.cap
    n = graph.num_nodes
    # Classify the layers; ``into`` is a worker's source arc or a task's
    # sink arc, ``room`` its capacity left.
    layer = bytearray(n)  # 1 worker, 2 task
    into = [-1] * n
    room = [0] * n
    middle = []
    for a in range(0, len(head), 2):
        s, t = head[a ^ 1], head[a]
        if s == source:
            v, kind = t, 1
        elif t == sink:
            v, kind = s, 2
        else:
            middle.append(a)
            continue
        if layer[v] or v == source or v == sink:
            raise ValueError("network_simplex needs a layered batch network")
        layer[v] = kind
        into[v] = a
        room[v] = cap[a]
    for a in middle:
        if layer[head[a ^ 1]] != 1 or layer[head[a]] != 2 or cap[a] > 1:
            raise ValueError("network_simplex needs a layered batch network")
    kept = [a for a in middle if cap[a] and room[head[a ^ 1]] and room[head[a]]]
    if not kept:
        return None

    total = 0
    routed = bytearray(len(head))
    first_in = [-1] * n  # each task's first routed arc
    for a in sorted(kept, key=graph.cost.__getitem__):
        w, t = head[a ^ 1], head[a]
        if room[w] and room[t]:
            room[w] -= 1
            room[t] -= 1
            routed[a] = 1
            total += 1
            if first_in[t] < 0:
                first_in[t] = a
    first_out = [-1] * n  # each kept worker's first kept arc
    nodes = {}
    for a in kept:
        w = head[a ^ 1]
        if first_out[w] < 0:
            first_out[w] = a
        nodes[w] = nodes[head[a]] = None
    arcs = sorted(kept + [into[v] for v in nodes])
    local = {a: j for j, a in enumerate(arcs)}
    x = []
    for a in arcs:
        s, t = head[a ^ 1], head[a]
        if s == source:
            x.append(cap[a] - room[t])
        elif t == sink:
            x.append(cap[a] - room[s])
        else:
            x.append(routed[a])
    x.append(total)

    parent = [-1] * n
    edge = [-1] * n
    parent[source] = sink
    edge[source] = len(arcs)
    for v in nodes:
        if layer[v] == 1:
            a = into[v] if room[v] < cap[into[v]] else first_out[v]
        else:
            a = into[v] if room[v] else first_in[v]
        parent[v] = head[a] if head[a] != v else head[a ^ 1]
        edge[v] = local[a]
    return arcs, x, parent, edge



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
