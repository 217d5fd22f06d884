"""Primal network simplex for MCF-LTC's batch network, with a certificate.

:func:`network_simplex` solves the same min-cost max-flow as
:func:`repro.flow.kernel.solve_mcf` on the layered LTC batch network
(``source -> workers -> tasks -> sink``, unit worker -> task arcs), but
moves whole paths of flow per pivot instead of one unit per Dijkstra.  It
keeps its own parallel arrays and touches the arena only to write the
final flow, and only when that flow is provably the unique optimum:

* **Max flow first.** A return arc ``sink -> source`` of unbounded
  capacity turns the problem into a min-cost circulation.  Its cost is
  lexicographic — integer primary ``-1``, float secondary ``0`` — so every
  extra unit of flow beats any cost difference without a big-M constant
  in the float potentials.
* **A greedy start, no artificial root.** Arcs of zero capacity and the
  workers and tasks they strand are pruned.  The worker -> task arcs then
  route one unit each, cheapest first, while both ends have capacity
  left, and the first tree is built around that flow, rooted at the sink
  (:func:`_greedy_start`).  Every tree arc can carry more flow toward the
  root, so the tree is strongly feasible, and the leaving-arc rule (last
  blocking arc after the apex) keeps it so: no cycling under degeneracy.
  Far fewer pivots remain than from zero flow: 6,145 instead of 15,413
  over the MCF-LTC batches of the e2e ``paper_sparse`` workload at its
  reference seed (``docs/flow_kernel.md``).
* **Block pricing**: blocks of ``ceil(sqrt(E))`` arcs, the most violating
  arc of a block enters.

**The uniqueness certificate.**  Among equal-cost optimal flows the SSPA's
tie-breaking decides which one MCF-LTC applies, and the simplex may pick
another.  So the simplex result is used only when the optimum is unique,
that is when no residual cycle has reduced cost within
:data:`UNIQUE_MARGIN` of zero:

1. potentials are recomputed from the final tree (so pivot drift does not
   enter), every non-tree arc must sit on its optimal side, and the arcs
   whose reduced cost is within the margin of zero are flagged;
2. tree arcs strictly between their bounds are contracted (they are
   residual both ways); the remaining tree arcs in their residual
   direction plus the flagged arcs in theirs form a directed graph in
   which any cycle passes a flagged arc.  If it is acyclic, the optimum
   is unique.

When the certificate fails, :func:`network_simplex` returns ``None`` and
leaves the arena at zero flow, and the caller re-solves with the SSPA.

**When it fails.**  A node choosing between out-arcs that cost within
the margin of each other is *indifferent* at the certificate's
resolution: any optimum in which that choice matters fails it.  Close to
a task the sigmoid accuracy saturates, so dense batches have many such
workers, yet most of their optima still certify.  Nothing predicts
failure up front: MCF-LTC runs the simplex on every batch and pays for
the SSPA only on a batch whose certificate fails
(``docs/flow_kernel.md``, "Every batch tries the simplex").
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.flow.kernel import ArcArena, KernelFlowResult

#: Reduced-cost margin of the uniqueness certificate.  A residual cycle
#: cheaper than this counts as a tie.  The SSPA's potentials drift by
#: about 1e-16 per augmentation (one rounding per float operation on
#: values of order 1), and an augmentation routes at least one unit, so
#: a batch of flow value F leaves the SSPA's flow optimal to within about
#: F * 1e-16; the simplex's recomputed potentials are exact to within a
#: few roundings.  The largest batch measured routes 1,000 units in the
#: ``figures`` suite (about 1e-13: 100x headroom) and 19,960 at the
#: paper's sizes (``fig3_tasks``, |T| = 5,000 at scale 1.0: about 2e-12,
#: only 5x headroom; ``docs/flow_kernel.md``).  An optimum unique by this
#: margin is the flow the SSPA finds too.
UNIQUE_MARGIN = 1e-11

#: An arc enters the tree only if its reduced cost is below ``-PIVOT_TOL``,
#: so float noise in drifted potentials never triggers a pivot.  Kept
#: below :data:`UNIQUE_MARGIN`, so an arc the pricing leaves out is either
#: on its optimal side or flagged by the certificate.
PIVOT_TOL = 1e-12

_INF = math.inf


def network_simplex(
    graph: ArcArena, source: int, sink: int
) -> Optional[KernelFlowResult]:
    """Min-cost max-flow by network simplex, or ``None`` if not unique.

    The arena must hold a layered batch network at zero flow (the layout
    :func:`_greedy_start` checks; ``ValueError`` otherwise).  On success
    the arena holds the unique optimal flow (twins in lockstep) and the
    result counts pivots as ``augmentations``; ``potentials`` is empty.
    On ``None`` the arena is untouched.
    """
    head = graph.head
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= sink < n) or source == sink:
        raise ValueError("source and sink must be distinct nodes of the graph")
    if any(graph.flow):
        raise ValueError("network_simplex needs an arena at zero flow")
    start = _greedy_start(graph, source, sink)
    if start is None:
        return KernelFlowResult(flow_value=0, total_cost=0.0, augmentations=0)
    arcs, x, parent, edge = start
    ret = len(arcs)  # the return arc sink -> source
    S = [head[a ^ 1] for a in arcs]
    T = [head[a] for a in arcs]
    U: list = [graph.cap[a] for a in arcs]
    C = [graph.cost[a] for a in arcs]
    S.append(sink)
    T.append(source)
    U.append(_INF)
    C.append(0.0)

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

    E = ret  # the return arc is priced before every block
    block = max(1, math.isqrt(E - 1) + 1)
    num_blocks = (E + block - 1) // block
    quiet = 0  # consecutive blocks without an entering arc
    first = 0
    pivots = 0
    while quiet < num_blocks:
        # Price one block: the lexicographically most negative reduced
        # cost enters, primary (flow value) before secondary (cost).
        stop = first + block
        if stop > E:
            scan = [*range(first, E), *range(stop - E)]
            stop -= E
        else:
            scan = range(first, stop)
        first = stop
        best_k = P1[source] - P1[sink] - 1
        best_c = P2[source] - P2[sink]
        if best_k < 0 or (best_k == 0 and best_c < -PIVOT_TOL):
            i = ret
        else:
            best_k = 0
            best_c = -PIVOT_TOL
            i = -1
        for j in scan:
            s = S[j]
            t = T[j]
            k = P1[t] - P1[s]
            c = C[j] - P2[s] + P2[t]
            if x[j]:
                k = -k
                c = -c
            if k < best_k or (k == best_k and c < best_c):
                best_k = k
                best_c = c
                i = j
        if i < 0:
            quiet += 1
            continue
        quiet = 0
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

    if not _certified(_preorder(sink, nxt), parent, edge, S, T, U, C, x, ret, n):
        return None
    flow = graph.flow
    for j, a in enumerate(arcs):
        if x[j]:
            flow[a] = x[j]
            flow[a ^ 1] = -x[j]
    return KernelFlowResult(
        flow_value=x[ret], total_cost=graph.total_cost(), augmentations=pivots
    )


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


def _preorder(root: int, nxt: List[int]) -> List[int]:
    """The tree's nodes along the circular thread, starting at ``root``."""
    nodes = [root]
    v = nxt[root]
    while v != root:
        nodes.append(v)
        v = nxt[v]
    return nodes


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

    Reduced costs are ``c - P[S] + P[T]``; ``P1`` is the integer primary
    component (only the return arc costs ``-1``), ``P2`` the float
    secondary.  ``pre`` lists the tree in preorder from the root.
    """
    P1 = [0] * n
    P2 = [0.0] * n
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


def _certified(pre, parent, edge, S, T, U, C, x, ret, n) -> bool:
    """Whether the final tree's flow is the unique optimum (module docs)."""
    P1, P2 = _potentials(pre, parent, edge, S, C, ret, n)
    in_tree = bytearray(len(S))
    for v in pre[1:]:
        in_tree[edge[v]] = 1

    # Stage 1: optimal sides, and the arcs within the margin of a tie.
    flagged = []
    for j in range(len(S)):
        if in_tree[j]:
            continue
        s = S[j]
        t = T[j]
        k = P1[t] - P1[s] - (j == ret)
        c = C[j] - P2[s] + P2[t]
        if x[j]:
            k = -k
            c = -c
        if k > 0:
            continue
        if k < 0 or c < -UNIQUE_MARGIN:
            return False
        if c <= UNIQUE_MARGIN:
            flagged.append(j)
    if not flagged:
        return True

    # Stage 2: contract the tree arcs residual both ways, then look for a
    # directed cycle among the rest of the tree and the flagged arcs.
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    directed = []
    for v in pre[1:]:
        j = edge[v]
        if 0 < x[j] < U[j]:
            root[find(S[j])] = find(T[j])
        else:
            directed.append(j)
    successors: dict = {}
    indegree: dict = {}
    for j in directed + flagged:
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
