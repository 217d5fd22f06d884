"""Minimum-cost-flow substrate.

MCF-LTC (Algorithm 1 in the paper) reduces each batch of workers to a
minimum-cost-flow instance and solves it with the Successive Shortest Path
Algorithm (SSPA).  This package implements that substrate from scratch,
around a flat array kernel, and adds a faster exact solver whose result
is used only when it provably equals the SSPA's:

* :class:`ArcArena` / :func:`solve_mcf` — the kernel: parallel
  ``head``/``cost``/``cap``/``flow`` arrays indexed by arc id, residual
  twins at ``arc ^ 1``, packed per-node adjacency, and the SSPA with
  warm Johnson potentials and deterministic tie-breaking, in pure
  Python.  MCF-LTC runs it only on an exact tie, from zero flow, with
  initial potentials from :func:`dag_potentials` (one O(E) pass over the
  LTC reduction's 3-layer DAG).
* :func:`network_simplex` (:mod:`repro.flow.simplex`) — a primal network
  simplex for the layered batch network, read as flat arrays
  (:class:`BatchNetwork`, which lays itself out as an arena for the
  SSPA), started from a greedy flow, with numpy candidate-list pricing
  and exact integer costs.  It reports its flow only when a uniqueness
  certificate shows the exact optimum is unique, and returns ``None`` on
  an exact tie, so the SSPA's tie-breaking still decides among
  cost-equal optima.
* :mod:`repro.flow.validate` — independent verification of
  capacity/conservation/twin constraints, used by the test-suite (not
  re-exported here; import it explicitly).
* :mod:`repro.flow.reference` — the pre-kernel object-graph SSPA, retained
  as a differential-testing oracle and benchmark baseline (not re-exported
  here; import it explicitly).
"""

from repro.flow.kernel import (
    ArcArena,
    KernelFlowResult,
    dag_potentials,
    solve_mcf,
)
from repro.flow.simplex import BatchNetwork, network_simplex
from repro.flow.exceptions import (
    FlowError,
    InfeasibleFlowError,
    NegativeCycleError,
)

__all__ = [
    "ArcArena",
    "BatchNetwork",
    "KernelFlowResult",
    "dag_potentials",
    "solve_mcf",
    "network_simplex",
    "FlowError",
    "NegativeCycleError",
    "InfeasibleFlowError",
]
