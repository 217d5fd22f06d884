"""Minimum-cost-flow substrate.

MCF-LTC (Algorithm 1 in the paper) reduces each batch of workers to a
minimum-cost-flow instance and solves it with the Successive Shortest Path
Algorithm (SSPA).  This package implements that substrate from scratch,
around a flat array kernel:

* :class:`ArcArena` / :func:`solve_mcf` — the kernel: parallel
  ``head``/``cost``/``cap``/``flow`` arrays indexed by arc id, residual
  twins at ``arc ^ 1``, CSR adjacency, SSPA with warm Johnson potentials
  and deterministic tie-breaking, in pure Python.  Initial potentials
  come from :func:`bellman_ford_potentials` (general graphs) or
  :func:`dag_potentials` (one O(E) pass for the LTC reduction's 3-layer
  DAG).
* :class:`FlowNetwork` / :func:`successive_shortest_paths` — the
  label-addressed compatibility layer over the kernel, for callers that
  want hashable node labels and edge objects.
* :func:`validate_flow` / :func:`validate_arena_flow` — independent
  verification of capacity/conservation constraints, used by the
  test-suite and by debugging assertions.
* :mod:`repro.flow.reference` — the pre-kernel object-graph SSPA, retained
  as a differential-testing oracle and benchmark baseline (not re-exported
  here; import it explicitly).
"""

from repro.flow.kernel import (
    ArcArena,
    KernelFlowResult,
    bellman_ford_potentials,
    dag_potentials,
    solve_mcf,
)
from repro.flow.network import Edge, FlowNetwork
from repro.flow.sspa import FlowResult, successive_shortest_paths, min_cost_flow
from repro.flow.validate import validate_arena_flow, validate_flow, FlowViolation
from repro.flow.exceptions import (
    FlowError,
    InfeasibleFlowError,
    NegativeCycleError,
)

__all__ = [
    "ArcArena",
    "KernelFlowResult",
    "bellman_ford_potentials",
    "dag_potentials",
    "solve_mcf",
    "Edge",
    "FlowNetwork",
    "FlowResult",
    "successive_shortest_paths",
    "min_cost_flow",
    "validate_flow",
    "validate_arena_flow",
    "FlowViolation",
    "FlowError",
    "NegativeCycleError",
    "InfeasibleFlowError",
]
