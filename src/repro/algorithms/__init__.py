"""Solvers for the LTC problem.

Offline (the full worker sequence is known in advance):

* :class:`~repro.algorithms.mcf_ltc.MCFLTCSolver` — the paper's Algorithm 1,
  a minimum-cost-flow batch algorithm with a 7.5 approximation ratio.
* :class:`~repro.algorithms.baselines.BaseOffSolver` — the paper's ``Base-off``
  baseline (greedy by scarcity of remaining nearby workers).
* :class:`~repro.algorithms.exact.ExactSolver` — exhaustive search for tiny
  instances, used to measure empirical approximation ratios in tests.

Online (workers arrive one by one; assignments are immediate and final):

* :class:`~repro.algorithms.laf.LAFSolver` — Largest Acc First (Algorithm 2).
* :class:`~repro.algorithms.aam.AAMSolver` — Average And Max (Algorithm 3).
* :class:`~repro.algorithms.baselines.RandomOnlineSolver` — the ``Random``
  baseline.

All solvers return a :class:`~repro.algorithms.base.SolveResult`, are
constructed declaratively from a :class:`~repro.algorithms.spec.SolverSpec`
through :func:`~repro.algorithms.registry.build_solver` (or by bare name via
:func:`~repro.algorithms.registry.get_solver`), and can be driven
incrementally through the :class:`~repro.core.session.Session` protocol via
:meth:`~repro.algorithms.base.Solver.open_session`.
"""

from repro.algorithms.base import (
    OfflineSolver,
    OnlineSolver,
    Selection,
    SolveResult,
    Solver,
)
from repro.algorithms.bounds import (
    latency_lower_bound,
    latency_upper_bound,
    mcnaughton_latency,
    mcnaughton_schedule,
)
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.aam import AAMSolver
from repro.algorithms.baselines import BaseOffSolver, RandomOnlineSolver
from repro.algorithms.exact import ExactSolver
from repro.algorithms.session import OnlineSolverSession, ReplaySession, open_session
from repro.algorithms.spec import SolverSpec, SolverSpecLike
from repro.algorithms.registry import (
    available_solvers,
    build_solver,
    get_solver,
    register_solver,
    solver_entry,
    DEFAULT_SOLVER_NAMES,
    SolverCapabilities,
    SolverEntry,
)

__all__ = [
    "Solver",
    "OfflineSolver",
    "OnlineSolver",
    "Selection",
    "SolveResult",
    "SolverSpec",
    "SolverSpecLike",
    "SolverCapabilities",
    "SolverEntry",
    "OnlineSolverSession",
    "ReplaySession",
    "open_session",
    "latency_lower_bound",
    "latency_upper_bound",
    "mcnaughton_latency",
    "mcnaughton_schedule",
    "MCFLTCSolver",
    "LAFSolver",
    "AAMSolver",
    "BaseOffSolver",
    "RandomOnlineSolver",
    "ExactSolver",
    "available_solvers",
    "build_solver",
    "get_solver",
    "register_solver",
    "solver_entry",
    "DEFAULT_SOLVER_NAMES",
]
