"""Registry of solvers keyed by the names used in the paper's figures.

The experiment harness, the service layer and the benchmarks refer to
solvers declaratively — either by bare name ("MCF-LTC", "Base-off", "Random",
"LAF", "AAM") or by a parameterized :class:`~repro.algorithms.spec.SolverSpec`
("MCF-LTC?batch_multiplier=2.0").  Each registry entry records the solver's
factory, the constructor parameters it declares, and its capabilities
(``online``, ``supports_batch``, ...), so :func:`build_solver` can validate a
spec before instantiating it.  Additional solvers (ablation variants, user
extensions) can be registered at runtime.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.algorithms.aam import AAMSolver, LGFOnlySolver, LRFOnlySolver
from repro.algorithms.base import Solver
from repro.algorithms.baselines import BaseOffSolver, RandomOnlineSolver
from repro.algorithms.exact import ExactSolver
from repro.algorithms.laf import LAFSolver
from repro.algorithms.mcf_ltc import MCFLTCSolver
from repro.algorithms.spec import _RESERVED as _SPEC_RESERVED
from repro.algorithms.spec import SolverSpec, SolverSpecLike

SolverFactory = Callable[..., Solver]

#: The five algorithms compared throughout the paper's evaluation, in the
#: order the figures list them.
DEFAULT_SOLVER_NAMES: List[str] = ["Base-off", "MCF-LTC", "Random", "LAF", "AAM"]


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver can do, declared up front.

    Attributes
    ----------
    online:
        Obeys the online temporal constraint (drivable arrival by arrival
        natively, with tasks posted and expired mid-stream; offline
        solvers are driven through a replay session that refuses both).
    supports_batch:
        Processes workers in tunable batches (exposes ``batch_multiplier``).
    randomized:
        Output depends on a seed parameter.
    exact:
        Finds the true optimum (exponential time; tiny instances only).
    """

    online: bool = False
    supports_batch: bool = False
    randomized: bool = False
    exact: bool = False

    def flags(self) -> List[str]:
        """The names of the capabilities that are set."""
        return [
            flag
            for flag in (
                "online",
                "supports_batch",
                "randomized",
                "exact",
            )
            if getattr(self, flag)
        ]


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver: factory + declared parameters + capabilities."""

    name: str
    factory: SolverFactory
    parameters: Mapping[str, inspect.Parameter]
    capabilities: SolverCapabilities
    description: str = ""
    #: Whether the factory takes ``**kwargs`` (then any parameter is allowed).
    accepts_kwargs: bool = False

    def describe(self) -> Dict[str, object]:
        """A plain-dict description for ``--list``-style introspection."""
        return {
            "name": self.name,
            "parameters": sorted(self.parameters),
            "capabilities": self.capabilities.flags(),
            "description": self.description,
        }


_REGISTRY: Dict[str, SolverEntry] = {}


def _declared_parameters(
    factory: SolverFactory,
) -> tuple[Mapping[str, inspect.Parameter], bool]:
    """The keyword parameters a factory declares, and whether it has kwargs."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C-implemented callables
        return {}, True
    parameters = {
        name: parameter
        for name, parameter in signature.parameters.items()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    accepts_kwargs = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in signature.parameters.values()
    )
    return parameters, accepts_kwargs


def _infer_capabilities(
    factory: SolverFactory, parameters: Mapping[str, inspect.Parameter]
) -> SolverCapabilities:
    """Default capabilities from the factory's class attributes and signature."""
    return SolverCapabilities(
        online=bool(getattr(factory, "is_online", False)),
        supports_batch="batch_multiplier" in parameters,
        randomized="seed" in parameters,
    )


def register_solver(
    name: str,
    factory: SolverFactory,
    overwrite: bool = False,
    capabilities: Optional[SolverCapabilities] = None,
    description: Optional[str] = None,
) -> SolverEntry:
    """Register a solver factory under ``name`` and return its entry.

    The factory's constructor parameters are introspected so specs can be
    validated; ``capabilities`` defaults to what the factory's class
    attributes and signature reveal (``is_online``, ``batch_multiplier``,
    ``seed``).  Raises ``ValueError`` when the name is taken and
    ``overwrite`` is false.
    """
    if not name or name != name.strip() or _SPEC_RESERVED & set(name):
        raise ValueError(
            f"solver name {name!r} is empty, has surrounding whitespace, or "
            "contains one of '?&='; such names could never be resolved "
            "through spec strings"
        )
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"solver name {name!r} is already registered")
    parameters, accepts_kwargs = _declared_parameters(factory)
    if capabilities is None:
        capabilities = _infer_capabilities(factory, parameters)
    if description is None:
        description = (inspect.getdoc(factory) or "").partition("\n")[0]
    entry = SolverEntry(
        name=name,
        factory=factory,
        parameters=parameters,
        capabilities=capabilities,
        description=description,
        accepts_kwargs=accepts_kwargs,
    )
    _REGISTRY[name] = entry
    return entry


def solver_entry(name: str) -> SolverEntry:
    """The registry entry for ``name`` (KeyError with a suggestion if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        close = difflib.get_close_matches(name, list(_REGISTRY), n=1, cutoff=0.5)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise KeyError(
            f"unknown solver {name!r}{hint}; known solvers: {known}"
        ) from None


def build_solver(spec: SolverSpecLike) -> Solver:
    """Instantiate the solver a spec describes.

    ``spec`` may be a :class:`~repro.algorithms.spec.SolverSpec`, a spec
    string like ``"MCF-LTC?batch_multiplier=2.0"``, or a
    ``{"name": ..., "params": {...}}`` mapping.  Parameters are validated
    against the entry's declared constructor parameters.
    """
    spec = SolverSpec.coerce(spec)
    entry = solver_entry(spec.name)
    if not entry.accepts_kwargs:
        unknown = sorted(set(spec.params) - set(entry.parameters))
        if unknown:
            declared = ", ".join(sorted(entry.parameters)) or "<none>"
            raise ValueError(
                f"solver {spec.name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; declared parameters: {declared}"
            )
    return entry.factory(**dict(spec.params))


def get_solver(name: str) -> Solver:
    """Instantiate the solver registered under ``name``.

    Thin shim over :func:`build_solver`; ``name`` may also be a full spec
    string such as ``"MCF-LTC?batch_multiplier=2.0"``.
    """
    return build_solver(name)


def available_solvers() -> List[str]:
    """Names of all registered solvers, sorted."""
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    register_solver("MCF-LTC", MCFLTCSolver)
    register_solver("Base-off", BaseOffSolver)
    register_solver("Random", RandomOnlineSolver)
    register_solver("LAF", LAFSolver)
    register_solver("AAM", AAMSolver)
    register_solver("Exact", ExactSolver,
                    capabilities=SolverCapabilities(exact=True))
    register_solver("LGF-only", LGFOnlySolver)
    register_solver("LRF-only", LRFOnlySolver)


_register_builtins()
