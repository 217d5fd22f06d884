"""Exceptions raised by the min-cost-flow substrate."""


class FlowError(Exception):
    """Base class for all flow-related errors."""


class NegativeCycleError(FlowError):
    """The network contains a negative-cost cycle reachable from the source.

    The LTC reduction never produces one (all negative arcs point from the
    worker side to the task side of a bipartite graph), so hitting this error
    indicates a malformed network.
    """


class InfeasibleFlowError(FlowError):
    """A requested amount of flow cannot be routed from source to sink."""

