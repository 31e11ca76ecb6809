"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid graph construction or a violated structural precondition."""


class DisconnectedGraphError(GraphError):
    """Raised by operations that require a connected graph."""


class CapacityError(RuntimeError):
    """An exact-enumeration cap was exceeded (see ``graph.SUBSET_CAP``)."""


class ClosedFormUnavailable(LookupError):
    """The requested family has no closed-form polynomial."""
