"""Exception hierarchy shared by all wvsim modules."""


class ProtocolError(Exception):
    """Base class for all wvsim errors."""


class InvalidParameterError(ProtocolError, ValueError):
    """A parameter violates its declared domain (n < 1, delta <= 0, ...)."""


class PostselectionError(ProtocolError):
    """Post-selection is (numerically) orthogonal: the conditional state
    has no weight and weak values are undefined."""


class TruncationError(ProtocolError):
    """A grid operation would push wavefunction support past the domain
    boundary, or the domain is too small to hold the required support."""


class MemoryGuardError(ProtocolError):
    """A grid would exceed the node budget, or a Monte Carlo run the
    accepted-click budget."""


class InternalConsistencyError(ProtocolError):
    """Two redundant computations of the same quantity disagree beyond
    floating-point tolerance; indicates a bug, not bad input."""


class DegenerateCalibrationError(ProtocolError, ValueError):
    """The two eigenstate anchor positions do not define a usable scale."""
