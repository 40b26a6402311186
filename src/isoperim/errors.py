"""Exception types shared across the package."""


class IsoperimError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(IsoperimError, ValueError):
    """Invalid geometric input."""


class NonConvexError(GeometryError):
    """Vertex chain is not strictly convex (sign violation or collinear run)."""


class DegenerateError(GeometryError):
    """Fewer than 3 distinct vertices, zero area, or non-finite coordinates."""


class VolumeOutOfRangeError(IsoperimError, ValueError):
    """Requested volume outside the admissible range for the domain."""


class DomainMismatchError(IsoperimError, ValueError):
    """Grid function and family are built over different domains."""


class SamplerInfeasibleError(IsoperimError, ValueError):
    """Competitor sampler cannot produce a shape of the requested area."""


class ScheduleInvalidError(IsoperimError, ValueError):
    """Annealing schedule parameters out of range."""
