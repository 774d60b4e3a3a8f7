"""Error taxonomy shared by every module.

Each class maps to one failure mode a caller can act on; nothing here
wraps arithmetic errors (those propagate raw).
"""


class GodbersenKitError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(GodbersenKitError):
    """Input whose affine hull is lower-dimensional than required."""


class EmptyIntersection(GodbersenKitError):
    """A half-space system with no feasible point."""


class Unbounded(GodbersenKitError):
    """An H-polytope with a nontrivial recession cone where boundedness is required."""


class OriginNotInterior(GodbersenKitError):
    """Polarity requested for a body that does not contain 0 in its interior."""


class OriginNotContained(GodbersenKitError):
    """An operation requiring 0 in the body (possibly on the boundary)."""


class IncompatibleGrids(GodbersenKitError):
    """Grid functions whose boxes/resolutions do not match as required."""


class NotLogConcave(GodbersenKitError):
    """A functional inequality was requested for inputs failing the log-concavity test."""


class NotCentered(GodbersenKitError):
    """An operation requiring the centroid at the origin got an off-center body."""


class TooFewVertices(GodbersenKitError):
    """A polygon operation needs more vertices than the input has."""
