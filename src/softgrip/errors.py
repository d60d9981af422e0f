"""Exception hierarchy shared by all softgrip modules.

Each class carries the command-line exit code it maps to, the one place that
code is known: 2 configuration or parse error, 3 kinematic domain error,
4 empty result, 5 infeasible grasp, 6 no contact under --require-contact,
7 memory the system refused.
"""

__all__ = [
    "ConfigError", "DomainError", "EmptyCloudError", "FrameMismatchError",
    "InsufficientDataError", "InvalidPoseError", "InvalidRangeError",
    "InvariantViolationError", "MissingCapacityDataError", "NoContactError",
    "ObjectTooLargeError", "OutOfRangeError", "ParseError", "ResourceError",
    "SoftgripError", "SurfaceConflictError",
]


class SoftgripError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(SoftgripError):
    """A configuration or input file is missing, unreadable, or structurally
    wrong, or the output directory cannot be written."""


class DomainError(SoftgripError):
    """The kinematic chain was evaluated outside its mathematical domain
    (e.g. base length exceeding twice the leg length)."""

    exit_code = 3


class OutOfRangeError(SoftgripError):
    """A requested target lies outside the achievable window."""

    exit_code = 3


class InvalidRangeError(SoftgripError):
    """A trajectory request is degenerate (zero span, non-positive step or
    non-finite bounds)."""

    exit_code = 3


class ParseError(SoftgripError):
    """Malformed input data.  Carries the 1-based line and column (field
    index) of the first offending record when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({loc})"
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidPoseError(SoftgripError):
    """A rigid-transform matrix fails its orthonormality/shape invariants."""


class FrameMismatchError(SoftgripError):
    """Point clouds from different frames were combined without transforming."""


class EmptyCloudError(SoftgripError):
    """An operation that needs points received none (possibly after cropping
    or trimming)."""

    exit_code = 4


class InvariantViolationError(SoftgripError):
    """Loaded data violates a model invariant (capacity table ordering,
    perturbation caps, ...)."""


class MissingCapacityDataError(SoftgripError):
    """No capacity entry covers the requested (diameter, approach, hinge)
    combination."""


class ObjectTooLargeError(SoftgripError):
    """Object exceeds the gripper's aperture or the planner's class bounds."""

    exit_code = 5


class SurfaceConflictError(SoftgripError):
    """A pinch plan would require the fingertips to reach past the support
    surface."""

    exit_code = 5


class NoContactError(SoftgripError):
    """A sliding run that must make contact never touched the surface."""

    exit_code = 6


class ResourceError(SoftgripError):
    """The system refused memory the run needs (an address-space limit, or
    more than the host can commit); the command line reports any
    MemoryError as this error."""

    exit_code = 7


class InsufficientDataError(SoftgripError):
    """Not enough trace records to evaluate a feedback decision."""
