"""Exception types shared across the package."""


class SimojedError(Exception):
    """Base class for all package errors."""


class DimensionError(SimojedError):
    """Input has a missing, empty, or mismatched dimension."""


class ParameterError(SimojedError):
    """A parameter violates its validity range (e.g. a shift factor below the
    spectral norm, a non-positive scale)."""


class DegenerateInputError(SimojedError):
    """Input is numerically degenerate (zero vector, vanishing pilot energy)."""


class CapacityError(SimojedError):
    """Requested problem size exceeds a configured enumeration budget."""


class NumericError(SimojedError):
    """A numerical factorization or solve failed unexpectedly."""

