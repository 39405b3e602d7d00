"""Exception types shared across the package.

ValidationError marks a violated precondition (bad input, bad config);
ToleranceError marks a computation whose error estimate exceeds the
requested tolerance.  The command line maps them to distinct exit codes.
"""


class ValidationError(ValueError):
    """A named precondition on inputs or configuration failed."""


class StateNotAdmissible(ValidationError):
    """State fails a finiteness / support / exclusion requirement."""


class ToleranceError(RuntimeError):
    """A tail or residual estimate exceeds the requested tolerance."""


class PointSpectrumProximity(RuntimeError):
    """Requested energy is too close to a detected eigenvalue."""
