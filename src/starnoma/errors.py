"""Exception types shared across the package."""


class StarNomaError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(StarNomaError, ValueError):
    """A numeric or structural argument violates a precondition."""


class ConfigError(InvalidParameterError):
    """A config field or option breaks its rule; the message names the field."""


class UnsupportedScenarioError(StarNomaError):
    """The requested analysis is only derived for a narrower scenario class."""


class NumericError(StarNomaError, ArithmeticError):
    """A numerical routine failed to converge; message carries diagnostics.
    No package routine raises it at present."""


class BlockStopped(StarNomaError):
    """A Monte Carlo block was abandoned part-way because its point had
    already stopped; the block gives no result, and its point reads none."""


class NoErrorFloor(StarNomaError):
    """Signals that a user has no high-SNR error floor (sole occupant of its
    surface part).  Raised instead of returning a number so callers cannot
    mistake the condition for a BER value."""
