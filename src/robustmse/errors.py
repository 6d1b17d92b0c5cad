"""Exception taxonomy shared across the package.

Every error raised by library code is a subclass of RobustMseError, so
callers (notably the CLI) can map failures to exit codes without string
matching.
"""


class RobustMseError(ValueError):
    """Base class for all library errors."""


class StructuralError(RobustMseError):
    """Objects that do not live on the same sample space / dimension mismatch."""


class ArgumentError(RobustMseError):
    """A parameter violates its contract (bad exponent, weight off the simplex, ...)."""


class ZeroMassBlockError(RobustMseError):
    """A conditioning block carries zero probability mass."""

    def __init__(self, block, message=None):
        self.block = tuple(block)
        super().__init__(message or f"block {self.block} has zero probability mass")


class PastingDegeneracyError(RobustMseError):
    """Pasting would divide by a zero-mass block of the tail measure."""

    def __init__(self, block, message=None):
        self.block = tuple(block)
        super().__init__(message or f"tail measure has zero mass on block {self.block}")


class PropernessError(RobustMseError):
    """An operation requires mutually equivalent (strictly positive) generators."""


class NonconvergenceError(RobustMseError):
    """A numerical routine stopped before it could decide, such as the simplex
    at its pivot limit."""


class GuardRefusalError(RobustMseError):
    """A size guard refused the computation rather than degrade silently."""


class ValidationError(RobustMseError):
    """An instance file failed schema validation; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
