"""Error types shared across the package.

Plain input problems raise ValueError; the classes below exist so the CLI
can map failures to distinct exit codes.
"""


class PrecisionError(ArithmeticError):
    """A numeric result could not be certified at the working precision."""


class NotASolutionError(ValueError):
    """The supplied element does not solve the norm equation."""


class VerificationError(Exception):
    """An exact check of a computed result failed: a defect, not bad input."""
