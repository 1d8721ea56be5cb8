"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "PreconditionError",
    "ConvergenceError",
    "GridError",
    "ParseError",
]


class DomainError(ValueError):
    """A transform or a walk was taken outside its domain of finiteness: its value leaves the doubles."""


class PreconditionError(ValueError):
    """An operation was invoked in a parameter regime where it is undefined."""


class ConvergenceError(RuntimeError):
    """An iterative solve failed to bracket or converge to the required tolerance."""


class GridError(ValueError):
    """A discretization grid is inconsistent (step does not tile the interval)."""


class ParseError(ValueError):
    """A distribution spec string does not match the mini-grammar."""
