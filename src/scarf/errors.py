"""Exception types shared across the package."""


class ScarfError(Exception):
    """Base class for all package-specific errors."""


class SingularityError(ScarfError):
    """Evaluation requested at (or too close to) a lattice point x = k*a."""


class RegimeError(ScarfError):
    """Operation invoked for a coupling regime it does not support."""


class ConsistencyError(ScarfError):
    """Inputs that must describe the same physical state disagree."""


class NumericError(ScarfError):
    """A numerical procedure failed its own convergence or sanity check: a
    shooting certificate's level counts or the moving poles' count among them."""
