"""Exception types shared across the package."""


class ScarfError(Exception):
    """Base class for all package-specific errors."""


class SingularityError(ScarfError):
    """Evaluation requested at (or too close to) a lattice point x = k*a."""


class RegimeError(ScarfError):
    """Operation invoked for a coupling regime it does not support."""


class DegenerateRegimeError(RegimeError):
    """s = 1/2: the potential vanishes and the residue branches coincide."""


class ConsistencyError(ScarfError):
    """Inputs that must describe the same physical state disagree."""


class BracketError(ScarfError):
    """The shooting level counts do not place a level alone in its window."""


class ContourError(ScarfError):
    """The moving poles' residue sum is not an integer."""


class NumericError(ScarfError):
    """A numerical procedure failed its own convergence or sanity check."""
