"""The Scarf potential: parameters, coupling regimes, and V(x).

V(x) = -(1/4 - s^2) pi^2 / (2 m a^2 sin^2(pi x / a))

with period a and dimensionless coupling s (hbar = 1 throughout).  For
s > 1/2 the coefficient is negative, so V is an array of repulsive
inverse-square walls confining a particle to one cell (discrete levels).
For 0 < s < 1/2 the wells are attractive dips and the spectrum organizes
into bands.  At s = 1/2 the potential vanishes identically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericError, SingularityError

# Lattice points are detected within this fraction of the period.
LATTICE_TOL = 1e-12

# Floor of the energy scale of relative checks, in energy units: lambda^2
# vanishes on the lowest lower band edge as s -> 1/2, and a relative check
# taken against it would measure rounding, not the level.
LAMBDA2_FLOOR = 1e-3


class Regime(Enum):
    """Coupling regime of a PotentialParams: one tag for each s > 0."""

    BOUND_STATES = "bound_states"   # s > 1/2
    BANDS = "bands"                 # 0 < s < 1/2
    FREE_PARTICLE = "free_particle" # s = 1/2 exactly


@dataclass(frozen=True)
class PotentialParams:
    """Physical configuration of the potential.  s, a and m take any real
    number but bool, numpy scalars included, and are stored as floats.

    Attributes:
        s: dimensionless coupling, must be > 0 (s = 1/2 is the valid
           degenerate case where V vanishes).
        a: potential period (length), > 0.
        m: particle mass, > 0.
        v0: derived well-depth coefficient (1/4 - s^2) pi^2 / (2 m a^2).
    """

    s: float
    a: float = 1.0
    m: float = 1.0
    v0: float = field(init=False)

    def __post_init__(self):
        for name in ("s", "a", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:  # an int or Fraction past the float range
                raise ValueError(f"{name} leaves the float range") from None
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise ValueError(f"coupling s must be a positive finite real, got {self.s}")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"period a must be a positive finite real, got {self.a}")
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass m must be a positive finite real, got {self.m}")
        try:
            unit = self.energy_unit
            v0 = (0.25 - self.s * self.s) * math.pi**2 / (2.0 * self.m * self.a**2)
        except ArithmeticError:  # a**2 overflows, or 2 m a^2 underflows to 0
            unit = v0 = math.nan
        if not (0.0 < unit < math.inf and math.isfinite(v0)):
            raise ValueError(f"s={self.s}, a={self.a}, m={self.m}: pi^2/(2 m a^2) "
                             "or v0 leaves the float range")
        object.__setattr__(self, "v0", v0)

    @property
    def regime(self) -> Regime:
        if self.s > 0.5:
            return Regime.BOUND_STATES
        return Regime.BANDS if self.s < 0.5 else Regime.FREE_PARTICLE

    @property
    def energy_unit(self) -> float:
        """pi^2/(2 m a^2): a level of parameter lambda has E = lambda^2 times this."""
        return math.pi**2 / (2.0 * self.m * self.a**2)

    def energy_scale(self, energy: float) -> float:
        """max(|E|, LAMBDA2_FLOOR energy units): the scale of every relative
        energy check."""
        return max(abs(energy), LAMBDA2_FLOOR * self.energy_unit)


def reduce_to_cell(x, a: float):
    """Map x to the fundamental cell [0, a) so trig evaluation is periodic
    bit-for-bit regardless of which cell x lies in."""
    return x - a * np.floor(x / a)


def is_lattice_point(x, a: float) -> bool | np.ndarray:
    """True where x is within LATTICE_TOL * a of an integer multiple of a."""
    r = reduce_to_cell(x, a)
    return np.minimum(r, a - r) <= LATTICE_TOL * a


def evaluate_potential(params: PotentialParams, x):
    """Evaluate V(x). Accepts a scalar or an ndarray.

    Raises SingularityError if any point is within LATTICE_TOL * a of a
    lattice point: the potential diverges there and callers that need
    grids must offset, never clamp.  Raises NumericError if V overflows
    elsewhere (extreme a and m), without a numpy warning.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if np.any(is_lattice_point(x, params.a)):
        raise SingularityError("potential diverges at lattice points x = k*a")
    r = reduce_to_cell(x, params.a)
    sn = np.sin(np.pi * r / params.a)
    with np.errstate(all="ignore"):
        val = -(0.25 - params.s**2) * np.pi**2 / (2.0 * params.m * params.a**2 * sn * sn)
    if not np.all(np.isfinite(val)):
        raise NumericError(f"V(x) is not finite for a = {params.a!r}, m = {params.m!r}")
    return float(val) if val.ndim == 0 else val

