"""The Scarf potential: parameters, coupling regimes, and V(x).

V(x) = C pi^2 / (2 m a^2 sin^2(pi x / a)),    C = s^2 - 1/4,

with period a and dimensionless coupling s (hbar = 1 throughout).  For
s > 1/2 the wall strength C is positive, so V is an array of repulsive
inverse-square walls confining a particle to one cell (discrete levels).
For 0 < s < 1/2 the wells are attractive dips and the spectrum organizes
into bands.  At s = 1/2 the potential vanishes identically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, SingularityError

# Lattice points are detected within this fraction of the period.
LATTICE_TOL = 1e-12

# Floor of the energy scale of relative checks, in energy units: lambda^2
# vanishes on the lowest lower band edge as s -> 1/2, and a relative check
# taken against it would measure rounding, not the level.
LAMBDA2_FLOOR = 1e-3


def wall_coefficient(s: float) -> float:
    """C = s^2 - 1/4 of the walls C / sin^2 z, whose roots of mu (mu - 1) =
    C are the wall exponents 1/2 +- s; as -(1/4 - s * s), -0.0 at s = 1/2."""
    return -(0.25 - s * s)


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
    """

    s: float
    a: float = 1.0
    m: float = 1.0

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
            unit, v0 = self.energy_unit, self.v0
        except ArithmeticError:  # a**2 overflows, or 2 m a^2 underflows to 0
            unit = v0 = math.nan
        if not (0.0 < unit < math.inf and math.isfinite(v0)):
            raise ValueError(f"s={self.s}, a={self.a}, m={self.m}: pi^2/(2 m a^2) "
                             "or v0 leaves the float range")

    @property
    def regime(self) -> Regime:
        if self.s > 0.5:
            return Regime.BOUND_STATES
        return Regime.BANDS if self.s < 0.5 else Regime.FREE_PARTICLE

    @property
    def v0(self) -> float:
        """The well depth (1/4 - s^2) pi^2 / (2 m a^2): -C energy units."""
        return -wall_coefficient(self.s) * self.energy_unit

    @property
    def energy_unit(self) -> float:
        """pi^2/(2 m a^2), the one way a and m reach an energy: a level's E
        is lambda^2 times this, and V and v0 are C times it."""
        return math.pi**2 / (2.0 * self.m * self.a**2)

    def energy_scale(self, energy: float) -> float:
        """max(|E|, LAMBDA2_FLOOR energy units): the scale of every relative
        energy check."""
        return max(abs(energy), LAMBDA2_FLOOR * self.energy_unit)


def reduce_to_cell(x, a: float):
    """Map x to the fundamental cell [0, a) so trig evaluation is periodic
    bit-for-bit regardless of which cell x lies in."""
    return x - a * np.floor(x / a)


def cell_map(x, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x as a float array, z = pi r / a with r = x reduced to [0, a) once,
    the mask min(r, a - r) <= LATTICE_TOL * a of the lattice points): the one
    map from x to the cell, for V and psi.  ValueError unless x is finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    r = reduce_to_cell(x, a)
    return x, np.pi * r / a, np.minimum(r, a - r) <= LATTICE_TOL * a


def evaluate_potential(params: PotentialParams, x):
    """Evaluate V(x) = C energy_unit / sin^2 z. Accepts a scalar or an ndarray.

    Raises SingularityError if any point is within LATTICE_TOL * a of a
    lattice point: the potential diverges there and callers that need
    grids must offset, never clamp.  Raises NumericError if V overflows
    elsewhere (extreme a and m), without a numpy warning.
    """
    _, z, lattice = cell_map(x, params.a)
    if np.any(lattice):
        raise SingularityError("potential diverges at lattice points x = k*a")
    sn = np.sin(z)
    with np.errstate(all="ignore"):
        val = wall_coefficient(params.s) * params.energy_unit / (sn * sn)
    if not np.all(np.isfinite(val)):
        raise NumericError(f"V(x) is not finite for a = {params.a!r}, m = {params.m!r}")
    return float(val) if val.ndim == 0 else val
