"""Residue algebra of the quantum momentum function and closed-form energies.

After the cot change of variable the momentum function chi(y) is rational
with fixed simple poles at y = +i and y = -i (residues b1, b1'), n moving
poles on the real axis (the wavefunction nodes, residue +1 each), and a
residue d1 at infinity.  The sum rule

    b1 + b1' + n = d1

is the exact quantization condition.  Parity forces b1 = b1', the fixed
residues come in the pair (1 +- lambda)/2, and d1 solves
d1^2 - d1 + (1/4 - s^2) = 0, i.e. d1 = (1 +- 2s)/2.  Enumerating the
admissible combinations yields the band-edge and bound-level energies

    E = pi^2 lambda^2 / (2 m a^2),   lambda = n + 1/2 -+ s  (band edges)
                                     lambda = n + 1/2 + s   (bound levels)

where lambda^2 = 2 m E a^2 / pi^2 is the dimensionless energy parameter.
One lambda fixes the whole level: a SpectrumLine stores n, lambda, E and
d1, and derives b1 = (1 - lambda)/2, nu = -lambda of P_n and the wall
exponent kappa = lambda - n of psi from lambda, so no second copy of any
of them can disagree with it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateRegimeError, RegimeError
from .potential import PotentialParams, Regime

# |n - round(n)| below this counts as an integer degree.  Loose enough for
# the rounding of a closed-form or a typed --lambda, far below the level spacing.
N_INTEGER_TOL = 1e-9


class Edge(Enum):
    LOWER = "lower"
    UPPER = "upper"
    NOT_APPLICABLE = "none"


@dataclass(frozen=True)
class ResidueSet:
    """One row of the residue-combination table.

    n_value is d1 - b1 - b1' for the given lambda; the combination is
    valid only when that is a non-negative integer (the polynomial degree).
    No row carries the analytic part of chi: it is a constant, and parity
    forces it to zero (C = d0 = 0).
    """

    set_id: int
    b1: float
    d1: float
    n_value: float
    valid: bool
    rejection_reason: str | None = None

    @property
    def b1_prime(self) -> float:
        """The residue at y = -i, which parity makes b1."""
        return self.b1


@dataclass(frozen=True)
class SpectrumLine:
    """A single eigenlevel: band edge or bound level, and the one record of
    it.  P_n, psi, the momentum function and the oracles' checks read n and
    lambda from here; b1, nu and kappa derive from lambda.

    energy is pi^2 lam^2 / (2 m a^2) exactly (units hbar^2/(m a^2), hbar=1)
    and is a normal float, at least sys.float_info.min, in the bound and
    band regimes.  The free particle limit s = 1/2 is the one exception:
    its lowest lower edge folds down to lambda = 0, E = 0.
    """

    n: int
    edge: Edge
    lam: float
    energy: float
    d1: float

    @property
    def b1(self) -> float:
        """The residue (1 - lambda)/2 of chi at y = +i and at y = -i."""
        return (1.0 - self.lam) / 2.0

    @property
    def nu1(self) -> float:
        """nu = -lambda of P_n = i^n P_n^(nu,nu)(-iy) up to a constant;
        0.0 - lambda keeps +0.0 at the s = 1/2 fold, where -lambda is -0.0."""
        return 0.0 - self.lam

    nu2 = nu1

    @property
    def kappa(self) -> float:
        """The exponent lambda - n of psi ~ sin^kappa(pi x / a) at the walls."""
        return self.lam - self.n


def _edges(params: PotentialParams) -> tuple[Edge, ...]:
    """The edge tags of the regime's levels: none for bound levels, both
    band edges otherwise, in the residue table's order of d1."""
    return ((Edge.NOT_APPLICABLE,) if params.regime is Regime.BOUND_STATES
            else (Edge.UPPER, Edge.LOWER))


def _d1(s: float, edge: Edge) -> float:
    """The residue at infinity of the edge's family: (1 + 2s)/2 for lower
    band edges, (1 - 2s)/2 for upper band edges and bound levels."""
    return (1.0 + 2.0 * s) / 2.0 if edge is Edge.LOWER else (1.0 - 2.0 * s) / 2.0


def enumerate_residue_sets(params: PotentialParams, lam: float) -> list[ResidueSet]:
    """All (b1, d1) combinations with b1 = b1', each scored by whether
    n = d1 - 2 b1 is a non-negative integer.

    b1 runs over the pair (1 -+ lambda)/2 of the fixed pole y = +i (and
    y = -i), d1 over the d1 of each of the regime's edges, the roots of
    d1^2 - d1 + (1/4 - s^2) = 0 that keep psi finite at the lattice points:
    both in a band, only (1 - 2s)/2 in the bound regime, where the boundary
    exponent 1/2 - d1 + ... must keep psi from diverging as y -> infinity.
    A band's four rows: rows 1 and 2 carry b1 = (1 - lambda)/2 against
    d1 = (1 -+ 2s)/2, rows 3 and 4 b1 = (1 + lambda)/2 and always fail
    (n < 0).  ValueError unless lambda is finite and positive, then
    DegenerateRegimeError at s = 1/2, where the two roots coincide.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be positive and real, got {lam}")
    if params.regime is Regime.FREE_PARTICLE:
        raise DegenerateRegimeError(
            "s = 1/2: residue branches coincide; use the free-particle limit")
    d1_values = [_d1(params.s, edge) for edge in _edges(params)]
    sets = []
    for b1 in ((1.0 - lam) / 2.0, (1.0 + lam) / 2.0):
        for d1 in d1_values:
            n_value = d1 - 2.0 * b1
            if n_value < -N_INTEGER_TOL:
                valid, reason = False, "n negative"
            elif abs(n_value - round(n_value)) > N_INTEGER_TOL:
                valid, reason = False, "n not a non-negative integer"
            else:
                valid, reason = True, None
            sets.append(ResidueSet(set_id=len(sets) + 1, b1=b1, d1=d1, n_value=n_value,
                                   valid=valid, rejection_reason=reason))
    return sets


def level_parameters(params: PotentialParams, n: int, edge: Edge) -> tuple[float, float]:
    """(lambda, d1) of level (n, edge) in the regime of params.

    d1 is the edge's residue at infinity by _d1; the sum rule with
    b1 = b1' = (1 - lambda)/2 then gives

        lower edge          : lambda = n + 1/2 - s
        upper edge, bound   : lambda = n + 1/2 + s

    At s = 1/2 these are the free-particle edges lambda = n and n + 1.
    This is the one check of n, for spectrum_line and build_wavefunction
    alike.
    """
    n, s = _level_index(n), params.s
    if edge not in _edges(params):
        raise RegimeError("band levels need edge=LOWER or edge=UPPER"
                          if edge is Edge.NOT_APPLICABLE else "bound levels carry no edge tag")
    return (n + 0.5 - s if edge is Edge.LOWER else n + 0.5 + s), _d1(s, edge)


def _level_index(n) -> int:
    """n as an int: any integer, numpy integers included, but bool, that
    is at least 0; ValueError otherwise."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"level index must be a non-negative integer, got {n!r}")
    return int(n)


def spectrum_line(params: PotentialParams, n: int, edge: Edge) -> SpectrumLine:
    """The closed-form level (n, edge) of params: edge NOT_APPLICABLE in the
    bound regime, LOWER or UPPER in the band and free-particle regimes."""
    lam, d1 = level_parameters(params, n, edge)
    energy = lam**2 * params.energy_unit
    if not (math.isfinite(energy) and (energy >= sys.float_info.min or lam == 0.0)):
        raise ValueError(f"energy of level (n={n}, {edge.value}) leaves the float range")
    return SpectrumLine(n=int(n), edge=edge, lam=lam, energy=energy, d1=d1)


def spectrum_lines(params: PotentialParams, n_max: int) -> list[SpectrumLine]:
    """All closed-form levels with n = 0..n_max, ordered by energy.

    Bound regime: one line per n.  Band and free-particle regimes: both
    edges per n; where two edges share an energy (the free particle's
    E+_n = E-_{n+1}) the lower edge is listed first.  n_max is checked
    as a level index.
    """
    levels = range(_level_index(n_max) + 1)
    return sorted((spectrum_line(params, n, edge) for n in levels for edge in _edges(params)),
                  key=lambda ln: (ln.energy, ln.edge.value))
