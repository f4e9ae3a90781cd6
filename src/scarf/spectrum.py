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
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateRegimeError, RegimeError
from .potential import PotentialParams, Regime, classify_regime

# |n - round(n)| below this counts as an integer degree.  Loose enough for
# lambdas recovered from numerical oracles, far below the level spacing.
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
    lam: float
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
    and is strictly positive in the bound and band regimes.  The free
    particle limit s = 1/2 is the one exception: its lowest lower edge
    folds down to lambda = 0, E = 0.
    """

    n: int
    regime: Regime
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


def fixed_pole_residue_candidates(lam: float) -> tuple[float, float]:
    """Both residue candidates (1 - lam)/2, (1 + lam)/2 at the fixed pole
    y = +i.  The identical pair applies at y = -i."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be positive and real, got {lam}")
    return ((1.0 - lam) / 2.0, (1.0 + lam) / 2.0)


def infinity_residue_candidates(s: float) -> tuple[float, float]:
    """Roots (1 - 2s)/2, (1 + 2s)/2 of d1^2 - d1 + (1/4 - s^2) = 0."""
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    return ((1.0 - 2.0 * s) / 2.0, (1.0 + 2.0 * s) / 2.0)


def admissible_d1(s: float) -> list[float]:
    """Residues at infinity compatible with a finite wavefunction at the
    lattice points: both candidates for bands, only (1 - 2s)/2 for the
    bound regime (the boundary exponent 1/2 - d1 + ... must keep psi from
    diverging as y -> infinity)."""
    regime = classify_regime(s)
    if regime is Regime.FREE_PARTICLE:
        raise DegenerateRegimeError(
            "s = 1/2: residue branches coincide; use the free-particle limit"
        )
    if regime is Regime.UNSUPPORTED:
        raise RegimeError(f"no residue analysis for s = {s}")
    lo, hi = infinity_residue_candidates(s)
    if regime is Regime.BANDS:
        return [lo, hi]
    return [lo]


def enumerate_residue_sets(s: float, lam: float) -> list[ResidueSet]:
    """All (b1, d1) combinations with b1 = b1', each scored by whether
    n = d1 - 2 b1 is a non-negative integer.

    In the band regime this reproduces the four-row table: rows 1 and 2
    carry b1 = (1 - lambda)/2 against d1 = (1 -+ 2s)/2, rows 3 and 4 carry
    b1 = (1 + lambda)/2 and always fail (n < 0).  The bound regime admits a
    single d1, hence two rows.
    """
    b1_candidates = fixed_pole_residue_candidates(lam)
    d1_values = admissible_d1(s)
    sets = []
    set_id = 0
    for b1 in b1_candidates:
        for d1 in d1_values:
            set_id += 1
            n_value = d1 - 2.0 * b1
            if n_value < -N_INTEGER_TOL:
                valid, reason = False, "n negative"
            elif abs(n_value - round(n_value)) > N_INTEGER_TOL:
                valid, reason = False, "n not a non-negative integer"
            else:
                valid, reason = True, None
            sets.append(
                ResidueSet(
                    set_id=set_id,
                    b1=b1,
                    d1=d1,
                    n_value=n_value,
                    lam=lam,
                    valid=valid,
                    rejection_reason=reason,
                )
            )
    return sets


def level_parameters(s: float, n: int, edge: Edge) -> tuple[float, float]:
    """(lambda, d1) of level (n, edge) in the regime implied by s.

    Bound levels (edge NOT_APPLICABLE) and upper band edges take the
    d1 = (1 - 2s)/2 branch, lower band edges d1 = (1 + 2s)/2; the sum rule
    with b1 = b1' = (1 - lambda)/2 then gives

        lower edge          : lambda = n + 1/2 - s
        upper edge, bound   : lambda = n + 1/2 + s

    At s = 1/2 these are the free-particle edges lambda = n and n + 1.
    This is the one check of n, for spectrum_line and build_wavefunction
    alike.
    """
    n = _level_index(n)
    regime = classify_regime(s)
    if regime is Regime.UNSUPPORTED:
        raise RegimeError(f"unsupported coupling s = {s}")
    if regime is Regime.BOUND_STATES:
        if edge is not Edge.NOT_APPLICABLE:
            raise RegimeError("bound levels carry no edge tag")
    elif edge is Edge.NOT_APPLICABLE:
        raise RegimeError("band levels need edge=LOWER or edge=UPPER")
    if edge is Edge.LOWER:
        return n + 0.5 - s, (1.0 + 2.0 * s) / 2.0
    return n + 0.5 + s, (1.0 - 2.0 * s) / 2.0


def _level_index(n) -> int:
    """n as an int: any integer, numpy integers included, but bool, that
    is at least 0; ValueError otherwise."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"level index must be a non-negative integer, got {n!r}")
    return int(n)


def spectrum_line(params: PotentialParams, n: int, edge: Edge) -> SpectrumLine:
    """The closed-form level (n, edge) of params: edge NOT_APPLICABLE in the
    bound regime, LOWER or UPPER in the band and free-particle regimes."""
    lam, d1 = level_parameters(params.s, n, edge)
    energy = math.pi**2 * lam**2 / (2.0 * params.m * params.a**2)
    if not math.isfinite(energy):
        raise ValueError(f"energy of level (n={n}, {edge.value}) leaves the float range")
    return SpectrumLine(n=int(n), regime=params.regime, edge=edge, lam=lam, energy=energy, d1=d1)


def spectrum_lines(params: PotentialParams, n_max: int) -> list[SpectrumLine]:
    """All closed-form levels with n = 0..n_max, ordered by energy.

    Bound regime: one line per n.  Band and free-particle regimes: both
    edges per n; where two edges share an energy (the free particle's
    E+_n = E-_{n+1}) the lower edge is listed first.  n_max is checked
    as a level index.
    """
    edges = ((Edge.NOT_APPLICABLE,) if params.regime is Regime.BOUND_STATES
             else (Edge.LOWER, Edge.UPPER))
    levels = range(_level_index(n_max) + 1)
    return sorted((spectrum_line(params, n, edge) for n in levels for edge in edges),
                  key=lambda ln: (ln.energy, ln.edge.value))
