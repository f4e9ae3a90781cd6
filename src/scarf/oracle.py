"""Independent eigensolvers for one cell of the potential.

These oracles know nothing of the residue algebra or its closed forms:
they integrate the Schrodinger equation itself.  With z = pi x / a and
E = lambda^2 pi^2/(2 m a^2), -u''/(2m) + V u = E u becomes

    u_zz = (C / sin^2 z - lambda^2) u,    C = s^2 - 1/4 (wall_coefficient),

on (0, pi), so only s is left; a and m set the energy unit.  Every public
entry point takes and returns energies in E and converts once; inside,
the oracles solve for lambda^2.  Their internal calls pass the same
coupling at a = pi, m = 1/2, where x is z and the unit is 1.  Two
independent methods are provided so the closed-form spectra can be
cross-checked:

* a shooting method that starts off the inverse-square wall with a
  Frobenius-series state and reads the Pruefer phase of the solution at
  the cell midpoint (both regimes), and
* a Chebyshev collocation of the same equation on one cell, solved by
  numpy's dense eigvals (both regimes).

Near a wall the indicial exponents are mu = 1/2 +- s, so admissible
solutions behave as z^(1/2+s) (always) and, in the band regime only,
z^(1/2-s).  The bound regime admits only the + exponent, so there are
two shooting families, one per exponent.  Each family is read through
its Pruefer phase theta(E) at the cell midpoint (Pryce, Numerical
Solution of Sturm-Liouville Problems, OUP 1993, ch. 5), which rises
with E.  By the symmetry of the cell about z = pi/2, the family's level
n is an even state (u'(pi/2) = 0) for even n and an odd one (u(pi/2) =
0) for odd n, and either way it sits at theta = (n + 1) pi/2; so the
integer part of 2 theta/pi counts the family's levels below E.

The shooting oracle does not search: certify is told where level n of a
family should be and proves it with two shots, one each side of it,
whose counts read n and n + 1.  The counts are integers computed from V
alone, so the closed forms choose where the oracle looks, never what it
finds.

A shot starts where its own series is still exact to rounding (Pryce,
ch. 5, on series starts at a regular singular endpoint): z0(s,
lambda^2, mu) is the largest z <= _Z_CAP at which the last series term
|c_16| z^16 is at most _SERIES_EPS = 1e-17, and never below 1e-3 pi.
_Z_CAP = 0.152 is where the first csc^2 term the series drops,
4 z^12/1403325, reaches _SERIES_EPS of the wall term 1/z^2.  The low
levels of s <= 2 start at the cap and those of s = 30 near 0.1; z0
shrinks as lambda^2 grows and reaches 1e-3 pi at lambda^2 of about 4e4
(7e4 at s = 2).  The power-law zone next to the wall, where most RK
steps went, is thus summed in closed form.  No start depends on a or m,
and a half_start shot starts at exactly z0/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import NumericError, RegimeError
from .potential import PotentialParams, Regime, finite_real, integer, wall_coefficient

# Even Taylor coefficients of csc^2(z) - 1/z^2 = 1/3 + z^2/15 + ...
_CSC2_SERIES = (
    1.0 / 3.0,
    1.0 / 15.0,
    2.0 / 189.0,
    1.0 / 675.0,
    2.0 / 10395.0,
    1382.0 / 58046625.0,
)

# The first term the series above drops: csc^2(z) - 1/z^2 - ... = 4 z^12/1403325 + ...
_CSC2_DROPPED = 4.0 / 1403325.0

_ETA = 1e-10                  # half-width of a certificate window, in energy scales
_SERIES_ORDER = 16            # Frobenius start summed through z^16
_SERIES_EPS = 1e-17           # largest last series term |c_16| z^16 at a start
_Z_FLOOR = 1e-3 * math.pi     # the lowest start in z
# The start's cap, where the dropped csc^2 term, _CSC2_DROPPED z^12, is
# _SERIES_EPS of the wall term 1/z^2.
_Z_CAP = (_SERIES_EPS / _CSC2_DROPPED) ** (1.0 / 14.0)
_COLLOCATION_MAX = 3000       # largest collocation grid size N
_COLLOCATION_FIRST = 8        # levels of the first collocation grid
_U_FORM_S = 2.0               # above this s the collocation drops the w-form


class Exponent(Enum):
    """Frobenius exponent at the wall: PLUS is 1/2 + s, MINUS is 1/2 - s."""

    PLUS = "plus"
    MINUS = "minus"

    def mu(self, s: float) -> float:
        """The family's indicial exponent mu at the wall, 1/2 + s or 1/2 - s."""
        return 0.5 + s if self is Exponent.PLUS else 0.5 - s


@dataclass(frozen=True)
class ShootingConfig:
    """Configuration of one shooting family: its wall exponent, and
    whether its shots start at the series start z0(s, lambda^2, mu) of
    the module docstring or, with half_start, at exactly z0/2."""

    exponent: Exponent = Exponent.PLUS
    half_start: bool = False


def frobenius_series(s: float, lam2: float, mu: float) -> list[float]:
    """The coefficients c_0 = 1, c_2, ..., c_16 of the series solution
    u = z^mu sum(c_k z^k) of u_zz = (C/sin^2 z - lam2) u.

    C/sin^2 z - lam2 = C/z^2 + sum_j w_{2j} z^(2j); the recurrence
    c_k = sum_j w_{2j} c_{k-2-2j} / (k (k + 2 mu - 1)) follows from
    matching powers.
    """
    w = [wall_coefficient(s) * c for c in _CSC2_SERIES]
    w[0] -= lam2
    coeff = [1.0]
    for k in range(2, _SERIES_ORDER + 1, 2):
        acc = 0.0
        for j, wj in enumerate(w[:k // 2]):
            acc += wj * coeff[k // 2 - 1 - j]
        coeff.append(acc / (k * (k + 2.0 * mu - 1.0)))
    return coeff


def start_offset(series: list[float]) -> float:
    """z0: the largest z <= _Z_CAP where the last term |c_16| z^16 of the
    series is at most _SERIES_EPS, and at least _Z_FLOOR = 1e-3 pi."""
    last = abs(series[-1])
    if last * _Z_CAP**_SERIES_ORDER <= _SERIES_EPS:
        return _Z_CAP
    return max(_Z_FLOOR, (_SERIES_EPS / last) ** (1.0 / _SERIES_ORDER))


def frobenius_start(series: list[float], mu: float, z: float) -> tuple[float, float]:
    """(u, u_z) of the series solution at z, divided by z^mu.

    The dropped z^mu is a common factor, which the shooting value divides
    out, and it would underflow at large s.
    """
    z2 = z * z
    u = v = 0.0
    for k in range(_SERIES_ORDER, -1, -2):
        ck = series[k // 2]
        u = u * z2 + ck
        v = v * z2 + ck * (mu + k)
    return u, v / z


def shoot(params: PotentialParams, energy: float, cfg: ShootingConfig) -> float:
    """Pruefer phase theta of one shooting family at trial energy E.

    Integrates, in one kernel call, from the start offset to the cell
    midpoint and reads the angle of (u, u_z/S), S = max(lambda, 1), of the
    end state (the kernel may divide its scale out) and the zeros of u on
    the way: theta = pi zeros + atan2(|u|, sigma u_z/S), sigma =
    (-1)^zeros.  atan2 of |u| is in [0, pi], so a zero of u at exactly
    pi/2, which the kernel does not count, still gives theta its full pi.
    The integer part of 2 theta/pi is the number of the family's levels
    at or below E.  ValueError unless E is a finite real and the exponent
    an Exponent, then RegimeError unless the regime has that exponent.
    """
    if not isinstance(cfg.exponent, Exponent):
        raise ValueError(f"exponent must be an Exponent, got {cfg.exponent!r}")
    if cfg.exponent not in _exponents(params.regime):
        raise RegimeError("bound regime admits only the 1/2 + s exponent")
    s, lam2 = params.s, finite_real("energy", energy) / params.energy_unit
    mu = cfg.exponent.mu(s)
    series = frobenius_series(s, lam2, mu)
    z = start_offset(series) / (2.0 if cfg.half_start else 1.0)
    u0, v0 = frobenius_start(series, mu, z)
    u, v, zeros, _ = kernels.shoot_halfcell(wall_coefficient(s), lam2, z, u0, v0)
    sigma = -1.0 if zeros % 2 else 1.0
    return math.pi * zeros + math.atan2(abs(u), sigma * v / math.sqrt(max(lam2, 1.0)))


def certify(params: PotentialParams, energy: float, n: int,
            exponent: Exponent) -> tuple[float, float]:
    """Prove that level n of the exponent's family, and no other level,
    lies within _ETA energy scales of E, and measure it.

    The window is lambda^2 +- eta, eta = _ETA max(|lambda^2|,
    LAMBDA2_FLOOR).  Both ends are shot from z0 and again from z0/2: four
    kernel calls and no search.  NumericError is raised unless each
    start's level counts read n at the lower end and n + 1 at the upper
    one.  Those integer counts prove that level n is the one level of the
    family in the window, and that the family has n + 1 levels at or
    below its upper end.  Returns (energy, delta_sensitivity): the root
    of theta(E) = (n + 1) pi/2 on the secant through the z0 phases, and
    the move of that root when every shot starts at z0/2 (the secant
    through the z0/2 phases), relative to PotentialParams.energy_scale.
    E, n and the exponent follow shoot's rules and the level index's.
    """
    n = integer("level index", n, 0)
    count = finite_real("level index", n + 1)  # ValueError past the float range
    ref = PotentialParams(params.s, a=math.pi, m=0.5)   # x is z and E is lambda^2
    lam2 = finite_real("energy", energy) / params.energy_unit
    eta = _ETA * ref.energy_scale(lam2)
    roots = []
    for half_start in (False, True):
        cfg = ShootingConfig(exponent, half_start)
        lo, hi = (2.0 * shoot(ref, lam2 + d, cfg) / math.pi - count for d in (-eta, eta))
        if not -1.0 <= lo < 0.0 <= hi < 1.0:
            raise NumericError(f"level {n} of the {exponent.value} family is not "
                               f"alone in [{lam2 - eta!r}, {lam2 + eta!r}] lambda^2")
        roots.append(lam2 + eta * (lo + hi) / (lo - hi))
    return (float(roots[0] * params.energy_unit),
            float(abs(roots[0] - roots[1]) / ref.energy_scale(roots[0])))


def _exponents(regime: Regime) -> list[Exponent]:
    return [Exponent.PLUS] if regime is Regime.BOUND_STATES else list(Exponent)


def collocation_spectrum(params: PotentialParams,
                         k_levels: int = 4) -> dict[Exponent, list[float]]:
    """The k_levels lowest levels of each wall exponent the regime admits,
    by Chebyshev collocation in z; entry n of a list is level n.  PLUS
    holds the bound levels or upper band edges, MINUS the lower edges.

    Rounding grows with the grid, so level j comes from a grid sized for
    about 2j levels: with one grid for all, the lowest lower edge, whose
    lambda^2 vanishes as s -> 1/2, would be off by about 2e-7 of the
    energy floor at k_levels = 500.
    """
    k_levels = integer("k_levels", k_levels, 1)
    # N >= 33 + 2k at any s, so a k past the cap is refused before any float overflows
    if 33 + 2 * k_levels > _COLLOCATION_MAX or _grid_size(params.s, k_levels) > _COLLOCATION_MAX:
        raise ValueError(f"k_levels={k_levels} at s={params.s} needs a collocation "
                         f"grid larger than N={_COLLOCATION_MAX}")
    levels = {}
    for exponent in _exponents(params.regime):
        mu = exponent.mu(params.s)
        lam2: list[float] = []
        while len(lam2) < k_levels:
            want = min(k_levels, max(_COLLOCATION_FIRST, 2 * len(lam2)))
            lam2 += _collocate(params.s, mu, want)[len(lam2):]
        levels[exponent] = [v * params.energy_unit for v in lam2]
    return levels


def _collocate(s: float, mu: float, k: int) -> list[float]:
    """The k lowest lambda^2 with u ~ z^mu at both walls, from one dense
    eigenproblem (Trefethen, Spectral Methods in MATLAB, SIAM 2000).

    Up to s = 2 it collocates w = u / sin^mu(z), which solves
    w_zz + 2 mu cot(z) w_z + (lambda^2 - mu^2) w = 0 with w_z = 0 at both
    walls; the two Neumann rows give the boundary values, which are
    eliminated.  Above s = 2 that matrix is too far from normal, and u
    itself is collocated with u = 0 at the walls (below s = 1 that would
    converge only algebraically).  The grid is in z: in cos z the w-operator
    is triangular on polynomials and would return the closed forms.
    """
    n = _grid_size(s, k)
    z, d1 = _chebyshev(n)
    d2 = d1 @ d1
    inner = slice(1, n)
    if s > _U_FORM_S:
        op = -d2[inner, inner]
        op[np.diag_indices(n - 1)] += wall_coefficient(s) / np.sin(z[inner]) ** 2
        shift = 0.0
    else:
        walls = [0, n]
        op = -d2[inner] - (2.0 * mu / np.tan(z[inner]))[:, None] * d1[inner]
        boundary = np.linalg.solve(d1[np.ix_(walls, walls)], -d1[walls, inner])
        op = op[:, inner] + op[:, walls] @ boundary
        shift = mu * mu
    return (np.sort(np.linalg.eigvals(op).real)[:k] + shift).tolist()


def _grid_size(s: float, k: int) -> int:
    """Collocation grid size N for the k lowest levels: it grows with k
    and with sqrt(s (2k + 1)), the widest wavenumber of level k in the
    near-harmonic well of large s."""
    return 32 + 2 * k + math.ceil(3.0 * math.sqrt(s * (2 * k + 1)))


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Lobatto points z_j = pi (1 - cos(j pi / n)) / 2, j = 0..n,
    and the first-derivative matrix on them, with point differences in
    product form so that none cancels near a wall."""
    j = np.arange(n + 1)
    half = np.pi * j / (2.0 * n)
    dx = 2.0 * np.sin(half[:, None] + half) * np.sin(half - half[:, None])
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return np.pi * np.sin(half) ** 2, -(2.0 / np.pi) * d
