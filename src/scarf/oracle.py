"""Independent eigensolvers for one cell of the potential.

These oracles know nothing of the residue algebra or its closed forms:
they integrate the Schrodinger equation itself.  With z = pi x / a and
E = lambda^2 pi^2/(2 m a^2), -u''/(2m) + V u = E u becomes

    u_zz = (C / sin^2 z - lambda^2) u,    C = -(1/4 - s^2),

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

A shot starts where its own series is still exact to rounding (Pryce,
ch. 5, on series starts at a regular singular endpoint): z0(s,
lambda^2, mu) is the largest z <= _Z_CAP at which the last series term
|c_16| z^16 is at most _SERIES_EPS = 1e-17, and never below 1e-3 pi.
_Z_CAP = 0.152 is where the first csc^2 term the series drops,
4 z^12/1403325, reaches _SERIES_EPS of the wall term 1/z^2.  The low
levels of s <= 2 start at the cap and those of s = 30 near 0.1; z0
shrinks as lambda^2 grows and reaches 1e-3 pi at lambda^2 of about 4e4
(7e4 at s = 2).  The power-law zone next to the wall, where most RK
steps went, is thus summed in closed form:
run_verification(n_max=2, "shooting") takes 2,201 RK steps at s = 2 and
3,246 at s = 0.4, where a fixed 1e-3 pi start took 5,384 and 8,403.

No start depends on a or m, and find_eigen's re-solve starts every
shot at exactly z0/2.  Each integration is made once per process: _shot
caches it on (s, exponent, half start, lambda^2).  Roots are polished by
brentq, a port of SciPy's Brent solver, so no oracle imports scipy.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import kernels
from .errors import BracketError, NumericError, RegimeError
from .potential import LAMBDA2_FLOOR, PotentialParams, Regime

logger = logging.getLogger(__name__)

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

_BRENTQ_RTOL = 1e-14          # relative tolerance of the root polish
_BRENTQ_XTOL = 1e-30          # absolute tolerance of the root polish
_BRENTQ_ITER = 100            # iteration cap of the root polish
_REBRACKET = 1e-6             # delta/2 re-solve bracket, in energy scales
_SHOT_CACHE = 4096            # integrations kept by _shot
_SERIES_ORDER = 16            # Frobenius start summed through z^16
_SERIES_EPS = 1e-17           # largest last series term |c_16| z^16 at a start
_DELTA = 1e-3                 # the start's floor over pi, and resolve_delta's over a
_Z_FLOOR = _DELTA * math.pi   # the lowest start in z
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


@dataclass(frozen=True)
class ShootingConfig:
    """Configuration of one shooting family: its wall exponent, and
    whether its shots start at the series start z0(s, lambda^2, mu) of
    the module docstring or, with half_start, at exactly z0/2."""

    exponent: Exponent = Exponent.PLUS
    half_start: bool = False

    def resolve_delta(self, a: float) -> float:
        """1e-3 a, halved with half_start.  No shot reads it; its only reader
        is the benchmark's span tracer (perfbench/tracer.py), which compares
        it to tell find_eigen's re-solve shots from its polish shots."""
        return _DELTA * a / (2.0 if self.half_start else 1.0)


@dataclass(frozen=True)
class OracleResult:
    """Level n of one shooting family: the root of theta(E) = (n + 1) pi/2.

    delta_sensitivity is the move of the energy when every shot starts at
    half its offset, relative to its energy scale
    (PotentialParams.energy_scale).
    """

    energy: float
    exponent: Exponent
    n: int
    delta_sensitivity: float


def frobenius_series(s: float, lam2: float, mu: float) -> list[float]:
    """The coefficients c_0 = 1, c_2, ..., c_16 of the series solution
    u = z^mu sum(c_k z^k) of u_zz = (C/sin^2 z - lam2) u.

    C/sin^2 z - lam2 = C/z^2 + sum_j w_{2j} z^(2j); the recurrence
    c_k = sum_j w_{2j} c_{k-2-2j} / (k (k + 2 mu - 1)) follows from
    matching powers.
    """
    w = [-(0.25 - s * s) * c for c in _CSC2_SERIES]
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

    Integrates from the start offset to the cell midpoint and reads the
    angle of (u, u_z/S), S = max(lambda, 1), from the end state and the
    count of zeros of u on the way: theta = pi zeros + atan2(|u|, sigma
    u_z/S), sigma = (-1)^zeros.  atan2 of |u| is in [0, pi], so a zero
    of u at exactly pi/2, which the kernel does not count, still gives
    theta its full pi.
    """
    if params.regime is Regime.BOUND_STATES and cfg.exponent is Exponent.MINUS:
        raise RegimeError("bound regime admits only the 1/2 + s exponent")
    lam2 = energy / params.energy_unit
    u, v, zeros = _shot(params.s, cfg.exponent, cfg.half_start, lam2)
    sigma = -1.0 if zeros % 2 else 1.0
    return math.pi * zeros + math.atan2(abs(u), sigma * v / math.sqrt(max(lam2, 1.0)))


@functools.lru_cache(maxsize=_SHOT_CACHE)
def _shot(s: float, exponent: Exponent, half_start: bool,
          lam2: float) -> tuple[float, float, int]:
    """(u, u_z, zeros of u) at z = pi/2 from the Frobenius start at the
    series start z0, or at z0/2 with half_start: one kernel call, made
    once per process for each argument set."""
    mu = 0.5 + s if exponent is Exponent.PLUS else 0.5 - s
    series = frobenius_series(s, lam2, mu)
    z = start_offset(series) / (2.0 if half_start else 1.0)
    u0, v0 = frobenius_start(series, mu, z)
    u, v, _, _, zeros = kernels.shoot_halfcell(-(0.25 - s**2), lam2, z, u0, v0)
    return u, v, zeros


def find_eigen(params: PotentialParams, bracket: tuple[float, float],
               cfg: ShootingConfig) -> OracleResult:
    """The one level of cfg's family inside an energy bracket.

    Raises BracketError unless the bracket crosses exactly one level
    phase (n + 1) pi/2.  Only cfg's exponent is read: the root is
    polished by brentq on theta minus that phase to 1e-14 relative in
    lambda^2 with every shot at z0, then re-solved with every shot at
    z0/2, on a bracket of _REBRACKET energy scales around it, to measure
    the start-offset sensitivity.
    """
    ref = _reference(params)
    polish = ShootingConfig(cfg.exponent)
    unit = params.energy_unit
    lo, hi = bracket[0] / unit, bracket[1] / unit
    n = _level_count(ref, lo, polish)
    if _level_count(ref, hi, polish) != n + 1:
        raise BracketError(f"bracket {bracket} does not cross exactly one level")
    lam2 = _crossing(ref, polish, n, lo, hi)
    width = _REBRACKET * ref.energy_scale(lam2)
    lam2_half = _crossing(ref, ShootingConfig(cfg.exponent, half_start=True), n,
                          lam2 - width, lam2 + width)
    return OracleResult(
        energy=float(lam2 * unit), exponent=cfg.exponent, n=n,
        delta_sensitivity=float(abs(lam2 - lam2_half) / ref.energy_scale(lam2)),
    )


def _reference(params: PotentialParams) -> PotentialParams:
    """The same coupling at a = pi, m = 1/2, where x is z and the energy
    unit is 1, so E is lambda^2."""
    return PotentialParams(params.s, a=math.pi, m=0.5)


def _phase(params: PotentialParams, energy: float, cfg: ShootingConfig) -> float:
    """2 theta / pi: level n of the family sits where it equals n + 1."""
    return 2.0 * shoot(params, energy, cfg) / math.pi


def _level_count(params: PotentialParams, energy: float, cfg: ShootingConfig) -> int:
    """The number of the family's levels at or below E."""
    return math.floor(_phase(params, energy, cfg))


def _crossing(params: PotentialParams, cfg: ShootingConfig, n: int,
              lo: float, hi: float) -> float:
    """The energy in [lo, hi] where the family's phase reaches level n, by
    brentq; BracketError unless lo is below that level and hi not."""
    def mismatch(energy: float) -> float:
        return _phase(params, energy, cfg) - (n + 1)

    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if not f_lo < 0.0 <= f_hi:
        raise BracketError(f"level {n} is not crossed on [{lo}, {hi}]")
    return brentq(mismatch, lo, hi, f_lo, f_hi)


def brentq(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in [lo, hi], where f(lo) = f_lo and f(hi) = f_hi differ
    in sign, by Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).

    A line-for-line port of SciPy's brentq.c, so roots agree with
    scipy.optimize.brentq bit for bit: secant or inverse quadratic steps
    while they shrink the bracket fast enough, bisection otherwise, until
    the bracket is below 2 delta, delta = (xtol + rtol |x|)/2.  Raises
    NumericError on a NaN value or after _BRENTQ_ITER iterations.
    """
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(_BRENTQ_ITER):
        if math.isnan(fcur) or math.isnan(fpre):
            raise NumericError(f"NaN matching value near E={xcur}")
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENTQ_XTOL + _BRENTQ_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)          # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry                               # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericError(f"Brent polish did not converge in {_BRENTQ_ITER} iterations")


def _exponents(regime: Regime) -> list[Exponent]:
    if regime is Regime.BOUND_STATES:
        return [Exponent.PLUS]
    return [Exponent.PLUS, Exponent.MINUS]


def scan_spectrum(params: PotentialParams, e_max: float) -> list[OracleResult]:
    """Every shooting level with 0 < E <= e_max, across the families of
    the regime, sorted by energy.

    Per family, bisection in lambda^2 on [0, e_max] splits the range
    until each part crosses one level phase (n + 1) pi/2, and find_eigen
    solves each part.  At s = 1/2 the lower edges' family has theta =
    pi/2 at E = 0 exactly, so that free-particle fold lies outside
    (0, e_max].  Just below s = 1/2 the lowest lower edge, lambda^2 =
    (1/2 - s)^2, is below the phase's resolution of about 1e-16: it is
    bracketed from -LAMBDA2_FLOOR (see _level_cells) and reported at its
    polished energy, which can land within about 1e-16 energy units of 0
    on either side.  Results from different families are kept separate even
    when degenerate (the free-particle limit produces coinciding edges
    from distinct families on purpose).
    """
    if not 0.0 < e_max < math.inf:
        raise ValueError(f"e_max must be positive and finite, got {e_max}")
    ref = _reference(params)
    unit = params.energy_unit
    results: list[OracleResult] = []
    for exponent in _exponents(params.regime):
        cfg = ShootingConfig(exponent=exponent)
        cells = _level_cells(ref, cfg, e_max / unit)
        logger.debug("family %s: %d levels in (0, %g]", exponent.value, len(cells), e_max)
        for lo, hi in cells:
            try:
                res = find_eigen(ref, (lo, hi), cfg)
            except (BracketError, NumericError) as exc:
                logger.warning("family %s failed on bracket (%g, %g): %s",
                               exponent.value, lo, hi, exc)
                continue
            results.append(replace(res, energy=res.energy * unit))
    results.sort(key=lambda r: r.energy)
    return results


def _level_cells(params: PotentialParams, cfg: ShootingConfig,
                 e_max: float) -> list[tuple[float, float]]:
    """Ascending parts (a, b], together covering (0, e_max], that each
    hold one level of the family, found by bisection on the level count.

    Outside the free particle no level lies at or below E = 0, so the
    count there is 0 unless the lowest level rounds onto it: 2 theta/pi
    of the lower edges' family reads 1.0 at E = 0 once (1/2 - s)^2 is
    below about 1e-16.  Bisection then starts at -LAMBDA2_FLOOR, where
    the count is 0 again.
    """
    def cells(lo: float, n_lo: int, hi: float, n_hi: int) -> list[tuple[float, float]]:
        if n_hi <= n_lo:
            return []
        if n_hi == n_lo + 1:
            return [(lo, hi)]
        mid = 0.5 * (lo + hi)
        n_mid = _level_count(params, mid, cfg)
        return cells(lo, n_lo, mid, n_mid) + cells(mid, n_mid, hi, n_hi)

    lo, n_lo = 0.0, _level_count(params, 0.0, cfg)
    if n_lo and params.regime is not Regime.FREE_PARTICLE:
        lo, n_lo = -LAMBDA2_FLOOR, _level_count(params, -LAMBDA2_FLOOR, cfg)
    return cells(lo, n_lo, e_max, _level_count(params, e_max, cfg))


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
    if isinstance(k_levels, bool) or not isinstance(k_levels, numbers.Integral) or k_levels < 1:
        raise ValueError(f"k_levels must be a positive integer, got {k_levels!r}")
    k_levels = int(k_levels)
    if _grid_size(params.s, k_levels) > _COLLOCATION_MAX:
        raise ValueError(f"k_levels={k_levels} at s={params.s} needs a collocation "
                         f"grid larger than N={_COLLOCATION_MAX}")
    levels = {}
    for exponent in _exponents(params.regime):
        mu = 0.5 + params.s if exponent is Exponent.PLUS else 0.5 - params.s
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
        op[np.diag_indices(n - 1)] += (s * s - 0.25) / np.sin(z[inner]) ** 2
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
