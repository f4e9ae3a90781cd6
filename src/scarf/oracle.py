"""Independent eigensolvers working directly in x-space.

These oracles know nothing of the residue algebra or its closed forms:
they integrate the Schrodinger equation itself.  Two independent methods
are provided so the closed-form spectra can be cross-checked:

* a shooting method that starts just off the inverse-square wall with a
  Frobenius-series state and matches a parity condition at the cell
  midpoint (both regimes), and
* a finite-difference Dirichlet eigensolver on one cell with Richardson
  extrapolation (bound regime only).

Near a wall the equation u'' = 2m(V - E) u has indicial exponents
mu = 1/2 +- s, so admissible solutions behave as x^(1/2+s) (always) and,
in the band regime only, x^(1/2-s).  Symmetry of the cell about a/2 turns
the eigenproblem into four shooting families:

    exponent (+ or -)  x  match (psi(a/2) = 0 or psi'(a/2) = 0)

The bound regime admits only the + exponent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import kernels
from .errors import BracketError, NumericError, RegimeError
from .potential import PotentialParams, Regime, evaluate_potential
from .spectrum import Edge, SpectrumLine, spectrum_lines

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

ENERGY_RTOL = 1e-10           # contract tolerance for reported eigenvalues
_BRENTQ_RTOL = 1e-14          # solve tighter than the contract
_SCAN_STEP_FACTOR = 0.05      # dE = 0.05 * pi^2/(2 m a^2), below min level spacing
_DEDUP_RTOL = 1e-8
_CLASSIFY_RTOL = 1e-6


class Exponent(Enum):
    """Frobenius exponent at the wall: PLUS is 1/2 + s, MINUS is 1/2 - s."""

    PLUS = "plus"
    MINUS = "minus"


class MatchKind(Enum):
    VALUE_AT_MID = "value_at_mid"   # psi(a/2) = 0, odd states
    SLOPE_AT_MID = "slope_at_mid"   # psi'(a/2) = 0, even states


@dataclass(frozen=True)
class ShootingConfig:
    """Configuration of one shooting family.

    delta is the start offset from the wall; None resolves to 1e-3 * a.
    The Frobenius series is summed through x^series_order, which makes the
    start state accurate to machine precision at that delta, so halving
    delta moves reported energies by well under 1e-9 relative.
    """

    exponent: Exponent = Exponent.PLUS
    match: MatchKind = MatchKind.SLOPE_AT_MID
    delta: float | None = None
    rtol: float = 1e-13
    max_steps: int = 1_000_000
    series_order: int = 16

    def __post_init__(self):
        if self.delta is not None and self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.rtol <= 0.0:
            raise ValueError("integrator tolerance must be positive")
        if self.series_order < 2 or self.series_order % 2:
            raise ValueError("series_order must be an even integer >= 2")

    def resolve_delta(self, a: float) -> float:
        delta = 1e-3 * a if self.delta is None else self.delta
        if delta >= a / 100.0:
            raise ValueError(f"delta must be < a/100, got {delta} for a={a}")
        return delta


@dataclass(frozen=True)
class OracleResult:
    """One numerically found eigenvalue.

    classification is (n, Edge) when the energy sits within 1e-6 relative
    of a closed-form level, else None.  flagged marks results whose
    delta-halving sensitivity exceeds 10x the energy tolerance; they are
    reported, never silently accepted.
    """

    energy: float
    bracket: tuple[float, float]
    residual: float
    method: str
    exponent: Exponent | None = None
    match: MatchKind | None = None
    classification: tuple[int, Edge] | None = None
    delta_sensitivity: float = 0.0
    flagged: bool = False


def frobenius_exponent(s: float, exponent: Exponent) -> float:
    return 0.5 + s if exponent is Exponent.PLUS else 0.5 - s


def frobenius_start(params: PotentialParams, energy: float, mu: float,
                    delta: float, series_order: int = 16) -> tuple[float, float]:
    """Series solution u = x^mu sum(c_k x^k) of u'' = 2m(V - E)u near x = 0.

    2m(V - E) = C/x^2 + sum_j w_{2j} x^(2j) with C = -(1/4 - s^2); the
    recurrence c_k = sum_j w_{2j} c_{k-2-2j} / (k (k + 2 mu - 1)) follows
    from matching powers.  Truncated at x^series_order the start state is
    exact to machine precision for delta = 1e-3 a and energies well beyond
    the verification range.
    """
    s, a, m = params.s, params.a, params.m
    cpole = -(0.25 - s * s)
    w = [cpole * (math.pi / a) ** (2 * j + 2) * _CSC2_SERIES[j]
         for j in range(len(_CSC2_SERIES))]
    w[0] -= 2.0 * m * energy
    coeff = {0: 1.0}
    for k in range(2, series_order + 1, 2):
        acc = 0.0
        for j, wj in enumerate(w):
            kk = k - 2 - 2 * j
            if kk < 0:
                break
            acc += wj * coeff[kk]
        coeff[k] = acc / (k * (k + 2.0 * mu - 1.0))
    series = sum(ck * delta**k for k, ck in coeff.items())
    dseries = sum(ck * (mu + k) * delta ** (k - 1) for k, ck in coeff.items())
    return delta**mu * series, delta**mu * dseries


def shoot(params: PotentialParams, energy: float, cfg: ShootingConfig) -> float:
    """Matching value of one shooting family at trial energy E.

    Integrates from x = delta to x = a/2 and returns psi(a/2) or psi'(a/2)
    (per cfg.match) divided by the running maximum of |psi|, so the value
    is scale-free and overflow cannot bias the root location.
    """
    regime = params.regime
    if regime is Regime.BOUND_STATES and cfg.exponent is Exponent.MINUS:
        raise RegimeError("bound regime admits only the 1/2 + s exponent")
    if regime is Regime.UNSUPPORTED:
        raise RegimeError(f"unsupported coupling s = {params.s}")
    delta = cfg.resolve_delta(params.a)
    mu = frobenius_exponent(params.s, cfg.exponent)
    u0, v0 = frobenius_start(params, energy, mu, delta, cfg.series_order)
    pot_coeff = -(0.25 - params.s**2) * math.pi**2 / params.a**2
    u, v, runmax, nstep, status = kernels.shoot_halfcell(
        pot_coeff, 2.0 * params.m * energy, math.pi / params.a,
        delta, u0, v0, params.a / 2.0, cfg.rtol, 1e-280, cfg.max_steps,
    )
    if status == kernels.STATUS_MAX_STEPS:
        raise NumericError(f"integrator exceeded {cfg.max_steps} steps at E={energy}")
    if status == kernels.STATUS_STEP_UNDERFLOW:
        raise NumericError(f"integrator step underflow at E={energy}")
    if runmax == 0.0:
        raise NumericError("degenerate trajectory: psi identically zero")
    out = u if cfg.match is MatchKind.VALUE_AT_MID else v
    return float(out / runmax)


def find_eigen(params: PotentialParams, bracket: tuple[float, float],
               cfg: ShootingConfig, compute_sensitivity: bool = True) -> OracleResult:
    """Root of the matching function inside a sign-changing bracket.

    Bracketing Brent solve (bisection plus secant/inverse-quadratic
    polish) to well below the 1e-10 relative energy contract, then the
    root is re-solved with delta/2 to measure start-offset sensitivity.
    """
    e_lo, e_hi = bracket
    energy = _bracketed_root(params, cfg, e_lo, e_hi)
    if energy is None:
        raise BracketError(f"no sign change on bracket {bracket}")
    residual = abs(shoot(params, energy, cfg))
    sensitivity = 0.0
    flagged = False
    if compute_sensitivity:
        half_cfg = replace(cfg, delta=cfg.resolve_delta(params.a) / 2.0)
        e_half = _solve_near(params, half_cfg, energy)
        sensitivity = abs(energy - e_half) / abs(energy)
        flagged = sensitivity > 10.0 * ENERGY_RTOL
        if flagged:
            logger.warning("delta-halving moved E=%g by %.2e relative", energy, sensitivity)
    return OracleResult(
        energy=float(energy), bracket=(float(e_lo), float(e_hi)),
        residual=float(residual), method="shooting",
        exponent=cfg.exponent, match=cfg.match,
        delta_sensitivity=float(sensitivity), flagged=flagged,
    )


def _solve_near(params: PotentialParams, cfg: ShootingConfig, energy: float) -> float:
    """Re-find a known root with a perturbed config, bracketing tightly
    around it (the shift is far below 1e-6 relative by construction)."""
    for width in (1e-6, 1e-4, 1e-2):
        root = _bracketed_root(params, cfg, energy * (1.0 - width), energy * (1.0 + width))
        if root is not None:
            return root
    raise BracketError(f"could not re-bracket root near E={energy}")


def _bracketed_root(params: PotentialParams, cfg: ShootingConfig,
                    lo: float, hi: float) -> float | None:
    """Root of the matching function on [lo, hi]: an endpoint where it is
    exactly zero, else a Brent solve; None when the signs agree."""
    f_lo = shoot(params, lo, cfg)
    f_hi = shoot(params, hi, cfg)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        return None
    return float(brentq(lambda e: shoot(params, e, cfg), lo, hi,
                        rtol=_BRENTQ_RTOL, xtol=1e-30))


def _families(regime: Regime) -> list[tuple[Exponent, MatchKind]]:
    matches = (MatchKind.SLOPE_AT_MID, MatchKind.VALUE_AT_MID)
    if regime is Regime.BOUND_STATES:
        return [(Exponent.PLUS, mk) for mk in matches]
    return [(ex, mk) for ex in (Exponent.PLUS, Exponent.MINUS) for mk in matches]


def scan_spectrum(params: PotentialParams, e_max: float,
                  cfg_base: ShootingConfig | None = None) -> list[OracleResult]:
    """All shooting eigenvalues up to e_max, across every family of the
    regime, sorted by energy.

    Per family the matching function is sampled on an energy grid with
    step 0.05 pi^2/(2 m a^2) (finer than any level spacing for s >= 0.05),
    each sign change is bracketed and solved, and duplicate roots within a
    family are merged at 1e-8 relative.  Results from different families
    are kept separate even when degenerate (the free-particle limit
    produces coinciding edges from distinct families on purpose).
    Classification tags each result with the nearest closed-form (n, edge)
    within 1e-6 relative, else None.
    """
    if e_max <= 0.0:
        raise ValueError("e_max must be positive")
    cfg_base = cfg_base or ShootingConfig()
    step = _SCAN_STEP_FACTOR * math.pi**2 / (2.0 * params.m * params.a**2)
    grid = np.arange(0.0, e_max + step, step)
    if grid[-1] > e_max:
        grid[-1] = e_max
    levels = _closed_form_levels(params, e_max)
    results: list[OracleResult] = []
    for exponent, match in _families(params.regime):
        cfg = replace(cfg_base, exponent=exponent, match=match)
        family_roots: list[OracleResult] = []
        values = [shoot(params, float(e), cfg) for e in grid]
        for i in range(len(grid) - 1):
            lo, hi = values[i], values[i + 1]
            if lo == 0.0 or np.sign(lo) == np.sign(hi):
                continue
            try:
                res = find_eigen(params, (float(grid[i]), float(grid[i + 1])), cfg)
            except (BracketError, NumericError) as exc:
                logger.warning("family (%s, %s) failed on bracket %d: %s",
                               exponent.value, match.value, i, exc)
                continue
            if res.energy > e_max:
                continue
            if family_roots and _close(res.energy, family_roots[-1].energy):
                continue
            family_roots.append(res)
        logger.debug("family (%s, %s): %d roots below E=%g",
                     exponent.value, match.value, len(family_roots), e_max)
        results.extend(family_roots)
    results.sort(key=lambda r: r.energy)
    return [_classify(res, levels) for res in results]


def _close(e1: float, e2: float) -> bool:
    return abs(e1 - e2) <= _DEDUP_RTOL * max(abs(e1), abs(e2))


def _closed_form_levels(params: PotentialParams, e_max: float) -> list[SpectrumLine]:
    lam_max = math.sqrt(2.0 * params.m * e_max) * params.a / math.pi
    n_max = int(math.ceil(lam_max)) + 1
    return [ln for ln in spectrum_lines(params, n_max) if ln.energy <= e_max * (1.0 + 1e-9)]


def predicted_family(line: SpectrumLine) -> tuple[Exponent, MatchKind]:
    """Which shooting family must find a given closed-form level.

    Lower edges carry the 1/2 - s exponent, upper edges and bound levels
    the 1/2 + s one; even-n states are even about a/2 (slope match), odd-n
    states odd (value match).
    """
    exponent = Exponent.MINUS if line.edge is Edge.LOWER else Exponent.PLUS
    match = MatchKind.SLOPE_AT_MID if line.n % 2 == 0 else MatchKind.VALUE_AT_MID
    return exponent, match


def _classify(res: OracleResult, levels: list[SpectrumLine]) -> OracleResult:
    candidates = []
    for ln in levels:
        if ln.energy <= 0.0:
            continue
        rel = abs(res.energy - ln.energy) / ln.energy
        if rel <= _CLASSIFY_RTOL:
            candidates.append((rel, ln))
    if not candidates:
        return res
    candidates.sort(key=lambda item: item[0])
    # degenerate energies (free-particle folding) are told apart by family
    for rel, ln in candidates:
        if predicted_family(ln) == (res.exponent, res.match):
            return replace(res, classification=(ln.n, ln.edge))
    return replace(res, classification=(candidates[0][1].n, candidates[0][1].edge))


def fd_bound_spectrum(params: PotentialParams, grid_points: int = 4000,
                      k_levels: int = 4) -> list[float]:
    """Bound levels from a symmetric tridiagonal discretization.

    Second-order central differences on the open cell (0, a) with hard
    Dirichlet walls, solved at N and 2N and Richardson-extrapolated
    (eigenvalue error is O(h^2), so E = (4 E_{2N} - E_N) / 3).
    """
    if params.regime is not Regime.BOUND_STATES:
        raise RegimeError("finite-difference oracle requires the bound regime (s > 1/2)")
    if grid_points < 200:
        raise ValueError("grid_points must be >= 200")
    if k_levels < 1 or k_levels > grid_points // 4:
        raise ValueError(f"k_levels={k_levels} out of range for N={grid_points}")
    e_n = _fd_levels(params, grid_points, k_levels)
    e_2n = _fd_levels(params, 2 * grid_points, k_levels)
    return [(4.0 * b - a) / 3.0 for a, b in zip(e_n, e_2n)]


def _fd_levels(params: PotentialParams, n_grid: int, k: int) -> np.ndarray:
    h = params.a / n_grid
    v = evaluate_potential(params, np.arange(1, n_grid) * h)
    inv = 1.0 / (2.0 * params.m * h * h)
    diag = 2.0 * inv + v
    off = np.full(n_grid - 2, -inv)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)
