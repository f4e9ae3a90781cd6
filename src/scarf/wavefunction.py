"""Assembly, normalization, and sampling of eigenfunctions.

With theta = pi x / a and kappa = lambda - n, every eigenfunction is the
Gegenbauer form of Cooper, Khare and Sukhatme, Phys. Rep. 251 (1995) 267:

    psi(x) = sin^kappa(theta) R_n^kappa(cos theta),    R_n^kappa = C_n^kappa / C_n^kappa(1),

which is sin^lambda(theta) P_n(cot theta) with P_n monic.  The boundary
exponent kappa equals 1/2 + s for bound and upper-edge states and 1/2 - s
for lower edges, so psi -> 0 at every lattice point in both regimes.  R comes
from polynomials.gegenbauer_ratios, the normalised three-term recurrence
(DLMF 18.9.1) that also gives the momentum function, and is differentiated
by dR_n^kappa/dt = n (n + 2 kappa) / (2 kappa + 1) R_{n-1}^(kappa+1) (DLMF
18.9.19).  The node count and boundary fit read R and log sin directly, so
they neither threshold zeros nor underflow in the sin^kappa tails.  The norm
of C_n^kappa and Legendre duplication give int_0^a psi^2 dx in closed form,
finite at kappa = 0:

    a 2^(2 kappa - 1) n! Gamma(kappa + 1/2)^2 / (pi (n + kappa) Gamma(n + 2 kappa))

for n >= 1, and a Gamma(kappa + 1/2) / (sqrt(pi) Gamma(kappa + 1)) for n = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConsistencyError, NumericError
from .polynomials import PolySpec, build_poly, gegenbauer_ratios
from .potential import PotentialParams, evaluate_potential, is_lattice_point, reduce_to_cell
from .spectrum import SpectrumLine

_PARITY_TOL = 1e-10
_NODE_SAMPLES = 512
_PARITY_SAMPLES = 128
_EXPONENT_POINTS = 32
_RESIDUAL_POINTS = 200
_RESIDUAL_MARGIN = 1e-3  # fraction of a left out at each wall


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class WavefunctionSpec:
    """Everything needed to evaluate one normalized eigenfunction.

    norm is fixed by int_0^a psi^2 dx = 1.
    """

    line: SpectrumLine
    poly: PolySpec
    params: PotentialParams
    norm: float

    @property
    def boundary_power(self) -> float:
        """Exponent of psi ~ x^mu at the cell walls: lambda - n."""
        return self.line.lam - self.line.n


def build_wavefunction(params: PotentialParams, line: SpectrumLine) -> WavefunctionSpec:
    """Assemble and L2-normalize the eigenfunction of a spectrum line.

    The line must have been produced for the same params: regime, lambda,
    and energy are re-derived and checked before anything is evaluated.
    """
    if line.regime is not params.regime:
        raise ConsistencyError(
            f"line regime {line.regime} does not match params regime {params.regime}"
        )
    expected_energy = math.pi**2 * line.lam**2 / (2.0 * params.m * params.a**2)
    if line.energy > 0 and abs(line.energy - expected_energy) > 1e-12 * line.energy:
        raise ConsistencyError("line energy inconsistent with its lambda for these params")
    poly = build_poly(params.s, line.n, line.edge)
    if abs(poly.lam - line.lam) > 1e-12 * max(1.0, line.lam):
        raise ConsistencyError("line lambda inconsistent with (s, n, edge)")
    norm = 1.0 / math.sqrt(_raw_norm_sq(params.a, line.n, line.lam - line.n))
    return WavefunctionSpec(line=line, poly=poly, params=params, norm=norm)


def _raw_norm_sq(a: float, n: int, kappa: float) -> float:
    """int_0^a psi_raw^2 dx by the closed form of the module docstring."""
    g = math.lgamma(kappa + 0.5)
    if n == 0:
        return a * math.exp(g - math.lgamma(kappa + 1.0)) / math.sqrt(math.pi)
    return a * math.exp((2.0 * kappa - 1.0) * math.log(2.0) + math.lgamma(n + 1.0) + 2.0 * g
                        - math.lgamma(n + 2.0 * kappa)) / (math.pi * (n + kappa))


def _angle(spec: WavefunctionSpec, x):
    """theta = pi x / a with x reduced to the cell [0, a)."""
    a = spec.params.a
    return np.pi * reduce_to_cell(np.asarray(x, dtype=float), a) / a


def eval_psi(spec: WavefunctionSpec, x):
    """Normalized psi(x); scalar in, scalar out (arrays likewise).

    Lattice points evaluate to exactly 0.0: psi extends continuously to
    zero at the walls in both regimes (boundary exponent > 0).
    """
    x = np.asarray(x, dtype=float)
    z = _angle(spec, x)
    n, kappa = spec.line.n, spec.boundary_power
    out = np.where(is_lattice_point(x, spec.params.a), 0.0,
                   spec.norm * np.sin(z) ** kappa * gegenbauer_ratios(n, kappa, np.cos(z))[0])
    return float(out) if out.ndim == 0 else out


def eval_psi_dd(spec: WavefunctionSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """(psi, psi'') away from the walls from one R_n, for residual checks.

    With S = sin theta, C = cos theta, t = C and R' = dR/dt, twice in theta:

        d2/dtheta2 [S^k R] = S^(k-2) [k (k-1) R - k^2 S^2 R - (2k+1) S^2 C R' + S^4 R'']

    R' and R'' come from the derivative identity of the module docstring,
    not from the Gegenbauer ODE, so the Schrodinger residual stays an
    independent check.  Unbounded at the walls for most kappa < 2; the
    residual grid keeps 1e-3 a away from them.
    """
    z = _angle(spec, x)
    sn, t = np.sin(z), np.cos(z)
    n, k = spec.line.n, spec.boundary_power
    r = gegenbauer_ratios(n, k, t)[0]
    d1 = n * (n + 2.0 * k) / (2.0 * k + 1.0)
    r1 = d1 * gegenbauer_ratios(n - 1, k + 1.0, t)[0] if n >= 1 else 0.0
    d2 = d1 * (n - 1) * (n + 2.0 * k + 1.0) / (2.0 * k + 3.0)
    r2 = d2 * gegenbauer_ratios(n - 2, k + 2.0, t)[0] if n >= 2 else 0.0
    s2 = sn * sn
    w = np.pi / spec.params.a
    out = spec.norm * w * w * sn ** (k - 2.0) * (
        k * (k - 1.0) * r - k * k * s2 * r - (2.0 * k + 1.0) * s2 * t * r1 + s2 * s2 * r2)
    return spec.norm * sn ** k * r, out


def count_nodes(spec: WavefunctionSpec) -> int:
    """Number of interior sign changes of psi over one open cell.

    sign(psi) = sign(R_n^kappa(cos theta)) inside the cell, so this counts
    the sign changes of R on a uniform open grid of max(512, 8 (n + 1))
    points, skipping samples that are exactly zero.  With about eight
    samples per node, two nodes do not fall between neighbouring samples.
    """
    n = spec.line.n
    samples = max(_NODE_SAMPLES, 8 * (n + 1))
    z = np.pi * np.arange(1, samples + 1) / (samples + 1.0)
    signs = np.sign(gegenbauer_ratios(n, spec.boundary_power, np.cos(z))[0])
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def boundary_exponent(spec: WavefunctionSpec) -> float:
    """Least-squares slope of log|psi| vs log x at 32 points of x in
    [1e-5, 1e-3] a / (n + 1).

    log|psi| is fitted as kappa log sin(theta) + log|R| (the norm only
    shifts it), which cannot underflow; the window shrinks with n so that
    R's own curvature stays far below the 1e-3 check tolerance.
    """
    a, n, kappa = spec.params.a, spec.line.n, spec.boundary_power
    xs = np.geomspace(1e-5 * a / (n + 1), 1e-3 * a / (n + 1), _EXPONENT_POINTS)
    z = _angle(spec, xs)
    r = gegenbauer_ratios(n, kappa, np.cos(z))[0]
    logs = kappa * np.log(np.sin(z)) + np.log(np.abs(r))
    return float(np.polyfit(np.log(xs), logs, 1)[0])


def parity(spec: WavefunctionSpec) -> Parity:
    """Parity about the cell midpoint a/2; Even iff n is even.

    Measured, not assumed: the symmetric and antisymmetric defects are
    compared against 1e-10 max|psi| on 128 points each side.
    """
    a = spec.params.a
    us = a * (np.arange(1, _PARITY_SAMPLES + 1)) / (2.0 * (_PARITY_SAMPLES + 1.0))
    left, right = np.split(eval_psi(spec, np.concatenate((a / 2.0 - us, a / 2.0 + us))), 2)
    scale = max(np.abs(left).max(), np.abs(right).max())
    even_defect = np.abs(right - left).max()
    odd_defect = np.abs(right + left).max()
    if even_defect <= _PARITY_TOL * scale and even_defect <= odd_defect:
        return Parity.EVEN
    if odd_defect <= _PARITY_TOL * scale:
        return Parity.ODD
    raise NumericError(
        f"state has no definite parity: defects {even_defect:.2e}/{odd_defect:.2e}"
    )


def schrodinger_residual(spec: WavefunctionSpec) -> tuple[float, float]:
    """(max residual, tolerance scale) of the Schrodinger equation.

    Residual -psi''/(2m) + (V - E) psi on 200 interior points excluding a
    1e-3 a strip at each wall; scale is max|psi| on the grid times the
    energy scale of PotentialParams.energy_scale, the natural comparison
    for relative statements.
    """
    p = spec.params
    xs = np.linspace(_RESIDUAL_MARGIN * p.a, (1.0 - _RESIDUAL_MARGIN) * p.a,
                     _RESIDUAL_POINTS)
    psi, dd = eval_psi_dd(spec, xs)
    res = -dd / (2.0 * p.m) + (evaluate_potential(p, xs) - spec.line.energy) * psi
    scale = p.energy_scale(spec.line.energy) * np.abs(psi).max()
    return float(np.abs(res).max()), float(scale)


def sample_wavefunction(spec: WavefunctionSpec, samples: int) -> dict[str, np.ndarray]:
    """Plot-ready columns (x, V, psi, psi_squared) on a uniform grid offset
    from the lattice endpoints by a/(10*samples)."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    p = spec.params
    offset = p.a / (10.0 * samples)
    xs = np.linspace(offset, p.a - offset, samples)
    psi = eval_psi(spec, xs)
    return {"x": xs, "V": evaluate_potential(p, xs), "psi": psi, "psi_squared": psi**2}
