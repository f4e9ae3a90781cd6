"""Assembly, normalization, and sampling of eigenfunctions.

In the cot variable every eigenfunction is psi(y) = (y^2+1)^(b1-1/2) P_n(y)
with b1 = (1-lambda)/2, i.e. (y^2+1)^(-lambda/2) P_n(y).  Back in x, with
sn = sin(pi x / a) and cs = cos(pi x / a),

    psi(x) = sn^(lambda - n) * sum_k c_k cs^k sn^(n-k)

because (y^2+1)^(-lambda/2) = sn^lambda and sn^n P_n(cot) is a polynomial
in (cs, sn).  This trig form stays bounded arbitrarily close to the walls
where cot itself overflows.  The boundary exponent lambda - n equals
1/2 + s for bound and upper-edge states and 1/2 - s for lower edges, so
psi -> 0 at every lattice point in both regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad

from .errors import ConsistencyError, NumericError
from .polynomials import PolySpec, build_poly
from .potential import PotentialParams, evaluate_potential, is_lattice_point, reduce_to_cell
from .spectrum import SpectrumLine

_NORM_ABS_TOL = 1e-12
_NODE_ZERO_TOL = 1e-13
_PARITY_TOL = 1e-10


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
    b1: float
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
    spec = WavefunctionSpec(line=line, poly=poly, params=params,
                            b1=(1.0 - line.lam) / 2.0, norm=1.0)
    norm_sq, err = quad(lambda x: _eval_raw(spec, np.asarray(x)) ** 2,
                        0.0, params.a,
                        points=[0.05 * params.a, 0.5 * params.a, 0.95 * params.a],
                        epsabs=_NORM_ABS_TOL, epsrel=1e-12, limit=400)
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise NumericError(f"normalization integral failed: {norm_sq}")
    if err > 1e-9 * norm_sq + 1e-12:
        raise NumericError(f"normalization quadrature error too large: {err}")
    return replace(spec, norm=1.0 / math.sqrt(norm_sq))


def _eval_raw(spec: WavefunctionSpec, x):
    """Unnormalized psi via the overflow-free trig-polynomial form."""
    a = spec.params.a
    r = reduce_to_cell(x, a)
    z = np.pi * r / a
    sn = np.sin(z)
    cs = np.cos(z)
    n = spec.poly.n
    trig_poly = np.zeros_like(sn)
    for k in range(n + 1):
        ck = spec.poly.coeffs[k]
        if ck != 0.0:
            trig_poly = trig_poly + ck * cs**k * sn ** (n - k)
    return sn ** (spec.line.lam - n) * trig_poly


def eval_psi(spec: WavefunctionSpec, x, return_boundary: bool = False):
    """Normalized psi(x); scalar in, scalar out (arrays likewise).

    Lattice points evaluate to exactly 0.0: psi extends continuously to
    zero at the walls in both regimes (boundary exponent > 0).  With
    return_boundary=True the result is (value, flag) where flag marks the
    points that hit a lattice wall.
    """
    x = np.asarray(x, dtype=float)
    lattice = is_lattice_point(x, spec.params.a)
    if x.ndim == 0:
        value = 0.0 if lattice else float(spec.norm * _eval_raw(spec, x))
        return (value, bool(lattice)) if return_boundary else value
    out = np.where(lattice, 0.0,
                   spec.norm * _eval_raw(spec, np.where(lattice, 0.5 * spec.params.a, x)))
    return (out, lattice) if return_boundary else out


def eval_psi_dd(spec: WavefunctionSpec, x):
    """Analytic second derivative of psi, for residual checks.

    Differentiates psi = sn^lambda P(cot) twice in z = pi x / a:

        psi'' = w^2 [ lam(lam-1) sn^(lam-2) cs^2 P - lam sn^lam P
                      - (2 lam - 2) sn^(lam-3) cs P' + sn^(lam-4) P'' ]

    Uses cot directly, so keep x away from walls by a margin (the residual
    grid excludes 1e-3 a); elsewhere prefer eval_psi.
    """
    x = np.asarray(x, dtype=float)
    a = spec.params.a
    r = reduce_to_cell(x, a)
    z = np.pi * r / a
    sn = np.sin(z)
    cs = np.cos(z)
    u = cs / sn
    lam = spec.line.lam
    w = np.pi / a
    p = npoly.polyval(u, spec.poly.coeffs)
    p1 = npoly.polyval(u, spec.poly.derivative(1))
    p2 = npoly.polyval(u, spec.poly.derivative(2)) if spec.poly.n >= 2 else np.zeros_like(u)
    dd = w * w * (
        lam * (lam - 1.0) * sn ** (lam - 2.0) * cs * cs * p
        - lam * sn**lam * p
        - (2.0 * lam - 2.0) * sn ** (lam - 3.0) * cs * p1
        + sn ** (lam - 4.0) * p2
    )
    out = spec.norm * dd
    return float(out) if out.ndim == 0 else out


def count_nodes(spec: WavefunctionSpec, samples: int = 512) -> int:
    """Number of interior sign changes of psi over one open cell.

    Samples a uniform open grid, drops values indistinguishable from zero
    (below 1e-13 of the grid max), and counts the sign changes of the
    rest.  Two adjacent near-zero samples mean the grid cannot resolve the
    crossing and a NumericError asks for more resolution.
    """
    if samples < 64:
        raise ValueError("samples must be >= 64")
    a = spec.params.a
    xs = a * np.arange(1, samples + 1) / (samples + 1.0)
    vals = eval_psi(spec, xs)
    vmax = np.abs(vals).max()
    if vmax == 0.0:
        raise NumericError("psi vanished on the whole sampling grid")
    small = np.abs(vals) <= _NODE_ZERO_TOL * vmax
    if np.any(small[:-1] & small[1:]):
        raise NumericError("adjacent near-zero samples: increase resolution")
    signs = np.sign(vals[~small])
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def boundary_exponent(spec: WavefunctionSpec, n_points: int = 32) -> float:
    """Least-squares slope of log psi vs log x on x in [1e-5 a, 1e-3 a].

    The window auto-shrinks (moves up a decade) once if psi underflows in
    it; a still-degenerate window raises NumericError.
    """
    a = spec.params.a
    for lo, hi in ((1e-5 * a, 1e-3 * a), (1e-4 * a, 1e-2 * a)):
        xs = np.geomspace(lo, hi, n_points)
        vals = np.abs(eval_psi(spec, xs))
        if np.all(vals > 0.0) and np.all(np.isfinite(np.log(vals))):
            slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
            return float(slope)
    raise NumericError("psi underflowed in every boundary-fit window")


def parity(spec: WavefunctionSpec, samples: int = 128) -> Parity:
    """Parity about the cell midpoint a/2; Even iff n is even.

    Measured, not assumed: the symmetric and antisymmetric defects are
    compared against 1e-10 max|psi| on a probe grid.
    """
    a = spec.params.a
    us = a * (np.arange(1, samples + 1)) / (2.0 * (samples + 1.0))
    left = eval_psi(spec, a / 2.0 - us)
    right = eval_psi(spec, a / 2.0 + us)
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


def schrodinger_residual(spec: WavefunctionSpec, n_points: int = 200,
                         margin: float = 1e-3) -> tuple[float, float]:
    """(max residual, tolerance scale) of the Schrodinger equation.

    Residual -psi''/(2m) + (V - E) psi on n_points interior points
    excluding a margin*a strip at each wall; scale is |E| max|psi| on the
    grid, the natural comparison for relative statements.
    """
    p = spec.params
    xs = np.linspace(margin * p.a, (1.0 - margin) * p.a, n_points)
    psi = eval_psi(spec, xs)
    dd = eval_psi_dd(spec, xs)
    res = -dd / (2.0 * p.m) + (evaluate_potential(p, xs) - spec.line.energy) * psi
    scale = abs(spec.line.energy) * np.abs(psi).max()
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
