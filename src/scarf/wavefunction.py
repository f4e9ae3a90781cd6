"""Eigenfunctions of the Scarf potential: P_n and psi.

In the cot variable y = cot(theta), theta = pi x / a, every eigenfunction
factors as psi = (y^2+1)^(b1 - 1/2) P_n(y) = sin^lambda(theta) P_n(y) with
b1 = (1 - lambda)/2.  P_n solves

    (y^2 + 1) P'' + (2 - 2 lambda) y P' + n (2 lambda - n - 1) P = 0,

which covers both band-edge cases (lambda = n + 1/2 -+ s) and the bound
case (lambda = n + 1/2 + s); its n real roots are psi's nodes and the
moving poles of the momentum function, which qmf counts without solving
for them.  P_n has no record of its own: every reader takes n, lambda
and kappa = lambda - n from the level's SpectrumLine.  With P_n monic and
t = cos(theta),

    sin^n(theta) P_n(cot theta) = C_n^kappa(t) / C_n^kappa(1) = R_n^kappa(t)

(Cooper, Khare and Sukhatme, Phys. Rep. 251 (1995) 267), so

    psi(x) = sin^kappa(theta) R_n^kappa(cos theta).

The boundary exponent kappa equals 1/2 + s for bound and upper-edge states
and 1/2 - s for lower edges, so psi -> 0 at every lattice point where kappa
> 0; the s = 1/2 lower edges (kappa = 0) are the free waves cos(n pi x / a).
The package evaluates P_n only through R, by the normalised recurrence
(DLMF 18.9.1)

    R_0 = 1,  R_1 = t,  R_{k+1} = (2 (k + kappa) t R_k - k R_{k-1}) / (k + 2 kappa),

which is finite at kappa = 0 (the s = 1/2 lower edges) and stays bounded
where a monomial expansion of P_n overflows; gegenbauer_ratios runs it for
psi and for the momentum function alike.  The Jacobi identification
P_n^(nu,nu)(-iy) with nu = -lambda and the monomial coefficient recurrence
are kept by the tests as independent references.

The structure probes work on the unit cell in z = theta, with u = sin^kappa(z)
R_n(cos z) = psi / norm, so their values depend on (s, n, edge) alone; a and m
enter only the energies and sample_wavefunction's physical columns.  Each spec
caches one recurrence pass over the probes' three z-grids (parity shares the
node grid), made on first use; the residual grid, with its sin and cos, is a
module constant, and the node and exponent grids are built per spec.  u_zz
reads R_n, R_{n-1} and R_{n-2} of that pass through the contiguous relation
(1 - t^2) R_k' = k (R_{k-1} - t R_k).  The node count and boundary
fit read R and log sin directly, so they neither threshold zeros nor
underflow in the sin^kappa tails.  The norm of C_n^kappa and Legendre
duplication give int_0^a psi^2 dx in closed form, finite at kappa = 0:

    a 2^(2 kappa - 1) n! Gamma(kappa + 1/2)^2 / (pi (n + kappa) Gamma(n + 2 kappa))

for n >= 1, and a Gamma(kappa + 1/2) / (sqrt(pi) Gamma(kappa + 1)) for n = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, NumericError, RegimeError
from .potential import (
    LAMBDA2_FLOOR,
    PotentialParams,
    cell_map,
    evaluate_potential,
    finite_real,
    integer,
    wall_coefficient,
)
from .spectrum import Edge, SpectrumLine, spectrum_line

_PARITY_TOL = 1e-10
_NODE_SAMPLES = 512
_EXPONENT_POINTS = 32
_RESIDUAL_MARGIN = 1e-3  # fraction of the cell left out at each wall
# rows z, sin z, cos z of the residual probe's grid; the exponent grid at n = 0
_RESIDUAL_GRID = np.linspace(_RESIDUAL_MARGIN * np.pi, (1.0 - _RESIDUAL_MARGIN) * np.pi, 200)
_RESIDUAL_ROWS = (_RESIDUAL_GRID, np.sin(_RESIDUAL_GRID), np.cos(_RESIDUAL_GRID))
for _row in _RESIDUAL_ROWS:
    _row.flags.writeable = False  # shared by every spec's cell
_EXPONENT_UNIT = np.geomspace(1e-5 * np.pi, 1e-3 * np.pi, _EXPONENT_POINTS)


def gegenbauer_ratios(n: int, kappa: float, t):
    """(R_n, R_{n-1}, R_{n-2}) of R_k^kappa(t), arrays of t's shape, in one
    pass of the recurrence of the module docstring; terms of negative
    degree are 0.

    Each step is four array operations, in place where it can be, with
    1/(k + 2 kappa) folded into both scalar coefficients: numpy divides a
    complex array by a real scalar as a full complex division."""
    if n == 0:
        return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)
    older, prev, cur = np.zeros_like(t), np.ones_like(t), t
    for k in range(1, n):
        c = 1.0 / (k + 2.0 * kappa)
        nxt = t * cur
        nxt *= 2.0 * (k + kappa) * c
        nxt -= (k * c) * prev
        older, prev, cur = prev, cur, nxt
    return cur, prev, older


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class WavefunctionSpec:
    """Everything needed to evaluate one normalized eigenfunction.

    norm is fixed by int_0^a psi^2 dx = 1.
    """

    line: SpectrumLine
    params: PotentialParams
    norm: float

    @cached_property
    def cell(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Rows z, sin z, cos z, R_n, R_{n-1}, R_{n-2} at cos z on the grid of
        each structure probe, from one gegenbauer_ratios pass over all of
        them, made on first use.  The residual grid and its first three
        rows are module constants; the node grid, which parity shares, and
        the exponent grid, _EXPONENT_UNIT sqrt(500 / max(500, kappa)) /
        (n + 1), get one sin and one cos per spec.  The cache lives and
        dies with the spec."""
        n, kappa = self.line.n, self.line.kappa
        nodes = max(_NODE_SAMPLES, 8 * (n + 1))
        shrink = (n + 1) * math.sqrt(max(1.0, kappa / 500.0))
        z = np.concatenate((np.pi * np.arange(1, nodes + 1) / (nodes + 1.0),
                            _EXPONENT_UNIT / shrink))
        own = (z, np.sin(z), np.cos(z))
        ratios = gegenbauer_ratios(n, kappa, np.append(_RESIDUAL_ROWS[2], own[2]))
        cell, start = {}, 0
        for name, rows in (("residual", _RESIDUAL_ROWS), ("nodes", [v[:nodes] for v in own]),
                           ("exponent", [v[nodes:] for v in own])):
            stop = start + rows[0].size
            cell[name] = (*rows, *(r[start:stop] for r in ratios))
            start = stop
        return cell


def build_wavefunction(params: PotentialParams, line: SpectrumLine) -> WavefunctionSpec:
    """Assemble and L2-normalize the eigenfunction of a spectrum line.

    The line must equal spectrum_line(params, line.n, line.edge) field for
    field, else ConsistencyError (also where that call raises RegimeError).
    """
    try:
        rebuilt = spectrum_line(params, line.n, line.edge)
    except RegimeError:
        rebuilt = None
    if line != rebuilt:
        raise ConsistencyError(f"line (n={line.n}, {line.edge.value}) is not a level of {params}")
    norm = 1.0 / math.sqrt(_raw_norm_sq(params.a, line.n, line.kappa))
    return WavefunctionSpec(line=line, params=params, norm=norm)


def _raw_norm_sq(a: float, n: int, kappa: float) -> float:
    """int_0^a psi_raw^2 dx by the closed form of the module docstring."""
    g = math.lgamma(kappa + 0.5)
    if n == 0:
        return a * math.exp(g - math.lgamma(kappa + 1.0)) / math.sqrt(math.pi)
    return a * math.exp((2.0 * kappa - 1.0) * math.log(2.0) + math.lgamma(n + 1.0) + 2.0 * g
                        - math.lgamma(n + 2.0 * kappa)) / (math.pi * (n + kappa))


def eval_psi(spec: WavefunctionSpec, x):
    """Normalized psi(x); scalar in, scalar out (arrays likewise).

    The cell [0, a)'s value times a Bloch sign per cell: a band runs from
    k = 0 to pi / a, and as in the free limit s = 1/2 its lower edge n
    carries (-1)^n and its upper edge (-1)^(n+1), the free waves cos(n pi x
    / a) and sin((n + 1) pi x / a); bound levels, whose walls decouple the
    cells, carry +1.  Where kappa > 0 lattice points evaluate to exactly 0.0.
    """
    a = spec.params.a
    x, z, lattice = cell_map(x, a)
    n, kappa, edge = spec.line.n, spec.line.kappa, spec.line.edge
    out = spec.norm * np.sin(z) ** kappa * gegenbauer_ratios(n, kappa, np.cos(z))[0]
    if edge is not Edge.NOT_APPLICABLE and (n + (edge is Edge.UPPER)) % 2:
        out = np.where(np.fmod(np.floor(x / a), 2.0) != 0.0, -out, out)
    out = np.where(lattice & (kappa > 0), 0.0, out)
    return float(out) if out.ndim == 0 else out


def count_nodes(spec: WavefunctionSpec) -> int:
    """Number of interior sign changes of psi over one open cell.

    sign(psi) = sign(R_n^kappa(cos z)) inside the cell, so this counts the
    sign changes of R on a uniform open grid of max(512, 8 (n + 1)) points
    of z, skipping samples that are exactly zero.  With about eight samples
    per node, two nodes do not fall between neighbouring samples.
    """
    signs = np.sign(spec.cell["nodes"][3])
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[:-1] != signs[1:]))


def boundary_exponent(spec: WavefunctionSpec) -> float:
    """Least-squares slope of log|u| vs log z at 32 points of z in
    [1e-5, 1e-3] pi sqrt(500 / max(500, kappa)) / (n + 1), in closed form.

    log|u| is fitted as kappa log sin z + log|R|, which cannot underflow;
    the window shrinks with n so that R's own curvature stays far below the
    1e-3 check tolerance, and above kappa = 500 with sqrt(kappa) so that the
    slope's kappa z^2 / 3 bias from sin z != z does too.
    """
    z, sn, _, r, _, _ = spec.cell["exponent"]
    dz = np.log(z)
    dz -= dz.sum() / dz.size
    du = spec.line.kappa * np.log(sn) + np.log(np.abs(r))
    du -= du.sum() / du.size
    return float(np.dot(dz, du) / np.dot(dz, dz))


def parity(spec: WavefunctionSpec) -> Parity:
    """Parity about the cell midpoint; Even iff n is even.

    Measured, not assumed: the symmetric and antisymmetric defects of u
    are compared against 1e-10 max|u| over the N/2 mirror pairs z_k,
    z_(N+1-k) = pi - z_k of count_nodes' grid z_k = pi k / (N + 1), N even.
    """
    _, sn, _, r, _, _ = spec.cell["nodes"]
    u = sn ** spec.line.kappa * r
    scale = np.abs(u).max()
    even_defect = np.abs(u - u[::-1]).max()
    odd_defect = np.abs(u + u[::-1]).max()
    if even_defect <= _PARITY_TOL * scale and even_defect <= odd_defect:
        return Parity.EVEN
    if odd_defect <= _PARITY_TOL * scale:
        return Parity.ODD
    raise NumericError(
        f"state has no definite parity: defects {even_defect:.2e}/{odd_defect:.2e}"
    )


def _curvature(spec: WavefunctionSpec) -> tuple[np.ndarray, ...]:
    """(S^(k-2), S^2, R, D) on the residual grid, from the cached pass, with
    S = sin z, t = cos z, R' = dR/dt and

        u = S^(k-2) S^2 R,    u_zz = S^(k-2) [k (k-1) R - D],
        D = k^2 S^2 R + (2k+1) t S^2 R' - S^4 R'',
        S^2 R_n'  = n (R_{n-1} - t R_n),
        S^4 R_n'' = n (S^2 R_{n-1}' - S^2 R_n - t S^2 R_n') + 2 t S^2 R_n',

    the last two from the contiguous relation, not from the Gegenbauer ODE,
    so the Schrodinger residual stays an independent check.  S^2 is formed
    as (1 - t)(1 + t), true to the rounded t at which R was evaluated;
    sin^2 z is off from it by about 1e-16 / S^2 relative, which near the
    walls would show in the residual.  Unbounded at the walls for most
    kappa < 2; the residual grid keeps 1e-3 pi away.
    """
    _, sn, t, r, r1, r2 = spec.cell["residual"]
    n, k = spec.line.n, spec.line.kappa
    s2 = (1.0 - t) * (1.0 + t)
    d1 = n * (r1 - t * r)
    d2 = n * ((n - 1) * (r2 - t * r1) - s2 * r - t * d1) + 2.0 * t * d1
    return sn ** (k - 2.0), s2, r, k * k * s2 * r + (2.0 * k + 1.0) * t * d1 - d2


def schrodinger_residual(spec: WavefunctionSpec) -> tuple[float, float]:
    """(max residual, tolerance scale) of the Schrodinger equation in z.

    With e = E / (pi^2 / (2 m a^2)) the equation for u reads
    -u_zz + (C / sin^2 z - e) u = 0, C = s^2 - 1/4, evaluated as
    S^(k-2) [(C - k (k-1)) R + D - e S^2 R] so that the two wall
    terms, each of order S^(k-2), cancel before rounding.  The residual is
    taken on 200 points of z in [1e-3, 1 - 1e-3] pi; scale is max(|e|,
    LAMBDA2_FLOOR) max|u| on that grid, the energy scale of
    PotentialParams.energy_scale in energy units.
    """
    p, k = spec.params, spec.line.kappa
    e = spec.line.energy / p.energy_unit
    sk2, s2, r, d = _curvature(spec)
    res = sk2 * ((wall_coefficient(p.s) - k * (k - 1.0)) * r + d - e * s2 * r)
    scale = max(abs(e), LAMBDA2_FLOOR) * np.abs(sk2 * s2 * r).max()
    return float(np.abs(res).max()), float(scale)


def sample_wavefunction(spec: WavefunctionSpec, samples: int) -> dict[str, np.ndarray]:
    """Plot-ready columns (x, V, psi, psi_squared) on a uniform grid offset
    from the lattice endpoints by a/(10*samples).  Raises NumericError if a
    column holds a non-finite value, so no report of them starts."""
    samples = integer("samples", samples, 2)
    p = spec.params
    offset = p.a / (10.0 * finite_real("samples", samples))  # ValueError past the float range
    xs = np.linspace(offset, p.a - offset, samples)
    psi = eval_psi(spec, xs)
    cols = {"x": xs, "V": evaluate_potential(p, xs), "psi": psi, "psi_squared": psi**2}
    for name, col in cols.items():
        if not np.all(np.isfinite(col)):
            raise NumericError(f"{name} is not finite for a = {p.a!r}, m = {p.m!r}")
    return cols
