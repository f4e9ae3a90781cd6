"""A finite-difference reference for the bound levels, used only by the tests.

The package's second oracle is a Chebyshev collocation (scarf.oracle).
Here the same dimensionless equation, -u_zz + C/sin^2(z) u = lambda^2 u on
(0, pi) with hard Dirichlet walls, is discretised instead by second-order
central differences and solved by scipy's symmetric tridiagonal
eigensolver: a different discretisation and a different eigensolver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from scarf import PotentialParams, Regime, RegimeError

FD_POINTS = 4000   # cells N on (0, pi); Richardson pairs N and 2N


def fd_bound_spectrum(params: PotentialParams, k_levels: int = 4) -> list[float]:
    """The k_levels lowest bound levels, solved at 4000 and 8000 cells and
    Richardson-extrapolated (the eigenvalue error is O(h^2), so
    lambda^2 = (4 L_2N - L_N) / 3), then scaled to E.  Accurate to about
    1e-4 relative at the default grids."""
    if params.regime is not Regime.BOUND_STATES:
        raise RegimeError("finite-difference reference requires the bound regime (s > 1/2)")
    if k_levels < 1 or k_levels > FD_POINTS // 4:
        raise ValueError(f"k_levels={k_levels} out of range for N={FD_POINTS}")
    l_n = fd_levels(params.s, FD_POINTS, k_levels)
    l_2n = fd_levels(params.s, 2 * FD_POINTS, k_levels)
    return [(4.0 * b - a) / 3.0 * params.energy_unit for a, b in zip(l_n, l_2n)]


def fd_levels(s: float, n_grid: int, k: int) -> np.ndarray:
    """The k lowest lambda^2 of -u_zz + C/sin^2(z) u on n_grid cells."""
    h = math.pi / n_grid
    z = np.arange(1, n_grid) * h
    diag = 2.0 / (h * h) - (0.25 - s * s) / np.sin(z) ** 2
    off = np.full(n_grid - 2, -1.0 / (h * h))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True)
