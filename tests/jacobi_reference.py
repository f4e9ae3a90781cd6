"""Independent references for P_n, used only by the tests.

The package evaluates P_n only in its Gegenbauer form.  Here P_n of a
level, given as its SpectrumLine (n and lambda), is built instead from
its monomial coefficients (monomial_coeffs, the two-term
recurrence of its ODE), and is, up to a constant, i^n P_n^(nu,nu)(-iy),
the symmetric Jacobi polynomial with nu = -lambda.  The Jacobi degree
recurrence and the defining ODE residual below check the monomial form
from outside it, and tridiagonal_roots takes P_n's roots from scipy's
tridiagonal eigensolver where the package uses numpy's dense one.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import eigvalsh_tridiagonal

from scarf import Edge, Regime, RegimeError, ScarfError, SpectrumLine


class JacobiDegeneracyError(ScarfError):
    """Jacobi three-term recurrence degenerated for exceptional parameters."""


def monomial_coeffs(line: SpectrumLine) -> np.ndarray:
    """Ascending monomial coefficients of P_n, monic, by the downward
    two-term recurrence of its ODE:

        c_k = -(k+2)(k+1) c_{k+2} / [(k - n)(k - (2 lambda - 1 - n))]

    The pivot vanishes only at k = n, where the recurrence starts.
    Entries of parity opposite to n are exactly zero.  A reference for
    small n only: P'/P evaluated from these coefficients fails the
    Riccati check from n of about 40 and overflows at n = 500.
    """
    n, lam = line.n, line.lam
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    for k in range(n - 2, -1, -2):
        coeffs[k] = -(k + 2) * (k + 1) * coeffs[k + 2] / ((k - n) * (k - (2.0 * lam - 1.0 - n)))
    return coeffs


def jacobi_parameters(s: float, n: int, regime: Regime, edge: Edge) -> tuple[float, float]:
    """Symmetric Jacobi parameters (nu, nu) of the eigen-polynomial:

        band upper edge / bound level : nu = -n - s - 1/2
        band lower edge               : nu = -n + s - 1/2
    """
    if regime is Regime.BOUND_STATES:
        if edge is not Edge.NOT_APPLICABLE:
            raise RegimeError("bound levels carry no edge tag")
        nu = -n - s - 0.5
    elif regime in (Regime.BANDS, Regime.FREE_PARTICLE):
        if edge is Edge.UPPER:
            nu = -n - s - 0.5
        elif edge is Edge.LOWER:
            nu = -n + s - 0.5
        else:
            raise RegimeError("band levels need edge=LOWER or edge=UPPER")
    else:
        raise RegimeError(f"unsupported regime {regime}")
    return (nu, nu)


def jacobi_eval(n: int, alpha: float, beta: float, t):
    """Jacobi polynomial P_n^(alpha,beta)(t) by the degree recurrence.

    Valid for general real parameters and complex argument; raises
    JacobiDegeneracyError when a recurrence denominator vanishes
    (exceptional negative parameters).
    """
    if n < 0:
        raise ValueError("degree n must be non-negative")
    if n == 0:
        return np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    pkm1 = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    pk = (alpha + 1.0) + (alpha + beta + 2.0) * (t - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        if c1 == 0.0:
            raise JacobiDegeneracyError(
                f"degenerate Jacobi recurrence at degree {k} for "
                f"alpha={alpha}, beta={beta}"
            )
        c2 = (2.0 * k + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        c3 = ((2.0 * k + alpha + beta - 1.0) * (2.0 * k + alpha + beta)
              * (2.0 * k + alpha + beta - 2.0))
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        pk, pkm1 = ((c2 + c3 * t) * pk - c4 * pkm1) / c1, pk
    return pk


def phase_stripped_jacobi(n: int, nu: float, y):
    """i^n P_n^(nu,nu)(-iy), real for real y with symmetric parameters."""
    val = (1j**n) * jacobi_eval(n, nu, nu, -1j * np.asarray(y, dtype=complex))
    return val.real if isinstance(val, np.ndarray) else complex(val).real


_RESIDUAL_GRID = 5.0 * np.cos(np.pi * (np.arange(64) + 0.5) / 64.0)  # Chebyshev points
_RESIDUAL_GRID.setflags(write=False)


def ode_residual(line: SpectrumLine, ys=_RESIDUAL_GRID) -> float:
    """Max absolute residual of the defining ODE on a Chebyshev grid,
    normalized by nothing (caller compares against max |P| on the grid)."""
    ys = np.asarray(ys, dtype=float)
    c = monomial_coeffs(line)
    p, p1, p2 = (npoly.polyval(ys, npoly.polyder(c, k)) for k in range(3))
    lam, n = line.lam, line.n
    res = (ys**2 + 1.0) * p2 + (2.0 - 2.0 * lam) * ys * p1 + n * (2.0 * lam - n - 1.0) * p
    return float(np.abs(res).max())


def poly_scale(line: SpectrumLine, ys=_RESIDUAL_GRID) -> float:
    """max |P| on the residual grid, the natural residual normalization."""
    return float(np.abs(npoly.polyval(np.asarray(ys, dtype=float), monomial_coeffs(line))).max())


def tridiagonal_roots(line: SpectrumLine) -> np.ndarray:
    """Roots y = t / sqrt(1 - t^2) of P_n over the zeros t of C_n^kappa,
    kappa = lam - n: the eigenvalues of the monic Gegenbauer Jacobi matrix,
    whose squared couplings are k (k + 2 kappa - 1) / (4 (k + kappa) (k +
    kappa - 1)), with k = 1 taken as its limit 1 / (2 (1 + kappa)), which
    holds at kappa = 0 too."""
    if line.n == 0:
        return np.zeros(0)
    kappa = line.lam - line.n
    k = np.arange(2.0, line.n)
    beta = np.concatenate((
        [0.5 / (1.0 + kappa)],
        k * (k + 2.0 * kappa - 1.0) / (4.0 * (k + kappa) * (k + kappa - 1.0))))
    t = eigvalsh_tridiagonal(np.zeros(line.n), np.sqrt(beta[: line.n - 1]))
    return t / np.sqrt((1.0 - t) * (1.0 + t))
