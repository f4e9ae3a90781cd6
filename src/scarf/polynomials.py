"""Polynomial part P_n of the eigenfunctions.

Every eigenfunction factors as psi(y) = (y^2+1)^(b1 - 1/2) P_n(y) with b1 =
(1 - lambda)/2.  P_n solves

    (y^2 + 1) P'' + (2 - 2 lambda) y P' + n (2 lambda - n - 1) P = 0,

which covers both band-edge cases (lambda = n + 1/2 -+ s) and the bound
case (lambda = n + 1/2 + s).  The primary construction is the two-term
coefficient recurrence of this ODE, which is unconditionally well defined
here; the Jacobi identification P_n^(nu,nu)(-iy) with nu = -lambda is kept
only as an independent cross-check, because standard Jacobi normalizations
can degenerate at the negative parameter values this problem produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConstructionError, JacobiDegeneracyError, RegimeError
from .potential import Regime
from .spectrum import Edge, level_parameters


@dataclass(frozen=True, eq=False)
class PolySpec:
    """Monic polynomial of exact degree n with definite parity.

    coeffs holds ascending powers of y (real after stripping the global
    i^n phase of the Jacobi form); entries of parity opposite to n are
    exactly zero.  The roots are the moving poles of the momentum function.
    """

    n: int
    coeffs: np.ndarray
    lam: float
    s: float
    edge: Edge

    def __post_init__(self):
        derivs = [npoly.polyder(np.asarray(self.coeffs, dtype=float), k) for k in range(3)]
        for c in derivs:
            c.setflags(write=False)
        object.__setattr__(self, "coeffs", derivs[0])
        object.__setattr__(self, "_derivs", derivs)

    def __call__(self, y):
        return npoly.polyval(y, self.coeffs)

    def derivative(self, order: int = 1) -> np.ndarray:
        """Coefficients of P^(order), order 0, 1 or 2."""
        return self._derivs[order]

    @cached_property
    def roots(self) -> tuple[float, ...]:
        """The n real roots, ascending, solved once on first use.

        sin^n(theta) P_n(cot theta) = C_n^kappa(t) / C_n^kappa(1) with t =
        cos(theta) and kappa = lam - n, so the roots are y_k = t_k / sqrt(1 -
        t_k^2) over the zeros t_k of C_n^kappa: the eigenvalues of its Jacobi
        matrix (Golub-Welsch), written in a form that stays finite at kappa = 0.
        """
        if self.n == 0:
            return ()
        kappa = self.lam - self.n
        k = np.arange(2.0, self.n)
        off = np.sqrt(np.concatenate((
            [0.5 / (1.0 + kappa)],
            k * (k + 2.0 * kappa - 1.0) / (4.0 * (k + kappa) * (k + kappa - 1.0)))))
        t = eigvalsh_tridiagonal(np.zeros(self.n), off[: self.n - 1])
        return tuple(float(y) for y in t / np.sqrt((1.0 - t) * (1.0 + t)))


def build_poly(s: float, n: int, edge: Edge = Edge.NOT_APPLICABLE) -> PolySpec:
    """Construct P_n by the downward two-term recurrence, monic.

    Substituting sum(c_k y^k) into the ODE links c_k to c_{k+2}:

        c_k = -(k+2)(k+1) c_{k+2} / [(k - n)(k - (2 lambda - 1 - n))]

    The pivot vanishes only at k = n (that is the eigenvalue condition,
    where the recurrence starts) so the construction cannot break down for
    admissible (s, n, edge); the guard stays for defense.
    """
    if n < 0:
        raise ValueError("degree n must be non-negative")
    lam = level_parameters(s, n, edge)[0]
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    for k in range(n - 2, -1, -2):
        pivot = (k - n) * (k - (2.0 * lam - 1.0 - n))
        if pivot == 0.0:
            raise ConstructionError(
                f"zero pivot at k={k} for s={s}, n={n}, edge={edge.value}"
            )
        coeffs[k] = -(k + 2) * (k + 1) * coeffs[k + 2] / pivot
    return PolySpec(n=n, coeffs=coeffs, lam=lam, s=s, edge=edge)


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

    Valid for general real parameters and complex argument.  Used only to
    cross-check build_poly via P_n(-iy); raises JacobiDegeneracyError when
    a recurrence denominator vanishes (exceptional negative parameters),
    in which case the cross-check is skipped.
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


def real_roots(poly: PolySpec) -> list[float]:
    """All real roots of P_n, ascending: the n moving poles."""
    return list(poly.roots)


_RESIDUAL_GRID = 5.0 * np.cos(np.pi * (np.arange(64) + 0.5) / 64.0)  # Chebyshev points
_RESIDUAL_GRID.setflags(write=False)


def ode_residual(poly: PolySpec, ys=_RESIDUAL_GRID) -> float:
    """Max absolute residual of the defining ODE on a Chebyshev grid,
    normalized by nothing (caller compares against max |P| on the grid)."""
    ys = np.asarray(ys, dtype=float)
    p, p1, p2 = (npoly.polyval(ys, poly.derivative(k)) for k in range(3))
    lam, n = poly.lam, poly.n
    res = (ys**2 + 1.0) * p2 + (2.0 - 2.0 * lam) * ys * p1 + n * (2.0 * lam - n - 1.0) * p
    return float(np.abs(res).max())


def poly_scale(poly: PolySpec, ys=_RESIDUAL_GRID) -> float:
    """max |P| on the residual grid, the natural residual normalization."""
    return float(np.abs(poly(np.asarray(ys, dtype=float))).max())
