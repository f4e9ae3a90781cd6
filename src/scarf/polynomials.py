"""Polynomial part P_n of the eigenfunctions.

Every eigenfunction factors as psi(y) = (y^2+1)^(b1 - 1/2) P_n(y) with b1 =
(1 - lambda)/2.  P_n solves

    (y^2 + 1) P'' + (2 - 2 lambda) y P' + n (2 lambda - n - 1) P = 0,

which covers both band-edge cases (lambda = n + 1/2 -+ s) and the bound
case (lambda = n + 1/2 + s).  The construction is the two-term
coefficient recurrence of this ODE, which is unconditionally well defined
here.  The Jacobi identification P_n^(nu,nu)(-iy) with nu = -lambda is not
used: standard Jacobi normalizations can degenerate at the negative
parameter values this problem produces, and the tests keep it only as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConstructionError
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
        matrix (Golub-Welsch), written in a form that stays finite at kappa = 0,
        from numpy's dense symmetric solver (which reads the lower triangle).
        """
        if self.n == 0:
            return ()
        kappa = self.lam - self.n
        k = np.arange(2.0, self.n)
        off = np.sqrt(np.concatenate((
            [0.5 / (1.0 + kappa)],
            k * (k + 2.0 * kappa - 1.0) / (4.0 * (k + kappa) * (k + kappa - 1.0)))))
        t = np.linalg.eigvalsh(np.diag(off[: self.n - 1], -1))
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


def real_roots(poly: PolySpec) -> list[float]:
    """All real roots of P_n, ascending: the n moving poles."""
    return list(poly.roots)
