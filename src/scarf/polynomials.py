"""Polynomial part P_n of the eigenfunctions, in its Gegenbauer form.

Every eigenfunction factors as psi(y) = (y^2+1)^(b1 - 1/2) P_n(y) with b1 =
(1 - lambda)/2.  P_n solves

    (y^2 + 1) P'' + (2 - 2 lambda) y P' + n (2 lambda - n - 1) P = 0,

which covers both band-edge cases (lambda = n + 1/2 -+ s) and the bound
case (lambda = n + 1/2 + s).  With P_n monic, y = cot(theta), t =
cos(theta) and kappa = lambda - n,

    sin^n(theta) P_n(cot theta) = C_n^kappa(t) / C_n^kappa(1) = R_n^kappa(t)

(Cooper, Khare and Sukhatme, Phys. Rep. 251 (1995) 267).  The package
evaluates P_n only through R, by the normalised three-term recurrence
(DLMF 18.9.1)

    R_0 = 1,  R_1 = t,  R_{k+1} = (2 (k + kappa) t R_k - k R_{k-1}) / (k + 2 kappa),

which is finite at kappa = 0 (the s = 1/2 lower edges) and stays bounded
where a monomial expansion of P_n overflows.  The Jacobi identification
P_n^(nu,nu)(-iy) with nu = -lambda and the monomial coefficient recurrence
are kept by the tests as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectrum import Edge, level_parameters


@dataclass(frozen=True, eq=False)
class PolySpec:
    """P_n of one level: its degree and lambda.

    P_n has exact degree n and the parity of n; its roots are the moving
    poles of the momentum function.
    """

    n: int
    lam: float

    @cached_property
    def roots(self) -> tuple[float, ...]:
        """The n real roots, ascending, solved once on first use.

        The roots are y_k = t_k / sqrt(1 - t_k^2) over the zeros t_k of
        C_n^kappa: the eigenvalues of its Jacobi matrix (Golub-Welsch),
        written in a form that stays finite at kappa = 0, from numpy's
        dense symmetric solver (which reads the lower triangle).
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


def build_poly(s: float, n: int, edge: Edge = Edge.NOT_APPLICABLE) -> PolySpec:
    """P_n of level (s, n, edge), with lambda from spectrum.level_parameters,
    which also checks n."""
    lam = level_parameters(s, n, edge)[0]
    return PolySpec(n=int(n), lam=lam)


def real_roots(poly: PolySpec) -> list[float]:
    """All real roots of P_n, ascending: the n moving poles."""
    return list(poly.roots)
