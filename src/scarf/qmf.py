"""Contour-integration probe of the momentum function's singularities.

For a constructed eigenstate the momentum function in the cot variable is

    chi(y) = 2 b1 y / (y^2 + 1) + P'(y) / P(y)

with simple poles at y = +-i (residue b1 each) and at the n real roots of
P (residue +1 each).  P'/P and its slope come from the Gegenbauer form of
P, by the recurrence psi uses (polynomials.gegenbauer_ratios): monomial
coefficients would fail the Riccati check from n of about 40 and overflow
by n = 500.  This module measures those residues numerically by
contour integration and checks the structural claims the closed forms rest
on: the sum rule b1 + b1' + n = d1, vanishing analytic part, odd parity of
chi, and the Riccati equation

    chi^2 + chi' + (lambda^2 - 1)/(y^2+1)^2 + (1/4 - s^2)/(y^2+1) = 0.

Every contour is an ellipse z(theta) = c + alpha e^(i theta) + beta
e^(-i theta), with semi-axes rx = alpha + beta along the real axis and
ry = alpha - beta across it, sampled by the N-point trapezoid rule in
theta.  For these analytic integrands that rule converges geometrically
(Trefethen and Weideman, SIAM Review 56 (2014) 385), at the rate set by
how far the ellipse can shrink in its confocal family before it meets a
pole.  On the residue circles (rx = ry) every other pole stays at least
half a radius from the contour.  The moving-pole count needs a flat ellipse that holds the real roots and
stays clear of +-i; its inner poles lie a distance of about ry/rx in
theta from the contour, so N is the smallest power of two >= max(256,
32 rx/ry): at least 32 such distances, an error near e^-32.  A contour
with corners would converge only algebraically.

Conventions: in the original momentum variable p = -i q the moving-pole
residue reads -i hbar; after the variable changes used here it is +1, the
same fact in the chi normalization.  In the classical limit the momentum
function tends to sqrt(2m(E - V)), the WKB starting point; that limit is
outside this package's scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContourError, NumericError
from .polynomials import PolySpec, gegenbauer_ratios, real_roots
from .wavefunction import WavefunctionSpec

_D0_TOL = 1e-10
_COUNT_TOL = 1e-6
_MIN_NODES = 256
_FIXED_RADIUS = 0.4  # circles around +-i for b1 and b1'
_COUNT_HALF_HEIGHT = 0.5  # semi-minor axis of the moving-pole ellipse
_PROBE_POINTS = 64


@dataclass(frozen=True)
class ChiFunction:
    """chi and its analytic derivative for one eigenstate."""

    b1: float
    poly: PolySpec
    lam: float
    s: float

    @classmethod
    def from_wavefunction(cls, spec: WavefunctionSpec) -> "ChiFunction":
        return cls(b1=spec.line.b1, poly=spec.poly, lam=spec.line.lam, s=spec.params.s)

    def __call__(self, y):
        y = np.asarray(y, dtype=complex)
        return 2.0 * self.b1 * y / (y * y + 1.0) + log_derivative(self.poly, y)

    def derivative(self, y):
        """chi'(y) differentiated analytically (no numerical step)."""
        y = np.asarray(y, dtype=complex)
        rational = 2.0 * self.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2
        return rational + log_derivative(self.poly, y, slope=True)[1]

    def pole_locations(self) -> list[complex]:
        return [1j, -1j] + [complex(r) for r in real_roots(self.poly)]


def log_derivative(poly: PolySpec, y, slope: bool = False):
    """P'(y)/P(y) at complex y from one pass of gegenbauer_ratios, and
    with slope=True the pair (P'/P, its y-derivative).

    With h = sqrt(1 + y^2), t = y/h, rho = R_{n-1}(t)/R_n(t) and the
    contiguous relation (1 - t^2) R_k' = k (R_{k-1} - t R_k):

        P'/P     = n rho / h,
        (P'/P)'  = n [(R'_{n-1} - rho R'_n) / (R_n h^4) - rho y / h^3].

    Both are even in h, so either branch of the root serves, and t stays
    bounded on every contour here.  The slope comes from the contiguous
    relation, not from the ODE that P solves, so the Riccati residual
    stays an independent check.
    """
    n = poly.n
    h = np.sqrt(1.0 + y * y)
    t = y / h
    r, r1, r2 = gegenbauer_ratios(n, poly.lam - n, t)
    rho = r1 / r
    if not slope:
        return n * rho / h
    h2 = h * h
    dr = n * h2 * (r1 - t * r)
    dr1 = (n - 1) * h2 * (r2 - t * r1)
    return n * rho / h, n * ((dr1 - rho * dr) / (r * h2 * h2) - rho * y / (h2 * h))


@dataclass(frozen=True)
class ResidueReport:
    """Contour-measured singularity data for one state."""

    b1_measured: complex
    b1_prime_measured: complex
    d1_measured: complex
    moving_pole_count: int
    sum_rule_defect: float


def _ellipse(center: complex, rx: float, ry: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes z_k on the ellipse of the module docstring and
    factors w_k = z'(theta_k) / i, so that mean(f(z) * w) approximates
    (1/2 pi i) times the closed integral of f dz."""
    nodes = _MIN_NODES
    while nodes < 32.0 * rx / ry:
        nodes *= 2
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    e = np.exp(1j * theta)
    alpha, beta = 0.5 * (rx + ry), 0.5 * (rx - ry)
    back = beta * e.conj()
    return center + alpha * e + back, alpha * e - back


def contour_residue(chi: ChiFunction, center: complex, radius: float) -> complex:
    """(1/2 pi i) closed circle integral of chi around one pole.

    The circle must isolate the target: any other pole within 1.5x the
    radius is a contour error.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    for pole in chi.pole_locations():
        dist = abs(pole - center)
        if dist > radius * 1e-9 and dist < 1.5 * radius:
            raise ContourError(
                f"pole at {pole} within 1.5x radius of contour at {center}"
            )
    z, w = _ellipse(center, radius, radius)
    return complex(np.mean(chi(z) * w))


def residue_at_infinity(chi: ChiFunction) -> complex:
    """d1 from a circle of radius 10 (1 + max|pole|), enclosing every
    finite pole.

    Equals the sum of all finite residues; doubling the radius must
    reproduce it to 1e-9, and the circle average (the Laurent constant d0)
    must vanish to 1e-10, otherwise the assumed rational structure fails.
    """
    radius = 10.0 * (1.0 + max(abs(p) for p in chi.pole_locations()))
    values = []
    for r in (radius, 2.0 * radius):
        z, w = _ellipse(0.0, r, r)
        vals = chi(z)
        d0 = complex(np.mean(vals))
        if abs(d0) > _D0_TOL:
            raise NumericError(f"Laurent constant d0 = {d0} exceeds {_D0_TOL}")
        values.append(complex(np.mean(vals * w)))
    if abs(values[0] - values[1]) > 1e-9 * (1.0 + abs(values[0])):
        raise NumericError(
            f"residue at infinity did not converge: {values[0]} vs {values[1]}"
        )
    return values[0]


def count_moving_poles(chi: ChiFunction) -> int:
    """Number of moving poles on the real axis, by the argument principle
    applied to the polynomial factor alone.

    The ellipse has semi-axes 2 (1 + max|root|) + 1 along the real axis
    and 1/2 across it: it holds every root and stays clear of the fixed
    poles (irrelevant for P'/P, but it keeps the contour tied to the
    singularity layout).
    """
    max_root = max((abs(r) for r in real_roots(chi.poly)), default=0.0)
    z, w = _ellipse(0.0, 2.0 * (1.0 + max_root) + 1.0, _COUNT_HALF_HEIGHT)
    count = complex(np.mean(log_derivative(chi.poly, z) * w))
    nearest = round(count.real)
    if abs(count - nearest) > _COUNT_TOL:
        raise ContourError(f"argument-principle count {count} is not an integer")
    return int(nearest)


def verify_riccati(chi: ChiFunction, lam: float | None = None) -> float:
    """Max |chi^2 + chi' + (lam^2-1)/(y^2+1)^2 + (1/4-s^2)/(y^2+1)| on the
    probe grid.

    Passing a different lam than the state's own is the intended negative
    control: the residual then reports the eigenvalue mismatch instead of
    vanishing.
    """
    lam = chi.lam if lam is None else lam
    ys = _probe_grid(chi)
    val = chi(ys)
    dval = chi.derivative(ys)
    res = (val * val + dval
           + (lam**2 - 1.0) / (ys**2 + 1.0) ** 2
           + (0.25 - chi.s**2) / (ys**2 + 1.0))
    return float(np.abs(res).max())


def _probe_grid(chi: ChiFunction) -> np.ndarray:
    """64 points on [-5, 5], less those within 0.06 of a moving pole.

    At high degree the poles thin that grid out (from n = 394 at s = 2 they
    clear it), so when fewer than a quarter of its points are left the
    probes take the midpoints in theta = arccot y between consecutive
    poles instead, each as far from its two poles as the spacing allows."""
    poles = real_roots(chi.poly)
    ys = np.linspace(-5.0, 5.0, _PROBE_POINTS)
    for pole in poles:
        ys = ys[np.abs(ys - pole) >= 0.06]
    if ys.size >= _PROBE_POINTS // 4:
        return ys
    theta = np.arctan2(1.0, np.sort(poles))
    mid = 0.5 * (theta[1:] + theta[:-1])
    return np.cos(mid) / np.sin(mid)


def chi_parity_defect(chi: ChiFunction) -> float:
    """max |chi(-y) + chi(y)| / max |chi| on the probe grid (chi is odd)."""
    ys = _probe_grid(chi)
    plus = chi(ys)
    minus = chi(-ys)
    scale = np.abs(plus).max()
    if scale == 0.0:
        # chi vanishes identically for the free-particle lambda = 1 state
        return 0.0
    return float(np.abs(minus + plus).max() / scale)


def residue_report(chi: ChiFunction) -> ResidueReport:
    """Measure all residues of a state and its sum-rule defect."""
    b1 = contour_residue(chi, 1j, _FIXED_RADIUS)
    b1p = contour_residue(chi, -1j, _FIXED_RADIUS)
    d1 = residue_at_infinity(chi)
    count = count_moving_poles(chi)
    return ResidueReport(
        b1_measured=b1,
        b1_prime_measured=b1p,
        d1_measured=d1,
        moving_pole_count=count,
        sum_rule_defect=float(abs(b1 + b1p + count - d1)),
    )
