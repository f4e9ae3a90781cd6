"""Contour-integration probe of the momentum function's singularities.

For a constructed eigenstate the momentum function in the cot variable is

    chi(y) = 2 b1 y / (y^2 + 1) + P'(y) / P(y)

with simple poles at y = +-i (residue b1 each) and at the n real roots of
P (residue +1 each).  This module measures those residues numerically by
contour integration and checks the structural claims the closed forms rest
on: the sum rule b1 + b1' + n = d1, vanishing analytic part, odd parity of
chi, and the Riccati equation

    chi^2 + chi' + (lambda^2 - 1)/(y^2+1)^2 + (1/4 - s^2)/(y^2+1) = 0.

Trapezoid sums on circles are spectrally accurate for these analytic
integrands; the rectangle used for the moving-pole count is discretized
with composite Gauss-Legendre panels per side (a uniform rule on a contour
with corners converges only algebraically and cannot reach the 1e-6
integer-count contract).

Conventions: in the original momentum variable p = -i q the moving-pole
residue reads -i hbar; after the variable changes used here it is +1, the
same fact in the chi normalization.  In the classical limit the momentum
function tends to sqrt(2m(E - V)), the WKB starting point; that limit is
outside this package's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ContourError, NumericError
from .polynomials import PolySpec, real_roots
from .wavefunction import WavefunctionSpec

_D0_TOL = 1e-10
_COUNT_TOL = 1e-6


@dataclass(frozen=True)
class ChiFunction:
    """chi and its analytic derivative for one eigenstate."""

    b1: float
    poly: PolySpec
    lam: float
    s: float

    @classmethod
    def from_wavefunction(cls, spec: WavefunctionSpec) -> "ChiFunction":
        return cls(b1=spec.b1, poly=spec.poly, lam=spec.line.lam, s=spec.params.s)

    def __call__(self, y):
        y = np.asarray(y, dtype=complex)
        p, p1 = (npoly.polyval(y, self.poly.derivative(k)) for k in range(2))
        return 2.0 * self.b1 * y / (y * y + 1.0) + p1 / p

    def derivative(self, y):
        """chi'(y) differentiated analytically (no numerical step)."""
        y = np.asarray(y, dtype=complex)
        p, p1, p2 = (npoly.polyval(y, self.poly.derivative(k)) for k in range(3))
        rational = 2.0 * self.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2
        return rational + (p2 * p - p1 * p1) / (p * p)

    def pole_locations(self) -> list[complex]:
        return [1j, -1j] + [complex(r) for r in real_roots(self.poly)]


@dataclass(frozen=True)
class ResidueReport:
    """Contour-measured singularity data for one state."""

    b1_measured: complex
    b1_prime_measured: complex
    d1_measured: complex
    moving_pole_count: int
    sum_rule_defect: float
    riccati_residual: float


def contour_residue(chi: ChiFunction, center: complex, radius: float,
                    samples: int = 256) -> complex:
    """(1/2 pi i) closed circle integral of chi around one pole.

    The circle must isolate the target: any other pole within 1.5x the
    radius is a contour error.  samples must be a power of two, >= 64.
    """
    _check_samples(samples)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    for pole in chi.pole_locations():
        dist = abs(pole - center)
        if dist > radius * 1e-9 and dist < 1.5 * radius:
            raise ContourError(
                f"pole at {pole} within 1.5x radius of contour at {center}"
            )
    theta = 2.0 * np.pi * np.arange(samples) / samples
    ring = radius * np.exp(1j * theta)
    return complex(np.mean(chi(center + ring) * ring))


def residue_at_infinity(chi: ChiFunction, radius: float | None = None,
                        samples: int = 256) -> complex:
    """d1 from a circle enclosing every finite pole.

    Equals the sum of all finite residues; doubling the radius must
    reproduce it to 1e-9, and the circle average (the Laurent constant d0)
    must vanish to 1e-10, otherwise the assumed rational structure fails.
    """
    _check_samples(samples)
    max_pole = max(abs(p) for p in chi.pole_locations())
    min_radius = 10.0 * (1.0 + max_pole)
    if radius is None:
        radius = min_radius
    elif radius < min_radius:
        raise ValueError(f"radius must be >= {min_radius} to enclose all poles")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    values = []
    for r in (radius, 2.0 * radius):
        ring = r * np.exp(1j * theta)
        vals = chi(ring)
        d0 = complex(np.mean(vals))
        if abs(d0) > _D0_TOL:
            raise NumericError(f"Laurent constant d0 = {d0} exceeds {_D0_TOL}")
        values.append(complex(np.mean(vals * ring)))
    if abs(values[0] - values[1]) > 1e-9 * (1.0 + abs(values[0])):
        raise NumericError(
            f"residue at infinity did not converge: {values[0]} vs {values[1]}"
        )
    return values[0]


def count_moving_poles(chi: ChiFunction, half_width: float | None = None,
                       samples: int = 256) -> int:
    """Number of moving poles on the real segment, by the argument
    principle applied to the polynomial factor alone.

    Rectangle [-Y, Y] x [-i/2, +i/2]; the half-height stays clear of the
    fixed poles (irrelevant for P'/P but keeps the contour geometry tied
    to the singularity layout).  Each side uses composite Gauss-Legendre
    panels totalling `samples` nodes.
    """
    _check_samples(samples)
    roots = real_roots(chi.poly)
    max_root = max((abs(r) for r in roots), default=0.0)
    min_width = 2.0 * (1.0 + max_root)
    if half_width is None:
        half_width = min_width + 1.0
    elif half_width <= min_width:
        raise ValueError(f"half_width must exceed {min_width}")
    dcoef = chi.poly.derivative(1)

    def f(z):
        return npoly.polyval(z, dcoef) / npoly.polyval(z, chi.poly.coeffs)

    y = half_width
    h = 0.5
    corners = [-y - 1j * h, y - 1j * h, y + 1j * h, -y + 1j * h]
    panels = 8
    order = samples // panels
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0 + 0.0j
    for i in range(4):
        za, zb = corners[i], corners[(i + 1) % 4]
        for p in range(panels):
            pa = za + (zb - za) * (p / panels)
            pb = za + (zb - za) * ((p + 1) / panels)
            mid = 0.5 * (pa + pb)
            half = 0.5 * (pb - pa)
            total += np.sum(weights * f(mid + half * nodes)) * half
    count = total / (2j * np.pi)
    nearest = round(count.real)
    if abs(count - nearest) > _COUNT_TOL:
        raise ContourError(f"argument-principle count {count} is not an integer")
    return int(nearest)


def verify_riccati(chi: ChiFunction, grid=None, lam: float | None = None,
                   s: float | None = None) -> float:
    """Max |chi^2 + chi' + (lam^2-1)/(y^2+1)^2 + (1/4-s^2)/(y^2+1)| on a
    real grid that keeps a margin >= 0.05 from every pole.

    Passing a different lam than the state's own is the intended negative
    control: the residual then reports the eigenvalue mismatch instead of
    vanishing.
    """
    lam = chi.lam if lam is None else lam
    s = chi.s if s is None else s
    if grid is None:
        grid = _default_riccati_grid(chi)
    ys = np.asarray(grid, dtype=float)
    for pole in real_roots(chi.poly):
        if np.any(np.abs(ys - pole) < 0.05):
            raise ValueError("grid violates the 0.05 pole margin")
    val = chi(ys)
    dval = chi.derivative(ys)
    res = (val * val + dval
           + (lam**2 - 1.0) / (ys**2 + 1.0) ** 2
           + (0.25 - s**2) / (ys**2 + 1.0))
    return float(np.abs(res).max())


def _default_riccati_grid(chi: ChiFunction, n_points: int = 64) -> np.ndarray:
    ys = np.linspace(-5.0, 5.0, n_points)
    for pole in real_roots(chi.poly):
        ys = ys[np.abs(ys - pole) >= 0.06]
    return ys


def chi_parity_defect(chi: ChiFunction, grid=None) -> float:
    """max |chi(-y) + chi(y)| / max |chi| on the probe grid (chi is odd)."""
    if grid is None:
        grid = _default_riccati_grid(chi)
    ys = np.asarray(grid, dtype=float)
    plus = chi(ys)
    minus = chi(-ys)
    scale = np.abs(plus).max()
    if scale == 0.0:
        # chi vanishes identically for the free-particle lambda = 1 state
        return 0.0
    return float(np.abs(minus + plus).max() / scale)


def residue_report(chi: ChiFunction, fixed_radius: float = 0.4,
                   samples: int = 256) -> ResidueReport:
    """Measure all residues of a state and its sum-rule defect."""
    b1 = contour_residue(chi, 1j, fixed_radius, samples)
    b1p = contour_residue(chi, -1j, fixed_radius, samples)
    d1 = residue_at_infinity(chi, samples=samples)
    count = count_moving_poles(chi, samples=samples)
    defect = abs(b1 + b1p + count - d1)
    return ResidueReport(
        b1_measured=b1,
        b1_prime_measured=b1p,
        d1_measured=d1,
        moving_pole_count=count,
        sum_rule_defect=float(defect),
        riccati_residual=verify_riccati(chi),
    )


def _check_samples(samples: int) -> None:
    if samples < 64 or samples & (samples - 1):
        raise ValueError("samples must be a power of two, >= 64")
