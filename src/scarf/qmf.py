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
half a radius from the contour.  The moving-pole count needs a flat
ellipse that holds the real roots and stays clear of +-i; its inner poles
lie a distance of about ry/rx in theta from the contour, so N is the
smallest power of two >= max(256, 32 rx/ry): at least 32 such distances,
an error near e^-32.  A contour with corners would converge only
algebraically.  Each ChiFunction caches one pass of the recurrence, made
on first use, over the nodes of the five contours of residue_report (two
residue circles, two circles at infinity, the moving-pole ellipse) and
over the probe grid and its mirror; chi' is formed on the probe grid alone.

Conventions: in the original momentum variable p = -i q the moving-pole
residue reads -i hbar; after the variable changes used here it is +1, the
same fact in the chi normalization.  In the classical limit the momentum
function tends to sqrt(2m(E - V)), the WKB starting point; that limit is
outside this package's scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        return self.fixed_part(y) + log_derivative(self.poly, y)

    def fixed_part(self, y):
        """2 b1 y / (y^2 + 1), the part of chi with the poles at +-i."""
        return 2.0 * self.b1 * y / (y * y + 1.0)

    def pole_locations(self) -> list[complex]:
        return [1j, -1j] + [complex(r) for r in real_roots(self.poly)]

    @cached_property
    def probes(self) -> tuple[list[tuple[np.ndarray, complex]], np.ndarray, tuple]:
        """The state's one recurrence pass, made on first use: the contour
        results of residue_report's five contours, the probe grid ys, and
        (chi(ys), chi'(ys), chi(-ys)), all from one _sweep.  The cache
        lives and dies with this object."""
        ys = _probe_grid(self)
        contours, grid = _sweep(self, [
            _residue_circle(self, 1j, _FIXED_RADIUS), _residue_circle(self, -1j, _FIXED_RADIUS),
            *_infinity_circles(self), _count_ellipse(self)], ys)
        return contours, ys, grid


def log_derivative(poly: PolySpec, y, slope: bool | slice = False):
    """P'(y)/P(y) at complex y from one pass of gegenbauer_ratios, and
    with slope=True the pair (P'/P, its y-derivative); a slice for slope
    forms the derivative on y[slope] alone.

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
    value = n * rho / h
    if not slope:
        return value
    k = slice(None) if slope is True else slope
    y, h, t, r, r1, r2, rho = (v[k] for v in (y, h, t, r, r1, r2, rho))
    h2 = h * h
    dr = n * h2 * (r1 - t * r)
    dr1 = (n - 1) * h2 * (r2 - t * r1)
    return value, n * ((dr1 - rho * dr) / (r * h2 * h2) - rho * y / (h2 * h))


@dataclass(frozen=True)
class ResidueReport:
    """Contour-measured singularity data for one state."""

    b1_measured: complex
    b1_prime_measured: complex
    d1_measured: complex
    moving_pole_count: int
    sum_rule_defect: float


@lru_cache(maxsize=None)
def _unit_circle(nodes: int) -> np.ndarray:
    """e^(i theta_k) at the N trapezoid nodes, made once per N, read-only."""
    e = np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    e.flags.writeable = False
    return e


def _ellipse(center: complex, rx: float, ry: float) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes z_k on the ellipse of the module docstring and
    factors w_k = z'(theta_k) / i, so that mean(f(z) * w) approximates
    (1/2 pi i) times the closed integral of f dz."""
    nodes = _MIN_NODES
    while nodes < 32.0 * rx / ry:
        nodes *= 2
    e = _unit_circle(nodes)
    alpha, beta = 0.5 * (rx + ry), 0.5 * (rx - ry)
    back = beta * e.conj()
    return center + alpha * e + back, alpha * e - back


def _sweep(chi: ChiFunction, contours: list, ys: np.ndarray = np.empty(0)) -> tuple:
    """One log_derivative pass over the nodes of every contour (z, w, whole)
    and of a real probe grid ys and its mirror -ys.

    Returns [(f(z), (1/2 pi i) closed integral of f dz)] per contour, f
    being chi if whole, else P'/P, and (chi(ys), chi'(ys), chi(-ys)), with
    chi' formed on ys alone.  Elementwise in numpy, so each value is the
    one a pass per contour or grid gives."""
    sizes = [c[0].size for c in contours] + [ys.size, ys.size]
    nodes = np.concatenate([c[0] for c in contours] + [ys, -ys], dtype=complex)
    at = sum(sizes[:-2])
    value, slope = log_derivative(chi.poly, nodes, slope=slice(at, at + ys.size))
    *parts, plus, minus = np.split(value, np.cumsum(sizes)[:-1])
    y, mirror = np.split(nodes[at:], 2)
    grid = (chi.fixed_part(y) + plus,
            2.0 * chi.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2 + slope,
            chi.fixed_part(mirror) + minus)
    values = [chi.fixed_part(z) + p if whole else p for (z, _, whole), p in zip(contours, parts)]
    return [(f, complex(np.mean(f * w))) for f, (_, w, _) in zip(values, contours)], grid


def _residue_circle(chi: ChiFunction, center: complex, radius: float) -> tuple:
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    for pole in chi.pole_locations():
        if radius * 1e-9 < abs(pole - center) < 1.5 * radius:
            raise ContourError(f"pole at {pole} within 1.5x radius of contour at {center}")
    return (*_ellipse(center, radius, radius), True)


def contour_residue(chi: ChiFunction, center: complex, radius: float) -> complex:
    """(1/2 pi i) closed circle integral of chi around one pole.

    The circle must isolate the target: any other pole within 1.5x the
    radius is a contour error.
    """
    return _sweep(chi, [_residue_circle(chi, center, radius)])[0][0][1]


def _infinity_circles(chi: ChiFunction) -> list[tuple]:
    radius = 10.0 * (1.0 + max(abs(p) for p in chi.pole_locations()))
    return [(*_ellipse(0.0, r, r), True) for r in (radius, 2.0 * radius)]


def _infinity_residue(circles: list[tuple[np.ndarray, complex]]) -> complex:
    for vals, _ in circles:
        d0 = complex(np.mean(vals))
        if abs(d0) > _D0_TOL:
            raise NumericError(f"Laurent constant d0 = {d0} exceeds {_D0_TOL}")
    (_, d1), (_, doubled) = circles
    if abs(d1 - doubled) > 1e-9 * (1.0 + abs(d1)):
        raise NumericError(f"residue at infinity did not converge: {d1} vs {doubled}")
    return d1


def residue_at_infinity(chi: ChiFunction) -> complex:
    """d1 from a circle of radius 10 (1 + max|pole|), enclosing every
    finite pole.

    Equals the sum of all finite residues; doubling the radius must
    reproduce it to 1e-9, and the circle average (the Laurent constant d0)
    must vanish to 1e-10, otherwise the assumed rational structure fails.
    """
    return _infinity_residue(_sweep(chi, _infinity_circles(chi))[0])


def _count_ellipse(chi: ChiFunction) -> tuple:
    max_root = max((abs(r) for r in real_roots(chi.poly)), default=0.0)
    return (*_ellipse(0.0, 2.0 * (1.0 + max_root) + 1.0, _COUNT_HALF_HEIGHT), False)


def _pole_count(count: complex) -> int:
    nearest = round(count.real)
    if abs(count - nearest) > _COUNT_TOL:
        raise ContourError(f"argument-principle count {count} is not an integer")
    return int(nearest)


def count_moving_poles(chi: ChiFunction) -> int:
    """Number of moving poles on the real axis, by the argument principle
    applied to the polynomial factor alone.

    The ellipse has semi-axes 2 (1 + max|root|) + 1 along the real axis
    and 1/2 across it: it holds every root and stays clear of the fixed
    poles (irrelevant for P'/P, but it keeps the contour tied to the
    singularity layout).
    """
    return _pole_count(_sweep(chi, [_count_ellipse(chi)])[0][0][1])


def verify_riccati(chi: ChiFunction, lam: float | None = None) -> float:
    """Max |chi^2 + chi' + (lam^2-1)/(y^2+1)^2 + (1/4-s^2)/(y^2+1)| on the
    probe grid.

    chi' is differentiated analytically (no numerical step).  Passing a
    different lam than the state's own is the intended negative control:
    the residual then reports the eigenvalue mismatch instead of vanishing.
    """
    lam = chi.lam if lam is None else lam
    _, ys, (val, dval, _) = chi.probes
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
    ys = ys[np.all(np.abs(ys[:, None] - np.asarray(poles)) >= 0.06, axis=1)]
    if ys.size >= _PROBE_POINTS // 4:
        return ys
    theta = np.arctan2(1.0, np.sort(poles))
    mid = 0.5 * (theta[1:] + theta[:-1])
    return np.cos(mid) / np.sin(mid)


def chi_parity_defect(chi: ChiFunction) -> float:
    """max |chi(-y) + chi(y)| / max |chi| on the probe grid (chi is odd)."""
    _, _, (plus, _, minus) = chi.probes
    scale = np.abs(plus).max()
    if scale == 0.0:
        # chi vanishes identically for the free-particle lambda = 1 state
        return 0.0
    return float(np.abs(minus + plus).max() / scale)


def residue_report(chi: ChiFunction) -> ResidueReport:
    """Measure all residues of a state and its sum-rule defect from its one pass."""
    (_, b1), (_, b1p), *infinity, (_, moving) = chi.probes[0]
    d1, count = _infinity_residue(infinity), _pole_count(moving)
    return ResidueReport(b1, b1p, d1, count, float(abs(b1 + b1p + count - d1)))
