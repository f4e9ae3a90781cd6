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
(Trefethen and Weideman, SIAM Review 56 (2014) 385), as e^(-N eta) with
eta the clearance rate of the contour from its nearest pole, so every
contour takes the smallest power of two N >= 32 with N eta >= 32, an error
near e^-32.  On a residue circle eta = ln(d / r), d being the distance from
its center to the nearest other pole; the ContourError rule d >= 1.5 r
floors it at ln 1.5.  The circles at infinity have eta = ln(r / max|pole|)
> ln 10, so N = 32.  The moving-pole count needs a flat ellipse, with rx =
1 + max|root| and ry = 1/2, that holds the real roots and stays clear of
+-i; its foci lie beyond every root, and a pole on the focal segment sits
atanh(ry / rx) from the contour in theta, the ellipse's confocal rate.  A
contour with corners would converge only algebraically.  Each ChiFunction
caches one pass of the recurrence, made on first use, over the probe grid
and its mirror and over the nodes of the five contours of residue_report
(two residue circles, two circles at infinity, the moving-pole ellipse),
from one list of the state's poles; chi' is formed on the probe grid
alone, and chi's fixed part once over it and the four circles.
residue_report is the one reader of those contours; contour_residue
integrates chi over a circle of the caller's choice.

Conventions: in the original momentum variable p = -i q the moving-pole
residue reads -i hbar; after the variable changes used here it is +1, the
same fact in the chi normalization.  In the classical limit the momentum
function tends to sqrt(2m(E - V)), the WKB starting point; that limit is
outside this package's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import ContourError, NumericError
from .polynomials import PolySpec, gegenbauer_ratios, real_roots
from .wavefunction import WavefunctionSpec

_D0_TOL = 1e-10
_COUNT_TOL = 1e-6
_FIXED_RADIUS = 0.4  # circles around +-i for b1 and b1'
_COUNT_HALF_HEIGHT = 0.5  # semi-minor axis of the moving-pole ellipse
_PROBE_LINE = np.linspace(-5.0, 5.0, 64)


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

    @cached_property
    def probes(self) -> tuple[list[tuple[np.ndarray, complex]], np.ndarray, tuple]:
        """The state's one recurrence pass, made on first use, over the probe
        grid ys, its mirror -ys and the nodes (z, w) of residue_report's five
        contours, in that order: the residue circles about +i and -i, the
        two circles at infinity, the moving-pole ellipse.

        Returns [(f(z), (1/2 pi i) closed integral of f dz)] per contour, f
        being chi on the circles and P'/P on the ellipse, the grid ys, and
        (chi(ys), chi'(ys), chi(-ys)); chi' is formed on ys alone and chi's
        fixed part on everything before the ellipse.  Elementwise in numpy,
        so each value is the one a pass per contour or grid gives.  The
        state's pole list is built once here, and the cache lives and dies
        with this object."""
        roots = real_roots(self.poly)
        ys = _probe_grid(roots)
        contours = [_residue_circle(roots, 1j, _FIXED_RADIUS),
                    _residue_circle(roots, -1j, _FIXED_RADIUS),
                    *_infinity_circles(roots), _count_ellipse(roots)]
        m = ys.size
        nodes = np.concatenate([ys, -ys] + [z for z, _ in contours], dtype=complex)
        f, slope = log_derivative(self.poly, nodes, slope=slice(0, m))
        stops = list(accumulate([2 * m] + [z.size for z, _ in contours]))
        f[:stops[-2]] += self.fixed_part(nodes[:stops[-2]])
        results = [(f[start:stop], complex((f[start:stop] * w).sum() / w.size))
                   for start, stop, (_, w) in zip(stops, stops[1:], contours)]
        y = nodes[:m]
        return results, ys, (f[:m], 2.0 * self.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2 + slope,
                             f[m:2 * m])


def log_derivative(poly: PolySpec, y, slope: slice | None = None):
    """P'(y)/P(y) at complex y from one pass of gegenbauer_ratios, and with
    a slice for slope the pair (P'/P, its y-derivative on y[slope]).

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
    if slope is None:
        return value
    y, h, t, r, r1, r2, rho = (v[slope] for v in (y, h, t, r, r1, r2, rho))
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


def _node_count(eta: float) -> int:
    """The smallest power of two N >= 32 with N eta >= 32, for a contour
    of clearance rate eta > 0 (module docstring)."""
    nodes = 32
    while nodes * eta < 32.0:
        nodes *= 2
    return nodes


def _ellipse(center: complex, rx: float, ry: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The N = nodes trapezoid nodes z_k on the ellipse of the module
    docstring and factors w_k = z'(theta_k) / i, so that mean(f(z) * w)
    approximates (1/2 pi i) times the closed integral of f dz."""
    e = _unit_circle(nodes)
    alpha, beta = 0.5 * (rx + ry), 0.5 * (rx - ry)
    back = beta * e.conj()
    return center + alpha * e + back, alpha * e - back


def _residue_circle(roots: list[float], center: complex, radius: float) -> tuple:
    """The circle of the given radius about center, its eta = ln(d / radius)
    from the distance d to the nearest other pole, +-i or a root."""
    if not (np.isfinite(center) and np.isfinite(radius) and radius > 0.0):
        raise ValueError(f"need a finite center and a finite radius > 0, got {center}, {radius}")
    nearest = min((d for d in (abs(p - center) for p in (1j, -1j, *roots))
                   if d > radius * 1e-9), default=math.inf)
    if nearest < 1.5 * radius:
        raise ContourError(f"a pole {nearest} from {center} is within 1.5x the contour's radius")
    return _ellipse(center, radius, radius, _node_count(math.log(nearest / radius)))


def contour_residue(chi: ChiFunction, center: complex, radius: float) -> complex:
    """(1/2 pi i) closed circle integral of chi around one pole, for a
    circle of the caller's choice; residue_report reads its own.

    The circle must isolate the target: any other pole within 1.5x the
    radius is a contour error.
    """
    z, w = _residue_circle(real_roots(chi.poly), center, radius)
    return complex((chi(z) * w).sum() / w.size)


def _infinity_circles(roots: list[float]) -> list[tuple]:
    """Circles of radius 10 (1 + max|pole|) and twice that about 0.  Every
    pole lies within a tenth of their radius, so eta > ln 10 and 32 nodes
    serve (module docstring)."""
    radius = 10.0 * (1.0 + max([1.0] + [abs(r) for r in roots]))
    return [_ellipse(0.0, r, r, 32) for r in (radius, 2.0 * radius)]


def _infinity_residue(circles: list[tuple[np.ndarray, complex]]) -> complex:
    """d1, the sum of all finite residues, from the two circles at infinity.

    The circle average, the Laurent constant d0, must vanish to 1e-10 on
    each, and the doubled circle must reproduce d1 to 1e-9; otherwise the
    assumed rational structure fails."""
    for vals, _ in circles:
        d0 = complex(vals.sum() / vals.size)
        if abs(d0) > _D0_TOL:
            raise NumericError(f"Laurent constant d0 = {d0} exceeds {_D0_TOL}")
    (_, d1), (_, doubled) = circles
    if abs(d1 - doubled) > 1e-9 * (1.0 + abs(d1)):
        raise NumericError(f"residue at infinity did not converge: {d1} vs {doubled}")
    return d1


def _count_ellipse(roots: list[float]) -> tuple:
    """The moving-pole ellipse, with semi-axes 1 + max|root| along the real
    axis and 1/2 across it, and eta = atanh(ry / rx): every root lies on its
    focal segment, and it stays clear of +-i (irrelevant for P'/P, but it
    keeps the contour tied to the singularity layout)."""
    rx = 1.0 + max((abs(r) for r in roots), default=0.0)
    nodes = _node_count(math.atanh(_COUNT_HALF_HEIGHT / rx))
    return _ellipse(0.0, rx, _COUNT_HALF_HEIGHT, nodes)


def _pole_count(count: complex) -> int:
    nearest = round(count.real)
    if abs(count - nearest) > _COUNT_TOL:
        raise ContourError(f"argument-principle count {count} is not an integer")
    return int(nearest)


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


def _probe_grid(poles: list[float]) -> np.ndarray:
    """64 points on [-5, 5], less those within 0.06 of a moving pole.

    At high degree the poles thin that grid out (from n = 394 at s = 2 they
    clear it), so when fewer than a quarter of its points are left the
    probes take the midpoints in theta = arccot y between consecutive
    poles instead, each as far from its two poles as the spacing allows."""
    ys = _PROBE_LINE[np.all(np.abs(_PROBE_LINE[:, None] - np.asarray(poles)) >= 0.06, axis=1)]
    if ys.size >= _PROBE_LINE.size // 4:
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
    """Measure all residues of a state and its sum-rule defect from its one
    pass: b1 and b1' on the circles about +-i, d1 on the circles at infinity
    (_infinity_residue), and the number of moving poles by the argument
    principle applied to P'/P alone on the moving-pole ellipse."""
    (_, b1), (_, b1p), *infinity, (_, moving) = chi.probes[0]
    d1, count = _infinity_residue(infinity), _pole_count(moving)
    return ResidueReport(b1, b1p, d1, count, float(abs(b1 + b1p + count - d1)))
