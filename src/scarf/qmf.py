"""Contour-integration probe of the momentum function's singularities.

For a constructed eigenstate the momentum function in the cot variable is

    chi(y) = 2 b1 y / (y^2 + 1) + P'(y) / P(y)

with simple poles at y = +-i (residue b1 each) and at the n real roots of
P (residue +1 each); n, lambda and b1 = (1 - lambda)/2 are those of the
state's SpectrumLine, the one record of the level.  P'/P and its slope
come from the Gegenbauer form of P, by the recurrence psi uses
(wavefunction.gegenbauer_ratios): monomial coefficients would fail the
Riccati check from n of about 40 and overflow by n = 500.  This module
measures those residues numerically by contour integration and checks
the structural claims the closed forms rest on: the sum rule b1 + b1' + n
= d1, vanishing analytic part, odd parity of chi, and the Riccati equation

    chi^2 + chi' + (lambda^2 - 1)/(y^2+1)^2 + (1/4 - s^2)/(y^2+1) = 0.

Every contour is an ellipse z(theta) = c + alpha e^(i theta) + beta
e^(-i theta), with semi-axes rx = alpha + beta along the real axis and
ry = alpha - beta across it, sampled by the N-point trapezoid rule in
theta.  For these analytic integrands that rule converges geometrically
(Trefethen and Weideman, SIAM Review 56 (2014) 385), as e^(-N eta) with
eta the clearance rate of the contour from its nearest pole, so every
contour takes the smallest power of two N >= 32 with N eta >= 32, an error
near e^-32.  On a residue circle eta = ln(d / r), d being the distance from
its center to the nearest other pole.

No contour of residue_report, and no probe point, depends on where the
state's roots are, so the verify path solves for none of them:
- The circles of radius 0.4 about +-i are fixed: every real root lies at
  least 1 from either center and the other fixed pole 2, so d / r >= 2.5,
  eta >= ln 2.5 and N = 64.
- The circles at infinity have radius r = 10 (1 + max(1, sqrt(n (n - 1) /
  (2 kappa + 1)))) and 2r: P's ODE fixes the sum of its roots' squares at
  n (n - 1) / (2 kappa + 1), which bounds the largest, so every pole lies
  within r / 10, eta > ln 10 and N = 32.
- The moving poles are counted in t = cos theta = y / sqrt(1 + y^2),
  which maps the real y axis one-to-one onto (-1, 1), where they are the n
  zeros of R_n^kappa: the argument principle on R_n'/R_n over the
  Bernstein ellipse with foci +-1 and rho = 1.5 (semi-axes 13/12 and
  5/12), whose confocal rate from the focal segment is ln rho, so N = 128.
- The Riccati and parity probes read chi on the line Im y = 1/2, 64 points
  with Re y in [-5, 5], and on its mirror -y: each point lies at least 1/2
  from every pole.
Each ChiFunction caches one pass of the recurrence over all of these
nodes, made on first use; residue_report is the one reader of the
contours.

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
from .spectrum import SpectrumLine
from .wavefunction import WavefunctionSpec, gegenbauer_ratios

_D0_TOL = 1e-10
_COUNT_TOL = 1e-6
_FIXED_RADIUS = 0.4  # circles around +-i for b1 and b1'
_PROBE_LINE = np.linspace(-5.0, 5.0, 64) + 0.5j
_NO_NODES = np.empty(0, dtype=complex)


@dataclass(frozen=True)
class ChiFunction:
    """chi and its analytic derivative for one eigenstate.

    P'/P, b1, the radius at infinity and the Riccati equation read n and
    lambda from line; s enters only the Riccati equation."""

    line: SpectrumLine
    s: float

    @classmethod
    def from_wavefunction(cls, spec: WavefunctionSpec) -> "ChiFunction":
        return cls(line=spec.line, s=spec.params.s)

    def fixed_part(self, y):
        """2 b1 y / (y^2 + 1), the part of chi with the poles at +-i."""
        return 2.0 * self.line.b1 * y / (y * y + 1.0)

    @cached_property
    def probes(self) -> tuple[list[tuple[np.ndarray, complex]], tuple]:
        """The state's one recurrence pass, made on first use, over the probe
        line, its mirror and the nodes of residue_report's five contours, in
        that order: the residue circles about +i and -i, the two circles at
        infinity, the t-ellipse.

        Returns [(f, (1/2 pi i) closed integral of f)] per contour, f being
        chi on the circles and R_n'/R_n on the t-ellipse, and (chi, chi',
        chi at the mirror) on the probe line; chi' is formed on the line
        alone.  Elementwise in numpy, so each value is the one a pass per
        contour or line gives.  The cache lives and dies with this object."""
        contours = [*_RESIDUE_CIRCLES, *_infinity_circles(self.line)]
        m = _PROBE_LINE.size
        y = np.concatenate([_PROBE_LINE, -_PROBE_LINE] + [z for z, _ in contours])
        f, slope, dlog_r = log_derivative(self.line, y, slice(0, m), _COUNT_ELLIPSE[0])
        f += self.fixed_part(y)
        stops = list(accumulate([2 * m] + [z.size for z, _ in contours]))
        values = [f[start:stop] for start, stop in zip(stops, stops[1:])] + [dlog_r]
        results = [(v, complex((v * w).sum() / w.size))
                   for v, (_, w) in zip(values, contours + [_COUNT_ELLIPSE], strict=True)]
        y2 = _PROBE_LINE * _PROBE_LINE
        slope += 2.0 * self.line.b1 * (1.0 - y2) / (y2 + 1.0) ** 2
        return results, (f[:m], slope, f[m:2 * m])


def log_derivative(line: SpectrumLine, y: np.ndarray, slope: slice = slice(0),
                   t: np.ndarray = _NO_NODES):
    """(P'/P at complex y, its y-derivative on y[slope], R_n'/R_n at complex
    t) from one pass of gegenbauer_ratios over y / sqrt(1 + y^2) and t.

    With h = sqrt(1 + y^2), t = y/h, rho = R_{n-1}(t)/R_n(t) and the
    contiguous relation (1 - t^2) R_k' = k (R_{k-1} - t R_k):

        R_n'/R_n = n (rho - t) / ((1 - t)(1 + t)),
        P'/P     = n rho / h,
        (P'/P)'  = n [(R'_{n-1} - rho R'_n) / (R_n h^4) - rho y / h^3].

    The y forms are even in h, so either branch of the root serves, and t
    stays bounded on every contour here.  The slope comes from the
    contiguous relation, not from the ODE that P solves, so the Riccati
    residual stays an independent check.
    """
    n = line.n
    h = np.sqrt(1.0 + y * y)
    m, ty = h.size, y / h
    r, r1, r2 = gegenbauer_ratios(n, line.kappa, np.concatenate((ty, t)))
    rho = r1 / r
    value, dlog_r = n * rho[:m] / h, n * (rho[m:] - t) / ((1.0 - t) * (1.0 + t))
    y, h, ty, r, r1, r2, rho = (v[slice(*slope.indices(m))] for v in (y, h, ty, r, r1, r2, rho))
    h2 = h * h
    dr = n * h2 * (r1 - ty * r)
    dr1 = (n - 1) * h2 * (r2 - ty * r1)
    return value, n * ((dr1 - rho * dr) / (r * h2 * h2) - rho * y / (h2 * h)), dlog_r


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


# the contours that no state changes (module docstring)
_RESIDUE_CIRCLES = [_ellipse(c, _FIXED_RADIUS, _FIXED_RADIUS,
                             _node_count(math.log(1.0 / _FIXED_RADIUS))) for c in (1j, -1j)]
_COUNT_ELLIPSE = _ellipse(0.0, 13.0 / 12.0, 5.0 / 12.0, _node_count(math.log(1.5)))


def _infinity_circles(line: SpectrumLine) -> list[tuple]:
    """Circles of radius r = 10 (1 + max(1, sqrt(n (n - 1) / (2 kappa + 1))))
    and 2r about 0, from the sum of the roots' squares (module docstring).
    Every pole lies within r / 10, so eta > ln 10 and 32 nodes serve."""
    n = line.n
    radius = 10.0 * (1.0 + max(1.0, math.sqrt(n * (n - 1) / (2.0 * line.kappa + 1.0))))
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


def _pole_count(count: complex) -> int:
    nearest = round(count.real)
    if abs(count - nearest) > _COUNT_TOL:
        raise ContourError(f"argument-principle count {count} is not an integer")
    return int(nearest)


def verify_riccati(chi: ChiFunction) -> float:
    """Max |chi^2 + chi' + (lam^2-1)/(y^2+1)^2 + (1/4-s^2)/(y^2+1)| on the
    probe line, with lam = chi.line.lam.

    chi' is differentiated analytically (no numerical step).  A ChiFunction
    on a line of a wrong lambda, replace(chi, line=replace(chi.line,
    lam=...)), is the negative control: chi and the equation then read the
    same wrong lambda, and the residual reports it, not 0.
    """
    val, dval, _ = chi.probes[1]
    ys = _PROBE_LINE
    res = (val * val + dval
           + (chi.line.lam**2 - 1.0) / (ys**2 + 1.0) ** 2
           + (0.25 - chi.s**2) / (ys**2 + 1.0))
    return float(np.abs(res).max())


def chi_parity_defect(chi: ChiFunction) -> float:
    """max |chi(-y) + chi(y)| / max |chi| on the probe line (chi is odd),
    exactly 0 for a correct evaluator: at -y, y^2 and h keep their bits and t
    turns to -t, and each rounded step of the recurrence and of the fixed
    part maps negated inputs to the negated result, so chi(-y) is -chi(y)
    bit for bit.  A nonzero value flags an evaluator that lost that symmetry."""
    plus, _, minus = chi.probes[1]
    scale = np.abs(plus).max()
    if scale == 0.0:
        # chi vanishes identically for the free-particle lambda = 1 state
        return 0.0
    return float(np.abs(minus + plus).max() / scale)


def residue_report(chi: ChiFunction) -> ResidueReport:
    """Measure all residues of a state and its sum-rule defect from its one
    pass: b1 and b1' on the circles about +-i, d1 on the circles at infinity
    (_infinity_residue), and the number of moving poles by the argument
    principle applied to R_n'/R_n alone on the t-ellipse."""
    (_, b1), (_, b1p), *infinity, (_, moving) = chi.probes[0]
    d1, count = _infinity_residue(infinity), _pole_count(moving)
    return ResidueReport(b1, b1p, d1, count, float(abs(b1 + b1p + count - d1)))
