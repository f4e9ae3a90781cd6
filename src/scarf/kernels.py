"""Hot numeric kernel for the shooting oracle.

The inner loop of the oracle integrates the dimensionless equation

    u''(z) = (pot_coeff / sin^2(z) - lam2) u(z),    z = pi x / a,

with an adaptive Dormand-Prince 5(4) stepper in plain scalar Python, from
a start point near the wall to the cell midpoint pi/2.  It also counts
the sign changes of u over its accepted steps; by Sturm oscillation that
count is the number of eigenvalues of a shooting family below the trial
energy, which the oracle bisects on to bracket each root.
"""

from __future__ import annotations

import math

from .errors import NumericError

__all__ = ["NUMBA_ENABLED", "shoot_halfcell"]

# There is one kernel and it is not compiled.  The constant stays because
# the benchmark's environment stamp reads it.
NUMBA_ENABLED = False

_Z_END = math.pi / 2.0     # the cell midpoint, where the oracle matches
_RTOL = 1e-13              # per-step relative tolerance
_ATOL = 1e-280             # tiny, so control is effectively relative
_MAX_STEPS = 1_000_000     # cap on accepted + rejected steps

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# difference between the 5th-order weights and the embedded 4th-order ones
_E1 = 35.0 / 384.0 - 5179.0 / 57600.0
_E3 = 500.0 / 1113.0 - 7571.0 / 16695.0
_E4 = 125.0 / 192.0 - 393.0 / 640.0
_E5 = -2187.0 / 6784.0 + 92097.0 / 339200.0
_E6 = 11.0 / 84.0 - 187.0 / 2100.0
_E7 = -1.0 / 40.0


def shoot_halfcell(pot_coeff, lam2, x0, u0, v0):
    """Integrate (u, u') from x0 to pi/2; see module docstring for the ODE.

    Parameters
    ----------
    pot_coeff : float
        Coefficient of 1/sin^2(z), i.e. -(1/4 - s^2).
    lam2 : float
        lambda^2 = E / (pi^2 / (2 m a^2)).
    x0, u0, v0 : float
        Start point in z and state (u, u_z) there.

    Returns
    -------
    (u_end, v_end, running_max_abs_u, steps_taken, sign_changes)
        The state is renormalized in flight if |u| grows past 1e250, so
        callers must quote matching values relative to running_max_abs_u.
        sign_changes counts the accepted steps across which u changes
        sign, i.e. the zeros of u on (x0, pi/2].

    Raises NumericError at the step cap, on step-size underflow (where a
    NaN state ends within a few dozen steps) or when u is identically zero.
    """
    x = x0
    u = u0
    v = v0
    runmax = abs(u)
    span = _Z_END - x0
    h = span * 1e-3
    if h > 0.1 * x0:
        h = 0.1 * x0
    nstep = 0
    sign_changes = 0
    while x < _Z_END:
        if nstep >= _MAX_STEPS:
            raise NumericError(f"integrator exceeded {_MAX_STEPS} steps at lam2={lam2}")
        final = False
        if h >= _Z_END - x:
            h = _Z_END - x
            final = True

        sx = math.sin(x)
        g1 = pot_coeff / (sx * sx) - lam2
        ku1 = v
        kv1 = g1 * u

        x2 = x + _C2 * h
        u2 = u + h * (_A21 * ku1)
        v2 = v + h * (_A21 * kv1)
        sx = math.sin(x2)
        g2 = pot_coeff / (sx * sx) - lam2
        ku2 = v2
        kv2 = g2 * u2

        x3 = x + _C3 * h
        u3 = u + h * (_A31 * ku1 + _A32 * ku2)
        v3 = v + h * (_A31 * kv1 + _A32 * kv2)
        sx = math.sin(x3)
        g3 = pot_coeff / (sx * sx) - lam2
        ku3 = v3
        kv3 = g3 * u3

        x4 = x + _C4 * h
        u4 = u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3)
        v4 = v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3)
        sx = math.sin(x4)
        g4 = pot_coeff / (sx * sx) - lam2
        ku4 = v4
        kv4 = g4 * u4

        x5 = x + _C5 * h
        u5 = u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4)
        v5 = v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4)
        sx = math.sin(x5)
        g5 = pot_coeff / (sx * sx) - lam2
        ku5 = v5
        kv5 = g5 * u5

        x6 = x + h
        u6 = u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5)
        v6 = v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5)
        sx = math.sin(x6)
        g6 = pot_coeff / (sx * sx) - lam2
        ku6 = v6
        kv6 = g6 * u6

        un = u + h * (_B1 * ku1 + _B3 * ku3 + _B4 * ku4 + _B5 * ku5 + _B6 * ku6)
        vn = v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6)
        ku7 = vn
        kv7 = g6 * un  # stage 7 sits at x + h, same abscissa as stage 6

        eu = h * (_E1 * ku1 + _E3 * ku3 + _E4 * ku4 + _E5 * ku5 + _E6 * ku6 + _E7 * ku7)
        ev = h * (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7)
        au = abs(u)
        aun = abs(un)
        scu = _ATOL + _RTOL * (au if au > aun else aun)
        av = abs(v)
        avn = abs(vn)
        scv = _ATOL + _RTOL * (av if av > avn else avn)
        ru = eu / scu
        rv = ev / scv
        err = math.sqrt(0.5 * (ru * ru + rv * rv))

        if err <= 1.0:
            if (un < 0.0) != (u < 0.0):
                sign_changes += 1
            x = x6
            u = un
            v = vn
            au = abs(u)
            if au > runmax:
                runmax = au
            if runmax > 1e250:
                u /= runmax
                v /= runmax
                runmax = 1.0
            if final:
                break

        if err == 0.0:
            fac = 5.0
        elif err != err:  # NaN state: force the sharpest shrink
            fac = 0.2
        else:
            fac = 0.9 * err ** -0.2
            if fac > 5.0:
                fac = 5.0
            elif fac < 0.2:
                fac = 0.2
        h *= fac
        if h < 2e-16 * _Z_END:
            raise NumericError(
                f"integrator step underflow after {nstep} steps at lam2={lam2}")
        nstep += 1
    if runmax == 0.0:
        raise NumericError("degenerate trajectory: psi identically zero")
    return u, v, runmax, nstep, sign_changes
