"""Hot numeric kernel for the shooting oracle.

The inner loop of the oracle integrates

    u''(x) = (pot_coeff / sin^2(omega x) - two_m_e) u(x)

with an adaptive Dormand-Prince 5(4) stepper in plain scalar Python.  It
also counts the sign changes of u over its accepted steps; by Sturm
oscillation that count is the number of eigenvalues of a shooting family
below the trial energy, which the oracle bisects on to bracket each root.
"""

from __future__ import annotations

import math

__all__ = [
    "NUMBA_ENABLED",
    "shoot_halfcell",
    "STATUS_OK",
    "STATUS_MAX_STEPS",
    "STATUS_STEP_UNDERFLOW",
]

# There is one kernel and it is not compiled.  The constant stays because
# the benchmark's environment stamp reads it.
NUMBA_ENABLED = False

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2

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


def shoot_halfcell(pot_coeff, two_m_e, omega, x0, u0, v0, x_end,
                   rtol, atol, max_steps):
    """Integrate (u, u') from x0 to x_end; see module docstring for the ODE.

    Parameters
    ----------
    pot_coeff : float
        Coefficient of 1/sin^2(omega x) in 2m V(x), i.e.
        -(1/4 - s^2) pi^2 / a^2.
    two_m_e : float
        2 m E.
    omega : float
        pi / a.
    x0, u0, v0 : float
        Start abscissa and state (u, u') there.
    x_end : float
        End abscissa (the cell midpoint for the matching oracle).
    rtol, atol : float
        Per-step error control; atol should be tiny so control is
        effectively relative (the overall scale of u is arbitrary).
    max_steps : int
        Hard cap on accepted + rejected steps.

    Returns
    -------
    (u_end, v_end, running_max_abs_u, steps_taken, status, sign_changes)
        The state is renormalized in flight if |u| grows past 1e250, so
        callers must quote matching values relative to running_max_abs_u.
        sign_changes counts the accepted steps across which u changes
        sign, i.e. the zeros of u on (x0, x_end].
    """
    x = x0
    u = u0
    v = v0
    runmax = abs(u)
    span = x_end - x0
    h = span * 1e-3
    if h > 0.1 * x0:
        h = 0.1 * x0
    nstep = 0
    status = STATUS_OK
    sign_changes = 0
    while x < x_end:
        if nstep >= max_steps:
            status = STATUS_MAX_STEPS
            break
        final = False
        if h >= x_end - x:
            h = x_end - x
            final = True

        sx = math.sin(omega * x)
        g1 = pot_coeff / (sx * sx) - two_m_e
        ku1 = v
        kv1 = g1 * u

        x2 = x + _C2 * h
        u2 = u + h * (_A21 * ku1)
        v2 = v + h * (_A21 * kv1)
        sx = math.sin(omega * x2)
        g2 = pot_coeff / (sx * sx) - two_m_e
        ku2 = v2
        kv2 = g2 * u2

        x3 = x + _C3 * h
        u3 = u + h * (_A31 * ku1 + _A32 * ku2)
        v3 = v + h * (_A31 * kv1 + _A32 * kv2)
        sx = math.sin(omega * x3)
        g3 = pot_coeff / (sx * sx) - two_m_e
        ku3 = v3
        kv3 = g3 * u3

        x4 = x + _C4 * h
        u4 = u + h * (_A41 * ku1 + _A42 * ku2 + _A43 * ku3)
        v4 = v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3)
        sx = math.sin(omega * x4)
        g4 = pot_coeff / (sx * sx) - two_m_e
        ku4 = v4
        kv4 = g4 * u4

        x5 = x + _C5 * h
        u5 = u + h * (_A51 * ku1 + _A52 * ku2 + _A53 * ku3 + _A54 * ku4)
        v5 = v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4)
        sx = math.sin(omega * x5)
        g5 = pot_coeff / (sx * sx) - two_m_e
        ku5 = v5
        kv5 = g5 * u5

        x6 = x + h
        u6 = u + h * (_A61 * ku1 + _A62 * ku2 + _A63 * ku3 + _A64 * ku4 + _A65 * ku5)
        v6 = v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5)
        sx = math.sin(omega * x6)
        g6 = pot_coeff / (sx * sx) - two_m_e
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
        scu = atol + rtol * (au if au > aun else aun)
        av = abs(v)
        avn = abs(vn)
        scv = atol + rtol * (av if av > avn else avn)
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
        if h < 2e-16 * x_end:
            status = STATUS_STEP_UNDERFLOW
            break
        nstep += 1
    return u, v, runmax, nstep, status, sign_changes
