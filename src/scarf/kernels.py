"""Hot numeric kernel for the shooting oracle.

The inner loop of the oracle integrates the dimensionless equation

    u''(z) = (pot_coeff / sin^2(z) - lam2) u(z),    z = pi x / a,

with an adaptive Dormand-Prince 8(5,3) stepper (DOP853; Hairer, Norsett
and Wanner, Solving Ordinary Differential Equations I, 2nd ed., 1993,
sec. II.5) in plain scalar Python, from a start point near the wall to the
cell midpoint pi/2.  It also counts the sign changes of u over its
accepted steps.  With the end state that count gives the Pruefer phase
theta of the trial energy, and by Sturm oscillation floor(2 theta / pi) is
the number of eigenvalues of a shooting family below it, which the oracle
reads on each side of a closed-form level to certify it.
"""

from __future__ import annotations

import math

from .errors import NumericError

__all__ = ["NUMBA_ENABLED", "shoot_halfcell"]

# There is one kernel and it is not compiled.  The constant stays because
# the benchmark's environment stamp reads it.
NUMBA_ENABLED = False

_Z_END = math.pi / 2.0     # the cell midpoint, where the oracle matches
_RTOL = 3e-14              # per-step relative tolerance
_ATOL = 1e-280             # tiny, so control is effectively relative
_MAX_STEPS = 1_000_000     # cap on accepted + rejected steps

# DOP853 tableau, digit for digit as in SciPy's
# integrate/_ivp/dop853_coefficients.py.  Stage i (counted from 1) sits at
# x + _Ci h, or at x + h for stages 12 and 13, and takes weights _Ai_j of
# the stages j < i.  _B are the 8th-order weights, _E5 the 5th-order error
# weights and _E3 the 3rd-order ones, which equal _B at the other stages.
_C2 = 0.526001519587677318785587544488e-01
_C3 = 0.789002279381515978178381316732e-01
_C4 = 0.118350341907227396726757197510
_C5 = 0.281649658092772603273242802490
_C6 = 0.333333333333333333333333333333
_C7 = 0.25
_C8 = 0.307692307692307692307692307692
_C9 = 0.651282051282051282051282051282
_C10 = 0.6
_C11 = 0.857142857142857142857142857142
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2
_E5_1 = 0.1312004499419488073250102996e-1
_E5_6 = -0.1225156446376204440720569753e+1
_E5_7 = -0.4957589496572501915214079952
_E5_8 = 0.1664377182454986536961530415e+1
_E5_9 = -0.3503288487499736816886487290
_E5_10 = 0.3341791187130174790297318841
_E5_11 = 0.8192320648511571246570742613e-1
_E5_12 = -0.2235530786388629525884427845e-1
_E3_1 = _B1 - 0.244094488188976377952755905512
_E3_9 = _B9 - 0.733846688281611857341361741547
_E3_12 = _B12 - 0.220588235294117647058823529412e-1


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
    (u_end, v_end, sign_changes, steps_taken)
        At each accepted step where |u| exceeds 1e250, (u, u') is divided
        by |u|, so callers must read only the state's scale-free
        quantities, such as the angle of (u, u').  sign_changes counts the accepted steps
        across which u changes sign, i.e. the zeros of u on (x0, pi/2].

    Each step takes the 12 stages of DOP853; the 13th, the derivative at
    the new point, is the next step's first, so its sin is stage 12's.
    The step error is SciPy's DOP853 norm, which blends the 5th- and
    3rd-order estimates, and the step size follows it with exponent -1/8.

    Raises NumericError on a zero start (u0 = v0 = 0, which stays zero),
    before any step; at the step cap; and on step-size underflow, where a
    NaN state ends within a few dozen steps.
    """
    if u0 == 0.0 and v0 == 0.0:
        raise NumericError("degenerate trajectory: psi identically zero")
    x = x0
    u = u0
    v = v0
    span = _Z_END - x0
    h = span * 1e-3
    if h > 0.1 * x0:
        h = 0.1 * x0
    sx = math.sin(x)
    g = pot_coeff / (sx * sx) - lam2  # u''/u at x
    nstep = 0
    sign_changes = 0
    while x < _Z_END:
        if nstep >= _MAX_STEPS:
            raise NumericError(f"integrator exceeded {_MAX_STEPS} steps at lam2={lam2}")
        final = False
        if h >= _Z_END - x:
            h = _Z_END - x
            final = True

        # stage i: u_i, v_i and k_i = u''(u_i); stage 1 is the state itself
        k1 = g * u

        u2 = u + h * (_A2_1 * v)
        v2 = v + h * (_A2_1 * k1)
        sx = math.sin(x + _C2 * h)
        k2 = (pot_coeff / (sx * sx) - lam2) * u2

        u3 = u + h * (_A3_1 * v + _A3_2 * v2)
        v3 = v + h * (_A3_1 * k1 + _A3_2 * k2)
        sx = math.sin(x + _C3 * h)
        k3 = (pot_coeff / (sx * sx) - lam2) * u3

        u4 = u + h * (_A4_1 * v + _A4_3 * v3)
        v4 = v + h * (_A4_1 * k1 + _A4_3 * k3)
        sx = math.sin(x + _C4 * h)
        k4 = (pot_coeff / (sx * sx) - lam2) * u4

        u5 = u + h * (_A5_1 * v + _A5_3 * v3 + _A5_4 * v4)
        v5 = v + h * (_A5_1 * k1 + _A5_3 * k3 + _A5_4 * k4)
        sx = math.sin(x + _C5 * h)
        k5 = (pot_coeff / (sx * sx) - lam2) * u5

        u6 = u + h * (_A6_1 * v + _A6_4 * v4 + _A6_5 * v5)
        v6 = v + h * (_A6_1 * k1 + _A6_4 * k4 + _A6_5 * k5)
        sx = math.sin(x + _C6 * h)
        k6 = (pot_coeff / (sx * sx) - lam2) * u6

        u7 = u + h * (_A7_1 * v + _A7_4 * v4 + _A7_5 * v5 + _A7_6 * v6)
        v7 = v + h * (_A7_1 * k1 + _A7_4 * k4 + _A7_5 * k5 + _A7_6 * k6)
        sx = math.sin(x + _C7 * h)
        k7 = (pot_coeff / (sx * sx) - lam2) * u7

        u8 = u + h * (_A8_1 * v + _A8_4 * v4 + _A8_5 * v5 + _A8_6 * v6 + _A8_7 * v7)
        v8 = v + h * (_A8_1 * k1 + _A8_4 * k4 + _A8_5 * k5 + _A8_6 * k6 + _A8_7 * k7)
        sx = math.sin(x + _C8 * h)
        k8 = (pot_coeff / (sx * sx) - lam2) * u8

        u9 = u + h * (_A9_1 * v
                + _A9_4 * v4 + _A9_5 * v5 + _A9_6 * v6 + _A9_7 * v7 + _A9_8 * v8)
        v9 = v + h * (_A9_1 * k1
                + _A9_4 * k4 + _A9_5 * k5 + _A9_6 * k6 + _A9_7 * k7 + _A9_8 * k8)
        sx = math.sin(x + _C9 * h)
        k9 = (pot_coeff / (sx * sx) - lam2) * u9

        u10 = u + h * (_A10_1 * v
                + _A10_4 * v4 + _A10_5 * v5 + _A10_6 * v6 + _A10_7 * v7 + _A10_8 * v8
                + _A10_9 * v9)
        v10 = v + h * (_A10_1 * k1
                + _A10_4 * k4 + _A10_5 * k5 + _A10_6 * k6 + _A10_7 * k7 + _A10_8 * k8
                + _A10_9 * k9)
        sx = math.sin(x + _C10 * h)
        k10 = (pot_coeff / (sx * sx) - lam2) * u10

        u11 = u + h * (_A11_1 * v
                + _A11_4 * v4 + _A11_5 * v5 + _A11_6 * v6 + _A11_7 * v7 + _A11_8 * v8
                + _A11_9 * v9 + _A11_10 * v10)
        v11 = v + h * (_A11_1 * k1
                + _A11_4 * k4 + _A11_5 * k5 + _A11_6 * k6 + _A11_7 * k7 + _A11_8 * k8
                + _A11_9 * k9 + _A11_10 * k10)
        sx = math.sin(x + _C11 * h)
        k11 = (pot_coeff / (sx * sx) - lam2) * u11

        u12 = u + h * (_A12_1 * v
                + _A12_4 * v4 + _A12_5 * v5 + _A12_6 * v6 + _A12_7 * v7 + _A12_8 * v8
                + _A12_9 * v9 + _A12_10 * v10 + _A12_11 * v11)
        v12 = v + h * (_A12_1 * k1
                + _A12_4 * k4 + _A12_5 * k5 + _A12_6 * k6 + _A12_7 * k7 + _A12_8 * k8
                + _A12_9 * k9 + _A12_10 * k10 + _A12_11 * k11)
        sx = math.sin(x + h)
        g12 = pot_coeff / (sx * sx) - lam2
        k12 = g12 * u12

        du = (_B1 * v + _B6 * v6 + _B7 * v7 + _B8 * v8 + _B9 * v9
              + _B10 * v10 + _B11 * v11 + _B12 * v12)
        dv = (_B1 * k1 + _B6 * k6 + _B7 * k7 + _B8 * k8 + _B9 * k9
              + _B10 * k10 + _B11 * k11 + _B12 * k12)
        un = u + h * du
        vn = v + h * dv

        au = abs(u)
        aun = abs(un)
        scu = _ATOL + _RTOL * (au if au > aun else aun)
        av = abs(v)
        avn = abs(vn)
        scv = _ATOL + _RTOL * (av if av > avn else avn)
        e5u = (_E5_1 * v + _E5_6 * v6 + _E5_7 * v7 + _E5_8 * v8 + _E5_9 * v9
               + _E5_10 * v10 + _E5_11 * v11 + _E5_12 * v12) / scu
        e5v = (_E5_1 * k1 + _E5_6 * k6 + _E5_7 * k7 + _E5_8 * k8 + _E5_9 * k9
               + _E5_10 * k10 + _E5_11 * k11 + _E5_12 * k12) / scv
        e3u = (_E3_1 * v + _B6 * v6 + _B7 * v7 + _B8 * v8 + _E3_9 * v9
               + _B10 * v10 + _B11 * v11 + _E3_12 * v12) / scu
        e3v = (_E3_1 * k1 + _B6 * k6 + _B7 * k7 + _B8 * k8 + _E3_9 * k9
               + _B10 * k10 + _B11 * k11 + _E3_12 * k12) / scv
        e5 = e5u * e5u + e5v * e5v
        e3 = e3u * e3u + e3v * e3v
        if e5 == 0.0:
            err = 0.0
        else:
            err = h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))

        if err <= 1.0:
            if (un < 0.0) != (u < 0.0):
                sign_changes += 1
            x += h
            u = un
            v = vn
            g = g12
            au = abs(u)
            if au > 1e250:
                u /= au
                v /= au
            if final:
                break

        if err == 0.0:
            fac = 10.0
        elif err != err:  # NaN state: force the sharpest shrink
            fac = 0.2
        else:
            fac = 0.9 * err ** -0.125
            if fac > 10.0:
                fac = 10.0
            elif fac < 0.2:
                fac = 0.2
        h *= fac
        if h < 2e-16 * _Z_END:
            raise NumericError(
                f"integrator step underflow after {nstep} steps at lam2={lam2}")
        nstep += 1
    return u, v, sign_changes, nstep
