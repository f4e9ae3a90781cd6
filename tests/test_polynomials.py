import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.special import eval_gegenbauer

import scarf
from scarf import Edge
from scarf.potential import Regime
from scarf.qmf import log_derivative
from scarf.spectrum import level_parameters
from scarf.wavefunction import gegenbauer_ratios

from jacobi_reference import (
    jacobi_eval,
    jacobi_parameters,
    monomial_coeffs,
    ode_residual,
    phase_stripped_jacobi,
    poly_scale,
    tridiagonal_roots,
)


def _line(s, n, edge=Edge.NOT_APPLICABLE):
    """The closed-form level (s, n, edge), whose n and lambda fix P_n."""
    return scarf.spectrum_line(scarf.PotentialParams(s=s), n, edge)


class TestMonomialReference:
    """P_n's monomial reference, built on the package's levels."""

    @pytest.mark.parametrize("n", [2.0, True, -1])
    def test_rejects_bad_degree_as_spectrum_line_does(self, n):
        with pytest.raises(ValueError) as poly_err:
            level_parameters(scarf.PotentialParams(s=2.0), n, Edge.NOT_APPLICABLE)
        with pytest.raises(ValueError) as line_err:
            scarf.spectrum_line(scarf.PotentialParams(s=2.0), n, Edge.NOT_APPLICABLE)
        assert str(poly_err.value) == str(line_err.value)

    @pytest.mark.parametrize("s", [pytest.param(10**400, id="10**400"), 0.0, float("nan")])
    def test_rejects_unsupported_coupling(self, s):
        # PotentialParams is the one check of s: a coupling past the float
        # range is a ValueError there, not an OverflowError
        with pytest.raises(ValueError, match="s"):
            level_parameters(scarf.PotentialParams(s=s), 0, Edge.NOT_APPLICABLE)

    def test_degree_zero_is_constant(self):
        for s, edge in ((2.0, Edge.NOT_APPLICABLE), (0.4, Edge.LOWER), (0.4, Edge.UPPER)):
            line = _line(s, 0, edge)
            assert list(monomial_coeffs(line)) == [1.0]

    def test_degree_one_is_y(self):
        for s, edge in ((2.0, Edge.NOT_APPLICABLE), (0.4, Edge.LOWER), (0.4, Edge.UPPER)):
            line = _line(s, 1, edge)
            assert list(monomial_coeffs(line)) == [0.0, 1.0]

    def test_degree_two_upper_edge_constant(self):
        # downward recurrence gives c0 = -1/(2(1+s))
        coeffs = monomial_coeffs(_line(0.4, 2, Edge.UPPER))
        assert coeffs[0] == pytest.approx(-1.0 / 2.8, rel=1e-15)
        assert coeffs[1] == 0.0
        assert coeffs[2] == 1.0

    @given(st.floats(min_value=0.05, max_value=0.45), st.integers(0, 8),
           st.sampled_from([Edge.LOWER, Edge.UPPER]))
    @settings(max_examples=60)
    def test_band_poly_structure(self, s, n, edge):
        line = _line(s, n, edge)
        coeffs = monomial_coeffs(line)
        assert coeffs[n] == 1.0  # monic
        for k in range(n + 1):
            if (n - k) % 2 == 1:
                assert coeffs[k] == 0.0  # definite parity
        assert ode_residual(line) <= 1e-10 * poly_scale(line)

    @given(st.floats(min_value=0.55, max_value=4.0), st.integers(0, 8))
    @settings(max_examples=60)
    def test_bound_poly_structure(self, s, n):
        line = _line(s, n, Edge.NOT_APPLICABLE)
        assert monomial_coeffs(line)[n] == 1.0
        assert ode_residual(line) <= 1e-10 * poly_scale(line)

    def test_parity_identity(self):
        coeffs = monomial_coeffs(_line(2.0, 5, Edge.NOT_APPLICABLE))
        ys = np.linspace(-3, 3, 13)
        assert np.allclose(npoly.polyval(-ys, coeffs), (-1) ** 5 * npoly.polyval(ys, coeffs),
                           rtol=0, atol=0)


class TestJacobiParameters:
    def test_examples(self):
        assert jacobi_parameters(0.4, 0, Regime.BANDS, Edge.UPPER) == (-0.9, -0.9)
        assert jacobi_parameters(2.0, 0, Regime.BOUND_STATES,
                                 Edge.NOT_APPLICABLE) == (-2.5, -2.5)
        # lower edge: nu = -n + s - 1/2
        nu1, nu2 = jacobi_parameters(0.4, 1, Regime.BANDS, Edge.LOWER)
        assert nu1 == nu2 == pytest.approx(-1.1, rel=1e-15)

    def test_matches_spectrum_lines(self, bound_params, band_params):
        for params in (bound_params, band_params):
            for ln in scarf.spectrum_lines(params, 3):
                nu1, nu2 = jacobi_parameters(params.s, ln.n, params.regime, ln.edge)
                assert (nu1, nu2) == (pytest.approx(ln.nu1), pytest.approx(ln.nu2))


class TestJacobiEval:
    def test_degree_zero(self):
        assert jacobi_eval(0, -0.3, 1.2, 0.7) == 1.0

    def test_degree_one_symmetric(self):
        for alpha, t in ((-0.9, 0.3), (2.0, -1.5), (-2.5, 0.01)):
            assert jacobi_eval(1, alpha, alpha, t) == pytest.approx(
                (alpha + 1.0) * t, rel=1e-14)

    def test_proportional_to_recurrence_poly(self):
        # i^n P_n^(nu,nu)(-iy) must match the line's P_n up to one constant
        cases = [
            (0.4, 2, Edge.UPPER, Regime.BANDS),
            (0.4, 2, Edge.LOWER, Regime.BANDS),
            (0.4, 5, Edge.UPPER, Regime.BANDS),
            (2.0, 3, Edge.NOT_APPLICABLE, Regime.BOUND_STATES),
            (2.0, 6, Edge.NOT_APPLICABLE, Regime.BOUND_STATES),
        ]
        for s, n, edge, regime in cases:
            line = _line(s, n, edge)
            nu, _ = jacobi_parameters(s, n, regime, edge)
            ys = np.array([0.5, 1.0, 2.0])
            ours = npoly.polyval(ys, monomial_coeffs(line))
            jac = phase_stripped_jacobi(n, nu, ys)
            ratios = ours / jac
            assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_phase_strip_is_real(self):
        # with symmetric parameters, i^n P_n(-iy) has vanishing imaginary part
        for n, nu in ((3, -3.9), (5, -5.5 - 0.4), (4, -6.5)):
            ys = np.linspace(-4, 4, 17)
            val = (1j**n) * jacobi_eval(n, nu, nu, -1j * ys.astype(complex))
            assert np.abs(val.imag).max() <= 1e-12 * max(1.0, np.abs(val.real).max())


class TestTridiagonalRoots:
    def test_trivial_degrees(self):
        assert tridiagonal_roots(_line(2.0, 0, Edge.NOT_APPLICABLE)).tolist() == []
        assert tridiagonal_roots(_line(2.0, 1, Edge.NOT_APPLICABLE)).tolist() == [0.0]

    def test_degree_two_upper(self):
        roots = tridiagonal_roots(_line(0.4, 2, Edge.UPPER)).tolist()
        expected = (1.0 / 2.8) ** 0.5
        assert roots == [pytest.approx(-expected, rel=1e-12),
                         pytest.approx(expected, rel=1e-12)]
        assert roots[1] == pytest.approx(0.5976143, abs=5e-8)

    @pytest.mark.parametrize("s,edge", [
        (0.4, Edge.UPPER), (0.4, Edge.LOWER), (2.0, Edge.NOT_APPLICABLE),
        (0.1, Edge.UPPER), (3.0, Edge.NOT_APPLICABLE),
        # with 0.4 and 2.0 above, the probe-matrix couplings
        (0.05, Edge.LOWER), (0.05, Edge.UPPER), (0.4999, Edge.LOWER),
        (0.4999, Edge.UPPER), (0.5, Edge.LOWER), (0.5, Edge.UPPER),
        (8.0, Edge.NOT_APPLICABLE), (30.0, Edge.NOT_APPLICABLE),
        (100.0, Edge.NOT_APPLICABLE),
    ])
    def test_root_count_equals_degree(self, s, edge):
        for n in range(101):
            line = _line(s, n, edge)
            roots = tridiagonal_roots(line)
            assert roots.size == n
            assert np.all(np.isfinite(roots)) and roots.tolist() == sorted(roots)
            if n <= 12:
                coeffs = monomial_coeffs(line)
                if n >= 2:
                    ref = _companion_roots(coeffs)
                    assert np.all(np.abs(roots - ref)
                                  <= 1e-12 * np.maximum(1.0, np.abs(ref)))
                # the Gegenbauer P'/P and its slope against the monomial ones
                p, p1, p2 = (npoly.polyval(_COMPLEX_YS, npoly.polyder(coeffs, k))
                             for k in range(3))
                value, slope = log_derivative(line, _COMPLEX_YS, slice(None))
                for ours, ref in ((value, p1 / p), (slope, (p2 * p - p1 * p1) / (p * p))):
                    assert np.all(np.abs(ours - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


# off the real axis, at +-i's distance and beyond, in all four quadrants
_COMPLEX_YS = np.array([0.3 + 0.7j, -1.2 + 0.2j, 2.5 - 1.5j, 0.1 - 3.0j, 4.0 + 0.5j,
                        -0.7 - 0.4j, 10.0 + 10.0j, 0.5 + 1.2j, -20.0 + 1e-3j])


def _companion_roots(coeffs):
    """Reference roots: companion-matrix eigenvalues, one Newton step each."""
    dcoef = npoly.polyder(coeffs)
    out = []
    for r in np.roots(coeffs[::-1]):
        d = npoly.polyval(r, dcoef)
        if d != 0:
            r = r - npoly.polyval(r, coeffs) / d
        out.append(r.real)
    return np.sort(out)


def _ratios_clongdouble(n, kappa, t):
    """(R_n, R_{n-1}, R_{n-2}) by the recurrence of the wavefunction docstring,
    each step divided as written, in extended precision."""
    t, kappa = np.asarray(t, dtype=np.clongdouble), np.longdouble(kappa)
    rows = [np.zeros_like(t), np.ones_like(t), t]
    for k in map(np.longdouble, range(1, n)):
        rows.append((2 * (k + kappa) * t * rows[-1] - k * rows[-2]) / (k + 2 * kappa))
    return rows[:n + 2][::-1][:3]


class TestGegenbauerRatios:
    """gegenbauer_ratios against independent evaluations of R_k = C_k / C_k(1).

    The bound is 1e-12 up to n = 100 and grows as n^2 beyond: at t = +-1 the
    recurrence's rounding errors add up like n^(2 - 2 kappa), 2.5e-12 at
    n = 500, kappa = 0.1, where scipy's own value is further off."""

    _T = np.linspace(-1.0, 1.0, 1001)

    @staticmethod
    def _bound(n):
        return 1e-12 * max(1.0, n / 100.0) ** 2

    @pytest.mark.parametrize("n", [1, 2, 24, 100, 500])
    @pytest.mark.parametrize("kappa", [0.1, 2.5, 30.0])
    def test_real_t_against_scipy(self, n, kappa):
        t = self._T
        for k, got in zip(range(n, n - 3, -1), gegenbauer_ratios(n, kappa, t)):
            want = (eval_gegenbauer(k, kappa, t) / eval_gegenbauer(k, kappa, 1.0)
                    if k >= 0 else np.zeros_like(t))
            assert np.abs(got - want).max() <= self._bound(n), (n, kappa, k)

    @pytest.mark.parametrize("n", [1, 2, 24, 100, 500])
    def test_chebyshev_at_kappa_zero(self, n):
        t = self._T
        for k, got in zip(range(n, n - 3, -1), gegenbauer_ratios(n, 0.0, t)):
            want = np.cos(k * np.arccos(t)) if k >= 0 else np.zeros_like(t)
            assert np.abs(got - want).max() <= self._bound(n), (n, k)

    @pytest.mark.parametrize("n", [1, 2, 24, 100, 500])
    @pytest.mark.parametrize("kappa", [0.0, 0.1, 2.5, 30.0])
    def test_complex_t_against_extended_precision(self, n, kappa):
        # scipy's complex eval_gegenbauer is off by O(1) on |t| = 0.6
        theta = 2.0 * np.pi * np.arange(101) / 101.0
        t = np.concatenate([r * np.exp(1j * theta) for r in (0.6, 1.5)])
        got = gegenbauer_ratios(n, kappa, t)
        for row, want in zip(got, _ratios_clongdouble(n, kappa, t)):
            assert row.dtype == complex
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
