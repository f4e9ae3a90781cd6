import itertools
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scarf
from scarf import ConsistencyError, Edge, NumericError, Parity, wavefunction
from scarf.qmf import chi_parity_defect
from scarf.spectrum import spectrum_line
from scarf.verify import _level_checks
from scarf.wavefunction import gegenbauer_ratios


@pytest.fixture(scope="module")
def bound_ground(bound_params):
    return scarf.build_wavefunction(
        bound_params, scarf.spectrum_line(bound_params, 0, Edge.NOT_APPLICABLE))


@pytest.fixture(scope="module")
def band_states(band_params):
    lo, hi = (scarf.spectrum_line(band_params, 0, edge) for edge in (Edge.LOWER, Edge.UPPER))
    lo1, hi1 = (scarf.spectrum_line(band_params, 1, edge) for edge in (Edge.LOWER, Edge.UPPER))
    return {("lower", 0): scarf.build_wavefunction(band_params, lo),
            ("upper", 0): scarf.build_wavefunction(band_params, hi),
            ("lower", 1): scarf.build_wavefunction(band_params, lo1),
            ("upper", 1): scarf.build_wavefunction(band_params, hi1)}


class TestBuildAndEval:
    def test_ground_state_profile(self, bound_ground):
        # psi proportional to sin^2.5(pi x): check the shape ratio directly
        ratio = scarf.eval_psi(bound_ground, 0.1) / scarf.eval_psi(bound_ground, 0.5)
        assert ratio == pytest.approx(math.sin(0.1 * math.pi) ** 2.5, rel=1e-13)
        assert ratio == pytest.approx(0.0531, abs=5e-5)

    def test_lower_edge_profile(self, band_states):
        wf = band_states[("lower", 0)]
        ratio = scarf.eval_psi(wf, 0.2) / scarf.eval_psi(wf, 0.5)
        assert ratio == pytest.approx(math.sin(0.2 * math.pi) ** 0.1, rel=1e-13)

    def test_midpoint_node_for_n1(self, band_states):
        for edge in ("lower", "upper"):
            wf = band_states[(edge, 1)]
            assert scarf.eval_psi(wf, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_lattice_points_evaluate_to_zero(self, bound_ground):
        assert scarf.eval_psi(bound_ground, 0.0) == 0.0
        assert scarf.eval_psi(bound_ground, 1.0) == 0.0
        vals = scarf.eval_psi(bound_ground, np.array([0.0, 0.5, 1.0]))
        assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] != 0.0
        assert scarf.eval_psi(bound_ground, 0.5) != 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_free_wave_lattice_points_evaluate_to_norm(self, n):
        # s = 1/2, lower edge: kappa = 0 and psi = norm cos(n pi x / a), which
        # does not vanish at the walls: psi(k a) = norm (-1)^(n k)
        params = scarf.PotentialParams(s=0.5)
        wf = scarf.build_wavefunction(params, scarf.spectrum_line(params, n, Edge.LOWER))
        assert wf.line.kappa == 0.0 and wf.norm == pytest.approx(1.0 if n == 0 else math.sqrt(2.0))
        for k in (0, 1, 2):
            value = (-1) ** (n * k) * wf.norm
            assert scarf.eval_psi(wf, k * params.a) == value
            assert scarf.eval_psi(wf, k * params.a + 1e-9) == pytest.approx(value, rel=1e-12)
        assert scarf.eval_psi(wf, np.array([0.0, params.a])).tolist() == [wf.norm,
                                                                           (-1) ** n * wf.norm]

    @pytest.mark.parametrize("n", range(6))
    def test_free_wave_is_cos_in_every_cell(self, n):
        # psi(x + a) = (-1)^n psi(x): odd free waves change sign from cell to
        # cell, with no jump at the lattice points
        for a in (0.3, 1.0):
            params = scarf.PotentialParams(s=0.5, a=a)
            wf = scarf.build_wavefunction(params, scarf.spectrum_line(params, n, Edge.LOWER))
            xs = np.append(np.linspace(-2.0 * a, 3.0 * a, 1001), [a - 1e-9, a, 1e-9 - a])
            want = [wf.norm * math.cos(n * math.pi * x / a) for x in xs]
            assert scarf.eval_psi(wf, xs) == pytest.approx(want, abs=1e-12)
        # at a = 1 a dyadic x moves by one cell exactly
        xs = np.arange(-128, 128) / 64.0
        assert (scarf.eval_psi(wf, xs + 1.0) == (-1) ** n * scarf.eval_psi(wf, xs)).all()

    def test_upper_edges_at_s_half_are_sines(self):
        # s = 1/2, upper edge: kappa = 1 and psi = norm sin((n + 1) pi x / a) / (n + 1),
        # antiperiodic for even n
        for n, a in itertools.product(range(4), (0.3, 1.0)):
            params = scarf.PotentialParams(s=0.5, a=a)
            wf = scarf.build_wavefunction(params, scarf.spectrum_line(params, n, Edge.UPPER))
            xs = np.append(np.linspace(-2.0 * a, 3.0 * a, 1001), [a - 1e-9, a + 1e-9, 1e-9 - a])
            want = [wf.norm * math.sin((n + 1) * math.pi * x / a) / (n + 1) for x in xs]
            assert scarf.eval_psi(wf, xs) == pytest.approx(want, abs=1e-12)

    def test_edge_states_are_continuous_across_s_half(self):
        # the free waves of s = 1/2 are the limit of the band edges from below,
        # in the next cell as in the first
        xs = np.linspace(1.01, 1.99, 99)
        for edge in (Edge.LOWER, Edge.UPPER):
            for n in range(4):
                free, near = (scarf.build_wavefunction(p, scarf.spectrum_line(p, n, edge))
                              for p in map(scarf.PotentialParams, (0.5, 0.5 - 1e-7)))
                assert scarf.eval_psi(near, xs) == pytest.approx(scarf.eval_psi(free, xs),
                                                                 abs=1e-5)

    @pytest.mark.parametrize("s", [0.05, 0.2, 0.4, 0.45])
    def test_band_edges_carry_opposite_bloch_signs(self, s):
        # lower edge n: psi(x + a) = (-1)^n psi(x); upper edge n: (-1)^(n+1);
        # bound levels stay a-periodic
        xs = np.arange(-128, 128) / 64.0 + 1.0 / 128.0  # dyadic: x + 1 is exact
        for p, edge, sign in ((scarf.PotentialParams(s), Edge.LOWER, 1),
                              (scarf.PotentialParams(s), Edge.UPPER, -1),
                              (scarf.PotentialParams(1.0 + s), Edge.NOT_APPLICABLE, None)):
            for n in range(4):
                wf = scarf.build_wavefunction(p, scarf.spectrum_line(p, n, edge))
                bloch = 1 if sign is None else sign * (-1) ** n
                assert (scarf.eval_psi(wf, xs + 1.0) == bloch * scarf.eval_psi(wf, xs)).all()

    def test_inexact_lattice_point_evaluates_to_zero(self):
        # 0.9 / 0.3 is not exactly 3 in floats; the lattice rule still holds
        params = scarf.PotentialParams(s=0.45, a=0.3)
        for edge in (Edge.LOWER, Edge.UPPER):
            wf = scarf.build_wavefunction(params, scarf.spectrum_line(params, 1, edge))
            assert scarf.eval_psi(wf, 0.9) == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_rejects_non_finite_x(self, bound_ground, x):
        # as evaluate_potential does
        with pytest.raises(ValueError, match="x must be finite"):
            scarf.eval_psi(bound_ground, x)

    def test_matches_scipy_gegenbauer(self):
        # psi = norm sin^kappa C_n^kappa(cos) / C_n^kappa(1), by scipy's own
        # Gegenbauer evaluation
        from scipy.special import eval_gegenbauer
        xs = np.linspace(0.001, 0.999, 401)
        z = np.pi * xs
        for s in (0.05, 0.4, 2.0, 8.0, 30.0):
            params = scarf.PotentialParams(s=s)
            for line in scarf.spectrum_lines(params, 30):
                wf = scarf.build_wavefunction(params, line)
                kappa = wf.line.kappa
                assert kappa > 0.0
                ref = (wf.norm * np.sin(z) ** kappa * eval_gegenbauer(line.n, kappa, np.cos(z))
                       / eval_gegenbauer(line.n, kappa, 1.0))
                err = np.abs(scarf.eval_psi(wf, xs) - ref).max()
                assert err <= 1e-12 * np.abs(ref).max(), (s, line.n, line.edge, err)

    def test_normalization(self, bound_ground, band_states):
        # the closed-form norm against adaptive quadrature, through n = 12
        # in every regime, including the lambda = 0 fold at s = 1/2
        from scipy.integrate import quad
        states = [bound_ground] + list(band_states.values())
        for params in (scarf.PotentialParams(s=2.0), scarf.PotentialParams(s=0.4),
                       scarf.PotentialParams(s=0.5),
                       scarf.PotentialParams(s=2.37, a=2.5, m=0.7)):
            states.extend(scarf.build_wavefunction(params, line)
                          for line in scarf.spectrum_lines(params, 12))
        assert len(states) == 5 + 13 * 6
        for wf in states:
            a = wf.params.a
            total, _ = quad(lambda x: scarf.eval_psi(wf, x) ** 2, 0.0, a,
                            points=[0.05 * a, 0.5 * a, 0.95 * a], limit=400,
                            epsabs=1e-13, epsrel=1e-13)
            assert abs(total - 1.0) <= 1e-12, (wf.line, total)

    def test_consistency_guard(self, bound_params, band_params):
        line = scarf.spectrum_line(bound_params, 0, Edge.NOT_APPLICABLE)
        with pytest.raises(ConsistencyError):
            scarf.build_wavefunction(band_params, line)
        # same regime, different coupling: lambda no longer matches (s, n)
        other = scarf.PotentialParams(s=3.0)
        with pytest.raises(ConsistencyError):
            scarf.build_wavefunction(other, line)
        # same s and lambda, another a: the energy no longer matches
        wide = scarf.spectrum_line(scarf.PotentialParams(s=2.0, a=2.5), 0, Edge.NOT_APPLICABLE)
        with pytest.raises(ConsistencyError):
            scarf.build_wavefunction(bound_params, wide)

    def test_periodicity_band_states(self, band_states):
        # the upper edge of the lowest band sits at k = pi / a
        wf = band_states[("upper", 0)]
        for x in (0.125, 0.25, 0.625):  # dyadic keeps x+1 exact
            assert scarf.eval_psi(wf, x + 1.0) == -scarf.eval_psi(wf, x)
        eps = 1e-9
        assert abs(scarf.eval_psi(wf, 1.0 - eps)) < 1e-6
        assert abs(scarf.eval_psi(wf, 1.0 + eps)) < 1e-6

    def test_vanishing_at_walls_bound(self, bound_params):
        for n in range(3):
            wf = scarf.build_wavefunction(
                bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
            xs = np.linspace(0.01, 0.99, 99)
            peak = np.abs(scarf.eval_psi(wf, xs)).max()
            for x in (1e-8, 1.0 - 1e-8):
                assert abs(scarf.eval_psi(wf, x)) <= 1e-6 * peak


class TestStructure:
    def test_node_counts(self, bound_params, band_states):
        assert scarf.count_nodes(band_states[("upper", 0)]) == 0
        assert scarf.count_nodes(band_states[("lower", 1)]) == 1
        for n in (0, 3):
            wf = scarf.build_wavefunction(
                bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
            assert scarf.count_nodes(wf) == n
        hi2 = scarf.spectrum_line(scarf.PotentialParams(s=0.4), 2, Edge.UPPER)
        wf2 = scarf.build_wavefunction(scarf.PotentialParams(s=0.4), hi2)
        assert scarf.count_nodes(wf2) == 2

    def test_node_count_up_to_n8(self, bound_params, band_params):
        for n in (6, 8):
            wf = scarf.build_wavefunction(
                bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
            assert scarf.count_nodes(wf) == n
        lo8, hi8 = (scarf.spectrum_line(band_params, 8, edge) for edge in (Edge.LOWER, Edge.UPPER))
        assert scarf.count_nodes(scarf.build_wavefunction(band_params, lo8)) == 8
        assert scarf.count_nodes(scarf.build_wavefunction(band_params, hi8)) == 8

    @pytest.mark.parametrize("s, edge", [(0.4, Edge.LOWER), (30.0, Edge.NOT_APPLICABLE)])
    def test_node_count_at_n500(self, s, edge):
        # 512 fixed samples read 498 and 474 here: nodes fell between them
        params = scarf.PotentialParams(s=s)
        wf = scarf.build_wavefunction(params, spectrum_line(params, 500, edge))
        assert scarf.count_nodes(wf) == 500

    def test_parity(self, bound_params):
        for n in range(4):
            wf = scarf.build_wavefunction(
                bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
            expected = Parity.EVEN if n % 2 == 0 else Parity.ODD
            assert scarf.parity(wf) is expected

    def test_no_definite_parity_raises(self, bound_params, monkeypatch):
        # u = sin^kappa z (R_0 + cos z / 2) is neither even nor odd about pi/2
        real = wavefunction.gegenbauer_ratios

        def skewed(n, kappa, t):
            r, *older = real(n, kappa, t)
            return (r + 0.5 * t, *older)

        monkeypatch.setattr(wavefunction, "gegenbauer_ratios", skewed)
        wf = scarf.build_wavefunction(
            bound_params, scarf.spectrum_line(bound_params, 0, Edge.NOT_APPLICABLE))
        with pytest.raises(NumericError, match="no definite parity"):
            scarf.parity(wf)

    def test_boundary_exponents(self, bound_ground, band_states):
        assert scarf.boundary_exponent(bound_ground) == pytest.approx(2.5, abs=1e-3)
        assert scarf.boundary_exponent(band_states[("lower", 0)]) == pytest.approx(0.1, abs=1e-3)
        assert scarf.boundary_exponent(band_states[("upper", 0)]) == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("s", [1e4, 1e5])
    def test_boundary_exponent_at_large_coupling(self, s):
        # the fit's kappa z^2 / 3 bias from sin z != z reached 0.002 and
        # 0.02 at n = 0 before the window shrank with sqrt(kappa)
        params = scarf.PotentialParams(s=s)
        for n in range(3):
            wf = scarf.build_wavefunction(params, spectrum_line(params, n, Edge.NOT_APPLICABLE))
            assert abs(scarf.boundary_exponent(wf) - wf.line.kappa) <= 1e-4, n

    def test_schrodinger_residual(self, bound_params, band_states):
        states = list(band_states.values()) + [
            scarf.build_wavefunction(
                bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
            for n in range(4)
        ]
        for wf in states:
            res, scale = scarf.schrodinger_residual(wf)
            assert res <= 1e-8 * scale

    def test_analytic_second_derivative_vs_finite_difference(self):
        # u_zz of the residual grid against a central difference of psi at
        # x = a z / pi, where psi'' = norm (pi / a)^2 u_zz
        from scarf.wavefunction import _curvature
        h = 1e-5
        for s, n, edge in [(2.0, 0, Edge.NOT_APPLICABLE), (2.0, 3, Edge.NOT_APPLICABLE),
                           (0.4, 2, Edge.LOWER)]:
            params = scarf.PotentialParams(s=s)
            wf = scarf.build_wavefunction(params, spectrum_line(params, n, edge))
            sk2, s2, r, d = _curvature(wf)
            k = wf.line.kappa
            u, u_zz = sk2 * s2 * r, sk2 * (k * (k - 1.0) * r - d)
            z = wf.cell["residual"][0]
            for i in (40, 74, 100, 161):  # x near 0.2, 0.37, 0.5, 0.81
                x0 = z[i] / np.pi
                fd = (scarf.eval_psi(wf, x0 - h) - 2.0 * scarf.eval_psi(wf, x0)
                      + scarf.eval_psi(wf, x0 + h)) / h**2
                assert wf.norm * u[i] == pytest.approx(scarf.eval_psi(wf, x0), rel=1e-12)
                assert wf.norm * np.pi**2 * u_zz[i] == pytest.approx(fd, rel=1e-5), (s, n, i)


_MATRIX_COUPLINGS = (0.05, 0.4, 0.4999, 0.5, 2.0, 8.0, 30.0, 100.0)
_MATRIX_DEGREES = frozenset(range(13)) | frozenset(range(14, 101, 2))


def _matrix_states(s):
    """Every level of positive energy with a degree in the matrix, both
    edges in the band regime."""
    params = scarf.PotentialParams(s=s)
    return [scarf.build_wavefunction(params, line)
            for line in scarf.spectrum_lines(params, 100)
            if line.n in _MATRIX_DEGREES and line.energy > 0.0]


class TestProbeMatrix:
    """verify's node, parity, boundary-exponent, residual and momentum-
    function probes, at verify's thresholds, through n = 100 and s = 100."""

    @pytest.mark.parametrize("s", _MATRIX_COUPLINGS)
    def test_probes_pass(self, s):
        for wf in _matrix_states(s):
            line = wf.line
            assert scarf.count_nodes(wf) == line.n, line
            expected = Parity.EVEN if line.n % 2 == 0 else Parity.ODD
            assert scarf.parity(wf) is expected, line
            assert abs(scarf.boundary_exponent(wf) - wf.line.kappa) <= 1e-3, line
            chi = scarf.ChiFunction.from_wavefunction(wf)
            rep = scarf.residue_report(chi)
            assert rep.sum_rule_defect <= 1e-9, line
            assert abs(rep.b1_measured - line.b1) <= 1e-10, line
            assert abs(rep.b1_measured - rep.b1_prime_measured) <= 1e-10, line
            assert abs(rep.d1_measured - line.d1) <= 1e-10, line
            assert rep.moving_pole_count == line.n, line
            assert chi_parity_defect(chi) <= 1e-12, line
            riccati = scarf.verify_riccati(chi)
            assert riccati <= 1e-10 * (1.0 + line.lam**2), (line, riccati)
            res, scale = scarf.schrodinger_residual(wf)
            assert res <= 1e-8 * scale, (line, res / scale)

    def test_residual_scale_at_vanishing_energy(self):
        # at s = 0.4999, lower edge, n = 0, E is 4.9e-8 energy units; against
        # |E| max|psi| the residual would read 5.4e-5, against the floored
        # energy scale it reads about 5e-10
        params = scarf.PotentialParams(s=0.4999)
        wf = scarf.build_wavefunction(params, scarf.spectrum_line(params, 0, Edge.LOWER))
        res, scale = scarf.schrodinger_residual(wf)
        assert res <= 1e-8 * scale

    def test_energy_mutants_fail(self, band_params):
        # lambda^2 >= 0.01 at s = 0.4, above the energy floor: a closed-form
        # energy off by 1e-6 relative still reads 1e-6 on the residual
        for n in range(4):
            for edge in (Edge.LOWER, Edge.UPPER):
                line = scarf.spectrum_line(band_params, n, edge)
                wf = scarf.build_wavefunction(band_params, line)
                mutant = replace(wf, line=replace(line, energy=line.energy * (1.0 + 1e-6)))
                res, scale = scarf.schrodinger_residual(mutant)
                assert res / scale == pytest.approx(1e-6, rel=0.05), line


def _probe_checks(s, a=1.0, m=1.0):
    params = scarf.PotentialParams(s, a, m)
    return [c for line in scarf.spectrum_lines(params, 2)
            for c in _level_checks(params, line, None, None, 1e-8)]


def _decades(bound):
    """Powers of ten from 1e-bound to 1e+bound."""
    return st.integers(-bound, bound).map(lambda k: 10.0**k)


class TestScaleInvariance:
    """The probes work in z = pi x / a and y = cot z, so a and m reach them
    only through E / (pi^2 / (2 m a^2)), which the residual alone reads.

    a and m are drawn as powers of ten with m a^2 in [1e-300, 1e300], so
    PotentialParams accepts every draw; the examples reach the corners."""

    @settings(max_examples=60, deadline=None)
    @given(s=st.sampled_from([2.0, 0.4]), a=_decades(75), m=_decades(150))
    @example(s=2.0, a=1e-140, m=1.0)
    @example(s=2.0, a=1e140, m=1.0)
    @example(s=2.0, a=1e150, m=1e-300)
    def test_probe_values_depend_on_s_alone(self, s, a, m):
        checks = _probe_checks(s, a, m)
        reference = _probe_checks(s)
        assert [c["name"] for c in checks] == [c["name"] for c in reference]
        for got, want in zip(checks, reference):
            if got["name"] == "schrodinger_rel_residual":
                assert abs(got["value"] - want["value"]) <= 1e-15, (got, want)
                got, want = dict(got, value=None), dict(want, value=None)
            assert got == want


def _cell_reference(spec):
    """spec.cell rebuilt as np.stack and np.split form it: the residual grid
    with a sin and a cos, the node grid and the exponent grid (a unit grid
    over n + 1) joined with one sin and one cos, one recurrence pass over
    every cos, and the stacked rows split back."""
    n = spec.line.n
    nodes = max(512, 8 * (n + 1))
    residual = np.linspace(1e-3 * np.pi, (1.0 - 1e-3) * np.pi, 200)
    own = np.concatenate((np.pi * np.arange(1, nodes + 1) / (nodes + 1.0),
                          np.geomspace(1e-5 * np.pi, 1e-3 * np.pi, 32) / (n + 1)))
    trig = np.hstack([np.stack((z, np.sin(z), np.cos(z))) for z in (residual, own)])
    rows = np.vstack((trig, np.stack(gegenbauer_ratios(n, spec.line.kappa, trig[2]))))
    return dict(zip(("residual", "nodes", "exponent"),
                    np.split(rows, np.cumsum([200, nodes]), axis=1)))


_CELL_STATES = [(2.0, 0, Edge.NOT_APPLICABLE), (2.0, 1, Edge.NOT_APPLICABLE),
                 (2.0, 7, Edge.NOT_APPLICABLE), (0.4, 3, Edge.LOWER), (0.4, 3, Edge.UPPER),
                 (0.5, 2, Edge.LOWER), (30.0, 120, Edge.NOT_APPLICABLE)]


def _spec(s, n, edge):
    params = scarf.PotentialParams(s=s)
    return scarf.build_wavefunction(params, spectrum_line(params, n, edge))


_BAND_COUPLINGS = (0.05, 0.2, 0.4, 0.45, 0.5)
_PARITY_SET_COUPLINGS = _BAND_COUPLINGS + (0.7, 2.0, 8.0, 30.0, 100.0)
_PARITY_SET_DEGREES = (*range(41), 100, 200, 500)


def _midpoint_grid_parity(spec):
    """parity's rule on a 256-point grid of its own, pi/2 -+ pi k / 258 for
    k = 1..128, from a recurrence pass of its own; None where neither
    defect is within 1e-10 max|u|."""
    half = np.pi * np.arange(1, 129) / 258.0
    z = np.concatenate((np.pi / 2.0 - half, np.pi / 2.0 + half))
    kappa = spec.line.kappa
    u = np.sin(z) ** kappa * gegenbauer_ratios(spec.line.n, kappa, np.cos(z))[0]
    left, right = u[:128], u[128:]
    scale = np.abs(u).max()
    even, odd = np.abs(right - left).max(), np.abs(right + left).max()
    if even <= 1e-10 * scale and even <= odd:
        return Parity.EVEN
    return Parity.ODD if odd <= 1e-10 * scale else None


class TestParityOnNodeGrid:
    """parity, on the mirror pairs of count_nodes' grid, gives the verdict
    of a separate grid about pi/2 over the 660-state set: n = 0-40, 100, 200
    and 500, both edges in the band regime (659 states; the E = 0 fold at
    s = 1/2 has no wavefunction)."""

    @pytest.mark.parametrize("s", _PARITY_SET_COUPLINGS)
    def test_verdict_equals_a_midpoint_grid(self, s):
        params = scarf.PotentialParams(s=s)
        edges = (Edge.LOWER, Edge.UPPER) if s in _BAND_COUPLINGS else (Edge.NOT_APPLICABLE,)
        lines = [spectrum_line(params, n, edge) for n in _PARITY_SET_DEGREES for edge in edges]
        states = [scarf.build_wavefunction(params, line) for line in lines if line.energy > 0.0]
        assert len(states) == len(lines) - (s == 0.5)
        for wf in states:
            got = scarf.parity(wf)  # raises NumericError on no definite parity
            assert got is _midpoint_grid_parity(wf), wf.line
            assert got is (Parity.EVEN if wf.line.n % 2 == 0 else Parity.ODD), wf.line
            _, sn, _, r, _, _ = wf.cell["nodes"]
            u = sn ** wf.line.kappa * r
            mirror = u[::-1] if got is Parity.EVEN else -u[::-1]
            assert np.abs(u - mirror).max() <= 1e-11 * np.abs(u).max(), wf.line


class TestCellRows:
    """spec.cell cuts its rows by slices, bit for bit as np.split does."""

    @pytest.mark.parametrize("s, n, edge", _CELL_STATES)
    def test_cell_rows_equal_a_split_reference(self, s, n, edge):
        wf = _spec(s, n, edge)
        ref = _cell_reference(wf)
        assert list(wf.cell) == list(ref)
        for name, rows in ref.items():
            assert len(wf.cell[name]) == len(rows) == 6
            for got, want in zip(wf.cell[name], rows):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestSampling:
    def test_sample_grid_and_columns(self, bound_ground):
        cols = scarf.sample_wavefunction(bound_ground, 512)
        assert set(cols) == {"x", "V", "psi", "psi_squared"}
        assert len(cols["x"]) == 512
        offset = 1.0 / (10 * 512)
        assert cols["x"][0] == pytest.approx(offset, rel=1e-12)
        assert cols["x"][-1] == pytest.approx(1.0 - offset, rel=1e-12)
        assert np.allclose(cols["psi_squared"], cols["psi"] ** 2)
        peak = np.argmax(cols["psi"])
        assert cols["x"][peak] == pytest.approx(0.5, abs=2e-3)

    def test_one_sample_is_a_value_error(self, bound_ground):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            scarf.sample_wavefunction(bound_ground, 1)


class TestImport:
    def test_no_command_loads_scipy(self, tmp_path):
        # no scipy module and no numpy.polynomial module is loaded by
        # importing the package, by a level command or by verify with any
        # oracle, each run in a fresh interpreter: P_n is evaluated in
        # Gegenbauer form only, the Brent polish is the package's own and
        # the collocation oracle uses numpy's eigvals
        none = ("scipy", "numpy.polynomial")
        commands = [
            ([], none),
            (["spectrum", "--s", "2"], none),
            (["bands", "--s", "0.4"], none),
            (["wavefunction", "--s", "0.4", "--n", "2", "--edge", "lower"], none),
            (["table1", "--s", "2", "--n", "1"], none),
            (["verify", "--s", "0.4", "--n-max", "1"], none),
            (["verify", "--s", "2", "--n-max", "1", "--oracle", "shooting"], none),
            (["verify", "--s", "2", "--n-max", "1", "--oracle", "both"], none),
            (["verify", "--s", "2", "--n-max", "1", "--oracle", "fd"], none),
            (["verify", "--s", "0.4", "--n-max", "1", "--oracle", "fd"], none),
        ]
        for k, (args, banned) in enumerate(commands):
            out = tmp_path / f"out{k}"
            code = "import sys, scarf\n"
            if args:
                code += ("from scarf.cli import main\n"
                         f"main.main({args + ['--out', str(out)]!r}, standalone_mode=False)\n")
            code += (f"print(sorted(m for m in sys.modules for b in {banned!r}"
                     " if m == b or m.startswith(b + '.')))")
            run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, check=True)
            assert run.stdout.strip() == "[]", args
            assert not args or out.stat().st_size > 0
