import math
from dataclasses import replace

import numpy as np
import pytest

import scarf
from scarf import ChiFunction, ContourError, Edge, Parity
from scarf.qmf import (
    _FIXED_RADIUS,
    _count_ellipse,
    _infinity_circles,
    _infinity_residue,
    _pole_count,
    _probe_grid,
    _residue_circle,
    chi_parity_defect,
    log_derivative,
)
from scarf.spectrum import spectrum_line
from scarf.verify import _level_checks
from scarf.wavefunction import gegenbauer_ratios


@pytest.fixture(scope="module")
def bound_chi(bound_params):
    wf = scarf.build_wavefunction(
        bound_params, scarf.spectrum_line(bound_params, 0, Edge.NOT_APPLICABLE))
    return ChiFunction.from_wavefunction(wf)


@pytest.fixture(scope="module")
def lower1_chi(band_params):
    lo1 = scarf.spectrum_line(band_params, 1, Edge.LOWER)
    wf = scarf.build_wavefunction(band_params, lo1)
    return ChiFunction.from_wavefunction(wf)


class TestContourResidue:
    def test_fixed_pole_plus_i(self, bound_chi):
        res = scarf.contour_residue(bound_chi, 1j, 0.3)
        assert res.real == pytest.approx(-0.75, abs=1e-12)
        assert abs(res.imag) <= 1e-12

    def test_fixed_pole_minus_i_parity(self, bound_chi):
        res = scarf.contour_residue(bound_chi, -1j, 0.3)
        assert res == pytest.approx(scarf.contour_residue(bound_chi, 1j, 0.3), abs=1e-12)

    def test_moving_pole_residue_is_one(self, lower1_chi):
        res = scarf.contour_residue(lower1_chi, 0.0, 0.2)
        assert res.real == pytest.approx(1.0, abs=1e-12)
        assert abs(res.imag) <= 1e-12

    def test_numpy_scalar_center_and_radius(self, lower1_chi):
        res = scarf.contour_residue(lower1_chi, np.array(0.0), np.array(0.2))
        assert res == pytest.approx(scarf.contour_residue(lower1_chi, 0.0, 0.2), abs=1e-15)

    def test_contour_too_close_to_other_pole(self, lower1_chi):
        # the moving pole at 0 sits within 1.5x of this contour around +i
        with pytest.raises(ContourError):
            scarf.contour_residue(lower1_chi, 1j, 0.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_or_radius_is_a_value_error(self, lower1_chi, bad):
        with pytest.raises(ValueError):
            scarf.contour_residue(lower1_chi, bad, 0.2)
        with pytest.raises(ValueError):
            scarf.contour_residue(lower1_chi, complex(0.0, bad), 0.2)
        with pytest.raises(ValueError):
            scarf.contour_residue(lower1_chi, 1j, bad)


class TestResidueAtInfinity:
    def test_bound_ground(self, bound_chi):
        d1 = scarf.residue_report(bound_chi).d1_measured
        assert d1.real == pytest.approx(-1.5, abs=1e-10)
        assert abs(d1.imag) <= 1e-10

    def test_band_lower_edge_n0(self, band_params):
        lo = scarf.spectrum_line(band_params, 0, Edge.LOWER)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(band_params, lo))
        assert scarf.residue_report(chi).d1_measured.real == pytest.approx(0.9, abs=1e-10)

    def test_band_upper_edge_n1(self, band_params):
        hi = scarf.spectrum_line(band_params, 1, Edge.UPPER)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(band_params, hi))
        # d1 = 2 b1 + n = (1 - 1.9) + 1 = 0.1 = (1 - 2s)/2
        assert scarf.residue_report(chi).d1_measured.real == pytest.approx(0.1, abs=1e-10)


class TestMovingPoleCount:
    @pytest.mark.parametrize("s,n,edge", [
        (2.0, 0, Edge.NOT_APPLICABLE),
        (2.0, 3, Edge.NOT_APPLICABLE),
        (0.4, 2, Edge.UPPER),
        (0.4, 5, Edge.LOWER),
    ])
    def test_count_matches_degree(self, s, n, edge):
        params = scarf.PotentialParams(s=s)
        line = scarf.spectrum_line(params, n, edge)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(params, line))
        assert scarf.residue_report(chi).moving_pole_count == n

    @pytest.mark.parametrize("s,edge", [
        (0.05, Edge.LOWER), (0.05, Edge.UPPER),
        (0.4, Edge.LOWER), (0.4, Edge.UPPER),
        (0.5, Edge.LOWER), (0.5, Edge.UPPER),
        (2.0, Edge.NOT_APPLICABLE), (8.0, Edge.NOT_APPLICABLE),
    ])
    def test_count_through_n40(self, s, edge):
        params = scarf.PotentialParams(s=s)
        for n in range(41):
            wf = scarf.build_wavefunction(params, spectrum_line(params, n, edge))
            chi = ChiFunction.from_wavefunction(wf)
            assert scarf.residue_report(chi).moving_pole_count == n


class TestRiccati:
    def test_valid_states_null_the_equation(self, bound_chi, lower1_chi):
        assert scarf.verify_riccati(bound_chi) <= 1e-10 * (1.0 + 2.5**2)
        assert scarf.verify_riccati(lower1_chi) <= 1e-10 * (1.0 + 1.1**2)

    def test_perturbed_lambda_is_visible(self, bound_chi):
        # negative control: a wrong eigenvalue must light up the residual
        assert scarf.verify_riccati(replace(bound_chi, lam=2.6)) >= 1e-3


class TestReport:
    def test_full_report_bound(self, bound_chi):
        rep = scarf.residue_report(bound_chi)
        assert rep.sum_rule_defect <= 1e-9
        assert rep.b1_measured == pytest.approx(-0.75, abs=1e-10)
        assert rep.b1_prime_measured == pytest.approx(rep.b1_measured, abs=1e-10)
        assert rep.moving_pole_count == 0
        assert scarf.verify_riccati(bound_chi) <= 1e-10 * (1.0 + 2.5**2)

    def test_chi_is_odd(self, bound_chi, lower1_chi):
        assert chi_parity_defect(bound_chi) <= 1e-12
        assert chi_parity_defect(lower1_chi) <= 1e-12

    def test_identically_zero_chi_has_zero_parity_defect(self):
        # free-particle lambda = 1 state: b1 = 0 and P = 1, so chi vanishes
        p = scarf.PotentialParams(s=0.5)
        upper = scarf.spectrum_line(p, 0, Edge.UPPER)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(p, upper))
        assert chi_parity_defect(chi) == 0.0
        rep = scarf.residue_report(chi)
        assert rep.sum_rule_defect == 0.0
        assert rep.moving_pole_count == 0

    def test_sum_rule_through_n5_both_regimes(self, bound_params, band_params):
        lines = [scarf.spectrum_line(bound_params, 5, Edge.NOT_APPLICABLE)]
        lines.extend(scarf.spectrum_line(band_params, 5, edge)
                     for edge in (Edge.LOWER, Edge.UPPER))
        for line in lines:
            params = bound_params if line.regime.value == "bound_states" else band_params
            chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(params, line))
            rep = scarf.residue_report(chi)
            assert rep.sum_rule_defect <= 1e-9
            assert rep.moving_pole_count == 5

    def test_measured_b1_is_lower_candidate(self, band_params):
        # the physical residue is always (1 - lambda)/2, never (1 + lambda)/2
        for n in range(3):
            for edge in (Edge.LOWER, Edge.UPPER):
                line = scarf.spectrum_line(band_params, n, edge)
                chi = ChiFunction.from_wavefunction(
                    scarf.build_wavefunction(band_params, line))
                b1 = scarf.contour_residue(chi, 1j, 0.3)
                lo, hi = scarf.fixed_pole_residue_candidates(line.lam)
                assert b1.real == pytest.approx(lo, abs=1e-10)
                assert abs(b1.real - hi) > 0.01


class TestHighDegree:
    @pytest.mark.parametrize("s,n,edge", [
        (2.0, 21, Edge.NOT_APPLICABLE), (2.0, 22, Edge.NOT_APPLICABLE),
        (2.0, 23, Edge.NOT_APPLICABLE), (2.0, 24, Edge.NOT_APPLICABLE),
        (0.4, 18, Edge.UPPER), (0.4, 19, Edge.UPPER),
        (0.4, 13, Edge.LOWER), (0.4, 24, Edge.LOWER), (0.4, 40, Edge.LOWER),
        (2.0, 34, Edge.NOT_APPLICABLE), (0.05, 24, Edge.LOWER), (0.5, 24, Edge.UPPER),
    ])
    def test_verify_probes_pass(self, s, n, edge):
        # the probes of scarf verify, at its thresholds
        params = scarf.PotentialParams(s=s)
        line = spectrum_line(params, n, edge)
        wf = scarf.build_wavefunction(params, line)
        chi = ChiFunction.from_wavefunction(wf)
        rep = scarf.residue_report(chi)
        assert rep.sum_rule_defect <= 1e-9
        assert abs(rep.b1_measured - line.b1) <= 1e-10
        assert abs(rep.b1_measured - rep.b1_prime_measured) <= 1e-10
        assert abs(rep.d1_measured - line.d1) <= 1e-10
        assert rep.moving_pole_count == n
        assert chi_parity_defect(chi) <= 1e-12
        assert scarf.verify_riccati(chi) <= 1e-10 * (1.0 + line.lam**2)
        assert scarf.count_nodes(wf) == n
        assert scarf.parity(wf) is (Parity.EVEN if n % 2 == 0 else Parity.ODD)
        assert abs(scarf.boundary_exponent(wf) - wf.boundary_power) <= 1e-3

    @pytest.mark.parametrize("s, n, edge", [
        (2.0, 393, Edge.NOT_APPLICABLE), (2.0, 394, Edge.NOT_APPLICABLE),
        (2.0, 500, Edge.NOT_APPLICABLE), (0.4, 500, Edge.LOWER), (30.0, 500, Edge.NOT_APPLICABLE),
    ])
    def test_probe_grid_keeps_points_at_high_degree(self, s, n, edge):
        # the moving poles clear the fixed real grid here (none of its 64
        # points is left at s = 2, n = 394 and 500); the probes move to the
        # theta-midpoints between poles and pass at verify's thresholds
        params = scarf.PotentialParams(s=s)
        line = spectrum_line(params, n, edge)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(params, line))
        assert _probe_grid(scarf.real_roots(chi.poly)).size == n - 1
        checks = _level_checks(params, line, None, None, 1e-8)
        assert [c["name"] for c in checks] == [
            "residue_sum_rule_defect", "b1_vs_closed_form", "b1_parity",
            "d1_vs_closed_form", "moving_pole_count_defect", "chi_parity_defect",
            "riccati_residual", "schrodinger_rel_residual", "node_count_defect",
            "parity_defect", "boundary_exponent_defect"]
        probes = [c for c in checks if c["name"] in ("chi_parity_defect", "riccati_residual")]
        assert all(c["pass"] for c in probes), probes


def _chi_per_array(chi, ys):
    """chi and chi' on one array, each from its own log_derivative pass."""
    y = np.asarray(ys, dtype=complex)
    value = 2.0 * chi.b1 * y / (y * y + 1.0) + log_derivative(chi.poly, y)
    slope = (2.0 * chi.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2
             + log_derivative(chi.poly, y, slope=slice(None))[1])
    return value, slope


def _riccati_per_array(chi):
    ys = _probe_grid(scarf.real_roots(chi.poly))
    val, dval = _chi_per_array(chi, ys)
    res = (val * val + dval + (chi.lam**2 - 1.0) / (ys**2 + 1.0) ** 2
           + (0.25 - chi.s**2) / (ys**2 + 1.0))
    return float(np.abs(res).max())


def _probe_grid_matrix(poles):
    """The probe grid by its distance-matrix rule: the points of the line at
    least 0.06 from every pole, else the theta-midpoints between poles."""
    line = np.linspace(-5.0, 5.0, 64)
    ys = line[np.all(np.abs(line[:, None] - np.asarray(poles)) >= 0.06, axis=1)]
    if ys.size >= 16:
        return ys
    theta = np.arctan2(1.0, np.sort(poles))
    mid = 0.5 * (theta[1:] + theta[:-1])
    return np.cos(mid) / np.sin(mid)


def _contours_per_array(chi):
    """residue_report's contours as (f(z), integral) pairs, each from its own
    log_derivative pass: chi on the four circles, P'/P on the ellipse."""
    roots = scarf.real_roots(chi.poly)
    circles = [_residue_circle(roots, 1j, _FIXED_RADIUS),
               _residue_circle(roots, -1j, _FIXED_RADIUS), *_infinity_circles(roots)]
    out = [(chi(z), w) for z, w in circles]
    z, w = _count_ellipse(roots)
    out.append((log_derivative(chi.poly, z), w))
    return [(f, complex((f * w).sum() / w.size)) for f, w in out]


def _chi_parity_per_array(chi):
    ys = _probe_grid(scarf.real_roots(chi.poly))
    plus, minus = _chi_per_array(chi, ys)[0], _chi_per_array(chi, -ys)[0]
    scale = np.abs(plus).max()
    return 0.0 if scale == 0.0 else float(np.abs(minus + plus).max() / scale)


@pytest.fixture()
def recurrence_calls(monkeypatch):
    """(n, kappa) of every gegenbauer_ratios pass the probes make."""
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return gegenbauer_ratios(*args)

    monkeypatch.setattr(scarf.qmf, "gegenbauer_ratios", counted)
    monkeypatch.setattr(scarf.wavefunction, "gegenbauer_ratios", counted)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("s, edge", [
        (2.0, Edge.NOT_APPLICABLE), (30.0, Edge.NOT_APPLICABLE),
        (0.4, Edge.LOWER), (0.4, Edge.UPPER),
    ])
    def test_shared_pass_equals_each_probe_alone(self, s, edge):
        # evaluating several contours or grids in one pass must not move a bit
        params = scarf.PotentialParams(s=s)
        for n in range(25):
            wf = scarf.build_wavefunction(params, spectrum_line(params, n, edge))
            chi = ChiFunction.from_wavefunction(wf)
            rep = scarf.residue_report(chi)
            alone = _contours_per_array(chi)
            for (f, integral), (f_alone, integral_alone) in zip(chi.probes[0], alone, strict=True):
                assert np.array_equal(f, f_alone) and integral == integral_alone
            assert rep.b1_measured == alone[0][1] == scarf.contour_residue(chi, 1j, _FIXED_RADIUS)
            assert rep.b1_prime_measured == alone[1][1]
            assert rep.b1_prime_measured == scarf.contour_residue(chi, -1j, _FIXED_RADIUS)
            assert rep.d1_measured == _infinity_residue(alone[2:4])
            assert rep.moving_pole_count == _pole_count(alone[4][1])
            assert np.array_equal(chi.probes[1], _probe_grid_matrix(scarf.real_roots(chi.poly)))
            assert scarf.verify_riccati(chi) == _riccati_per_array(chi)
            assert chi_parity_defect(chi) == _chi_parity_per_array(chi)

    @pytest.mark.parametrize("s, n, edge", [
        (2.0, 2, Edge.NOT_APPLICABLE), (2.0, 7, Edge.NOT_APPLICABLE),
        (0.4, 3, Edge.LOWER), (0.4, 4, Edge.UPPER),
    ])
    def test_recurrence_passes_per_state(self, s, n, edge, recurrence_calls):
        # two passes of the Gegenbauer recurrence per state: the first psi
        # probe and the first chi probe make one each, every later probe none
        calls = recurrence_calls
        params = scarf.PotentialParams(s=s)
        line = spectrum_line(params, n, edge)
        wf = scarf.build_wavefunction(params, line)
        chi = ChiFunction.from_wavefunction(wf)

        def passes(probe, arg):
            calls.clear()
            probe(arg)
            return len(calls)

        assert passes(scarf.residue_report, chi) == 1
        assert passes(scarf.verify_riccati, chi) == 0
        assert passes(chi_parity_defect, chi) == 0
        assert passes(scarf.parity, wf) == 1
        for probe in (scarf.schrodinger_residual, scarf.count_nodes, scarf.boundary_exponent):
            assert passes(probe, wf) == 0
        calls.clear()
        checks = _level_checks(params, line, None, None, 1e-8)
        assert all(c["pass"] for c in checks)
        assert len(calls) == 2

    @pytest.mark.parametrize("s, n, edge", [
        (2.0, 0, Edge.NOT_APPLICABLE), (2.0, 7, Edge.NOT_APPLICABLE), (0.4, 4, Edge.LOWER),
    ])
    def test_one_pole_list_per_state(self, monkeypatch, s, n, edge):
        # the chi probes build the state's pole list once and share it
        calls = []

        def counted(poly):
            calls.append(poly)
            return scarf.real_roots(poly)

        monkeypatch.setattr(scarf.qmf, "real_roots", counted)
        chi = _chi(s, n, edge)
        scarf.residue_report(chi)
        scarf.verify_riccati(chi)
        chi_parity_defect(chi)
        assert calls == [chi.poly]

    def test_no_cache_crosses_objects(self, recurrence_calls):
        # two specs of one line, and a chi of each, make a pass apiece
        params = scarf.PotentialParams(s=2.0)
        line = spectrum_line(params, 3, Edge.NOT_APPLICABLE)
        for _ in range(2):
            wf = scarf.build_wavefunction(params, line)
            scarf.count_nodes(wf)
            scarf.verify_riccati(ChiFunction.from_wavefunction(wf))
        assert len(recurrence_calls) == 4


def _is_node_count(nodes, eta):
    """nodes is the smallest power of two >= 32 with nodes * eta >= 32."""
    return (nodes >= 32 and nodes & (nodes - 1) == 0 and nodes * eta >= 32.0
            and (nodes == 32 or nodes * eta < 64.0))


def _chi(s, n, edge):
    params = scarf.PotentialParams(s=s)
    return ChiFunction.from_wavefunction(
        scarf.build_wavefunction(params, spectrum_line(params, n, edge)))


class TestNodeRule:
    """Each contour's N against its clearance rate eta, measured here from
    the contour's nodes and the state's poles (see the qmf docstring)."""

    @pytest.mark.parametrize("s, edge", [
        (0.05, Edge.LOWER), (0.05, Edge.UPPER), (0.4, Edge.LOWER), (0.4, Edge.UPPER),
        (2.0, Edge.NOT_APPLICABLE), (30.0, Edge.NOT_APPLICABLE),
    ])
    @pytest.mark.parametrize("n", [0, 1, 12, 100, 500])
    def test_each_contour_takes_the_smallest_sufficient_power_of_two(self, s, n, edge):
        chi = _chi(s, n, edge)
        roots = scarf.real_roots(chi.poly)
        poles = [1j, -1j, *roots]
        for center in (1j, -1j):
            z = _residue_circle(roots, center, _FIXED_RADIUS)[0]
            nearest = min(abs(p - center) for p in poles if p != center)
            assert _is_node_count(z.size, math.log(nearest / np.abs(z - center).max()))
        for z, _ in _infinity_circles(roots):
            eta = math.log(np.abs(z).max() / max(abs(p) for p in poles))
            assert eta >= math.log(10.0)
            assert _is_node_count(z.size, eta)
        z = _count_ellipse(roots)[0]
        rx, ry = np.abs(z.real).max(), np.abs(z.imag).max()
        assert _is_node_count(z.size, math.atanh(ry / rx))
        # the ellipse keeps |Im y| <= 1/2 and holds every root on its focal segment
        assert ry <= 0.5 * (1.0 + 1e-15)
        assert max((abs(r) for r in roots), default=0.0) < math.sqrt(rx * rx - ry * ry)
        assert scarf.residue_report(chi).moving_pole_count == n

    @pytest.mark.parametrize("center, radius, nodes", [
        (0.0, 0.2, 32), (0.0, 0.6, 64), (0.0, 0.66, 128), (1j, 0.3, 32), (1j, 0.6, 64),
    ])
    def test_user_radius_reads_the_nearest_pole(self, lower1_chi, monkeypatch,
                                                center, radius, nodes):
        # lower1_chi has poles at 0 and +-i, so the nearest other pole is 1
        # away from either center: eta = ln(1 / radius)
        sizes, ellipse = [], scarf.qmf._ellipse

        def spy(center, rx, ry, nodes):
            sizes.append(nodes)
            return ellipse(center, rx, ry, nodes)

        monkeypatch.setattr(scarf.qmf, "_ellipse", spy)
        residue = scarf.contour_residue(lower1_chi, center, radius)
        assert sizes == [nodes]
        assert _is_node_count(nodes, math.log(1.0 / radius))
        expected = 1.0 if center == 0.0 else lower1_chi.b1
        assert residue == pytest.approx(expected, abs=1e-12)

    def test_contour_nodes_per_state_are_pinned(self):
        # the sum of contour nodes of residue_report over the eigenstates
        # benchmark's levels: 51,328 under this rule, 158,976 when every
        # contour took at least 256 nodes and the ellipse was twice as wide
        total = 0
        for s, edges in ((2.0, [Edge.NOT_APPLICABLE]), (0.4, [Edge.LOWER, Edge.UPPER])):
            for edge in edges:
                for n in range(25):
                    total += sum(f.size for f, _ in _chi(s, n, edge).probes[0])
        assert total <= 51_328


_GEOMETRY_STATES = [(s, n, edge) for s, edge in ((2.0, Edge.NOT_APPLICABLE),
                                                 (0.05, Edge.LOWER), (0.4, Edge.UPPER),
                                                 (30.0, Edge.NOT_APPLICABLE))
                    for n in (0, 1, 2, 24, 100)]


class TestContourGeometry:
    """The sorted-root geometry against the rules it replaced, bit for bit."""

    @pytest.mark.parametrize("s, n, edge", _GEOMETRY_STATES + [
        (2.0, 393, Edge.NOT_APPLICABLE), (2.0, 394, Edge.NOT_APPLICABLE),
        (2.0, 500, Edge.NOT_APPLICABLE), (0.4, 500, Edge.LOWER)])
    def test_probe_grid_equals_the_distance_matrix_rule(self, s, n, edge):
        roots = scarf.real_roots(_chi(s, n, edge).poly)
        ys = _probe_grid(roots)
        assert ys.dtype == float and np.array_equal(ys, _probe_grid_matrix(roots))
        if (s, n) == (2.0, 394):  # the first degree on the midpoint fallback
            assert ys.size == n - 1

    def test_probe_grid_at_a_pole_and_at_the_threshold(self):
        line = np.linspace(-5.0, 5.0, 64)
        # poles exactly 0.06 below and above line[30] keep it
        below, above = line[30] - 0.06, line[30] + 0.06
        assert line[30] - below == 0.06 == above - line[30]
        for poles in ([], [line[10]], [below], [above], [below, above],
                      [-7.0, line[0] + 0.06, line[63] - 0.059, 7.0],
                      sorted(line[:60] + 1e-3)):
            assert np.array_equal(_probe_grid(poles), _probe_grid_matrix(poles)), poles
        assert line[30] in _probe_grid([below, above])

    @pytest.mark.parametrize("s, n, edge", _GEOMETRY_STATES)
    def test_radii_equal_their_generator_forms(self, monkeypatch, s, n, edge):
        roots = scarf.real_roots(_chi(s, n, edge).poly)
        calls, ellipse = [], scarf.qmf._ellipse

        def spy(center, rx, ry, nodes):
            calls.append((center, rx, ry))
            return ellipse(center, rx, ry, nodes)

        monkeypatch.setattr(scarf.qmf, "_ellipse", spy)
        _infinity_circles(roots)
        _count_ellipse(roots)
        radius = 10.0 * (1.0 + max([1.0] + [abs(r) for r in roots]))
        reach = 1.0 + max((abs(r) for r in roots), default=0.0)
        assert calls == [(0.0, radius, radius), (0.0, 2.0 * radius, 2.0 * radius),
                         (0.0, reach, 0.5)]
        if n == 0:
            assert radius == 20.0 and reach == 1.0

    @pytest.mark.parametrize("rx", [0.4, 20.0, 1e3])
    def test_circle_nodes_equal_the_ellipse_form(self, rx):
        # a circle skips the conjugate term, which is zero there
        z, w = scarf.qmf._ellipse(1j, rx, rx, 64)
        e = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
        assert np.array_equal(z, 1j + rx * e + 0.0 * e.conj()) and np.array_equal(w, rx * e)
