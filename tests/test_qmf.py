import math
from dataclasses import replace

import numpy as np
import pytest

import scarf
from scarf import ChiFunction, Edge, NumericError, Parity
from scarf.qmf import (
    _FIXED_RADIUS,
    _PROBE_LINE,
    _RESIDUE_CIRCLES,
    _circle,
    _infinity_circles,
    _infinity_residue,
    _node_count,
    _pole_count,
    chi_parity_defect,
    log_derivative,
)
from scarf.spectrum import spectrum_line
from scarf.verify import _probe_checks
from scarf.wavefunction import gegenbauer_ratios

from fixed_sets import STATE_FAMILIES, STATE_LEVELS
from jacobi_reference import tridiagonal_roots


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


def _circle_residue(chi, center, radius, nodes):
    """(1/2 pi i) closed integral of chi over a circle laid here, with the
    package's trapezoid nodes (_circle) and chi from _chi_per_array."""
    z, w = _circle(center, radius, nodes)
    return complex((_chi_per_array(chi, z)[0] * w).sum() / w.size)


class TestMovingPoleResidue:
    @pytest.mark.parametrize("s, edge", [
        (s, edge) for s in (0.05, 0.4, 0.4999, 0.5) for edge in (Edge.LOWER, Edge.UPPER)] + [
        (s, Edge.NOT_APPLICABLE) for s in (2.0, 8.0, 30.0, 100.0)])
    def test_residue_is_one_at_every_root(self, s, edge):
        # chi's residue is +1 at every root of P_n, n <= 12, at the
        # probe-matrix couplings: a circle about each root, from
        # tridiagonal_roots, of half the distance to its nearest other pole
        for n in range(13):
            chi = _chi(s, n, edge)
            roots = tridiagonal_roots(chi.line)
            assert roots.size == n
            poles = [1j, -1j, *roots]
            for root in roots:
                nearest = min(abs(p - root) for p in poles if p != root)
                residue = _circle_residue(chi, root, 0.5 * nearest, _node_count(math.log(2.0)))
                assert abs(residue - 1.0) <= 1e-10, (n, root, residue)


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


class TestRationalStructureErrors:
    """The NumericError paths, on crafted contour values."""

    @staticmethod
    def circle(d1, d0=0.0):
        # values whose mean is the Laurent constant d0, integral d1
        return np.array([d0 + 1.0, d0 - 1.0]), complex(d1)

    def test_consistent_circles_give_d1(self):
        assert _infinity_residue([self.circle(0.1), self.circle(0.1)]) == 0.1

    def test_nonzero_laurent_constant_raises(self):
        with pytest.raises(NumericError, match="Laurent constant"):
            _infinity_residue([self.circle(0.1, d0=1e-6), self.circle(0.1)])

    def test_unconverged_residue_at_infinity_raises(self):
        with pytest.raises(NumericError, match="did not converge"):
            _infinity_residue([self.circle(0.1), self.circle(0.1 + 1e-6)])

    def test_non_integer_pole_count_raises(self):
        assert _pole_count(3.0 + 1e-9j) == 3
        with pytest.raises(NumericError, match="not an integer"):
            _pole_count(2.5 + 0j)


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

    @pytest.mark.parametrize("s, edge", [
        (2.0, Edge.NOT_APPLICABLE), (0.4, Edge.LOWER), (0.4, Edge.UPPER)])
    def test_count_reads_a_dropped_step(self, monkeypatch, s, edge):
        # chi's pass stops one step short, so at n = 1 P'/P is 0 and chi
        # keeps only its fixed poles: their residues leave none of d1
        monkeypatch.setattr(scarf.qmf, "gegenbauer_ratios",
                            lambda n, kappa, t: gegenbauer_ratios(n - 1, kappa, t))
        chi = _chi(s, 1, edge)
        assert scarf.residue_report(chi).moving_pole_count == 0


class TestRiccati:
    def test_valid_states_null_the_equation(self, bound_chi, lower1_chi):
        assert scarf.verify_riccati(bound_chi) <= 1e-10 * (1.0 + 2.5**2)
        assert scarf.verify_riccati(lower1_chi) <= 1e-10 * (1.0 + 1.1**2)

    def test_perturbed_lambda_is_visible(self, bound_chi):
        # negative control: chi built on a wrong eigenvalue (2.6 for 2.5)
        # must light up the residual
        wrong = replace(bound_chi, line=replace(bound_chi.line, lam=2.6))
        assert scarf.verify_riccati(wrong) >= 1e-3


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
            params = bound_params if line.edge is Edge.NOT_APPLICABLE else band_params
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
                b1 = scarf.residue_report(chi).b1_measured
                rows = scarf.enumerate_residue_sets(band_params, line.lam)
                lo, hi = rows[0]["b1"], rows[-1]["b1"]
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
        assert abs(scarf.boundary_exponent(wf) - wf.line.kappa) <= 1e-3

    @pytest.mark.parametrize("s, n, edge", [
        (2.0, 393, Edge.NOT_APPLICABLE), (2.0, 394, Edge.NOT_APPLICABLE),
        (2.0, 500, Edge.NOT_APPLICABLE), (0.4, 500, Edge.LOWER), (30.0, 500, Edge.NOT_APPLICABLE),
    ])
    def test_probe_grid_keeps_points_at_high_degree(self, s, n, edge):
        # the moving poles crowd the real axis here (the real line [-5, 5]
        # kept none of 64 points 0.06 clear of them at s = 2, n = 394 and
        # 500); the line Im y = 1/2 keeps all 64 and the probes pass at
        # verify's thresholds
        params = scarf.PotentialParams(s=s)
        line = spectrum_line(params, n, edge)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(params, line))
        assert all(v.size == _PROBE_LINE.size == 64 for v in chi.probes[1])
        checks = _probe_checks(params, line)
        assert [c["name"] for c in checks] == [
            "residue_sum_rule_defect", "b1_vs_closed_form", "d1_vs_closed_form",
            "chi_parity_defect", "riccati_residual", "schrodinger_rel_residual",
            "node_count_defect", "parity_defect", "boundary_exponent_defect"]
        probes = [c for c in checks if c["name"] in ("chi_parity_defect", "riccati_residual")]
        assert all(c["pass"] for c in probes), probes


@pytest.mark.parametrize("s, edge", [(s, Edge(edge)) for s, edge in STATE_FAMILIES])
def test_state_set_probes(s, edge):
    # the 660-state set, 44 levels per family: n = 0-40, 100, 200 and 500
    params = scarf.PotentialParams(s=s)
    for n in STATE_LEVELS:
        line = spectrum_line(params, n, edge)
        chi = ChiFunction.from_wavefunction(scarf.build_wavefunction(params, line))
        rep = scarf.residue_report(chi)
        assert rep.moving_pole_count == n
        assert abs(rep.d1_measured - line.d1) <= 3e-11 and rep.sum_rule_defect <= 3e-11
        assert scarf.verify_riccati(chi) <= 1e-12 * (1.0 + line.lam**2)
        assert chi_parity_defect(chi) == 0.0
        if n >= 2:
            roots = tridiagonal_roots(chi.line)
            radius = np.abs(_infinity_circles(chi.line)[0][0]).max()
            assert radius >= 10.0 * (1.0 + np.abs(roots).max())
            kappa = line.lam - n
            assert np.sum(roots**2) == pytest.approx(n * (n - 1) / (2.0 * kappa + 1.0), rel=1e-9)


def _chi_per_array(chi, ys):
    """chi and chi' on one array, each from its own log_derivative pass."""
    y = np.asarray(ys, dtype=complex)
    value = 2.0 * chi.line.b1 * y / (y * y + 1.0) + log_derivative(chi.line, y, slice(0))[0]
    slope = (2.0 * chi.line.b1 * (1.0 - y * y) / (y * y + 1.0) ** 2
             + log_derivative(chi.line, y, slice(None))[1])
    return value, slope


def _riccati_per_array(chi):
    ys = _PROBE_LINE
    val, dval = _chi_per_array(chi, ys)
    res = (val * val + dval + (chi.line.lam**2 - 1.0) / (ys**2 + 1.0) ** 2
           + (0.25 - chi.s**2) / (ys**2 + 1.0))
    return float(np.abs(res).max())


def _contours_per_array(chi):
    """residue_report's four circles as (chi(z), integral) pairs, each from
    its own log_derivative pass."""
    out = [(_chi_per_array(chi, z)[0], w)
           for z, w in [*_RESIDUE_CIRCLES, *_infinity_circles(chi.line)]]
    return [(f, complex((f * w).sum() / w.size)) for f, w in out]


def _chi_parity_per_array(chi):
    plus, minus = _chi_per_array(chi, _PROBE_LINE)[0], _chi_per_array(chi, -_PROBE_LINE)[0]
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
            assert rep.b1_measured == alone[0][1]
            assert rep.b1_prime_measured == alone[1][1]
            assert rep.d1_measured == _infinity_residue(alone[2:4])
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
        checks = _probe_checks(params, line)
        assert all(c["pass"] for c in checks)
        assert len(calls) == 2

    @pytest.mark.parametrize("s, n, edge", [
        (2.0, 0, Edge.NOT_APPLICABLE), (2.0, 7, Edge.NOT_APPLICABLE), (0.4, 4, Edge.LOWER),
    ])
    def test_no_root_solve_per_state(self, monkeypatch, s, n, edge):
        # one state's build and full probe set call no numpy.linalg solver:
        # the chi probes' contours and probe line need none of the state's
        # roots, and the psi probes read R on fixed grids
        calls = []

        def spy(name):
            function = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return counted

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        params = scarf.PotentialParams(s=s)
        wf = scarf.build_wavefunction(params, spectrum_line(params, n, edge))
        chi = ChiFunction.from_wavefunction(wf)
        for probe in (scarf.residue_report, scarf.verify_riccati, chi_parity_defect):
            probe(chi)
        for probe in (scarf.schrodinger_residual, scarf.count_nodes, scarf.parity,
                      scarf.boundary_exponent):
            probe(wf)
        assert calls == []
        # the spies see a call made through numpy.linalg
        np.linalg.eigvalsh(np.eye(2))
        assert calls == ["eigvalsh"]

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
        # the two residue circles take the N of the clearance they have at
        # every state, which each state's own poles meet
        chi = _chi(s, n, edge)
        roots = tridiagonal_roots(chi.line)
        poles = [1j, -1j, *roots]
        guaranteed = math.log(1.0 / _FIXED_RADIUS)
        for (z, _), center in zip(_RESIDUE_CIRCLES, (1j, -1j), strict=True):
            assert z.size == _node_count(guaranteed) == 64
            nearest = min(abs(p - center) for p in poles if p != center)
            assert math.log(nearest / np.abs(z - center).max()) >= guaranteed - 1e-15
        for z, _ in _infinity_circles(chi.line):
            eta = math.log(np.abs(z).max() / max(abs(p) for p in poles))
            assert eta >= math.log(10.0) and _is_node_count(z.size, eta)
        assert scarf.residue_report(chi).moving_pole_count == n

    @pytest.mark.parametrize("center, radius, nodes", [
        (0.0, 0.2, 32), (0.0, 0.6, 64), (0.0, 0.66, 128), (1j, 0.3, 32), (1j, 0.6, 64),
    ])
    def test_user_radius_reads_the_nearest_pole(self, lower1_chi, center, radius, nodes):
        # lower1_chi has poles at 0 and +-i, so the nearest other pole is 1
        # away from either center: eta = ln(1 / radius), and a circle of
        # that N reads the pole's residue
        poles = [1j, -1j, *tridiagonal_roots(lower1_chi.line)]
        nearest = min(abs(p - center) for p in poles if p != center)
        assert nearest == 1.0
        assert _node_count(math.log(nearest / radius)) == nodes
        assert _is_node_count(nodes, math.log(1.0 / radius))
        expected = 1.0 if center == 0.0 else lower1_chi.line.b1
        assert _circle_residue(lower1_chi, center, radius, nodes) == pytest.approx(
            expected, abs=1e-12)

    def test_contour_nodes_per_state_are_pinned(self):
        # the sum of contour nodes of residue_report over the eigenstates
        # benchmark's levels: 64 + 64 + 32 + 32 per state
        total = 0
        for s, edges in ((2.0, [Edge.NOT_APPLICABLE]), (0.4, [Edge.LOWER, Edge.UPPER])):
            for edge in edges:
                for n in range(25):
                    total += sum(f.size for f, _ in _chi(s, n, edge).probes[0])
        assert total == 75 * 192


_GEOMETRY_STATES = [(s, n, edge) for s, edge in ((2.0, Edge.NOT_APPLICABLE),
                                                 (0.05, Edge.LOWER), (0.4, Edge.UPPER),
                                                 (30.0, Edge.NOT_APPLICABLE))
                    for n in (0, 1, 2, 24, 100)]


class TestContourGeometry:
    """The state-free geometry against the state's own roots."""

    @pytest.mark.parametrize("s, n, edge", _GEOMETRY_STATES + [
        (2.0, 393, Edge.NOT_APPLICABLE), (2.0, 394, Edge.NOT_APPLICABLE),
        (2.0, 500, Edge.NOT_APPLICABLE), (0.4, 500, Edge.LOWER)])
    def test_probe_grid_equals_the_distance_matrix_rule(self, s, n, edge):
        # every point of the line and of its mirror is 1/2 clear of every
        # pole by the distance matrix, so none is dropped at any n
        chi = _chi(s, n, edge)
        poles = np.array([1j, -1j, *tridiagonal_roots(chi.line)])
        for ys in (_PROBE_LINE, -_PROBE_LINE):
            kept = ys[np.all(np.abs(ys[:, None] - poles) >= 0.5, axis=1)]
            assert np.array_equal(kept, ys) and np.all(ys.imag == np.sign(ys.imag[0]) * 0.5)
        assert all(v.size == 64 for v in chi.probes[1])

    @pytest.mark.parametrize("s, n, edge", _GEOMETRY_STATES)
    def test_radii_equal_their_generator_forms(self, s, n, edge):
        # the closed-form radius at infinity equals its form from the roots'
        # squares, and lies at least ten times beyond the farthest pole; the
        # circles are the 32-node trapezoid circles of radius r and 2r
        line = _chi(s, n, edge).line
        roots = tridiagonal_roots(line)
        circles = _infinity_circles(line)
        radius = circles[0][0][0].real  # node 0 lies on the positive real axis
        for (z, w), r in zip(circles, (radius, 2.0 * radius), strict=True):
            want = _circle(0.0, r, 32)
            assert z.tobytes() == want[0].tobytes() and w.tobytes() == want[1].tobytes()
        assert radius == pytest.approx(
            10.0 * (1.0 + max(1.0, math.sqrt(sum(r * r for r in roots)))), rel=1e-12)
        assert radius >= 10.0 * (1.0 + max([1.0] + [abs(r) for r in roots]))
        if n <= 1:
            assert radius == 20.0

    @pytest.mark.parametrize("radius", [0.4, 20.0, 1e3])
    @pytest.mark.parametrize("center", [1j, -1j, 0.0], ids=["+i", "-i", "0"])
    def test_circle_nodes_equal_the_closed_form(self, center, radius):
        # the nodes are c + r e^(i theta_k) and the factors r e^(i theta_k),
        # theta_k = 2 pi k / N, bit for bit
        z, w = _circle(center, radius, 64)
        e = np.exp(1j * (2.0 * np.pi * np.arange(64) / 64))
        assert z.tobytes() == (center + radius * e).tobytes()
        assert w.tobytes() == (radius * e).tobytes()
