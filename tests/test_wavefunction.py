import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import scarf
from scarf import ConsistencyError, Edge, Parity
from scarf.polynomials import gegenbauer_ratios
from scarf.qmf import chi_parity_defect
from scarf.spectrum import spectrum_line
from scarf.verify import _level_checks


@pytest.fixture(scope="module")
def bound_ground(bound_params):
    return scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, 0))


@pytest.fixture(scope="module")
def band_states(band_params):
    lo, hi = scarf.band_edge_energies(band_params, 0)
    lo1, hi1 = scarf.band_edge_energies(band_params, 1)
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
                kappa = wf.boundary_power
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
        line = scarf.bound_energy(bound_params, 0)
        with pytest.raises(ConsistencyError):
            scarf.build_wavefunction(band_params, line)
        # same regime, different coupling: lambda no longer matches (s, n)
        other = scarf.PotentialParams(s=3.0)
        with pytest.raises(ConsistencyError):
            scarf.build_wavefunction(other, line)

    def test_periodicity_band_states(self, band_states):
        wf = band_states[("upper", 0)]
        for x in (0.125, 0.25, 0.625):  # dyadic keeps x+1 exact
            assert scarf.eval_psi(wf, x + 1.0) == scarf.eval_psi(wf, x)
        eps = 1e-9
        assert abs(scarf.eval_psi(wf, 1.0 - eps)) < 1e-6
        assert abs(scarf.eval_psi(wf, 1.0 + eps)) < 1e-6

    def test_vanishing_at_walls_bound(self, bound_params):
        for n in range(3):
            wf = scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, n))
            xs = np.linspace(0.01, 0.99, 99)
            peak = np.abs(scarf.eval_psi(wf, xs)).max()
            for x in (1e-8, 1.0 - 1e-8):
                assert abs(scarf.eval_psi(wf, x)) <= 1e-6 * peak


class TestStructure:
    def test_node_counts(self, bound_params, band_states):
        assert scarf.count_nodes(band_states[("upper", 0)]) == 0
        assert scarf.count_nodes(band_states[("lower", 1)]) == 1
        for n in (0, 3):
            wf = scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, n))
            assert scarf.count_nodes(wf) == n
        lo2, hi2 = scarf.band_edge_energies(scarf.PotentialParams(s=0.4), 2)
        wf2 = scarf.build_wavefunction(scarf.PotentialParams(s=0.4), hi2)
        assert scarf.count_nodes(wf2) == 2

    def test_node_count_up_to_n8(self, bound_params, band_params):
        for n in (6, 8):
            wf = scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, n))
            assert scarf.count_nodes(wf) == n
        lo8, hi8 = scarf.band_edge_energies(band_params, 8)
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
            wf = scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, n))
            expected = Parity.EVEN if n % 2 == 0 else Parity.ODD
            assert scarf.parity(wf) is expected

    def test_boundary_exponents(self, bound_ground, band_states):
        assert scarf.boundary_exponent(bound_ground) == pytest.approx(2.5, abs=1e-3)
        assert scarf.boundary_exponent(band_states[("lower", 0)]) == pytest.approx(0.1, abs=1e-3)
        assert scarf.boundary_exponent(band_states[("upper", 0)]) == pytest.approx(0.9, abs=1e-3)

    def test_schrodinger_residual(self, bound_params, band_states):
        states = list(band_states.values()) + [
            scarf.build_wavefunction(bound_params, scarf.bound_energy(bound_params, n))
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
            k = wf.boundary_power
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
            assert abs(scarf.boundary_exponent(wf) - wf.boundary_power) <= 1e-3, line
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
        wf = scarf.build_wavefunction(params, scarf.band_edge_energies(params, 0)[0])
        res, scale = scarf.schrodinger_residual(wf)
        assert res <= 1e-8 * scale

    def test_energy_mutants_fail(self, band_params):
        # lambda^2 >= 0.01 at s = 0.4, above the energy floor: a closed-form
        # energy off by 1e-6 relative still reads 1e-6 on the residual
        for n in range(4):
            for line in scarf.band_edge_energies(band_params, n):
                wf = scarf.build_wavefunction(band_params, line)
                mutant = replace(wf, line=replace(line, energy=line.energy * (1.0 + 1e-6)))
                res, scale = scarf.schrodinger_residual(mutant)
                assert res / scale == pytest.approx(1e-6, rel=0.05), line


def _probe_checks(s, a=1.0, m=1.0):
    params = scarf.PotentialParams(s, a, m)
    return [c for line in scarf.spectrum_lines(params, 2)
            for c in _level_checks(params, line, None, None, 1e-8)]


class TestScaleInvariance:
    """The probes work in z = pi x / a and y = cot z, so a and m reach them
    only through E / (pi^2 / (2 m a^2)), which the residual alone reads."""

    @settings(max_examples=60, deadline=None)
    @given(s=st.sampled_from([2.0, 0.4]), a=st.floats(1e-320, 1e300), m=st.floats(1e-320, 1e300))
    @example(s=2.0, a=1e-140, m=1.0)
    @example(s=2.0, a=1e140, m=1.0)
    @example(s=2.0, a=1e150, m=1e-300)
    def test_probe_values_depend_on_s_alone(self, s, a, m):
        try:
            checks = _probe_checks(s, a, m)
        except ValueError:  # a and m the input checks refuse
            assume(False)
        reference = _probe_checks(s)
        assert [c["name"] for c in checks] == [c["name"] for c in reference]
        for got, want in zip(checks, reference):
            if got["name"] == "schrodinger_rel_residual":
                assert abs(got["value"] - want["value"]) <= 1e-15, (got, want)
                got, want = dict(got, value=None), dict(want, value=None)
            assert got == want


def _cell_reference(spec):
    """spec.cell rebuilt as np.stack and np.split form it: the four z-grids
    joined, one recurrence pass, and the stacked rows split back."""
    n = spec.line.n
    nodes = max(512, 8 * (n + 1))
    half = np.pi * np.arange(1, 129) / 258.0
    grids = {
        "residual": np.linspace(1e-3 * np.pi, (1.0 - 1e-3) * np.pi, 200),
        "nodes": np.pi * np.arange(1, nodes + 1) / (nodes + 1.0),
        "parity": np.concatenate((np.pi / 2.0 - half, np.pi / 2.0 + half)),
        "exponent": np.geomspace(1e-5 * np.pi / (n + 1), 1e-3 * np.pi / (n + 1), 32),
    }
    z = np.concatenate(list(grids.values()))
    t = np.cos(z)
    rows = np.stack((z, np.sin(z), t, *gegenbauer_ratios(n, spec.boundary_power, t)))
    return dict(zip(grids, np.split(rows, np.cumsum([g.size for g in grids.values()])[:-1],
                                    axis=1)))


_CELL_STATES = [(2.0, 0, Edge.NOT_APPLICABLE), (2.0, 1, Edge.NOT_APPLICABLE),
                 (2.0, 7, Edge.NOT_APPLICABLE), (0.4, 3, Edge.LOWER), (0.4, 3, Edge.UPPER),
                 (0.5, 2, Edge.LOWER), (30.0, 120, Edge.NOT_APPLICABLE)]


def _spec(s, n, edge):
    params = scarf.PotentialParams(s=s)
    return scarf.build_wavefunction(params, spectrum_line(params, n, edge))


class TestCellRows:
    """spec.cell cuts its rows by slices, bit for bit as np.split did."""

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
