import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scarf
from scarf import (
    BracketError,
    Exponent,
    NumericError,
    RegimeError,
    ShootingConfig,
)
from scarf import Edge, kernels, oracle
from scarf.kernels import shoot_halfcell
from scarf.oracle import _exponents
from scarf.potential import LAMBDA2_FLOOR
from scarf.spectrum import spectrum_line
from scarf.verify import predicted_family

from fd_reference import fd_bound_spectrum, fd_levels

HALF_PI_SQ = math.pi**2 / 2.0
HALF_PI = math.pi / 2.0


class TestShoot:
    def test_eigenvalue_nulls_matching_function(self, bound_params):
        # level n sits at theta = (n + 1) pi/2: the ground state at pi/2
        cfg = ShootingConfig(exponent=Exponent.PLUS)
        assert abs(scarf.shoot(bound_params, HALF_PI_SQ * 6.25, cfg) - HALF_PI) <= 1e-8
        assert abs(scarf.shoot(bound_params, HALF_PI_SQ * 12.25, cfg) - math.pi) <= 1e-8

    def test_band_lower_edge_nulls(self, band_params):
        cfg = ShootingConfig(exponent=Exponent.MINUS)
        assert abs(scarf.shoot(band_params, HALF_PI_SQ * 0.01, cfg) - HALF_PI) <= 1e-8

    def test_off_eigenvalue_brackets_ground_state(self, bound_params):
        cfg = ShootingConfig(exponent=Exponent.PLUS)
        low = scarf.shoot(bound_params, 20.0, cfg)
        high = scarf.shoot(bound_params, 40.0, cfg)
        assert 0.0 < low < HALF_PI < high < math.pi

    def test_phase_is_continuous_at_a_midpoint_zero(self, bound_params):
        # the odd level n = 1 has u(pi/2) = 0: theta passes pi without a jump
        cfg = ShootingConfig(exponent=Exponent.PLUS)
        level = HALF_PI_SQ * 12.25
        below, above = (scarf.shoot(bound_params, level * (1.0 + d), cfg) for d in (-1e-9, 1e-9))
        assert below < math.pi <= above
        assert above - below <= 1e-7

    def test_minus_exponent_rejected_for_bound(self, bound_params):
        cfg = ShootingConfig(exponent=Exponent.MINUS)
        with pytest.raises(RegimeError):
            scarf.shoot(bound_params, 10.0, cfg)

    @pytest.mark.parametrize("s", [1.0204, 0.3176])
    def test_kernel_reads_the_one_wall_coefficient(self, s):
        # s**2 and s * s differ in the last bit at these couplings: the
        # kernel and the Frobenius start must integrate one C, -(1/4 - s s)
        coeffs = []

        def record(pot_coeff, *args):
            coeffs.append(pot_coeff)
            return shoot_halfcell(pot_coeff, *args)

        assert s**2 != s * s
        with mock.patch.object(scarf.kernels, "shoot_halfcell", record):
            scarf.shoot(scarf.PotentialParams(s), 10.0, ShootingConfig())
        assert [c.hex() for c in coeffs] == [(-(0.25 - s * s)).hex()]

    def test_large_coupling_start_is_finite(self):
        # the start state carries no z^(1/2 + s) factor to underflow
        p = scarf.PotentialParams(s=100.0)
        level = scarf.spectrum_line(p, 0, Edge.NOT_APPLICABLE).energy
        val = scarf.shoot(p, level, ShootingConfig(half_start=True))
        assert val == pytest.approx(HALF_PI, abs=1e-8)


class TestExponent:
    @pytest.mark.parametrize("s", [0.05, 0.1, 1.0 / 3.0, 0.4999, 0.5, 0.7, 2.0, 2.37, 30.0])
    def test_mu_is_half_plus_or_minus_s_bit_for_bit(self, s):
        assert Exponent.PLUS.mu(s).hex() == (0.5 + s).hex()
        assert Exponent.MINUS.mu(s).hex() == (0.5 - s).hex()


def certify_line(params, line):
    """certify of a closed-form level, as verify calls it."""
    return scarf.certify(params, line.energy, line.n, predicted_family(line))


class TestCertify:
    """certify finds each closed-form level in its two-shot window."""

    def test_bound_ground(self, bound_params):
        res = scarf.certify(bound_params, HALF_PI_SQ * 6.25, 0, Exponent.PLUS)
        assert res.energy == pytest.approx(30.8425138, abs=5e-8)
        assert res.energy == pytest.approx(HALF_PI_SQ * 6.25, rel=1e-12)
        assert res.delta_sensitivity <= 1e-11

    def test_band_upper_even(self, band_params):
        res = scarf.certify(band_params, HALF_PI_SQ * 0.81, 0, Exponent.PLUS)
        assert res.energy == pytest.approx(HALF_PI_SQ * 0.81, rel=1e-12)

    def test_band_lower_odd(self, band_params):
        line = spectrum_line(band_params, 1, Edge.LOWER)
        res = scarf.certify(band_params, line.energy, 1, Exponent.MINUS)
        assert res.energy == pytest.approx(5.9711107, abs=5e-8)

    def test_no_sign_change_raises(self, bound_params):
        # a window must hold level n of the family and nothing else: no
        # level (E = 45), another level's index, and a level 1e-9 outside
        # the window, 1e-10 of E wide, all raise
        ground = HALF_PI_SQ * 6.25
        for energy, n in ((45.0, 0), (45.0, 1), (ground, 1), (ground * (1.0 + 1e-9), 0),
                          (ground * (1.0 - 1e-9), 0)):
            with pytest.raises(BracketError):
                scarf.certify(bound_params, energy, n, Exponent.PLUS)

    def test_nan_phase_raises(self, bound_params, monkeypatch):
        # a NaN phase reads no level count
        monkeypatch.setattr(scarf.oracle, "shoot", lambda params, energy, cfg: math.nan)
        with pytest.raises(BracketError):
            scarf.certify(bound_params, HALF_PI_SQ * 6.25, 0, Exponent.PLUS)

    def test_delta_robustness(self, bound_params, band_params):
        # halving the start offset moves energies by under 1e-11 relative,
        # the threshold of the report's oracle_delta_sensitivity
        for params, energy, exponent in [
            (bound_params, HALF_PI_SQ * 6.25, Exponent.PLUS),
            (band_params, HALF_PI_SQ * 0.01, Exponent.MINUS),
        ]:
            res = scarf.certify(params, energy, 0, exponent)
            assert res.delta_sensitivity <= 1e-11

    @pytest.mark.parametrize("delta", [0.002, 0.005, 0.009])
    def test_wide_cell_starts_at_z0(self, bound_params, band_params, delta):
        # a cell of width a = delta/1e-3 once had the x offset delta, above
        # that of a = 1; no start depends on a, so its shots still start at
        # z0 and its levels in energy units are those of a = 1
        for params, n, edge in [(bound_params, 0, Edge.NOT_APPLICABLE),
                                (band_params, 1, Edge.LOWER)]:
            wide = replace(params, a=delta / 1e-3)
            res = certify_line(wide, spectrum_line(wide, n, edge))
            ref = certify_line(params, spectrum_line(params, n, edge))
            assert res.energy / wide.energy_unit == pytest.approx(
                ref.energy / params.energy_unit, rel=1e-13)
            assert res.delta_sensitivity == pytest.approx(ref.delta_sensitivity, abs=1e-12)


def level_count(params, energy, exponent):
    """floor(2 theta/pi): the number of the family's levels at or below E."""
    return math.floor(2.0 * scarf.shoot(params, energy, ShootingConfig(exponent)) / math.pi)


def sweep_scan(params, e_max, lo=0.0):
    """Blind reference scan: the level count of every family on a lattice
    with step 0.05 in lambda^2 from lo to e_max.  Each cell where the
    count steps up by one holds one level; cells keyed by (exponent, n)."""
    step = 0.05 * params.energy_unit
    grid = np.arange(lo, e_max + step, step)
    grid[-1] = min(grid[-1], e_max)
    cells = {}
    for exponent in _exponents(params.regime):
        counts = [level_count(params, float(e), exponent) for e in grid]
        for i in range(len(grid) - 1):
            for n in range(counts[i], counts[i + 1]):
                assert counts[i + 1] == counts[i] + 1, "two levels in one lattice cell"
                cells[exponent, n] = (float(grid[i]), float(grid[i + 1]))
    return cells


class TestBlindSweep:
    """A blind scan of the level count (sweep_scan) finds exactly the
    closed-form levels that certify proves, each in its own lattice cell
    and with its own index."""

    @staticmethod
    def certified(params, e_max, n_max=4):
        """{(exponent, n): (line, certify result)} of the closed-form levels
        in (0, e_max]."""
        return {(predicted_family(ln), ln.n): (ln, certify_line(params, ln))
                for ln in scarf.spectrum_lines(params, n_max) if 0.0 < ln.energy <= e_max}

    def test_bound_scan(self, bound_params):
        found = self.certified(bound_params, 120.0)
        assert sweep_scan(bound_params, 120.0).keys() == found.keys()
        assert [res.energy for _, res in found.values()] == pytest.approx(
            [HALF_PI_SQ * 6.25, HALF_PI_SQ * 12.25, HALF_PI_SQ * 20.25], rel=1e-12)
        assert [line.n for line, _ in found.values()] == [0, 1, 2]

    def test_band_scan_and_family_disjointness(self, band_params):
        found = self.certified(band_params, 20.0)
        assert sweep_scan(band_params, 20.0).keys() == found.keys()
        assert [res.energy for _, res in found.values()] == pytest.approx(
            [0.04934802, 3.99718978, 5.97111066, 17.81463594], abs=5e-7)
        assert list(found) == [
            (Exponent.MINUS, 0), (Exponent.PLUS, 0), (Exponent.MINUS, 1), (Exponent.PLUS, 1)]

    def test_free_particle_degenerate_pairs(self):
        p = scarf.PotentialParams(s=0.5)
        found = self.certified(p, 20.0)
        energies = [round(res.energy / HALF_PI_SQ, 6) for _, res in found.values()]
        assert energies == [1.0, 1.0, 4.0, 4.0]
        # (0, upper), (1, lower), (1, upper) and (2, lower); the lower
        # edges' theta is pi/2 at E = 0, so their level 0 is not in (0, e_max]
        assert found.keys() == {
            (Exponent.PLUS, 0), (Exponent.MINUS, 1), (Exponent.PLUS, 1), (Exponent.MINUS, 2)}
        assert level_count(p, 0.0, Exponent.MINUS) == 1
        assert sweep_scan(p, 20.0).keys() == found.keys()

    @pytest.mark.parametrize("s", [2.0, 0.4, 0.5])
    def test_label_is_the_level(self, s):
        # a level (n, edge) is level n of its exponent's family, also at
        # s = 1/2, where the lower edges' level 0 sits at E = 0
        params = scarf.PotentialParams(s=s)
        found = self.certified(params, 110.0)
        cells = sweep_scan(params, 110.0)
        assert cells.keys() == found.keys()
        for key, (line, res) in found.items():
            lo, hi = cells[key]
            # a level on a lattice point may count on either side of it
            assert lo <= line.energy <= hi and lo <= res.energy <= hi, key

    @pytest.mark.parametrize("s", [2.0, 0.4, 0.5])
    def test_equals_full_sign_sweep(self, s):
        # each family's completeness entry counts what a sweep of the whole
        # lattice finds at or below its top level, the E = 0 fold included
        params = scarf.PotentialParams(s=s)
        report = scarf.run_verification(params, 3, oracle="shooting")
        complete = [c for c in report["checks"] if c["name"] == "oracle_shooting_completeness"]
        assert len(complete) == len(_exponents(params.regime)) and all(c["pass"] for c in complete)
        for entry in complete:
            edge = Edge(entry["edge"] or "none")
            top = spectrum_line(params, entry["n"], edge)
            swept = sweep_scan(params, top.energy * (1.0 + 1e-10), lo=-1e-3 * params.energy_unit)
            family = [key for key in swept if key[0] is predicted_family(top)]
            assert entry["observed"] == len(family) == entry["n"] + 1

    @pytest.mark.parametrize("s", [0.499999999, 0.4999999999])
    def test_lowest_edge_below_the_phase_resolution(self, s):
        # the lower edges' level 0 has lambda^2 = (1/2 - s)^2 of 1e-18 and
        # 1e-20, so 2 theta/pi at E = 0 already reads 1, and at
        # -LAMBDA2_FLOOR 0; its window, 1e-13 wide, has 0 below and 1 above
        params = scarf.PotentialParams(s=s)
        assert level_count(params, 0.0, Exponent.MINUS) == 1
        assert level_count(params, -LAMBDA2_FLOOR * params.energy_unit, Exponent.MINUS) == 0
        found = self.certified(params, 20.0, n_max=3)
        assert len(found) == 5
        for line, res in found.values():
            assert abs(res.energy - line.energy) <= 1e-12 * params.energy_scale(line.energy)

    @settings(max_examples=20, deadline=None)
    @given(s=st.floats(min_value=0.05, max_value=10.0), n_max=st.integers(0, 2))
    def test_one_result_per_closed_form_level(self, s, n_max):
        # every level certifies with its own index and with no other
        params = scarf.PotentialParams(s=s)
        for line in scarf.spectrum_lines(params, n_max):
            if line.energy <= 0.0:
                continue
            res = certify_line(params, line)
            assert abs(res.energy - line.energy) <= 1e-10 * params.energy_scale(line.energy)
            for wrong in (line.n - 1, line.n + 1):
                with pytest.raises(BracketError):
                    scarf.certify(params, line.energy, wrong, predicted_family(line))


class TestNodeCount:
    @pytest.mark.parametrize("s", [2.0, 0.4, 0.5])
    def test_counts_levels_below(self, s):
        # floor(2 theta/pi) is the number of the family's closed-form
        # levels at or below E
        params = scarf.PotentialParams(s=s)
        lines = scarf.spectrum_lines(params, 3)
        for exponent in _exponents(params.regime):
            cfg = ShootingConfig(exponent=exponent)

            def count(energy):
                return math.floor(2.0 * scarf.shoot(params, energy, cfg) / math.pi)

            family = [ln for ln in lines if predicted_family(ln) is exponent]
            assert count(0.0) == sum(ln.energy == 0.0 for ln in family)
            for ln in family:
                if ln.energy == 0.0:
                    continue  # the free-particle fold sits at E = 0
                below, above = count(ln.energy * (1.0 - 1e-6)), count(ln.energy * (1.0 + 1e-6))
                assert (below, above) == (ln.n, ln.n + 1), (exponent, ln.n)


class TestFiniteDifference:
    """The collocation oracle against the closed forms and against the
    finite-difference reference of tests/fd_reference.py."""

    def test_first_two_levels(self, bound_params):
        levels = scarf.collocation_spectrum(bound_params, k_levels=2)
        assert list(levels) == [Exponent.PLUS]
        exact = [HALF_PI_SQ * 6.25, HALF_PI_SQ * 12.25]
        assert levels[Exponent.PLUS] == pytest.approx(exact, rel=1e-12)
        assert fd_bound_spectrum(bound_params, k_levels=2) == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("s", [0.6, 0.9, 1.3, 2.0, 8.0, 30.0])
    def test_reference_and_closed_forms(self, s):
        params = scarf.PotentialParams(s=s)
        levels = scarf.collocation_spectrum(params, k_levels=6)[Exponent.PLUS]
        exact = [scarf.spectrum_line(params, n, Edge.NOT_APPLICABLE).energy for n in range(6)]
        assert levels == pytest.approx(exact, rel=1e-12)
        assert levels == pytest.approx(fd_bound_spectrum(params, k_levels=6), rel=1e-4)

    def test_convergence_with_grid(self, bound_params):
        # the reference's raw discretization error is O(h^2): strictly
        # monotone in N (its Richardson-extrapolated result already sits at
        # the eigensolver noise floor, where monotonicity has no meaning)
        err = [abs(fd_levels(bound_params.s, n, 1)[0] - 6.25)
               for n in (500, 1000, 2000, 4000)]
        assert err[0] > err[1] > err[2] > err[3]
        assert err[0] / err[3] == pytest.approx(64.0, rel=0.05)

    def test_shallow_well(self):
        p = scarf.PotentialParams(s=0.9)
        level = scarf.collocation_spectrum(p, k_levels=1)[Exponent.PLUS][0]
        assert level == pytest.approx(HALF_PI_SQ * 1.96, rel=1e-12)
        assert level == pytest.approx(9.6722, abs=5e-4)

    @pytest.mark.parametrize("s, k", [(0.4, 100), (2.0, 100), (8.0, 100), (0.4999, 300)])
    def test_high_levels(self, s, k):
        # at s = 0.4999 the lowest lower edge, lambda^2 = 1e-8, comes from
        # a small grid: on the grid of the 300th level it is off by 9e-8 of
        # the energy scale
        params = scarf.PotentialParams(s=s)
        for exponent, family in scarf.collocation_spectrum(params, k_levels=k).items():
            edge = Edge.NOT_APPLICABLE if s > 0.5 else (
                Edge.UPPER if exponent is Exponent.PLUS else Edge.LOWER)
            for n, level in enumerate(family):
                exact = spectrum_line(params, n, edge).energy
                assert abs(level - exact) <= 1e-9 * params.energy_scale(exact), (exponent, n)

    def test_regime_and_parameter_guards(self, band_params, bound_params):
        # both regimes: lower band edges carry the 1/2 - s exponent
        levels = scarf.collocation_spectrum(band_params, k_levels=2)
        lower, upper = ([scarf.spectrum_line(band_params, n, edge) for n in range(2)]
                        for edge in (Edge.LOWER, Edge.UPPER))
        assert levels[Exponent.MINUS] == pytest.approx([ln.energy for ln in lower], rel=1e-10)
        assert levels[Exponent.PLUS] == pytest.approx([ln.energy for ln in upper], rel=1e-10)
        with pytest.raises(RegimeError):
            fd_bound_spectrum(band_params)
        for params, k_levels in ((bound_params, 0), (bound_params, 2000),
                                 (scarf.PotentialParams(s=1e6), 1)):
            with pytest.raises(ValueError):
                scarf.collocation_spectrum(params, k_levels=k_levels)

    @pytest.mark.parametrize("k_levels", [2.5, True, 2.0, "2"])
    def test_rejects_non_integer_level_count(self, bound_params, k_levels):
        with pytest.raises(ValueError, match="k_levels must be a positive integer"):
            scarf.collocation_spectrum(bound_params, k_levels=k_levels)

    def test_numpy_level_count(self, bound_params, band_params):
        for params in (bound_params, band_params):
            assert (scarf.collocation_spectrum(params, np.int64(2))
                    == scarf.collocation_spectrum(params, 2))

    def test_nontrivial_units_propagate(self):
        # a != 1, m != 1 must thread every 2m and 1/a factor consistently
        p = scarf.PotentialParams(s=1.3, a=0.7, m=2.5)
        closed = scarf.spectrum_line(p, 1, Edge.NOT_APPLICABLE).energy
        res = scarf.certify(p, closed, 1, Exponent.PLUS)
        assert res.energy == pytest.approx(closed, rel=1e-12)
        levels = scarf.collocation_spectrum(p, k_levels=2)[Exponent.PLUS]
        assert levels[1] == pytest.approx(closed, rel=1e-12)
        pb = scarf.PotentialParams(s=0.23, a=1.9, m=0.6)
        lo = scarf.spectrum_line(pb, 0, Edge.LOWER)
        res_lo = scarf.certify(pb, lo.energy, 0, Exponent.MINUS)
        assert res_lo.energy == pytest.approx(lo.energy, rel=1e-12)
        level_lo = scarf.collocation_spectrum(pb, k_levels=1)[Exponent.MINUS][0]
        assert level_lo == pytest.approx(lo.energy, rel=1e-10)

    def test_cross_consistency_with_shooting(self, bound_params):
        # each collocation level is certified as the shooting family's level n
        levels = scarf.collocation_spectrum(bound_params, k_levels=2)[Exponent.PLUS]
        for n, level in enumerate(levels):
            shot = scarf.certify(bound_params, level, n, Exponent.PLUS)
            assert abs(shot.energy - level) / shot.energy <= 1e-10


def collocation_entries(params, n_max=2):
    """The oracle_fd_rel_err entries of a verify run with a tolerance of
    1e-10, between the collocation's accuracy and the mutants' shifts."""
    report = scarf.run_verification(params, n_max, oracle="fd", tol=1e-10)
    return {(c["n"], c["edge"]): c["pass"] for c in report["checks"]
            if c["name"] == "oracle_fd_rel_err"}


class TestCollocationMutants:
    """Each mutation of the collocation oracle fails its check."""

    @pytest.mark.parametrize("s, exponent, n, edge", [
        (2.0, Exponent.PLUS, 1, None), (0.4, Exponent.MINUS, 0, "lower"),
        (0.4, Exponent.PLUS, 2, "upper"),
    ])
    def test_one_level_shifted_by_1e9(self, s, exponent, n, edge, monkeypatch):
        params = scarf.PotentialParams(s=s)
        entries = collocation_entries(params)
        assert len(entries) == (3 if s > 0.5 else 6) and all(entries.values())
        honest = scarf.collocation_spectrum

        def shifted(*args, **kwargs):
            levels = honest(*args, **kwargs)
            levels[exponent][n] *= 1.0 + 1e-9
            return levels

        monkeypatch.setattr(scarf.verify, "collocation_spectrum", shifted)
        entries = collocation_entries(params)
        assert [key for key, ok in entries.items() if not ok] == [(n, edge)]

    @pytest.mark.parametrize("s", [0.6, 1.3, 2.0])
    def test_exponent_sign_swapped(self, s, monkeypatch):
        # mu = 1/2 - s in the bound regime, where only 1/2 + s is admissible
        honest = oracle._collocate
        monkeypatch.setattr(oracle, "_collocate",
                            lambda s, mu, k: honest(s, 1.0 - mu, k))
        entries = collocation_entries(scarf.PotentialParams(s=s))
        assert len(entries) == 3 and not any(entries.values())


class TestEnergyFloor:
    """Relative energy checks read max(|E|, 1e-3 energy units)."""

    @pytest.mark.parametrize("a, m", [(1.0, 1.0), (2.5, 0.7), (0.3, 4.0)])
    def test_vanishing_lower_edge_passes(self, a, m):
        # lambda^2 of the lowest lower edge is 1e-8, 1e-14 and 1e-16; its
        # certificate window is 1e-10 of the energy floor wide
        for s in (0.4999, 0.4999999, 0.49999999):
            report = scarf.run_verification(scarf.PotentialParams(s, a, m), 2)
            assert report["summary"]["all_pass"], \
                (s, [c for c in report["checks"] if not c["pass"]])

    def test_energy_mutants_still_fail(self, band_params, monkeypatch):
        # lambda^2 >= 0.01 at s = 0.4, above the floor: a 1e-6 error in a
        # closed-form energy reads 1e-6 on the collocation check of every
        # level, and puts every level outside its shooting window; it moves
        # no level across another, so each family's collocated count holds
        honest = scarf.verify.spectrum_lines
        monkeypatch.setattr(scarf.verify, "spectrum_lines", lambda params, n_max: [
            replace(ln, energy=ln.energy * (1.0 + 1e-6)) for ln in honest(params, n_max)])
        monkeypatch.setattr(scarf.verify, "_probe_checks", lambda params, ln: [])
        checks = scarf.run_verification(band_params, 3)["checks"]
        counts = [c for c in checks if c["name"] == "oracle_fd_completeness"]
        assert [(c["n"], c["pass"], c["observed"]) for c in counts] == [(3, True, 4.0)] * 2
        checks = [c for c in checks if c not in counts]
        assert [c["name"] for c in checks] == [
            "oracle_shooting_match_count", "oracle_fd_rel_err"] * 8
        assert not any(c["pass"] for c in checks)
        assert [c["value"] for c in checks[1::2]] == pytest.approx([1e-6] * 8, rel=1e-3)


def oracle_checks(params, n_max, oracle="shooting", spectrum_lines=None):
    """(n, edge, name, pass) of the oracle entries of a verify run, with
    spectrum_lines in place of the closed forms when given."""
    with mock.patch.object(scarf.verify, "_probe_checks", lambda params, ln: []):
        if spectrum_lines is None:
            report = scarf.run_verification(params, n_max, oracle=oracle)
        else:
            with mock.patch.object(scarf.verify, "spectrum_lines", spectrum_lines):
                report = scarf.run_verification(params, n_max, oracle=oracle)
    return [(c["n"], c["edge"], c["name"], c["pass"]) for c in report["checks"]]


# (s, oracle) of the completeness mutants; a shooting case's ID is s alone
COMPLETENESS_CASES = [
    pytest.param(s, oracle, id=str(s) if oracle == "shooting" else f"{oracle}-{s}")
    for oracle in ("shooting", "fd") for s in (2.0, 0.4)]
COMPLETENESS = {"shooting": "oracle_shooting_completeness", "fd": "oracle_fd_completeness"}


class TestSpectrumMutants:
    """Each mutation of the closed-form lines fails a shooting check,
    whatever the tolerance; a mutation of the family's level count fails
    each oracle's completeness entry on the same line, and raises under
    neither."""

    @staticmethod
    def failing(params, mutate, oracle="shooting"):
        honest = scarf.spectrum_lines

        def mutated(params, n_max):
            return mutate(honest(params, n_max))

        checks = oracle_checks(params, 2, oracle, mutated)
        return [(n, edge, name) for n, edge, name, ok in checks if not ok]

    @pytest.mark.parametrize("s", [2.0, 0.4])
    def test_honest_lines_pass(self, s):
        checks = oracle_checks(scarf.PotentialParams(s), 2)
        assert checks and all(ok for *_, ok in checks)
        completeness = [c for c in checks if c[2] == "oracle_shooting_completeness"]
        assert len(completeness) == (1 if s > 0.5 else 2)

    @pytest.mark.parametrize("s", [2.0, 0.4])
    def test_energy_scaled_by_1e9(self, s):
        # 1e-9 is under the default tol of 1e-8, but outside the window
        params = scarf.PotentialParams(s)

        def scale(lines):
            lines[1] = replace(lines[1], energy=lines[1].energy * (1.0 + 1e-9))
            return lines

        line = scarf.spectrum_lines(params, 2)[1]
        assert self.failing(params, scale) == [
            (line.n, line.edge.value if s < 0.5 else None, "oracle_shooting_match_count")]

    @pytest.mark.parametrize("s", [2.0, 0.4])
    def test_relabelled_n_plus_1(self, s):
        params = scarf.PotentialParams(s)

        def relabel(lines):
            lines[0] = replace(lines[0], n=lines[0].n + 1)
            return lines

        failing = self.failing(params, relabel)
        assert (1, "lower" if s < 0.5 else None, "oracle_shooting_match_count") in failing

    @pytest.mark.parametrize("s, oracle", COMPLETENESS_CASES)
    def test_line_dropped(self, s, oracle):
        # a dropped level below the family's top leaves its completeness
        # count one above the family's lines
        params = scarf.PotentialParams(s)

        def drop(lines):
            del lines[0]
            return lines

        assert self.failing(params, drop, oracle) == [
            (2, "lower" if s < 0.5 else None, COMPLETENESS[oracle])]

    @pytest.mark.parametrize("s, oracle", COMPLETENESS_CASES)
    def test_top_line_dropped(self, s, oracle):
        # the family keeps n_max lines, all found, one short of n_max + 1
        params = scarf.PotentialParams(s)

        def drop_top(lines):
            lines.remove(max(lines, key=lambda ln: ln.energy))
            return lines

        assert self.failing(params, drop_top, oracle) == [
            (1, "upper" if s < 0.5 else None, COMPLETENESS[oracle])]

    @pytest.mark.parametrize("s, oracle", COMPLETENESS_CASES)
    @pytest.mark.parametrize("n_max", [1, 3])
    def test_lines_of_another_n_max(self, s, oracle, n_max):
        # a complete spectrum of n_max, each level found, in a report of
        # n_max = 2; the collocation is asked for n_max + 1 levels
        params = scarf.PotentialParams(s)
        lines = scarf.spectrum_lines(params, n_max)
        assert self.failing(params, lambda _: lines, oracle) == [
            (n_max, edge, COMPLETENESS[oracle])
            for edge in (["lower", "upper"] if s < 0.5 else [None])]

    @pytest.mark.parametrize("s", [2.0, 0.4])
    def test_line_added_between_levels(self, s):
        params = scarf.PotentialParams(s)

        def add(lines):
            first = lines[0]
            next_in_family = [ln for ln in lines if ln.edge is first.edge][1]
            middle = 0.5 * (first.energy + next_in_family.energy)
            return lines + [replace(first, n=1, energy=middle)]

        failing = self.failing(params, add)
        assert (1, "lower" if s < 0.5 else None, "oracle_shooting_match_count") in failing
        assert [name for *_, name in failing].count("oracle_shooting_completeness") == 1


class TestSeriesStart:
    """Each shot starts at the largest z <= _Z_CAP where the series' last
    term |c_16| z^16 is at most _SERIES_EPS, and never below 1e-3 pi."""

    Z_FLOOR = 1e-3 * math.pi

    @staticmethod
    def record_starts(run):
        """The (lambda^2, start z) of every kernel call that run makes."""
        starts = []

        def record(pot_coeff, lam2, z, u0, v0):
            starts.append((lam2, z))
            return shoot_halfcell(pot_coeff, lam2, z, u0, v0)

        with mock.patch.object(scarf.kernels, "shoot_halfcell", record):
            run()
        return starts

    def test_cap_comes_from_the_first_dropped_csc2_term(self):
        # csc^2 z - 1/z^2 = sum_n (-1)^(n+1) 2^(2n) (2n - 1) B_2n z^(2n-2) / (2n)!
        from scipy.special import bernoulli
        b = bernoulli(14)
        taylor = [(-1) ** (n + 1) * 2.0 ** (2 * n) * (2 * n - 1) * b[2 * n]
                  / math.factorial(2 * n) for n in range(1, 8)]
        assert [*oracle._CSC2_SERIES, oracle._CSC2_DROPPED] == pytest.approx(taylor, rel=1e-14)
        # at the cap that term is _SERIES_EPS of the wall term 1/z^2
        assert oracle._CSC2_DROPPED * oracle._Z_CAP**14 == pytest.approx(1e-17, rel=1e-12)
        assert 0.15 < oracle._Z_CAP < 0.153

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.01, 300.0), lam2=st.floats(0.0, 1e6), plus=st.booleans())
    def test_last_term_is_rounding_at_the_start(self, s, lam2, plus):
        mu = 0.5 + s if plus or s >= 0.5 else 0.5 - s
        series = oracle.frobenius_series(s, lam2, mu)
        z0 = oracle.start_offset(series)
        assert self.Z_FLOOR <= z0 <= oracle._Z_CAP
        last = abs(series[-1]) * z0**16
        if z0 > self.Z_FLOOR:
            assert last <= 1e-17 * (1.0 + 1e-12)
        if self.Z_FLOOR < z0 < oracle._Z_CAP:
            # the largest such z: any further out, the last term exceeds 1e-17
            assert last == pytest.approx(1e-17, rel=1e-12)

    def test_low_levels_start_at_the_cap_and_high_ones_at_the_floor(self):
        for s, mu in ((2.0, 2.5), (0.4, 0.1), (30.0, 30.5)):
            assert oracle.start_offset(oracle.frobenius_series(s, 1.0, mu)) > 0.09
            assert oracle.start_offset(oracle.frobenius_series(s, 1e6, mu)) == self.Z_FLOOR

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(0.01, 50.0), lam2=st.floats(0.0, 1e5), plus=st.booleans())
    def test_half_delta_halves_every_start(self, s, lam2, plus):
        exponent = Exponent.PLUS if plus or s > 0.5 else Exponent.MINUS
        mu = 0.5 + s if exponent is Exponent.PLUS else 0.5 - s
        z0 = oracle.start_offset(oracle.frobenius_series(s, lam2, mu))
        ref = scarf.PotentialParams(s, a=math.pi, m=0.5)
        cfg = ShootingConfig(exponent=exponent)
        half = replace(cfg, half_start=True)
        starts = self.record_starts(lambda: [scarf.shoot(ref, lam2, c) for c in (cfg, half)])
        assert starts == [(lam2, z0), (lam2, z0 / 2.0)]

    @pytest.mark.parametrize("s, bracket, exponent", [
        (2.0, (25.0, 35.0), Exponent.PLUS), (0.4, (0.02, 0.2), Exponent.MINUS),
        (0.4, (5.5, 6.5), Exponent.MINUS), (30.0, (4_500.0, 4_700.0), Exponent.PLUS),
    ])
    def test_half_start_shots_start_at_half_z0(self, s, bracket, exponent):
        # certify shoots the window's ends from z0, then from z0/2, for the
        # one closed-form level of the family inside the bracket
        params = scarf.PotentialParams(s)
        mu = 0.5 + s if exponent is Exponent.PLUS else 0.5 - s
        line, = [ln for ln in scarf.spectrum_lines(params, 3)
                 if predicted_family(ln) is exponent and bracket[0] < ln.energy < bracket[1]]
        starts = self.record_starts(lambda: certify_line(params, line))
        z0 = [oracle.start_offset(oracle.frobenius_series(s, lam2, mu)) for lam2, _ in starts]
        assert [z for _, z in starts] == [z0[0], z0[1], z0[2] / 2.0, z0[3] / 2.0]
        assert starts[0][0] == starts[2][0] < starts[1][0] == starts[3][0]


class TestShotsPerLevel:
    """certify makes four distinct shots per level, none of them repeated."""

    @pytest.mark.parametrize("s", [2.0, 0.4])
    def test_each_integration_runs_once(self, s, monkeypatch):
        seen = []

        def record(*args):
            seen.append(args)
            return shoot_halfcell(*args)

        monkeypatch.setattr(scarf.kernels, "shoot_halfcell", record)
        scarf.run_verification(scarf.PotentialParams(s), 2)
        assert seen
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("s, max_calls, max_steps", [(2.0, 38, 2_300), (0.4, 70, 3_400)])
    def test_kernel_calls_and_steps_bounded(self, s, max_calls, max_steps, monkeypatch):
        # four kernel calls per level, 12 of 734 steps at s = 2 and 24 of
        # 1,160 at s = 0.4; max_calls and max_steps bound the blind phase
        # bisection, with its Brent polish and re-solve, that they replaced
        steps = []

        def record(*args):
            out = shoot_halfcell(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(scarf.kernels, "shoot_halfcell", record)
        params = scarf.PotentialParams(s)
        scarf.run_verification(params, 2)
        assert len(steps) == 4 * len(scarf.spectrum_lines(params, 2)) <= max_calls
        assert sum(steps) <= max_steps


class TestBrent:
    """certify's secant roots against SciPy's Brent solver, a test-only
    reference, run on the same phase over each certificate window."""

    @pytest.mark.parametrize("s", [0.05, 0.4, 0.4999, 2.0, 8.0])
    def test_secant_root_matches_brentq(self, s):
        from scipy.optimize import brentq
        params = scarf.PotentialParams(s)
        for line in scarf.spectrum_lines(params, 3):
            cfg = ShootingConfig(predicted_family(line))

            def mismatch(energy):
                return 2.0 * scarf.shoot(params, energy, cfg) / math.pi - (line.n + 1)

            eta = 1e-10 * params.energy_scale(line.energy)
            root = brentq(mismatch, line.energy - eta, line.energy + eta, xtol=1e-30, rtol=1e-15)
            res = certify_line(params, line)
            assert abs(res.energy - root) <= 1e-13 * params.energy_scale(root), line


class TestKernelPaths:
    def test_zero_start_raises_before_any_step(self, monkeypatch):
        # a linear ODE started from (0, 0) stays at 0: no stage is evaluated
        spy = mock.Mock(wraps=math)
        monkeypatch.setattr(kernels, "math", spy)
        with pytest.raises(NumericError, match="identically zero"):
            shoot_halfcell(3.75, 10.0, 0.1, 0.0, 0.0)
        assert spy.sin.call_count == 0
        shoot_halfcell(3.75, 10.0, 0.1, 0.0, 1.0)
        assert spy.sin.call_count > 0

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_MAX_STEPS", 5)
        with pytest.raises(NumericError, match="exceeded 5 steps"):
            shoot_halfcell(-3.75, 10.0, 1e-3 * math.pi, 1.0, 800.0)

    def test_renormalization_keeps_steps_zeros_and_phase(self):
        # s = 300, n = 0: u grows past 1e250 on the way to pi/2, so the
        # kernel divides (u, u_z) by |u| in flight.  The start scaled by
        # 2^-200 renormalizes at other steps; without any renormalization
        # both end states would differ by exactly 2^200.
        params = scarf.PotentialParams(s=300.0)
        line = spectrum_line(params, 0, Edge.NOT_APPLICABLE)
        s, lam2, mu = params.s, line.energy / params.energy_unit, 300.5
        series = oracle.frobenius_series(s, lam2, mu)
        z = oracle.start_offset(series)
        u0, v0 = oracle.frobenius_start(series, mu, z)
        shots = [shoot_halfcell(-(0.25 - s * s), lam2, z, u0 * f, v0 * f)
                 for f in (1.0, 2.0**-200)]
        (u, v, zeros, steps), (us, vs, zeros_s, steps_s) = shots
        assert u / us != 2.0**200
        assert zeros == zeros_s == 0 and steps == steps_s
        theta = [math.atan2(abs(a), b / math.sqrt(lam2)) for a, b in ((u, v), (us, vs))]
        assert abs(theta[0] - theta[1]) <= 1e-12

    def test_non_finite_energy_terminates(self):
        # NaN propagation must end in step underflow, never a spin to the cap
        with pytest.raises(NumericError, match=r"step underflow after \d{1,3} steps") as err:
            shoot_halfcell(-3.75, float("inf"), 1e-3 * math.pi, 1.0, 800.0)
        assert "exceeded" not in str(err.value)


class TestDop853:
    """The kernel against SciPy's DOP853, a test-only reference."""

    def test_tableau_matches_scipy(self):
        # every coefficient equals SciPy's double, and no other one is defined
        from scipy.integrate._ivp import dop853_coefficients as ref
        expected = {}
        for i in range(2, 13):
            if i < 12:
                expected[f"_C{i}"] = ref.C[i - 1]
            for j in range(1, i):
                if ref.A[i - 1, j - 1] != 0.0:
                    expected[f"_A{i}_{j}"] = ref.A[i - 1, j - 1]
        for j in range(1, 13):
            for name, row in (("_B", ref.B), ("_E5_", ref.E5)):
                if row[j - 1] != 0.0:
                    expected[f"{name}{j}"] = row[j - 1]
            if ref.E3[j - 1] != ref.B[j - 1]:
                expected[f"_E3_{j}"] = ref.E3[j - 1]
        tableau = {name: value for name, value in vars(kernels).items()
                   if re.fullmatch(r"_(A\d+_\d+|B\d+|C\d+|E[35]_\d+)", name)}
        assert tableau == expected
        assert len(expected) == 79
        # stages 12 and 13 sit at x + h; stage 13 enters neither the
        # solution nor the error, so it can be the next step's stage 1
        assert ref.C[11] == ref.C[12] == 1.0
        assert ref.E3[12] == ref.E5[12] == 0.0
        assert ref.N_STAGES == 12

    @pytest.mark.parametrize("s, lam2, exponent", [
        (2.0, 6.3, Exponent.PLUS), (2.0, 150.0, Exponent.PLUS), (8.0, 150.0, Exponent.PLUS),
        (0.4, 0.3, Exponent.MINUS), (0.4, 40.7, Exponent.MINUS), (0.4, 40.7, Exponent.PLUS),
    ])
    def test_matches_solve_ivp(self, s, lam2, exponent):
        # from the fixed start 1e-3 pi and from the series start z0
        from scipy.integrate import solve_ivp
        c = -(0.25 - s * s)
        mu = 0.5 + s if exponent is Exponent.PLUS else 0.5 - s
        series = oracle.frobenius_series(s, lam2, mu)

        def rhs(z, y):
            return [y[1], (c / math.sin(z) ** 2 - lam2) * y[0]]

        for z0 in (1e-3 * math.pi, oracle.start_offset(series)):
            u0, v0 = oracle.frobenius_start(series, mu, z0)
            u, v, zeros, steps = shoot_halfcell(c, lam2, z0, u0, v0)
            ref = solve_ivp(rhs, (z0, math.pi / 2.0), [u0, v0], method="DOP853",
                            rtol=1e-13, atol=1e-280, dense_output=True)
            assert ref.success
            # scaled by the largest |u| on a dense grid; no shot here grows
            # past the kernel's renormalization at |u| = 1e250
            dense = ref.sol(np.linspace(z0, math.pi / 2.0, 20_001))[0]
            umax = np.abs(dense).max()
            assert abs(u - ref.y[0, -1]) <= 5e-10 * umax
            assert abs(v - ref.y[1, -1]) <= 5e-10 * umax * math.sqrt(1.0 + lam2)
            assert zeros == np.count_nonzero(np.diff(np.sign(dense)) != 0)
            assert 0 < steps < 1000
