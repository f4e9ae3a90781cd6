import math

import numpy as np
import pytest

import scarf
from scarf import (
    BracketError,
    Edge,
    Exponent,
    MatchKind,
    NumericError,
    RegimeError,
    ShootingConfig,
)
from scarf.kernels import shoot_halfcell
from scarf.oracle import _classify, _closed_form_levels, _families, shoot_and_count

HALF_PI_SQ = math.pi**2 / 2.0


class TestShoot:
    def test_eigenvalue_nulls_matching_function(self, bound_params):
        cfg = ShootingConfig(exponent=Exponent.PLUS, match=MatchKind.SLOPE_AT_MID)
        val = scarf.shoot(bound_params, HALF_PI_SQ * 6.25, cfg)
        assert abs(val) <= 1e-8

    def test_band_lower_edge_nulls(self, band_params):
        cfg = ShootingConfig(exponent=Exponent.MINUS, match=MatchKind.SLOPE_AT_MID)
        val = scarf.shoot(band_params, HALF_PI_SQ * 0.01, cfg)
        assert abs(val) <= 1e-8

    def test_off_eigenvalue_brackets_ground_state(self, bound_params):
        cfg = ShootingConfig(exponent=Exponent.PLUS, match=MatchKind.SLOPE_AT_MID)
        low = scarf.shoot(bound_params, 20.0, cfg)
        high = scarf.shoot(bound_params, 40.0, cfg)
        assert low != 0.0 and high != 0.0
        assert math.copysign(1.0, low) != math.copysign(1.0, high)

    def test_minus_exponent_rejected_for_bound(self, bound_params):
        cfg = ShootingConfig(exponent=Exponent.MINUS)
        with pytest.raises(RegimeError):
            scarf.shoot(bound_params, 10.0, cfg)

    def test_config_validation(self, bound_params):
        with pytest.raises(ValueError):
            ShootingConfig(delta=-1.0)
        with pytest.raises(ValueError):
            # delta must stay below a/100
            scarf.shoot(bound_params, 10.0, ShootingConfig(delta=0.02))


class TestFindEigen:
    def test_bound_ground(self, bound_params):
        cfg = ShootingConfig(match=MatchKind.SLOPE_AT_MID)
        res = scarf.find_eigen(bound_params, (25.0, 35.0), cfg)
        assert res.energy == pytest.approx(30.8425138, abs=5e-8)
        assert res.energy == pytest.approx(HALF_PI_SQ * 6.25, rel=1e-10)
        assert res.bracket[0] <= res.energy <= res.bracket[1]
        assert res.residual <= 1e-10
        assert not res.flagged

    def test_band_upper_even(self, band_params):
        cfg = ShootingConfig(exponent=Exponent.PLUS, match=MatchKind.SLOPE_AT_MID)
        res = scarf.find_eigen(band_params, (3.5, 4.5), cfg)
        assert res.energy == pytest.approx(HALF_PI_SQ * 0.81, rel=1e-8)

    def test_band_lower_odd(self, band_params):
        cfg = ShootingConfig(exponent=Exponent.MINUS, match=MatchKind.VALUE_AT_MID)
        res = scarf.find_eigen(band_params, (5.5, 6.5), cfg)
        assert res.energy == pytest.approx(5.9711107, abs=5e-8)

    def test_no_sign_change_raises(self, bound_params):
        cfg = ShootingConfig(match=MatchKind.SLOPE_AT_MID)
        with pytest.raises(BracketError):
            scarf.find_eigen(bound_params, (40.0, 50.0), cfg)

    def test_delta_robustness(self, bound_params, band_params):
        # halving the start offset moves energies by under 1e-9 relative
        for params, bracket, cfg in [
            (bound_params, (25.0, 35.0), ShootingConfig(match=MatchKind.SLOPE_AT_MID)),
            (band_params, (0.02, 0.2),
             ShootingConfig(exponent=Exponent.MINUS, match=MatchKind.SLOPE_AT_MID)),
        ]:
            res = scarf.find_eigen(params, bracket, cfg)
            assert res.delta_sensitivity <= 1e-9
            assert not res.flagged


class TestScanSpectrum:
    def test_bound_scan(self, bound_params):
        scan = scarf.scan_spectrum(bound_params, 120.0)
        energies = [r.energy for r in scan]
        assert energies == pytest.approx(
            [HALF_PI_SQ * 6.25, HALF_PI_SQ * 12.25, HALF_PI_SQ * 20.25], rel=1e-9)
        assert [r.classification for r in scan] == [
            (0, Edge.NOT_APPLICABLE), (1, Edge.NOT_APPLICABLE), (2, Edge.NOT_APPLICABLE)]

    def test_band_scan_and_family_disjointness(self, band_params):
        scan = scarf.scan_spectrum(band_params, 20.0)
        assert [r.energy for r in scan] == pytest.approx(
            [0.04934802, 3.99718978, 5.97111066, 17.81463594], abs=5e-7)
        for res in scan:
            n, edge = res.classification
            line = dict(
                (( ln.n, ln.edge), ln) for ln in scarf.spectrum_lines(band_params, 2)
            )[(n, edge)]
            assert (res.exponent, res.match) == scarf.predicted_family(line)

    def test_free_particle_degenerate_pairs(self):
        p = scarf.PotentialParams(s=0.5)
        scan = scarf.scan_spectrum(p, 20.0)
        energies = [round(r.energy / HALF_PI_SQ, 6) for r in scan]
        assert energies == [1.0, 1.0, 4.0, 4.0]
        assert {r.classification for r in scan} == {
            (0, Edge.UPPER), (1, Edge.LOWER), (1, Edge.UPPER), (2, Edge.LOWER)}

    def test_rejects_bad_e_max(self, bound_params):
        with pytest.raises(ValueError):
            scarf.scan_spectrum(bound_params, -1.0)

    @pytest.mark.parametrize("s", [2.0, 0.4, 0.5])
    def test_equals_full_sign_sweep(self, s):
        params = scarf.PotentialParams(s=s)
        assert scarf.scan_spectrum(params, 60.0) == sweep_scan(params, 60.0)


def sweep_scan(params, e_max):
    """Reference scan: shoot every point of the bracket lattice, solve each
    sign change, merge roots within 1e-8 relative per family."""
    step = 0.05 * math.pi**2 / (2.0 * params.m * params.a**2)
    grid = np.arange(0.0, e_max + step, step)
    if grid[-1] > e_max:
        grid[-1] = e_max
    results = []
    for exponent, match in _families(params.regime):
        cfg = ShootingConfig(exponent=exponent, match=match)
        roots = []
        values = [scarf.shoot(params, float(e), cfg) for e in grid]
        for i in range(len(grid) - 1):
            lo, hi = values[i], values[i + 1]
            if lo == 0.0 or np.sign(lo) == np.sign(hi):
                continue
            try:
                res = scarf.find_eigen(params, (float(grid[i]), float(grid[i + 1])), cfg)
            except (BracketError, NumericError):
                continue
            if res.energy > e_max:
                continue
            if roots and abs(res.energy - roots[-1].energy) <= 1e-8 * res.energy:
                continue
            roots.append(res)
        results.extend(roots)
    results.sort(key=lambda r: r.energy)
    levels = _closed_form_levels(params, e_max)
    return [_classify(res, levels) for res in results]


class TestNodeCount:
    @pytest.mark.parametrize("s", [2.0, 0.4, 0.5])
    def test_counts_levels_below(self, s):
        # N(E) is the number of the family's closed-form levels below E
        params = scarf.PotentialParams(s=s)
        lines = scarf.spectrum_lines(params, 3)
        for exponent, match in _families(params.regime):
            cfg = ShootingConfig(exponent=exponent, match=match)

            def count(energy):
                return shoot_and_count(params, energy, cfg)[1]

            assert count(0.0) == 0
            family = sorted(ln.energy for ln in lines
                            if scarf.predicted_family(ln) == (exponent, match))
            for k, energy in enumerate(family):
                if energy == 0.0:
                    continue  # the free-particle fold sits at E = 0
                below, above = count(energy * (1.0 - 1e-6)), count(energy * (1.0 + 1e-6))
                assert (below, above) == (k, k + 1), (exponent, match, energy)


class TestFiniteDifference:
    def test_first_two_levels(self, bound_params):
        levels = scarf.fd_bound_spectrum(bound_params, grid_points=4000, k_levels=2)
        exact = [HALF_PI_SQ * 6.25, HALF_PI_SQ * 12.25]
        for got, ref in zip(levels, exact):
            assert got == pytest.approx(ref, rel=1e-4)

    def test_convergence_with_grid(self, bound_params):
        # raw discretization error is O(h^2): strictly monotone in N
        # (the Richardson-extrapolated public result already sits at the
        # eigensolver noise floor, where monotonicity has no meaning)
        from scarf.oracle import _fd_levels
        exact = HALF_PI_SQ * 6.25
        err = [abs(_fd_levels(bound_params, n, 1)[0] - exact)
               for n in (500, 1000, 2000, 4000)]
        assert err[0] > err[1] > err[2] > err[3]
        assert err[0] / err[3] == pytest.approx(64.0, rel=0.05)

    def test_shallow_well(self):
        p = scarf.PotentialParams(s=0.9)
        levels = scarf.fd_bound_spectrum(p, grid_points=4000, k_levels=1)
        assert levels[0] == pytest.approx(HALF_PI_SQ * 1.96, rel=1e-4)
        assert levels[0] == pytest.approx(9.6722, abs=5e-4)

    def test_regime_and_parameter_guards(self, band_params, bound_params):
        with pytest.raises(RegimeError):
            scarf.fd_bound_spectrum(band_params)
        with pytest.raises(ValueError):
            scarf.fd_bound_spectrum(bound_params, grid_points=100)
        with pytest.raises(ValueError):
            scarf.fd_bound_spectrum(bound_params, grid_points=400, k_levels=200)

    def test_nontrivial_units_propagate(self):
        # a != 1, m != 1 must thread every 2m and 1/a factor consistently
        p = scarf.PotentialParams(s=1.3, a=0.7, m=2.5)
        closed = scarf.bound_energy(p, 1).energy
        cfg = ShootingConfig(match=MatchKind.VALUE_AT_MID)
        res = scarf.find_eigen(p, (closed * 0.9, closed * 1.1), cfg,
                               compute_sensitivity=False)
        assert res.energy == pytest.approx(closed, rel=1e-10)
        fd = scarf.fd_bound_spectrum(p, grid_points=2000, k_levels=2)
        assert fd[1] == pytest.approx(closed, rel=1e-4)
        pb = scarf.PotentialParams(s=0.23, a=1.9, m=0.6)
        lo = scarf.band_edge_energies(pb, 0)[0]
        cfg_lo = ShootingConfig(exponent=Exponent.MINUS, match=MatchKind.SLOPE_AT_MID)
        res_lo = scarf.find_eigen(pb, (lo.energy * 0.5, lo.energy * 1.5), cfg_lo,
                                  compute_sensitivity=False)
        assert res_lo.energy == pytest.approx(lo.energy, rel=1e-9)

    def test_cross_consistency_with_shooting(self, bound_params):
        fd = scarf.fd_bound_spectrum(bound_params, grid_points=4000, k_levels=2)
        cfgs = [ShootingConfig(match=MatchKind.SLOPE_AT_MID),
                ShootingConfig(match=MatchKind.VALUE_AT_MID)]
        brackets = [(25.0, 35.0), (55.0, 65.0)]
        for level, cfg, bracket in zip(fd, cfgs, brackets):
            shot = scarf.find_eigen(bound_params, bracket, cfg, compute_sensitivity=False)
            assert abs(shot.energy - level) / shot.energy <= 1e-4


class TestKernelPaths:
    def test_non_finite_energy_terminates(self):
        # NaN propagation must end in step underflow, never a spin to max_steps
        u, v, m, n, status, zeros = shoot_halfcell(
            -37.0, float("inf"), math.pi, 1e-3, 1e-7, 2.5e-4, 0.5,
            1e-13, 1e-280, 100_000)
        assert status == 2
        assert n < 1000
