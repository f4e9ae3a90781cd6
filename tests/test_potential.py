import math
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scarf
from scarf import NumericError, Regime, SingularityError
from scarf.potential import cell_map, reduce_to_cell, wall_coefficient


class TestRegime:
    def test_examples(self):
        assert scarf.PotentialParams(2.0).regime is Regime.BOUND_STATES
        assert scarf.PotentialParams(0.4).regime is Regime.BANDS
        assert scarf.PotentialParams(0.5).regime is Regime.FREE_PARTICLE
        # numpy scalars are classified as PotentialParams stores them
        assert scarf.PotentialParams(np.int64(2)).regime is Regime.BOUND_STATES
        assert scarf.PotentialParams(np.float32(0.4)).regime is Regime.BANDS

    def test_unsupported(self):
        # PotentialParams is the one check of s: no value outside s > 0 gets a
        # regime, reals past the float range included
        for s in (0.0, -1.0, float("nan"), float("inf"), -float("inf"), True, "2", None,
                  10**400, -10**400, Fraction(10**400, 3)):
            with pytest.raises(ValueError):
                scarf.PotentialParams(s)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_total_function(self, s):
        # every float is either refused or gets exactly one regime; a huge s
        # is refused because v0 = (1/4 - s^2) (pi^2 / 2) leaves the float range
        if not math.isfinite(s) or s <= 0 or not math.isfinite((0.25 - s * s) * (math.pi**2 / 2.0)):
            with pytest.raises(ValueError):
                scarf.PotentialParams(s)
            return
        tag = scarf.PotentialParams(s).regime
        if s > 0.5:
            assert tag is Regime.BOUND_STATES
        elif s < 0.5:
            assert tag is Regime.BANDS
        else:
            assert tag is Regime.FREE_PARTICLE


class TestParams:
    def test_v0_consistency(self):
        for s in (0.1, 0.4, 0.9, 2.0, 7.5):
            p = scarf.PotentialParams(s=s, a=1.5, m=2.0)
            assert p.v0 == pytest.approx((0.25 - s * s) * math.pi**2 / (2.0 * 2.0 * 1.5**2),
                                         rel=1e-15)

    def test_degenerate_s_half_is_valid(self):
        # C = -(1/4 - s s) is -0.0 at s = 1/2: v0 reads +0.0 and V -0.0
        p = scarf.PotentialParams(s=0.5)
        assert p.v0 == 0.0
        assert math.copysign(1.0, wall_coefficient(0.5)) == -1.0
        assert math.copysign(1.0, p.v0) == 1.0
        assert math.copysign(1.0, scarf.evaluate_potential(p, 0.3)) == -1.0

    def test_stores_only_s_a_m(self):
        # v0 is derived from the one wall coefficient and the one energy unit,
        # not stored
        assert [f.name for f in fields(scarf.PotentialParams)] == ["s", "a", "m"]
        p = scarf.PotentialParams(s=1.0204, a=1.5, m=2.0)
        assert p.v0 == -wall_coefficient(1.0204) * p.energy_unit

    @pytest.mark.parametrize("kwargs", [
        {"s": 0.0}, {"s": -2.0}, {"s": float("nan")},
        {"s": 1.0, "a": 0.0}, {"s": 1.0, "m": -1.0},
        {"s": 2.0, "a": 1e-200},   # a^2 underflows to 0
        {"s": 1e155},              # v0 = -inf
        {"s": 2.0, "m": 1e-320},   # pi^2/(2 m a^2) = inf
        {"s": True}, {"s": np.True_}, {"s": "2"}, {"s": None},   # not real numbers
        {"s": 2.0, "a": True}, {"s": 2.0, "m": "1"}, {"s": 2.0, "a": 1j},
        # past the float range: float() raised OverflowError
        {"s": 10**400}, {"s": 2.0, "a": 10**400}, {"s": 2.0, "m": -10**400},
        {"s": Fraction(10**400, 3)},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            scarf.PotentialParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"s": np.int64(2)}, {"s": np.float32(0.4)}, {"s": np.float32(0.5)},
        {"s": 2, "a": np.float32(2.5), "m": np.float32(0.7)},
        {"s": 0.4, "a": np.float32(0.3), "m": np.int64(4)},
    ])
    def test_numpy_scalars_give_the_lines_of_floats(self, kwargs):
        # numpy scalars are stored as floats: the same regime, the same
        # lines and float (not float32) energies as the float inputs
        p = scarf.PotentialParams(**kwargs)
        ref = scarf.PotentialParams(**{k: float(v) for k, v in kwargs.items()})
        assert all(type(getattr(p, k)) is float for k in ("s", "a", "m"))
        assert p.regime is ref.regime
        lines = scarf.spectrum_lines(p, 3)
        assert lines == scarf.spectrum_lines(ref, 3)
        assert all(type(ln.energy) is float for ln in lines)


class TestEvaluatePotential:
    def test_repulsive_wall_value(self, bound_params):
        # midpoint of the cell, sin = 1: V = -(1/4 - 4) pi^2 / 2
        assert scarf.evaluate_potential(bound_params, 0.5) == pytest.approx(
            3.75 * math.pi**2 / 2.0, rel=1e-14)
        assert scarf.evaluate_potential(bound_params, 0.5) == pytest.approx(18.5055, abs=5e-5)

    def test_free_particle_vanishes(self):
        p = scarf.PotentialParams(s=0.5)
        assert scarf.evaluate_potential(p, 0.3) == 0.0

    def test_attractive_dip_value(self, band_params):
        assert scarf.evaluate_potential(band_params, 0.5) == pytest.approx(
            -0.09 * math.pi**2 / 2.0, rel=1e-14)
        assert scarf.evaluate_potential(band_params, 0.5) == pytest.approx(-0.444132, abs=5e-7)

    def test_sign_per_regime(self, bound_params, band_params):
        xs = np.linspace(0.05, 0.95, 19)
        assert np.all(scarf.evaluate_potential(bound_params, xs) > 0)
        assert np.all(scarf.evaluate_potential(band_params, xs) < 0)

    def test_singularity_raises(self, bound_params):
        for x in (0.0, 1.0, -3.0, 1e-13):
            with pytest.raises(SingularityError):
                scarf.evaluate_potential(bound_params, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, [0.5, -math.inf]])
    def test_non_finite_x_is_a_value_error(self, bound_params, x):
        with pytest.raises(ValueError, match="x must be finite"):
            scarf.evaluate_potential(bound_params, x)

    def test_overflow_raises_without_warning(self):
        # near the walls V overflows at m = 1e-305; the midpoint stays finite
        p = scarf.PotentialParams(s=2.0, m=1e-305)
        assert math.isfinite(scarf.evaluate_potential(p, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not finite"):
                scarf.evaluate_potential(p, np.array([0.5, 1e-6]))

    def test_periodicity_exact_on_dyadic_points(self, bound_params):
        # dyadic x keeps x + k*a exactly representable, so reduction must
        # make the values identical bit for bit
        for x in (0.25, 0.375, 0.5, 0.8125):
            v = scarf.evaluate_potential(bound_params, x)
            for k in (1, 2, -5, 1024):
                assert scarf.evaluate_potential(bound_params, x + k) == v

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50)
    def test_reflection_symmetry(self, x):
        p = scarf.PotentialParams(s=0.8)
        left = scarf.evaluate_potential(p, 0.5 - (x - 0.5))
        right = scarf.evaluate_potential(p, x)
        assert left == pytest.approx(right, rel=1e-12)

    def test_inverse_square_coefficient_near_wall(self, bound_params):
        # V x^2 -> -(1/4 - s^2)/(2m) within 1% below 1e-3 a
        coeff = -(0.25 - 4.0) / 2.0
        for x in (1e-3, 1e-4, 1e-5):
            assert scarf.evaluate_potential(bound_params, x) * x * x == pytest.approx(
                coeff, rel=1e-2)


def test_reduce_and_lattice_helpers():
    assert reduce_to_cell(2.25, 1.0) == 0.25
    assert reduce_to_cell(-0.75, 1.0) == 0.25
    assert cell_map(3.0, 1.0)[2]
    assert not cell_map(0.5, 1.0)[2]
    assert bool(np.all(cell_map(np.array([0.0, 1.0, 2.0]), 1.0)[2]))


class TestTwoMaps:
    """a and m reach the numbers through two maps only: the energy unit
    pi^2/(2 m a^2) for E, v0 and V, and the cell map for V's z."""

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(1e-3, 1e3), a=st.floats(1e-3, 1e3), m=st.floats(1e-3, 1e3),
           n=st.integers(0, 200), upper=st.booleans(), x=st.floats(-1e3, 1e3))
    def test_every_energy_is_a_multiple_of_the_unit(self, s, a, m, n, upper, x):
        p = scarf.PotentialParams(s, a, m)
        edge = (scarf.Edge.NOT_APPLICABLE if p.regime is Regime.BOUND_STATES
                else scarf.Edge.UPPER if upper else scarf.Edge.LOWER)
        line = scarf.spectrum_line(p, n, edge)
        assert line.energy == line.lam**2 * p.energy_unit
        assert p.v0 == -wall_coefficient(s) * p.energy_unit
        _, z, lattice = cell_map(x, a)
        assume(not lattice)
        sn = np.sin(z)
        assert scarf.evaluate_potential(p, x) == wall_coefficient(s) * p.energy_unit / (sn * sn)
