import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scarf
from scarf import DegenerateRegimeError, Edge, RegimeError
from scarf.spectrum import _d1, level_parameters

from fixed_sets import COUPLINGS, SCALES

HALF_PI_SQ = math.pi**2 / 2.0


def _table_b1(params, lam):
    """The two b1 of the residue table at lambda, (1 - lambda)/2 first."""
    sets = scarf.enumerate_residue_sets(params, lam)
    return sets[0].b1, sets[-1].b1


def _table_d1(params, lam=1.0):
    """The d1 of the residue table's rows, one per edge of the regime."""
    sets = scarf.enumerate_residue_sets(params, lam)
    return [rs.d1 for rs in sets if rs.b1 == sets[0].b1]


def _edge_d1(s):
    """Both roots (1 -+ 2s)/2 by the edge -> d1 rule that the table and the
    levels read, also where neither shows both: the bound regime and s = 1/2."""
    return _d1(s, Edge.UPPER), _d1(s, Edge.LOWER)


class TestResidueCandidates:
    def test_fixed_pole_examples(self):
        assert _table_b1(scarf.PotentialParams(2.0), 2.5) == (-0.75, 1.75)
        assert _table_b1(scarf.PotentialParams(0.4), 1.0) == (0.0, 1.0)
        lo, hi = _table_b1(scarf.PotentialParams(0.4), 0.1)
        assert (lo, hi) == (pytest.approx(0.45), pytest.approx(0.55))

    def test_fixed_pole_rejects_nonpositive(self):
        # the check of lambda comes first, also at s = 1/2
        for s in (0.4, 2.0, 0.5):
            for lam in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="lambda must be positive"):
                    scarf.enumerate_residue_sets(scarf.PotentialParams(s), lam)

    def test_infinity_examples(self):
        assert _table_d1(scarf.PotentialParams(2.0)) == [-1.5]
        assert _edge_d1(2.0) == (-1.5, 2.5)
        # the table refuses s = 1/2; the free particle's two edges carry the roots
        p = scarf.PotentialParams(0.5)
        assert tuple(scarf.spectrum_line(p, 0, edge).d1
                     for edge in (Edge.UPPER, Edge.LOWER)) == (0.0, 1.0) == _edge_d1(0.5)
        lo, hi = _table_d1(scarf.PotentialParams(0.4))
        assert (lo, hi) == (pytest.approx(0.1), pytest.approx(0.9))
        assert (lo, hi) == _edge_d1(0.4)

    def test_infinity_rejects_nonpositive(self):
        # the check of s is PotentialParams's, made before any residue
        for s in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="s must be a positive"):
                scarf.enumerate_residue_sets(scarf.PotentialParams(s), 1.0)

    @given(st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=100)
    def test_candidate_closure(self, s):
        # both roots satisfy d1^2 - d1 + (1/4 - s^2) = 0
        for d1 in _edge_d1(s):
            assert abs(d1 * d1 - d1 + (0.25 - s * s)) <= 1e-14 * max(1.0, s * s)

    def test_admissible_d1(self):
        P = scarf.PotentialParams
        assert _table_d1(P(0.4)) == [pytest.approx(0.1), pytest.approx(0.9)]
        assert _table_d1(P(2.0)) == [-1.5]
        assert _table_d1(P(0.9)) == [pytest.approx(-0.4)]
        with pytest.raises(DegenerateRegimeError):
            _table_d1(P(0.5))
        with pytest.raises(ValueError):
            _table_d1(P(-1.0))


class TestEnumerateResidueSets:
    def test_band_upper_edge_n0(self):
        sets = scarf.enumerate_residue_sets(scarf.PotentialParams(0.4), 0.9)
        assert len(sets) == 4
        by_id = {rs.set_id: rs for rs in sets}
        assert by_id[1].valid and by_id[1].n_value == pytest.approx(0.0, abs=1e-12)
        assert by_id[1].b1 == pytest.approx(0.05)
        assert by_id[1].d1 == pytest.approx(0.1)
        assert not by_id[2].valid  # n = 0.8, not an integer
        assert by_id[2].n_value == pytest.approx(0.8)
        assert not by_id[3].valid and by_id[3].n_value < 0
        assert not by_id[4].valid and by_id[4].n_value < 0

    def test_band_lower_edge_n0(self):
        sets = scarf.enumerate_residue_sets(scarf.PotentialParams(0.4), 0.1)
        by_id = {rs.set_id: rs for rs in sets}
        assert by_id[2].valid
        assert by_id[2].b1 == pytest.approx(0.45)
        assert by_id[2].d1 == pytest.approx(0.9)
        assert by_id[2].n_value == pytest.approx(0.0, abs=1e-12)

    def test_bound_regime_two_rows(self):
        sets = scarf.enumerate_residue_sets(scarf.PotentialParams(2.0), 2.5)
        assert len(sets) == 2
        valid = [rs for rs in sets if rs.valid]
        assert len(valid) == 1
        assert valid[0].b1 == pytest.approx(-0.75)
        assert valid[0].d1 == pytest.approx(-1.5)
        assert valid[0].n_value == pytest.approx(0.0, abs=1e-12)

    def test_sum_rule_holds_for_valid_sets(self):
        for s, lam in ((0.4, 0.9), (0.4, 2.1), (2.0, 4.5), (0.25, 1.75)):
            for rs in scarf.enumerate_residue_sets(scarf.PotentialParams(s), lam):
                if rs.valid:
                    n = round(rs.n_value)
                    assert rs.b1 + rs.b1_prime + n - rs.d1 == pytest.approx(0.0, abs=1e-9)

    @given(st.floats(min_value=0.01, max_value=0.49),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100)
    def test_large_lambda_rules_out_plus_branch(self, s, offset):
        # whenever lambda > s + 1/2, rows with b1 = (1 + lambda)/2 give n < 0
        lam = s + 0.5 + offset + 1e-6
        sets = scarf.enumerate_residue_sets(scarf.PotentialParams(s), lam)
        for rs in sets:
            if rs.b1 == (1.0 + lam) / 2.0:
                assert not rs.valid
                assert rs.n_value < 0


class TestClosedFormEnergies:
    def test_bound_examples(self, bound_params):
        e0 = scarf.spectrum_line(bound_params, 0, Edge.NOT_APPLICABLE)
        assert e0.energy == HALF_PI_SQ * 2.5**2
        assert e0.energy == pytest.approx(30.8425138, abs=5e-8)
        assert e0.lam == 2.5 and e0.nu1 == -2.5 and e0.nu2 == -2.5
        assert e0.edge is Edge.NOT_APPLICABLE
        e1 = scarf.spectrum_line(bound_params, 1, Edge.NOT_APPLICABLE)
        assert e1.energy == pytest.approx(60.4513270, abs=5e-8)

    def test_bound_period_scaling(self):
        p = scarf.PotentialParams(s=2.0, a=2.0)
        e0 = scarf.spectrum_line(p, 0, Edge.NOT_APPLICABLE)
        assert e0.energy == pytest.approx(30.842513753404244 / 4.0, rel=1e-15)
        assert e0.energy == pytest.approx(7.7106284, abs=1e-7)

    def test_bound_v0_form_identical(self, bound_params):
        # well-depth form of the level formula must reproduce the lambda form
        p = bound_params
        for n in range(4):
            lam_from_v0 = 0.5 + n + math.sqrt(
                0.25 - 2.0 * p.m * p.v0 * p.a**2 / math.pi**2)
            e_v0 = HALF_PI_SQ / (p.m * p.a**2) * lam_from_v0**2
            line = scarf.spectrum_line(p, n, Edge.NOT_APPLICABLE)
            assert line.energy == pytest.approx(e_v0, rel=1e-14)

    def test_band_examples(self, band_params):
        lo0, hi0 = (scarf.spectrum_line(band_params, 0, edge) for edge in (Edge.LOWER, Edge.UPPER))
        assert lo0.energy == pytest.approx(0.0493480, abs=5e-8)
        assert hi0.energy == HALF_PI_SQ * 0.81
        assert (lo0.lam, hi0.lam) == (pytest.approx(0.1), pytest.approx(0.9))
        assert (lo0.edge, hi0.edge) == (Edge.LOWER, Edge.UPPER)
        assert lo0.nu1 == pytest.approx(-0.1) and hi0.nu1 == pytest.approx(-0.9)
        lo1, hi1 = (scarf.spectrum_line(band_params, 1, edge) for edge in (Edge.LOWER, Edge.UPPER))
        assert lo1.energy == pytest.approx(5.9711107, abs=5e-8)
        assert hi1.energy == pytest.approx(17.8146359, abs=5e-8)

    def test_subnormal_energy_leaves_the_float_range(self):
        # E = 6.2e-310 is subnormal: E / unit read 0.010000000000000014
        # against lambda^2 = 0.01, so the level is refused, not rounded
        p = scarf.PotentialParams(s=0.4, a=10389.0, m=7.403817524776147e+299)
        with pytest.raises(ValueError, match=r"level \(n=0, lower\) leaves the float range"):
            scarf.spectrum_line(p, 0, Edge.LOWER)
        # the s = 1/2 fold's E = 0 is the one level below the normal range
        fold = scarf.spectrum_line(scarf.PotentialParams(s=0.5, a=10389.0, m=1e299), 0, Edge.LOWER)
        assert fold.lam == fold.energy == 0.0

    def test_regime_errors(self, bound_params, band_params):
        with pytest.raises(RegimeError):
            scarf.spectrum_line(bound_params, 0, Edge.LOWER)
        with pytest.raises(RegimeError):
            scarf.spectrum_line(band_params, 0, Edge.NOT_APPLICABLE)
        with pytest.raises(ValueError):
            scarf.spectrum_line(bound_params, -1, Edge.NOT_APPLICABLE)

    @pytest.mark.parametrize("n", [np.int64(1), np.uint8(1), np.intp(1)])
    def test_numpy_level_index(self, bound_params, band_params, n):
        # numpy integers are level indices, as numpy scalars are couplings
        for params, edge in ((bound_params, Edge.NOT_APPLICABLE), (band_params, Edge.LOWER)):
            line = scarf.spectrum_line(params, n, edge)
            assert line == scarf.spectrum_line(params, 1, edge)
            assert type(line.n) is int
            assert scarf.spectrum_lines(params, n) == scarf.spectrum_lines(params, 1)
        assert level_parameters(bound_params, n, Edge.NOT_APPLICABLE) == level_parameters(
            bound_params, 1, Edge.NOT_APPLICABLE)

    @pytest.mark.parametrize("n_max", [2.5, -1, True, None, "2"])
    def test_spectrum_lines_rejects_bad_n_max(self, bound_params, band_params, n_max):
        # 2.5 ended in a TypeError from range, and -1 returned [] silently
        for params in (bound_params, band_params):
            with pytest.raises(ValueError, match="level index"):
                scarf.spectrum_lines(params, n_max)

    def test_gap_closure_at_s_half(self):
        # E+_n = E-_{n+1} = (pi^2/2ma^2)(n+1)^2 in the free-particle limit
        p = scarf.PotentialParams(s=0.5)
        for n in range(3):
            lo, hi = (scarf.spectrum_line(p, n, edge) for edge in (Edge.LOWER, Edge.UPPER))
            lo_next = scarf.spectrum_line(p, n + 1, Edge.LOWER)
            assert hi.energy == lo_next.energy == HALF_PI_SQ * (n + 1) ** 2

    def test_positivity(self, bound_params, band_params):
        for ln in scarf.spectrum_lines(bound_params, 5):
            assert ln.energy > 0 and ln.lam > 0
        for ln in scarf.spectrum_lines(band_params, 5):
            assert ln.energy > 0 and ln.lam > 0

    @given(st.floats(min_value=0.01, max_value=0.49), st.integers(0, 8))
    @settings(max_examples=100)
    def test_band_interleaving_and_widths(self, s, n):
        p = scarf.PotentialParams(s=s)
        lo, hi = (scarf.spectrum_line(p, n, edge) for edge in (Edge.LOWER, Edge.UPPER))
        lo_next = scarf.spectrum_line(p, n + 1, Edge.LOWER)
        assert lo.energy < hi.energy < lo_next.energy
        width = HALF_PI_SQ * 2.0 * s * (2 * n + 1)
        gap = HALF_PI_SQ * (2 * n + 2) * (1.0 - 2.0 * s)
        assert hi.energy - lo.energy == pytest.approx(width, rel=1e-12)
        assert lo_next.energy - hi.energy == pytest.approx(gap, rel=1e-12)

    def test_bound_monotonic_in_n_and_s(self):
        p = scarf.PotentialParams(s=2.0)
        energies = [scarf.spectrum_line(p, n, Edge.NOT_APPLICABLE).energy for n in range(6)]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        by_s = [scarf.spectrum_line(scarf.PotentialParams(s=s), 2, Edge.NOT_APPLICABLE).energy
                for s in (0.6, 1.0, 2.0, 3.5)]
        assert all(a < b for a, b in zip(by_s, by_s[1:]))


class TestOneSource:
    """b1 and nu are functions of lambda, bit for bit: a level stores no
    second copy that could disagree with it."""

    @staticmethod
    def _assert_derived(line):
        lam = line.lam
        assert line.nu1.hex() == line.nu2.hex() == (0.0 - lam).hex(), line
        assert line.b1.hex() == ((1.0 - lam) / 2.0).hex(), line

    @pytest.mark.parametrize("s", COUPLINGS)
    def test_every_line_to_n_max_60(self, s):
        for a, m in SCALES:
            for line in scarf.spectrum_lines(scarf.PotentialParams(s=s, a=a, m=m), 60):
                self._assert_derived(line)

    def test_lower_edge_where_the_old_nu_lost_its_last_bit(self):
        # -n + s - 1/2 rounds to -16.009999999999998 here; lambda is 16.01
        line = scarf.spectrum_line(scarf.PotentialParams(s=0.49), 16, Edge.LOWER)
        assert line.lam == 16.01
        self._assert_derived(line)
        assert line.nu1 == -16.01

    def test_fold_nu_is_positive_zero(self):
        # -lambda would print -0 at the s = 1/2 fold, lambda = 0
        fold = scarf.spectrum_line(scarf.PotentialParams(s=0.5), 0, Edge.LOWER)
        assert fold.lam == 0.0
        for nu in (fold.nu1, fold.nu2):
            assert nu == 0.0 and math.copysign(1.0, nu) == 1.0

    @pytest.mark.parametrize("s", [s for s in COUPLINGS if s != 0.5])
    def test_one_valid_row_per_level(self, s):
        # the table and the levels read one residue algebra: each level's
        # lambda has exactly one valid row, and it is the level's b1 and d1
        params = scarf.PotentialParams(s=s)
        for line in scarf.spectrum_lines(params, 40):
            valid = [rs for rs in scarf.enumerate_residue_sets(params, line.lam) if rs.valid]
            assert len(valid) == 1, line
            row = valid[0]
            assert row.set_id in (1, 2), line
            assert (row.b1.hex(), row.d1.hex()) == (line.b1.hex(), line.d1.hex()), line
            assert round(row.n_value) == line.n, line

    def test_residue_set_b1_prime_is_b1(self):
        for s, lam in ((0.4, 0.9), (0.4, 2.1), (2.0, 4.5), (0.25, 1.75)):
            for rs in scarf.enumerate_residue_sets(scarf.PotentialParams(s), lam):
                assert rs.b1_prime.hex() == rs.b1.hex()


@functools.cache
def oracle_levels(s, a=1.0, m=1.0):
    """E m a^2 of the certified shooting roots through n = 2, keyed by
    (exponent, n), and of the collocation levels, keyed by exponent."""
    params = scarf.PotentialParams(s=s, a=a, m=m)
    shot = {}
    for ln in scarf.spectrum_lines(params, 2):
        family = scarf.predicted_family(ln)
        energy, _ = scarf.certify(params, ln.energy, ln.n, family)
        shot[family, ln.n] = energy * m * a**2
    collocated = {ex: [e * m * a**2 for e in levels]
                  for ex, levels in scarf.collocation_spectrum(params, k_levels=3).items()}
    return shot, collocated


class TestScaling:
    """E m a^2 depends on s and the level alone: (a, m) only set the unit."""

    @pytest.mark.parametrize("s", [2.0, 0.4])
    @pytest.mark.parametrize("a, m", [(2.5, 0.7), (0.3, 4.0), (1e100, 1.0), (1e-100, 1.0)])
    def test_energy_times_m_a2_is_invariant(self, s, a, m):
        unit_lines = scarf.spectrum_lines(scarf.PotentialParams(s=s), 2)
        ref = {(ln.n, ln.edge): ln.energy for ln in unit_lines}
        for ln in scarf.spectrum_lines(scarf.PotentialParams(s=s, a=a, m=m), 2):
            assert ln.energy * m * a**2 == pytest.approx(ref[ln.n, ln.edge], rel=1e-14)
        ref_shot, ref_collocated = oracle_levels(s)
        shot, collocated = oracle_levels(s, a, m)
        # at unit scale the shooting oracle certifies every level as its n
        closed = {(scarf.predicted_family(ln), ln.n): ln.energy for ln in unit_lines}
        assert ref_shot.keys() == closed.keys()
        for key, energy in ref_shot.items():
            assert energy == pytest.approx(closed[key], rel=1e-10)
        assert shot.keys() == ref_shot.keys()
        for key, energy in shot.items():
            assert energy == pytest.approx(ref_shot[key], rel=1e-14)
        assert collocated.keys() == ref_collocated.keys()
        for ex, levels in collocated.items():
            assert levels == pytest.approx(ref_collocated[ex], rel=1e-14)
            assert len(levels) == 3
        assert len(collocated) == (1 if s > 0.5 else 2)
