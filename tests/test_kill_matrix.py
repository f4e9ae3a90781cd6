"""Kill matrix: each fault injected into the closed forms or into a probe
must fail a named set of `run_verification` checks, at a bound coupling
(s = 2) and a band coupling (s = 0.4).

Faults are injected by monkeypatching scarf.spectrum.level_parameters,
scarf.spectrum.spectrum_line, scarf.spectrum._edges, SpectrumLine.kappa or
Exponent.mu with wrappers that pass their arguments through by position, so
the matrix does not depend on how those functions take the coupling.
spectrum_line reads level_parameters, and build_wavefunction's rebuild of a
line reads spectrum_line from its own import, so a fault in lambda or d1
reaches every layer alike while a fault in E reaches only the report's
lines.  chi reads b1 from n and kappa, so a fault in SpectrumLine.b1
reaches the closed form that b1_vs_closed_form compares with alone.
Exponent.mu is the one wall-exponent rule of the shooting start, the
collocation and the boundary-exponent check, so a fault in it reaches all
three.

The probe faults patch the name in each module that reads it:
wall_coefficient, the one source of C, in every module that imports it;
the kernel's own coefficient by wrapping kernels.shoot_halfcell; the
Frobenius series and the slope of its start in scarf.oracle; the
Gegenbauer recurrence in scarf.wavefunction (psi's pass) or scarf.qmf
(chi's pass), each of which binds it on import; and the contours in
scarf.qmf, rebuilt with half their nodes.  A fault that fails no check
at a coupling is a survivor there, named with its reason beside its row.
Every check name a clean report emits is failed by some row, or is named
in UNMOVED with its reason and the benchmark line that keeps it.  The last
tests drop a level or a whole family from the report, which each
oracle's completeness entry catches, and check that the s = 1/2 fold
completes its family.
"""

from dataclasses import replace

import pytest

import scarf
import scarf.kernels
import scarf.oracle
import scarf.potential
import scarf.qmf
import scarf.spectrum
import scarf.verify
import scarf.wavefunction
from scarf import Edge, Exponent, SpectrumLine

B1 = "b1_vs_closed_form"
D1 = "d1_vs_closed_form"
DELTA = "oracle_delta_sensitivity"
EXPONENT = "boundary_exponent_defect"
FD = "oracle_fd_rel_err"
FD_COMPLETE = "oracle_fd_completeness"
MATCH = "oracle_shooting_match_count"
NODES = "node_count_defect"
PARITY = "parity_defect"
SUM_RULE = "residue_sum_rule_defect"
RICCATI = "riccati_residual"
SCHRODINGER = "schrodinger_rel_residual"
PROBE = "probe_error"
_SWAP = {Edge.LOWER: Edge.UPPER, Edge.UPPER: Edge.LOWER}


def _patch_level(monkeypatch, fault):
    orig = scarf.spectrum.level_parameters
    monkeypatch.setattr(scarf.spectrum, "level_parameters",
                        lambda *args: fault(*orig(*args)))


def lam_relative(monkeypatch):
    _patch_level(monkeypatch, lambda lam, d1: (lam * (1.0 + 1e-9), d1))


def lam_plus_one(monkeypatch):
    _patch_level(monkeypatch, lambda lam, d1: (lam + 1.0, d1))


def d1_shift(monkeypatch):
    _patch_level(monkeypatch, lambda lam, d1: (lam, d1 + 1e-6))


def edges_swapped(monkeypatch):
    # each band edge gets the other edge's lambda and d1 under its own tag
    orig = scarf.spectrum.level_parameters
    monkeypatch.setattr(scarf.spectrum, "level_parameters",
                        lambda *args: orig(*args[:-1], _SWAP.get(args[-1], args[-1])))


def energy_relative(monkeypatch):
    orig = scarf.spectrum.spectrum_line
    monkeypatch.setattr(scarf.spectrum, "spectrum_line", lambda *args: replace(
        orig(*args), energy=orig(*args).energy * (1.0 + 1e-9)))


def _patch_kappa(monkeypatch, shift):
    orig = SpectrumLine.kappa
    monkeypatch.setattr(SpectrumLine, "kappa", property(lambda ln: orig.fget(ln) + shift))


def kappa_small(monkeypatch):
    _patch_kappa(monkeypatch, 0.1)


def kappa_one(monkeypatch):
    _patch_kappa(monkeypatch, 1.0)


def mu_sign_minus(monkeypatch):
    # the MINUS family's wall exponent reads 1/2 + s, the PLUS family's
    orig = Exponent.mu
    monkeypatch.setattr(Exponent, "mu",
                        lambda e, s: orig(e, -s if e is Exponent.MINUS else s))


def wall_relative(monkeypatch):
    orig = scarf.potential.wall_coefficient
    for module in (scarf.potential, scarf.oracle, scarf.wavefunction, scarf.qmf):
        monkeypatch.setattr(module, "wall_coefficient", lambda s: orig(s) * (1.0 + 1e-9))


def kernel_coefficient(monkeypatch):
    # the shooting kernel's C alone; the Frobenius start keeps the true one
    orig = scarf.kernels.shoot_halfcell
    monkeypatch.setattr(scarf.kernels, "shoot_halfcell",
                        lambda c, *args: orig(c * (1.0 + 1e-9), *args))


def series_c2(monkeypatch):
    orig = scarf.oracle.frobenius_series

    def faulty(*args):
        coeff = orig(*args)
        coeff[1] *= 1.0 + 1e-6
        return coeff

    monkeypatch.setattr(scarf.oracle, "frobenius_series", faulty)


def start_slope(monkeypatch):
    # the slope u_z of the Frobenius start at every shot's start offset
    orig = scarf.oracle.frobenius_start

    def faulty(*args):
        u, v = orig(*args)
        return u, v * (1.0 + 1e-12)

    monkeypatch.setattr(scarf.oracle, "frobenius_start", faulty)


def _patch_recurrence(monkeypatch, modules, fault):
    orig = scarf.wavefunction.gegenbauer_ratios
    for module in modules:
        monkeypatch.setattr(module, "gegenbauer_ratios", lambda n, k, t: orig(*fault(n, k), t))


def psi_recurrence_kappa(monkeypatch):
    _patch_recurrence(monkeypatch, [scarf.wavefunction], lambda n, k: (n, k + 1e-6))


def chi_recurrence_kappa(monkeypatch):
    _patch_recurrence(monkeypatch, [scarf.qmf], lambda n, k: (n, k + 1e-6))


def recurrence_step_dropped(monkeypatch):
    # every pass stops one step short: R_(n-1) stands for R_n
    _patch_recurrence(monkeypatch, [scarf.wavefunction, scarf.qmf],
                      lambda n, k: (max(n - 1, 0), k))


def chi_recurrence_step_dropped(monkeypatch):
    # chi's pass alone stops one step short
    _patch_recurrence(monkeypatch, [scarf.qmf], lambda n, k: (max(n - 1, 0), k))


def contour_nodes_halved(monkeypatch):
    qmf = scarf.qmf
    monkeypatch.setattr(qmf, "_RESIDUE_CIRCLES", [
        qmf._circle(c, qmf._FIXED_RADIUS, z.size // 2)
        for c, (z, _) in zip((1j, -1j), qmf._RESIDUE_CIRCLES, strict=True)])
    orig = qmf._infinity_circles
    # z[0] = r: each circle at infinity starts on the positive real axis
    monkeypatch.setattr(qmf, "_infinity_circles", lambda line: [
        qmf._circle(0.0, z[0].real, z.size // 2) for z, _ in orig(line)])


def b1_shift(monkeypatch):
    orig = SpectrumLine.b1
    monkeypatch.setattr(SpectrumLine, "b1", property(lambda ln: orig.fget(ln) + 1e-6))


def lower_edges_dropped(monkeypatch):
    # the band regime's lines are the upper edges alone
    orig = scarf.spectrum._edges
    monkeypatch.setattr(scarf.spectrum, "_edges", lambda *args: tuple(
        edge for edge in orig(*args) if edge is not Edge.LOWER))


# fault -> (failing checks at s = 2, failing checks at s = 0.4)
MATRIX = {
    lam_relative: ({D1, MATCH, RICCATI}, {D1, MATCH, RICCATI, SCHRODINGER}),
    lam_plus_one: ({D1, EXPONENT, FD, MATCH, RICCATI, SCHRODINGER},) * 2,
    d1_shift: ({D1},) * 2,
    # a no-op at s = 2: bound levels have no edge
    edges_swapped: (set(), {EXPONENT, FD, FD_COMPLETE, MATCH}),
    energy_relative: ({MATCH, PROBE},) * 2,
    kappa_small: ({B1, D1, EXPONENT, RICCATI, SCHRODINGER},) * 2,
    kappa_one: ({B1, D1, EXPONENT, RICCATI, SCHRODINGER},) * 2,
    # a no-op at s = 2: the bound regime has no MINUS family
    mu_sign_minus: (set(), {EXPONENT, FD, FD_COMPLETE, MATCH}),
    # the collocation reads C only above s = 2, so FD does not see it; at
    # s = 0.4 the one level still certified reads delta_sensitivity 1.2e-11
    wall_relative: ({MATCH, RICCATI}, {DELTA, MATCH, RICCATI, SCHRODINGER}),
    # at s = 0.4 the one level still certified reads 1.2e-11, as above
    kernel_coefficient: ({MATCH}, {DELTA, MATCH}),
    # at s = 2 it moves the phase at n = 0 and 2 by 4e-12 and 3.1e-10, less
    # than half the certificate window's phase span of 2.7e-10 and 6.4e-10,
    # but the z0 and z0/2 starts apart, to a delta_sensitivity of 9.6e-11;
    # at s = 0.4 by 1.5e-9 to 3.5e-9, past windows of 2.8e-12 (lower n = 0)
    # to 1.3e-10 (upper n = 0)
    series_c2: ({DELTA}, {MATCH}),
    # a survivor at s = 2, where it moves delta_sensitivity to 3e-15 against
    # 1e-11; at s = 0.4 to 2.4e-11, as the z0 and z0/2 starts move apart
    start_slope: (set(), {DELTA}),
    psi_recurrence_kappa: ({SCHRODINGER},) * 2,
    chi_recurrence_kappa: ({RICCATI},) * 2,
    recurrence_step_dropped: ({D1, NODES, PARITY, RICCATI, SCHRODINGER, SUM_RULE},) * 2,
    chi_recurrence_step_dropped: ({D1, RICCATI, SUM_RULE},) * 2,
    # a survivor at both couplings: the node rule N eta >= 32 leaves an error
    # near e^-32, and at half N the measured residues move by at most 2e-13
    # (b1, b1', d1), against 1e-10
    contour_nodes_halved: (set(), set()),
    b1_shift: ({B1},) * 2,
    # a no-op at s = 2: the bound regime has no lower edges
    lower_edges_dropped: (set(), {"oracle_shooting_completeness", FD_COMPLETE}),
}


def _failing(s, oracle="both"):
    report = scarf.run_verification(scarf.PotentialParams(s=s), 2, oracle)
    return {c["name"] for c in report["checks"] if not c["pass"]}


# the check names that no fault of MATRIX fails, each with the benchmark
# line that keeps it in the report until the benchmark change of ROADMAP
# item 1
UNMOVED = {
    # exactly 0 for a correct evaluator: chi(-y) is -chi(y) bit for bit
    "chi_parity_defect": "perfbench/child.py::eigenstate calls qmf.chi_parity_defect",
    # once certify returns, the root lies inside its 1e-10 window
    "oracle_shooting_rel_err": "perfbench/workloads.py::check_verify reads its observed energy",
}


@pytest.mark.parametrize("fault", MATRIX, ids=lambda fault: fault.__name__)
def test_fault_fails_its_checks(monkeypatch, fault):
    assert _failing(2.0) == _failing(0.4) == set()
    fault(monkeypatch)
    assert (_failing(2.0), _failing(0.4)) == MATRIX[fault]


def test_every_emitted_check_can_fail_or_is_listed():
    emitted = {c["name"] for s in (2.0, 0.4)
               for c in scarf.run_verification(scarf.PotentialParams(s=s), 2)["checks"]}
    caught = set().union(*(at_2 | at_04 for at_2, at_04 in MATRIX.values()))
    assert emitted - caught == UNMOVED.keys()


@pytest.mark.parametrize("s", [2.0, 0.4])
def test_dropped_level_fails_under_fd_oracle(monkeypatch, s):
    # a report that lost its n = 1 lines fails each family's collocation
    # completeness entry on its top line, as it fails the shooting one
    orig = scarf.verify.spectrum_lines
    monkeypatch.setattr(scarf.verify, "spectrum_lines",
                        lambda *args: [ln for ln in orig(*args) if ln.n != 1])
    report = scarf.run_verification(scarf.PotentialParams(s=s), 2, "fd")
    assert {ln["n"] for ln in report["levels"]} == {0, 2}
    failing = [(c["n"], c["name"], c["observed"]) for c in report["checks"] if not c["pass"]]
    assert failing == [(2, FD_COMPLETE, 3.0)] * (1 if s > 0.5 else 2)
    assert "oracle_shooting_completeness" in _failing(s, "shooting")


@pytest.mark.parametrize("oracle", ["shooting", "fd", "both"])
def test_dropped_family_fails_each_oracle_completeness(monkeypatch, oracle):
    # a family the oracles admit and no line holds fails one completeness
    # entry per oracle in use, on the n_max and edge its top line would carry
    lower_edges_dropped(monkeypatch)
    report = scarf.run_verification(scarf.PotentialParams(s=0.4), 2, oracle)
    failing = [(c["n"], c["edge"], c["name"], c["value"], c["observed"])
               for c in report["checks"] if not c["pass"]]
    names = [f"oracle_{name}_completeness" for name in ("shooting", "fd")
             if oracle in (name, "both")]
    assert failing == [(2, "lower", name, 3.0, 0.0) for name in names]


@pytest.mark.parametrize("oracle", ["shooting", "fd", "both"])
def test_fold_completes_its_family(oracle):
    # at s = 1/2 and n_max = 0 the lower family is the E = 0 fold alone,
    # and it carries that family's completeness entries like any top line
    report = scarf.run_verification(scarf.PotentialParams(s=0.5), 0, oracle)
    assert report["levels"][0]["lambda"] == 0.0 and report["summary"]["all_pass"]
    complete = [(c["edge"], c["name"]) for c in report["checks"] if "completeness" in c["name"]]
    names = [f"oracle_{name}_completeness" for name in ("shooting", "fd")
             if oracle in (name, "both")]
    assert sorted(complete) == sorted((edge, name) for edge in ("lower", "upper") for name in names)
