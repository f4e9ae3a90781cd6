"""Kill matrix of the level faults: each fault injected into the closed
forms must fail a named set of `run_verification` checks, at a bound
coupling (s = 2) and a band coupling (s = 0.4).

Faults are injected by monkeypatching scarf.spectrum.level_parameters,
scarf.spectrum.spectrum_line, SpectrumLine.kappa or Exponent.mu with
wrappers that pass their arguments through by position, so the matrix does
not depend on how those functions take the coupling.  spectrum_line reads
level_parameters, and build_wavefunction's rebuild of a line reads
spectrum_line from its own import, so a fault in lambda or d1 reaches every
layer alike while a fault in E reaches only the report's lines.  Exponent.mu
is the one wall-exponent rule of the shooting start, the collocation and the
boundary-exponent check, so a fault in it reaches all three.  A fault that
fails no check is a survivor.  The last test drops a level from the report,
which each oracle's completeness entry catches.
"""

from dataclasses import replace

import pytest

import scarf
import scarf.spectrum
import scarf.verify
from scarf import Edge, Exponent, SpectrumLine

D1 = "d1_vs_closed_form"
EXPONENT = "boundary_exponent_defect"
FD = "oracle_fd_rel_err"
FD_COMPLETE = "oracle_fd_completeness"
MATCH = "oracle_shooting_match_count"
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


# fault -> (failing checks at s = 2, failing checks at s = 0.4)
MATRIX = {
    lam_relative: ({D1, MATCH, RICCATI}, {D1, MATCH, RICCATI, SCHRODINGER}),
    lam_plus_one: ({D1, EXPONENT, FD, MATCH, RICCATI, SCHRODINGER},) * 2,
    d1_shift: ({D1},) * 2,
    # a no-op at s = 2: bound levels have no edge
    edges_swapped: (set(), {EXPONENT, FD, FD_COMPLETE, MATCH}),
    energy_relative: ({MATCH, PROBE},) * 2,
    kappa_small: ({EXPONENT, RICCATI, SCHRODINGER},) * 2,
    kappa_one: ({EXPONENT, RICCATI, SCHRODINGER},) * 2,
    # a no-op at s = 2: the bound regime has no MINUS family
    mu_sign_minus: (set(), {EXPONENT, FD, FD_COMPLETE, MATCH}),
}


def _failing(s, oracle="both"):
    report = scarf.run_verification(scarf.PotentialParams(s=s), 2, oracle)
    return {c["name"] for c in report["checks"] if not c["pass"]}


@pytest.mark.parametrize("fault", MATRIX, ids=lambda fault: fault.__name__)
def test_fault_fails_its_checks(monkeypatch, fault):
    assert _failing(2.0) == _failing(0.4) == set()
    fault(monkeypatch)
    assert (_failing(2.0), _failing(0.4)) == MATRIX[fault]


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
