"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; the -v
test names mirror the criteria).  Criteria 1 and 2 also assert a runtime
budget for their oracles.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import scarf
from scarf import ChiFunction, Edge, Exponent
from scarf.verify import predicted_family
from scarf.qmf import chi_parity_defect

HALF_PI_SQ = math.pi**2 / 2.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def certify_lines(params, n_max):
    """{(n, edge): certify result} of every closed-form level to n_max, and
    the number of each family's levels at or below its top window."""
    lines = scarf.spectrum_lines(params, n_max)
    shots = {(ln.n, ln.edge): scarf.certify(params, ln.energy, ln.n, predicted_family(ln))
             for ln in lines}
    counts = {}
    for ln in lines:
        family = predicted_family(ln)
        counts[family] = max(counts.get(family, 0), ln.n + 1)
    return shots, counts


@pytest.fixture(scope="module")
def bound_oracles(bound_params):
    t0 = time.perf_counter()
    shots, counts = certify_lines(bound_params, 3)
    collocated = scarf.collocation_spectrum(bound_params, k_levels=4)[Exponent.PLUS]
    return shots, counts, collocated, time.perf_counter() - t0


@pytest.fixture(scope="module")
def band_oracles(band_params):
    t0 = time.perf_counter()
    shots, counts = certify_lines(band_params, 2)
    collocated = scarf.collocation_spectrum(band_params, k_levels=3)
    return shots, counts, collocated, time.perf_counter() - t0


@pytest.fixture(scope="module")
def all_states(bound_params, band_params):
    """Every eigenstate covered by criteria 1 and 2."""
    states = [scarf.build_wavefunction(
                  bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
              for n in range(4)]
    for n in range(3):
        for edge in (Edge.LOWER, Edge.UPPER):
            line = scarf.spectrum_line(band_params, n, edge)
            states.append(scarf.build_wavefunction(band_params, line))
    return states


def test_criterion_1_bound_spectrum_vs_oracles(bound_params, bound_oracles):
    # each level is certified as level n of the one shooting family, whose
    # count at the top window is the four levels
    shots, counts, collocated, elapsed = bound_oracles
    assert counts == {Exponent.PLUS: 4}
    worst_shoot = 0.0
    worst_colloc = 0.0
    for n in range(4):
        exact = HALF_PI_SQ * (n + 2.5) ** 2
        res = shots[n, Edge.NOT_APPLICABLE]
        worst_shoot = max(worst_shoot, abs(res.energy - exact) / exact)
        worst_colloc = max(worst_colloc, abs(collocated[n] - exact) / exact)
    ok = worst_shoot <= 1e-8 and worst_colloc <= 1e-10
    report("1 (bound spectrum, s=2)", ok,
           f"shooting<= {worst_shoot:.2e}, collocation<= {worst_colloc:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_2_band_edges_vs_scan(band_params, band_oracles):
    # each edge is certified as level n of its exponent's family, and each
    # family counts its three edges at its top window
    shots, counts, collocated, elapsed = band_oracles
    assert counts == {Exponent.PLUS: 3, Exponent.MINUS: 3}
    worst = 0.0
    worst_colloc = 0.0
    for n in range(3):
        for edge in (Edge.LOWER, Edge.UPPER):
            line = scarf.spectrum_line(band_params, n, edge)
            res = shots[n, edge]
            worst = max(worst, abs(res.energy - line.energy) / line.energy)
            level = collocated[predicted_family(line)][n]
            worst_colloc = max(worst_colloc, abs(level - line.energy) / line.energy)
    report("2 (band edges, s=0.4)", worst <= 1e-8 and worst_colloc <= 1e-10,
           f"shooting<= {worst:.2e}, collocation<= {worst_colloc:.2e}, six edges, "
           f"{elapsed:.1f}s")
    assert elapsed < 20.0


def test_criterion_3_residue_table_reproduction():
    ok = True
    detail = []
    for s in (0.1, 0.25, 0.4):
        params = scarf.PotentialParams(s=s)
        for n in range(3):
            for edge in (Edge.LOWER, Edge.UPPER):
                line = scarf.spectrum_line(params, n, edge)
                sets = scarf.enumerate_residue_sets(s, line.lam)
                valid_ids = [rs.set_id for rs in sets if rs.valid]
                if len(valid_ids) != 1 or valid_ids[0] in (3, 4):
                    ok = False
                    detail.append(f"s={s}, n={n}, {line.edge.value}: {valid_ids}")
                if any(rs.valid for rs in sets if rs.set_id in (3, 4)):
                    ok = False
    report("3 (residue table)", ok, "; ".join(detail) or
           "one valid set per edge, sets 3 and 4 never valid")


def test_criterion_4_residue_sum_rule(all_states):
    worst_defect = 0.0
    worst_b1 = 0.0
    worst_d1 = 0.0
    for wf in all_states:
        chi = ChiFunction.from_wavefunction(wf)
        rep = scarf.residue_report(chi)
        lam = wf.line.lam
        worst_defect = max(worst_defect, rep.sum_rule_defect)
        worst_b1 = max(worst_b1,
                       abs(rep.b1_measured - (1.0 - lam) / 2.0),
                       abs(rep.b1_prime_measured - (1.0 - lam) / 2.0))
        worst_d1 = max(worst_d1, abs(rep.d1_measured - wf.line.d1))
    ok = worst_defect <= 1e-9 and worst_b1 <= 1e-10 and worst_d1 <= 1e-10
    report("4 (residue sum rule)", ok,
           f"defect<= {worst_defect:.2e}, b1 err<= {worst_b1:.2e}, d1 err<= {worst_d1:.2e}")


def test_criterion_5_riccati_and_schrodinger_residuals(all_states):
    worst_riccati = 0.0
    worst_schrod = 0.0
    for wf in all_states:
        chi = ChiFunction.from_wavefunction(wf)
        lam = wf.line.lam
        worst_riccati = max(worst_riccati,
                            scarf.verify_riccati(chi) / (1e-10 * (1.0 + lam**2)))
        res, scale = scarf.schrodinger_residual(wf)
        worst_schrod = max(worst_schrod, res / scale)
        assert chi_parity_defect(chi) <= 1e-12
    control_chi = replace(ChiFunction.from_wavefunction(all_states[0]),
                          lam=all_states[0].line.lam + 0.1)
    control = scarf.verify_riccati(control_chi)
    ok = worst_riccati <= 1.0 and worst_schrod <= 1e-8 and control >= 1e-3
    report("5 (equation residuals)", ok,
           f"riccati within {worst_riccati:.2f}x budget, schrodinger<= "
           f"{worst_schrod:.2e}, control {control:.2e}")


def test_criterion_6_gap_closure():
    ok = True
    details = []
    for s in (0.45, 0.49, 0.499):
        params = scarf.PotentialParams(s=s)
        for n in (0, 1):
            upper = scarf.spectrum_line(params, n, Edge.UPPER)
            lower_next = scarf.spectrum_line(params, n + 1, Edge.LOWER)
            gap = lower_next.energy - upper.energy
            algebraic = HALF_PI_SQ * (2 * n + 2) * (1.0 - 2.0 * s)
            if abs(gap - algebraic) > 1e-12 * algebraic:
                ok = False
                details.append(f"algebraic gap s={s} n={n}")
    # the shooting oracle must see the near-degeneracy at s = 0.499
    params = scarf.PotentialParams(s=0.499)
    for n in (0, 1):
        upper = scarf.spectrum_line(params, n, Edge.UPPER)
        lower_next = scarf.spectrum_line(params, n + 1, Edge.LOWER)
        e_up = scarf.certify(params, upper.energy, n, Exponent.PLUS).energy
        e_lo = scarf.certify(params, lower_next.energy, n + 1, Exponent.MINUS).energy
        measured_gap = e_lo - e_up
        exact_gap = lower_next.energy - upper.energy
        if abs(measured_gap - exact_gap) > 1e-6:
            ok = False
            details.append(f"oracle gap n={n}: {measured_gap} vs {exact_gap}")
    report("6 (gap closure)", ok, "; ".join(details) or
           "algebraic to 1e-12, oracle gap to 1e-6 at s=0.499")


def test_criterion_7_node_parity_exponent(bound_params, band_params):
    ok = True
    details = []
    lines = [(bound_params, scarf.spectrum_line(bound_params, n, Edge.NOT_APPLICABLE))
             for n in range(6)]
    for n in range(6):
        lines += [(band_params, scarf.spectrum_line(band_params, n, edge))
                  for edge in (Edge.LOWER, Edge.UPPER)]
    for params, line in lines:
        wf = scarf.build_wavefunction(params, line)
        tag = f"(s={params.s}, n={line.n}, {line.edge.value})"
        if scarf.count_nodes(wf) != line.n:
            ok = False
            details.append(f"nodes {tag}")
        expected = scarf.Parity.EVEN if line.n % 2 == 0 else scarf.Parity.ODD
        if scarf.parity(wf) is not expected:
            ok = False
            details.append(f"parity {tag}")
        if abs(scarf.boundary_exponent(wf) - wf.line.kappa) > 1e-3:
            ok = False
            details.append(f"exponent {tag}")
    report("7 (node/parity/exponent, n<=5)", ok, "; ".join(details) or
           "18 states checked")


def test_criterion_8_byte_identical_verify_runs():
    cmd = [sys.executable, "-m", "scarf.cli", "verify", "--s", "2",
           "--n-max", "2", "--oracle", "both", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    report("8 (determinism)", ok, f"{len(first.stdout)} bytes, two runs identical")
