"""End-to-end verification: closed forms vs oracles vs structural checks.

Builds the machine-readable report behind `scarf verify`.  Every level up
to n_max is checked on five fronts: oracle energies (a shooting
certificate of each level's window and Chebyshev collocation, each with
each family's level count), contour-measured residues and the sum
rule, the Riccati residual of the momentum function, the Schrodinger
residual of the assembled eigenfunction, and the node/parity/boundary
structure.  Check entries carry (value, threshold, pass) so a report is
diffable and the CLI exit code is just "did every check pass".
"""

from __future__ import annotations

import logging
import math

from .errors import NumericError, ScarfError
from .oracle import Exponent, _exponents, certify, collocation_spectrum
from .potential import PotentialParams, Regime, positive_real
from .qmf import ChiFunction, chi_parity_defect, residue_report, verify_riccati
from .spectrum import Edge, SpectrumLine, spectrum_lines
from .wavefunction import (
    Parity,
    boundary_exponent,
    build_wavefunction,
    count_nodes,
    parity,
    schrodinger_residual,
)

logger = logging.getLogger(__name__)


def run_verification(params: PotentialParams, n_max: int, oracle: str = "both",
                     tol: float = 1e-8) -> dict:
    """Assemble the full verification report.

    oracle is one of "shooting", "fd" (the collocation oracle, whose
    entries keep the name oracle_fd_rel_err), "both".  Both oracles run in
    every regime, and tol is the threshold of both.  Relative energy
    errors are taken against PotentialParams.energy_scale.  A family the
    oracles admit and no line holds fails each oracle's completeness.
    """
    tol = positive_real("tol", tol)
    if oracle not in ("shooting", "fd", "both"):
        raise ValueError(f"unknown oracle kind {oracle!r}")
    lines = spectrum_lines(params, n_max)
    logger.info("verify: s=%g regime=%s n_max=%d oracle=%s tol=%g",
                params.s, params.regime.value, n_max, oracle, tol)
    members = {e: [ln for ln in lines if predicted_family(ln) is e] for e in Exponent}
    families = {e: (len(f), max(f, key=lambda ln: ln.energy)) for e, f in members.items() if f}
    shooting, collocation = oracle != "fd", oracle != "shooting"
    if collocation:  # every level the report holds, so each line has its collocated level
        collocated = collocation_spectrum(params, k_levels=max(ln.n for ln in lines) + 1)

    checks = []
    for ln in lines:
        exponent = predicted_family(ln)
        size, top = families[exponent]
        if shooting:
            checks.extend(_shooting_checks(params, ln, exponent, size, ln is top, n_max, tol))
        if collocation:
            levels = collocated[exponent]
            rel = abs(levels[ln.n] - ln.energy) / params.energy_scale(ln.energy)
            checks.append(_check(ln, "oracle_fd_rel_err", rel, tol, observed=levels[ln.n]))
            if ln is top:  # the family's collocated levels up to tol energy scales above it
                count = sum(lv <= ln.energy + tol * params.energy_scale(ln.energy)
                            for lv in levels)
                checks.append(_completeness(ln, "oracle_fd_completeness", count, size, n_max))
        checks.extend(_probe_checks(params, ln))
    for exponent in _exponents(params.regime):  # a family the oracles admit and no line holds
        if exponent not in families:
            edge = Edge.LOWER if exponent is Exponent.MINUS else (
                Edge.NOT_APPLICABLE if params.regime is Regime.BOUND_STATES else Edge.UPPER)
            lost = SpectrumLine(n_max, edge, math.nan, math.nan, math.nan)  # its top line
            checks += [_completeness(lost, f"oracle_{name}_completeness", 0, 0, n_max)
                       for name, used in (("shooting", shooting), ("fd", collocation)) if used]

    n_failed = sum(1 for c in checks if not c["pass"])
    report = level_report(params, lines, checks)
    report["summary"] = {
        "n_checks": len(checks),
        "n_failed": n_failed,
        "all_pass": n_failed == 0,
    }
    return report


def params_entry(params: PotentialParams) -> dict:
    """The "params" entry of every report."""
    return {"s": params.s, "a": params.a, "m": params.m, "v0": params.v0}


def level_report(params: PotentialParams, lines: list[SpectrumLine],
                 checks: list[dict]) -> dict:
    """The fields every level report starts with: params, regime, one
    entry per level, and the check entries."""
    return {
        "params": params_entry(params),
        "regime": params.regime.value,
        "levels": [
            {
                "n": ln.n,
                "edge": _edge_json(ln.edge),
                "lambda": ln.lam,
                "energy": ln.energy,
                "nu1": ln.nu1,
                "nu2": ln.nu2,
            }
            for ln in lines
        ],
        "checks": checks,
    }


def predicted_family(line: SpectrumLine) -> Exponent:
    """The wall exponent of the shooting family that must find a given
    closed-form level, as that family's level n: lower edges carry the
    1/2 - s exponent, upper edges and bound levels the 1/2 + s one.
    """
    return Exponent.MINUS if line.edge is Edge.LOWER else Exponent.PLUS


def _edge_json(edge: Edge) -> str | None:
    return None if edge is Edge.NOT_APPLICABLE else edge.value


def _check(ln: SpectrumLine, name: str, value: float, threshold: float,
           observed: float | None = None) -> dict:
    """One report entry: value is the defect compared against threshold,
    observed carries the raw measured quantity where one exists."""
    return {
        "n": ln.n,
        "edge": _edge_json(ln.edge),
        "name": name,
        "value": value,
        "threshold": threshold,
        "pass": bool(value <= threshold),
        "observed": observed,
    }


def _shooting_checks(params, ln, exponent, size: int, top: bool, n_max, tol) -> list[dict]:
    """The shooting oracle's certificate of one level of the exponent's
    family and, on the family's top line (top), the family's completeness.

    A level that certify cannot place in its window fails
    oracle_shooting_match_count whatever tol is.  A certified window's
    upper count, n + 1, is the number of the family's levels at or below
    it: the count of the family's completeness entry."""
    try:
        energy, sensitivity = certify(params, ln.energy, ln.n, exponent)
    except NumericError as exc:
        logger.warning("level (n=%d, %s) not certified: %s", ln.n, ln.edge.value, exc)
        return [_check(ln, "oracle_shooting_match_count", 1.0, 0.0, observed=0.0)]
    rel = abs(energy - ln.energy) / params.energy_scale(ln.energy)
    out = [_check(ln, "oracle_shooting_rel_err", rel, tol, observed=energy),
           _check(ln, "oracle_delta_sensitivity", sensitivity, 1e-11)]
    if top:
        out.append(_completeness(ln, "oracle_shooting_completeness", ln.n + 1, size, n_max))
    return out


def _completeness(ln, name: str, count: int, size: int, n_max: int) -> dict:
    """One oracle's completeness entry on a family's top line ln (a stand-in
    at n_max if it has none): count, the family's levels that oracle finds
    at or below ln, must equal both size, its lines in the report, and n_max + 1."""
    return _check(ln, name, float(abs(count - size) + abs(size - (n_max + 1))), 0.0,
                  observed=float(count))


def _probe_checks(params, ln) -> list[dict]:
    """The residue, residual and structure checks of one level.

    Entries are taken in order, so where a probe raises a ScarfError those
    taken before it stay, followed by a probe_error entry."""
    out = []
    try:
        wf = build_wavefunction(params, ln)
        chi = ChiFunction.from_wavefunction(wf)

        rep = residue_report(chi)
        out.append(_check(ln, "residue_sum_rule_defect", rep.sum_rule_defect, 1e-9))
        out.append(_check(ln, "b1_vs_closed_form", abs(rep.b1_measured - ln.b1), 1e-10,
                          observed=rep.b1_measured.real))
        out.append(_check(ln, "d1_vs_closed_form", abs(rep.d1_measured - ln.d1), 1e-10,
                          observed=rep.d1_measured.real))
        out.append(_check(ln, "chi_parity_defect", chi_parity_defect(chi), 1e-12))
        out.append(_check(ln, "riccati_residual", verify_riccati(chi),
                          1e-10 * (1.0 + ln.lam**2)))

        res, scale = schrodinger_residual(wf)
        out.append(_check(ln, "schrodinger_rel_residual", res / scale, 1e-8))
        nodes = count_nodes(wf)
        out.append(_check(ln, "node_count_defect", float(abs(nodes - ln.n)), 0.0,
                          observed=float(nodes)))
        expected_parity = Parity.EVEN if ln.n % 2 == 0 else Parity.ODD
        out.append(_check(ln, "parity_defect",
                          0.0 if parity(wf) is expected_parity else 1.0, 0.0))
        fit = boundary_exponent(wf)
        out.append(_check(ln, "boundary_exponent_defect",
                          abs(fit - predicted_family(ln).mu(params.s)), 1e-3, observed=fit))
    except ScarfError as exc:
        logger.error("level (n=%d, %s): probe raised %s: %s",
                     ln.n, ln.edge.value, type(exc).__name__, exc)
        out.append(_check(ln, "probe_error", 1.0, 0.0))
    return out
