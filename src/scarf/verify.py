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

from .errors import BracketError, NumericError, ScarfError
from .oracle import Exponent, certify, collocation_spectrum
from .potential import PotentialParams
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
    errors are taken against PotentialParams.energy_scale.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"need a finite tol > 0, got {tol}")
    if oracle not in ("shooting", "fd", "both"):
        raise ValueError(f"unknown oracle kind {oracle!r}")
    lines = spectrum_lines(params, n_max)
    logger.info("verify: s=%g regime=%s n_max=%d oracle=%s tol=%g",
                params.s, params.regime.value, n_max, oracle, tol)
    members = {e: [ln for ln in lines if predicted_family(ln) is e] for e in Exponent}
    families = {e: (len(f), max(f, key=lambda ln: ln.energy)) for e, f in members.items() if f}
    collocated = (collocation_spectrum(params, k_levels=n_max + 1)
                  if oracle in ("fd", "both") else None)

    checks = []
    for ln in lines:
        if ln.lam == 0.0:
            continue  # free-particle fold at E=0 has no normalizable state
        checks.extend(_level_checks(params, ln, families, collocated, tol, n_max,
                                    shooting=oracle != "fd"))

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


def _level_checks(params, ln, families: dict[Exponent, tuple[int, SpectrumLine]] | None,
                  collocated: dict[Exponent, list[float]] | None, tol, n_max=None,
                  shooting: bool = False) -> list[dict]:
    """The checks of one level.  families maps each family to its number of
    lines (the E = 0 fold of s = 1/2 included) and its top line, the first
    of highest energy, or is None for the probes alone; collocated is None,
    or shooting False, where that oracle did not run."""
    exponent = predicted_family(ln)
    size, top = (families or {}).get(exponent, (0, None))
    out = _shooting_checks(params, ln, exponent, size, ln is top, n_max, tol) if shooting else []

    if collocated is not None:
        levels = collocated[exponent]
        rel = abs(levels[ln.n] - ln.energy) / params.energy_scale(ln.energy)
        out.append(_check(ln, "oracle_fd_rel_err", rel, tol, observed=levels[ln.n]))
        if ln is top:  # the family's collocated levels up to tol energy scales above it
            count = sum(lv <= ln.energy + tol * params.energy_scale(ln.energy) for lv in levels)
            out.append(_check(ln, "oracle_fd_completeness", float(abs(count - size)), 0.0,
                              observed=float(count)))

    try:
        _probe_checks(params, ln, out)
    except ScarfError as exc:
        logger.error("level (n=%d, %s): probe raised %s: %s",
                     ln.n, ln.edge.value, type(exc).__name__, exc)
        out.append(_check(ln, "probe_error", 1.0, 0.0))
    return out


def _shooting_checks(params, ln, exponent, size: int, top: bool, n_max, tol) -> list[dict]:
    """The shooting oracle's certificate of one level of the exponent's
    family and, on the family's top line (top), the family's completeness.

    A level that certify cannot place in its window fails
    oracle_shooting_match_count whatever tol is.  A certified window's
    upper count, n + 1, is the number of the family's levels at or below
    it, so on the top line it must equal both size and n_max + 1."""
    try:
        res = certify(params, ln.energy, ln.n, exponent)
    except (BracketError, NumericError) as exc:
        logger.warning("level (n=%d, %s) not certified: %s", ln.n, ln.edge.value, exc)
        return [_check(ln, "oracle_shooting_match_count", 1.0, 0.0, observed=0.0)]
    rel = abs(res.energy - ln.energy) / params.energy_scale(ln.energy)
    out = [_check(ln, "oracle_shooting_rel_err", rel, tol, observed=res.energy),
           _check(ln, "oracle_delta_sensitivity", res.delta_sensitivity, 1e-11)]
    if top:
        out.append(_check(ln, "oracle_shooting_completeness",
                          float(abs(ln.n + 1 - size) + abs(size - n_max - 1)), 0.0,
                          observed=float(ln.n + 1)))
    return out


def _probe_checks(params, ln, out: list[dict]) -> None:
    """Append the residue, residual and structure checks of one level.

    Entries are appended as they are measured, so those taken before a
    probe raises stay in the report."""
    wf = build_wavefunction(params, ln)
    chi = ChiFunction.from_wavefunction(wf)

    rep = residue_report(chi)
    out.append(_check(ln, "residue_sum_rule_defect", rep.sum_rule_defect, 1e-9))
    out.append(_check(ln, "b1_vs_closed_form", abs(rep.b1_measured - ln.b1), 1e-10,
                      observed=rep.b1_measured.real))
    out.append(_check(ln, "b1_parity", abs(rep.b1_measured - rep.b1_prime_measured), 1e-10))
    out.append(_check(ln, "d1_vs_closed_form", abs(rep.d1_measured - ln.d1), 1e-10,
                      observed=rep.d1_measured.real))
    out.append(_check(ln, "moving_pole_count_defect",
                      float(abs(rep.moving_pole_count - ln.n)), 0.0,
                      observed=float(rep.moving_pole_count)))
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
