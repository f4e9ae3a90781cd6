"""Probe values of the 660-state set, one sha256 line per state.

The library twin of cli_digest.py: a refactor that must keep every probe's
bits runs this script on the tree before and after the change and diffs
the two outputs:

    python tests/probe_digest.py > before.txt   # on the old tree
    python tests/probe_digest.py > after.txt    # on the new tree
    diff before.txt after.txt                   # empty when nothing moved

The set is s in {0.05, 0.2, 0.4, 0.45, 0.5} at both edges and s in {0.7,
2, 8, 30, 100} in the bound regime, each at n = 0-40, 100, 200 and 500.
Each state runs the probes of `scarf verify`: residue_report's five
fields, the Riccati residual, the chi-parity defect, the Schrodinger
residual and its scale, the node count, the parity and the boundary
exponent.  A line reads "ok", the sha256 of the repr of those values and
the state; a state whose probes raise reads the error's type and "-" in
place of the sha256.  pytest does not collect this file (its name has no
test_ prefix).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import scarf  # noqa: E402

FAMILIES = ([(s, scarf.Edge.LOWER) for s in (0.05, 0.2, 0.4, 0.45, 0.5)]
            + [(s, scarf.Edge.UPPER) for s in (0.05, 0.2, 0.4, 0.45, 0.5)]
            + [(s, scarf.Edge.NOT_APPLICABLE) for s in (0.7, 2.0, 8.0, 30.0, 100.0)])
LEVELS = (*range(41), 100, 200, 500)


def probe_values(params, line, pkg=scarf) -> tuple:
    """The values `scarf verify` measures on one state, oracles excluded,
    by the package pkg (probe_ab.py passes each of the two it loads)."""
    wf = pkg.build_wavefunction(params, line)
    chi = pkg.ChiFunction.from_wavefunction(wf)
    rep = pkg.residue_report(chi)
    return (rep.b1_measured, rep.b1_prime_measured, rep.d1_measured, rep.moving_pole_count,
            rep.sum_rule_defect, pkg.verify_riccati(chi), pkg.qmf.chi_parity_defect(chi),
            pkg.schrodinger_residual(wf), pkg.count_nodes(wf), pkg.parity(wf).value,
            pkg.boundary_exponent(wf))


def main_digest() -> None:
    for s, edge in FAMILIES:
        params = scarf.PotentialParams(s=s)
        for n in LEVELS:
            label = f"s={s!r} edge={edge.value} n={n}"
            try:
                values = probe_values(params, scarf.spectrum_line(params, n, edge))
            except Exception as exc:  # any error: its type is the state's record
                print(type(exc).__name__, "-", label)
                continue
            print("ok", hashlib.sha256(repr(values).encode()).hexdigest(), label)


if __name__ == "__main__":
    main_digest()
