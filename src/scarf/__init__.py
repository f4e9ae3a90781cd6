"""Exact spectra and eigenfunctions of the Scarf potential.

The closed forms come from residue analysis of the quantum momentum
function (the logarithmic derivative of psi, made rational by a cot change
of variable); two independent x-space eigensolvers and a contour-
integration probe verify every result numerically.
"""

from .errors import (
    BracketError,
    ConsistencyError,
    ContourError,
    DegenerateRegimeError,
    NumericError,
    RegimeError,
    ScarfError,
    SingularityError,
)
from .potential import (
    PotentialParams,
    Regime,
    evaluate_potential,
)
from .spectrum import (
    Edge,
    ResidueSet,
    SpectrumLine,
    enumerate_residue_sets,
    spectrum_line,
    spectrum_lines,
)
from .wavefunction import (
    Parity,
    WavefunctionSpec,
    boundary_exponent,
    build_wavefunction,
    count_nodes,
    eval_psi,
    parity,
    sample_wavefunction,
    schrodinger_residual,
)
from .oracle import (
    Exponent,
    ShootingConfig,
    certify,
    collocation_spectrum,
    shoot,
)
from .qmf import (
    ChiFunction,
    ResidueReport,
    residue_report,
    verify_riccati,
)
from .verify import predicted_family, run_verification

__version__ = "0.1.0"

__all__ = [
    "PotentialParams", "Regime", "evaluate_potential",
    "Edge", "ResidueSet", "SpectrumLine", "enumerate_residue_sets", "spectrum_line",
    "spectrum_lines",
    "WavefunctionSpec", "Parity", "build_wavefunction", "eval_psi",
    "count_nodes", "boundary_exponent", "parity", "schrodinger_residual",
    "sample_wavefunction",
    "ShootingConfig", "Exponent", "shoot", "certify",
    "collocation_spectrum", "predicted_family",
    "ChiFunction", "ResidueReport", "verify_riccati", "residue_report",
    "run_verification",
    "ScarfError", "SingularityError", "RegimeError", "DegenerateRegimeError",
    "ConsistencyError", "BracketError", "ContourError", "NumericError",
]
