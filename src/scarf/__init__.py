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
    classify_regime,
    cot_map,
    evaluate_potential,
    inverse_cot_map,
)
from .spectrum import (
    Edge,
    ResidueSet,
    SpectrumLine,
    admissible_d1,
    band_edge_energies,
    bound_energy,
    enumerate_residue_sets,
    fixed_pole_residue_candidates,
    free_particle_edges,
    infinity_residue_candidates,
    lambda_of_energy,
    spectrum_lines,
)
from .polynomials import (
    PolySpec,
    build_poly,
    real_roots,
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
    OracleResult,
    ShootingConfig,
    collocation_spectrum,
    find_eigen,
    scan_spectrum,
    shoot,
)
from .qmf import (
    ChiFunction,
    ResidueReport,
    contour_residue,
    residue_report,
    verify_riccati,
)
from .verify import predicted_family, run_verification

__version__ = "0.1.0"

__all__ = [
    "PotentialParams", "Regime", "classify_regime", "evaluate_potential",
    "cot_map", "inverse_cot_map",
    "Edge", "ResidueSet", "SpectrumLine", "fixed_pole_residue_candidates",
    "infinity_residue_candidates", "admissible_d1", "enumerate_residue_sets",
    "band_edge_energies", "bound_energy", "free_particle_edges",
    "lambda_of_energy", "spectrum_lines",
    "PolySpec", "build_poly", "real_roots",
    "WavefunctionSpec", "Parity", "build_wavefunction", "eval_psi",
    "count_nodes", "boundary_exponent", "parity", "schrodinger_residual",
    "sample_wavefunction",
    "ShootingConfig", "OracleResult", "Exponent", "shoot",
    "find_eigen", "scan_spectrum", "collocation_spectrum", "predicted_family",
    "ChiFunction", "ResidueReport", "contour_residue", "verify_riccati",
    "residue_report",
    "run_verification",
    "ScarfError", "SingularityError", "RegimeError", "DegenerateRegimeError",
    "ConsistencyError", "BracketError", "ContourError", "NumericError",
]
