"""Pseudo-spectral laboratory for hydrostatic compressible channel flow
with vertical diffusion.

The package integrates a 2D-velocity / specific-volume / columnar-pressure
system on the horizontally periodic channel T^2 x (0, 1), reconstructs the
diagnostic vertical velocity, and ships the verification experiments
(manufactured solutions, epsilon sweeps, continuous dependence, Picard
fixed-point solves, and an inequality-sampling lab) that exercise the
model's structure.
"""

from .diagnostics import (
    DiagnosticFields,
    boundary_defects,
    compute_diagnostics,
    continuity_residual,
    heating,
    phi_field,
    reconstruct_thermo,
    total_mass,
    vertical_velocity,
)
from .errors import (
    ConstraintFault,
    CpeError,
    FormatFault,
    IoFault,
    NoContraction,
    NumericalFault,
    ParseFault,
    PositivityMarginWarning,
    PressurePositivityLost,
    QNegativityWarning,
    SigmaPositivityLost,
    StabilityFault,
    UsageFault,
)
from .fields import COS, SIN, ZLIN, ScalarField2D, ScalarField3D, State, VectorField3D2C
from .grid import Grid
from .initial import FAMILIES, make_initial, perturbation_direction, perturbed
from .integrators import (
    AdvanceResult,
    PicardReport,
    PicardResult,
    RunOptions,
    advance,
    picard_solve,
    stable_dt,
)
from .norms import EnergyReport, difference_norm, energy_report, sobolev_norm
from .params import PhysParams
from .tendencies import StateTendency, frozen_sources, regularized_tendency

__version__ = "0.1.0"

__all__ = [
    "AdvanceResult",
    "COS",
    "ConstraintFault",
    "CpeError",
    "DiagnosticFields",
    "EnergyReport",
    "FAMILIES",
    "FormatFault",
    "Grid",
    "IoFault",
    "NoContraction",
    "NumericalFault",
    "ParseFault",
    "PhysParams",
    "PicardReport",
    "PicardResult",
    "PositivityMarginWarning",
    "PressurePositivityLost",
    "QNegativityWarning",
    "RunOptions",
    "SIN",
    "ScalarField2D",
    "ScalarField3D",
    "SigmaPositivityLost",
    "StabilityFault",
    "State",
    "StateTendency",
    "UsageFault",
    "VectorField3D2C",
    "ZLIN",
    "advance",
    "frozen_sources",
    "boundary_defects",
    "compute_diagnostics",
    "continuity_residual",
    "difference_norm",
    "energy_report",
    "heating",
    "make_initial",
    "perturbation_direction",
    "perturbed",
    "phi_field",
    "picard_solve",
    "reconstruct_thermo",
    "regularized_tendency",
    "sobolev_norm",
    "stable_dt",
    "total_mass",
    "vertical_velocity",
    "__version__",
]
