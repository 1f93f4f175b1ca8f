"""Energy-stable semi-implicit finite volumes for Mach-parameterised barotropic Euler.

The package solves the compressible barotropic Euler system with a Mach
parameter ``eps`` scaling the pressure gradient on 2D periodic Cartesian
meshes.  The density update is implicit with a pressure-jump stabilised
upwind mass flux; the velocity update is explicit.  Under explicit CFL-type
conditions the discrete total energy and entropy decay step by step, density
stays positive, mass and momentum are conserved to round-off, and the scheme
remains accurate uniformly as ``eps`` tends to zero (asymptotic preserving).
"""

from .mesh import (StructuredMesh, build_mesh, project, gather_to_faces,
                   scatter_to_cells, flux_divergence, face_average,
                   face_jump, face_average_normal, cell_gradient,
                   cell_divergence, face_gradient, face_gradient_normal)
from .eos import GasLaw, PositivityError
from .flux import (FaceFluxes, assemble_fluxes, stabilisation_velocity,
                   split_normal_velocity, mass_flux, momentum_flux)
from .stepper import (State, SchemeParams, StepDiagnostics, ConditionReport,
                      SolverError, auto_eta, density_residual, density_jacobian,
                      solve_density, update_velocity, compute_dt,
                      enforce_conditions, step, advance)
from .diagnostics import (EnergyReport, energy_report, relative_energy,
                          relative_energy_to_limit, flow_mach, ErrorReport,
                          error_norms, eoc, EnergyAudit, audit_energy_balances)
from .cases import (VortexSpec, angular_velocity, incompressible_pressure,
                    vortex_compressible_init, vortex_incompressible_exact,
                    well_prepared_perturbation)
from .driver import (ConfigError, InequalityViolation, RunConfig,
                     ConvergenceConfig, load_run_config, load_convergence_config,
                     run_case, convergence_study, restrict_to_coarse,
                     write_field_snapshot, write_line_chart)

__version__ = "0.1.0"

__all__ = [
    "StructuredMesh", "build_mesh", "project", "gather_to_faces",
    "scatter_to_cells", "flux_divergence", "face_average", "face_jump",
    "face_average_normal", "cell_gradient", "cell_divergence",
    "face_gradient", "face_gradient_normal",
    "GasLaw", "PositivityError",
    "FaceFluxes", "assemble_fluxes", "stabilisation_velocity",
    "split_normal_velocity", "mass_flux", "momentum_flux",
    "State", "SchemeParams", "StepDiagnostics", "ConditionReport",
    "SolverError", "auto_eta", "density_residual", "density_jacobian",
    "solve_density", "update_velocity", "compute_dt", "enforce_conditions",
    "step", "advance",
    "EnergyReport", "energy_report", "relative_energy",
    "relative_energy_to_limit", "flow_mach", "ErrorReport", "error_norms",
    "eoc", "EnergyAudit", "audit_energy_balances",
    "VortexSpec", "angular_velocity", "incompressible_pressure",
    "vortex_compressible_init", "vortex_incompressible_exact",
    "well_prepared_perturbation",
    "ConfigError", "InequalityViolation", "RunConfig", "ConvergenceConfig",
    "load_run_config", "load_convergence_config", "run_case",
    "convergence_study", "restrict_to_coarse", "write_field_snapshot",
    "write_line_chart",
]
