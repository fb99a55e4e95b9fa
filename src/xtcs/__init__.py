"""Rationally extended truncated Calogero-Sutherland model.

Analytic side: exceptional (X1/Xm) Laguerre polynomials, the extended
radial potentials they solve, eigenfunctions, and the unchanged spectrum
E_n = omega (2n + alpha + 1).  Verification side: a finite-difference
radial eigensolver, differential-equation residuals, quadrature
orthogonality, and a many-body local-energy oracle.  The residuals, the
R-coefficient diagnosis and the local energy take their derivatives from
second-order jets run through the closed forms themselves, so no derivative
is written out by hand.
"""

__version__ = "0.1.0"

from .errors import (AttractiveCouplingWarning, NonFiniteError, QuadratureError,
                     ResolutionError, ValidationError)
from .laguerre import (OdeCoefficients, laguerre, laguerre_derivative,
                       ode_coefficients, resolve_r_denominator, x1_laguerre,
                       xm_denominator, xm_laguerre, xm_ode_residual)
from .model import (Configuration, ExtConstants, ModelParams, energy_level, ext_constants,
                    v_eff_radial, v_interaction, v_new, v_new_x1_two_term)
from .solver import RadialGrid, richardson, solver_grid
from .wavefunctions import count_nodes, jastrow, manybody_groundstate, norm, radial_eigenfunction
from .verify import (ConvergenceStudy, SpectrumReport, VerificationReport,
                     consistency_suite, convergence_orders, isospectrality_check,
                     local_energy_suite, numeric_spectrum, ode_residual, ortho_suite,
                     orthogonality_matrix, residual_suite, spectrum_csv_rows)
from .manybody import ConstancyStats, constancy_scan, local_energy, sample_configurations

__all__ = [
    "__version__", "AttractiveCouplingWarning", "NonFiniteError", "QuadratureError",
    "ResolutionError", "ValidationError",
    "laguerre", "laguerre_derivative", "x1_laguerre", "xm_laguerre", "xm_denominator",
    "OdeCoefficients", "ode_coefficients", "xm_ode_residual", "resolve_r_denominator",
    "ModelParams", "Configuration", "ExtConstants", "energy_level", "v_interaction",
    "v_new", "v_new_x1_two_term", "ext_constants", "v_eff_radial",
    "RadialGrid", "solver_grid", "richardson",
    "radial_eigenfunction", "jastrow", "manybody_groundstate", "norm",
    "count_nodes",
    "SpectrumReport", "VerificationReport", "ConvergenceStudy",
    "numeric_spectrum", "isospectrality_check", "orthogonality_matrix",
    "consistency_suite", "convergence_orders", "ode_residual", "spectrum_csv_rows",
    "residual_suite", "ortho_suite", "local_energy_suite",
    "ConstancyStats", "constancy_scan", "local_energy", "sample_configurations",
]
