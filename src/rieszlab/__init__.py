"""Numerical diagnostics for weighted coefficient models of nested spaces.

The package works at a fixed truncation dimension: a weighted seminorm
ladder models a smooth space sitting inside a Hilbert space with its
dual on the other side, and every analytic question (biorthogonality,
Bessel-type bounds, partial-sum convergence, the strict/non-strict
dichotomy of transported bases, intertwined operator pairs) becomes a
finite linear-algebra computation with an explicit certificate.  Trends
over a ladder of dimensions stand in for the statements that only make
sense in infinite dimension.
"""

from .errors import (ConfigError, ContinuityError, DimensionError,
                     InjectivityError, LevelError, MissingDualError,
                     ParseError, RieszLabError, StateError, SupportError,
                     ValidationError)
from .hamiltonian import (HamiltonianPair, build_pair, build_selfadjoint,
                          demo_pair, demo_transform, density_diagnostic,
                          eigen_residual, hermitian_defect, nonnormality,
                          random_unitary, spectrum_residual,
                          weak_similarity_residual)
from .reportio import (DiagnosticsReport, Section, Verdict, config_digest,
                       load_complex_matrix, render_csv, render_json,
                       save_complex_matrix, save_report)
from .riesz import (RieszBasis, adjoint_action, coefficient_seminorm,
                    hilbert_triplet_realization, make_riesz_basis,
                    metric_operator_check, range_membership, realized_grams,
                    strictness_constants, strictness_report)
from .sequences import (LinearMap, SequenceFamily, analysis, bessel_bound,
                        bessel_bound_lanczos, bessel_bound_sampled,
                        bessel_factor, biorthogonality_residual,
                        dual_analysis, frame_operator, level_gram,
                        partial_sum, riesz_fischer_check,
                        schauder_inequality_probe, weak_expansion_residual)
from .spaces import (LineGrid, aliasing_fraction, hermite_gram,
                     hermite_grid, hermite_values, number_operator_model,
                     schwartz_hermite_model, sobolev_basis,
                     sobolev_multiplier, sobolev_triplet)
from .triplet import Diagonal, WeightedTriplet, coords_of, pairing

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ContinuityError", "Diagonal", "DiagnosticsReport",
    "DimensionError", "HamiltonianPair", "InjectivityError", "LevelError",
    "LineGrid", "LinearMap", "MissingDualError", "ParseError", "RieszBasis",
    "RieszLabError", "Section", "SequenceFamily", "StateError", "SupportError",
    "ValidationError", "Verdict", "WeightedTriplet", "adjoint_action",
    "aliasing_fraction", "analysis", "bessel_bound", "bessel_bound_lanczos",
    "bessel_bound_sampled", "bessel_factor", "biorthogonality_residual",
    "build_pair", "build_selfadjoint", "coefficient_seminorm", "config_digest",
    "coords_of", "demo_pair", "demo_transform", "density_diagnostic",
    "dual_analysis", "eigen_residual", "frame_operator", "hermite_gram",
    "hermite_grid", "hermitian_defect", "hermite_values",
    "hilbert_triplet_realization", "level_gram", "load_complex_matrix",
    "make_riesz_basis", "metric_operator_check", "nonnormality",
    "number_operator_model", "pairing", "partial_sum", "random_unitary",
    "range_membership", "realized_grams", "render_csv", "render_json",
    "riesz_fischer_check", "save_complex_matrix", "save_report",
    "schauder_inequality_probe", "schwartz_hermite_model", "sobolev_basis",
    "sobolev_multiplier", "sobolev_triplet", "spectrum_residual",
    "strictness_constants", "strictness_report", "weak_expansion_residual",
    "weak_similarity_residual",
]
