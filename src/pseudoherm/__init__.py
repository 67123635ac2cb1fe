"""Positive-definite metric operators for pseudo-Hermitian Hamiltonians.

A Hamiltonian H with a real spectrum but H != H^dagger can be made
Hermitian in a redefined inner product <.|eta .> provided an invertible
positive operator eta exists with H^dagger eta = eta H. This package
constructs such metrics two ways: spectrally, from a biorthonormal
eigensystem, and perturbatively, as eta = exp(-Q) with Q solved order by
order from Sylvester equations. A wave-equation module supplies
position-space kernels for Schroedinger operators with piecewise-linear
imaginary potentials, and a small pipeline runs JSON-configured models
end to end.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DiagonalizabilityError,
    DomainError,
    GaugeError,
    InvertibilityError,
    NonFiniteError,
    ObstructionError,
    PositivityError,
    PseudohermError,
    RealityError,
    ResidualError,
    ShapeError,
    SpecError,
    StructureError,
)
from .operators import (
    ABS_TOL,
    REL_TOL,
    Operator,
    Tolerance,
    bch_conjugate,
    commutator,
    herm_sqrt_inv,
    is_hermitian,
    max_norm,
    nested_commutator,
)
from .spectral import (
    BiorthonormalSystem,
    MetricOperator,
    biorthonormal_eigensystem,
    c_operator,
    equivalent_hermitian,
    metric_factorization,
    metric_intertwiner,
    pseudo_hermiticity_residual,
    spectral_metric,
    symmetry_rescaled_metric,
)
from .perturbation import (
    QSeries,
    SplitHamiltonian,
    curve_slope,
    master_formula_coefficients,
    master_formula_rhs,
    metric_from_series,
    order_equation_rhs,
    order_residual,
    random_admissible_split,
    residual_curve,
    solve_q_series,
    sylvester_solve,
)
from .wavekernel import (
    HomogeneousPair,
    KernelFunction,
    PiecewisePotential,
    discretize_schroedinger,
    general_kernel,
    grid_points,
    hermiticity_defect,
    jump_condition_defect,
    kernel_rows,
    kernel_to_matrix,
    offdiagonal_commutator_check,
    particular_kernel_q1,
    step_potential,
)
from .config import (
    MatrixModel,
    ModelSpec,
    SchroedingerModel,
    SplitMatrixModel,
    load_spec,
)
from .pipeline import run_model_spec
from .report import canonical_json, emit

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "BiorthonormalSystem",
    "ConsistencyError",
    "DiagonalizabilityError",
    "DomainError",
    "GaugeError",
    "HomogeneousPair",
    "InvertibilityError",
    "KernelFunction",
    "MatrixModel",
    "MetricOperator",
    "ModelSpec",
    "NonFiniteError",
    "ObstructionError",
    "Operator",
    "PiecewisePotential",
    "PositivityError",
    "PseudohermError",
    "QSeries",
    "RealityError",
    "ResidualError",
    "SchroedingerModel",
    "ShapeError",
    "SpecError",
    "SplitHamiltonian",
    "SplitMatrixModel",
    "StructureError",
    "Tolerance",
    "bch_conjugate",
    "biorthonormal_eigensystem",
    "c_operator",
    "canonical_json",
    "commutator",
    "curve_slope",
    "discretize_schroedinger",
    "emit",
    "equivalent_hermitian",
    "general_kernel",
    "grid_points",
    "herm_sqrt_inv",
    "hermiticity_defect",
    "is_hermitian",
    "jump_condition_defect",
    "kernel_rows",
    "kernel_to_matrix",
    "load_spec",
    "master_formula_coefficients",
    "master_formula_rhs",
    "max_norm",
    "metric_factorization",
    "metric_from_series",
    "metric_intertwiner",
    "nested_commutator",
    "offdiagonal_commutator_check",
    "order_equation_rhs",
    "order_residual",
    "particular_kernel_q1",
    "pseudo_hermiticity_residual",
    "random_admissible_split",
    "residual_curve",
    "run_model_spec",
    "solve_q_series",
    "spectral_metric",
    "step_potential",
    "sylvester_solve",
    "symmetry_rescaled_metric",
]
