"""Numerical toolkit for cyclicity indices in diagonal function spaces.

Submodules:

* `spaces`: radially weighted Besov and Drury-Arveson spaces in diagonal
  (monomial-orthogonal) form.
* `poly`: the sparse series algebra and truncated series inversion shared
  by commutative and free polynomials, and multiplication-operator sections.
* `indices`: finite-degree cyclicity indices, degree sweeps, perturbation
  and weight-stability harnesses.
* `freespace`: word-indexed free function spaces, free indices,
  abelianization, and row-contraction sampling.
* `capacity`: boundary zero-set sampling, equilibrium measures,
  box-counting dimension, obstruction reports.
* `mixednorm`: mixed-norm and variable-exponent norms by quadrature with
  an IRLS index solver.
* `cli`: the `cyclicity` batch experiment command.
"""

from .capacity import (
    BoundaryCloud,
    DimensionEstimate,
    EquilibriumResult,
    ObstructionReport,
    arc_cloud,
    box_dimension,
    circle_cloud,
    interior_zero_probe,
    neighborhood_capacity,
    obstruction_report,
    riesz_equilibrium,
    sample_zero_set,
    sphere_cap_cloud,
)
from .errors import (
    ArgumentError,
    ConditioningError,
    CyclicityError,
    DegenerateInputError,
    DegreeRangeError,
    DimensionMismatchError,
    NumericFailureError,
    SingularInversionError,
)
from .freespace import (
    CompressionReport,
    FreePolynomial,
    FreeSpaceSpec,
    abelianize,
    compression_check,
    evaluate_on_tuple,
    free_besov,
    free_hardy,
    free_subspace_distance,
    row_contraction_inversion_report,
    sample_row_contraction,
    tuple_from_json,
    tuple_to_json,
    words,
)
from .indices import (
    ApproximantResult,
    PerturbationReport,
    SweepReport,
    WeightStabilityReport,
    check_perturbation_bound,
    check_weight_stability,
    index_sweep,
    inverse_truncation_multiplier_norms,
    multiplier_norm_lower,
    perturb_weights,
    power_membership_residual,
    realized_weight_deviation,
    subspace_distance,
)
from .mixednorm import (
    MixedIndexResult,
    MixedSpec,
    VarExpSpec,
    luxemburg_norm,
    mixed_index,
    mixed_norm,
    modular,
)
from .poly import (
    Polynomial,
    invert_power_series,
    mult_operator_section,
    multi_indices,
)
from .spaces import (
    MomentSequence,
    SpaceSpec,
    bergman,
    dirichlet_type,
    drury_arveson,
    hardy,
    preset,
    sphere_moment,
)

__version__ = "0.1.0"
