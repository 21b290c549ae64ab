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

Submodules load on first use: `import cyclicity` loads none of them (nor
numpy), and each name in `__all__`, or a submodule name such as
`cyclicity.capacity`, imports its module when it is first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, read from it on first access
_EXPORTS = {
    "capacity": "BoundaryCloud DimensionEstimate EquilibriumResult ObstructionReport "
                "arc_cloud box_dimension circle_cloud interior_zero_probe "
                "neighborhood_capacity obstruction_report riesz_equilibrium sample_zero_set "
                "sphere_cap_cloud",
    "errors": "ArgumentError ConditioningError CyclicityError DegenerateInputError "
              "DegreeRangeError DimensionMismatchError NumericFailureError "
              "SingularInversionError",
    "freespace": "CompressionReport FreePolynomial FreeSpaceSpec abelianize compression_check "
                 "evaluate_on_tuple free_besov free_hardy free_subspace_distance "
                 "row_contraction_inversion_report sample_row_contraction tuple_from_json "
                 "tuple_to_json words",
    "indices": "ApproximantResult PerturbationReport SweepReport WeightStabilityReport "
               "check_perturbation_bound check_weight_stability index_sweep "
               "inverse_truncation_multiplier_norms multiplier_norm_lower perturb_weights "
               "power_membership_residual realized_weight_deviation subspace_distance",
    "mixednorm": "MixedIndexResult MixedSpec VarExpSpec luxemburg_norm mixed_index mixed_norm "
                 "modular",
    "poly": "Polynomial invert_power_series mult_operator_section multi_indices",
    "spaces": "MomentSequence SpaceSpec bergman dirichlet_type drury_arveson hardy preset "
              "sphere_moment",
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "solver"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
