"""Numerical toolkit for conformal and Killing vector fields on model Finsler manifolds."""

from .norm_core import (
    AxiomReport,
    EuclideanNorm,
    GenericNorm,
    MinkowskiNorm,
    RandersNorm,
    check_axioms,
    norm_from_dict,
    reversibility_sup,
    scale_norm,
)
from .averaging import (
    AveragedNorm,
    IndicatrixQuadrature,
    average,
    averaged_norm,
    sample_indicatrix,
    verify_equivariance,
)
from .manifold import (
    CircleNormField,
    ConformalRescaleField,
    ConstantNormField,
    FlatTorus,
    MobiusMap,
    PointwiseAveragedField,
    PullbackField,
    RoundSphereField,
    Sphere2,
    TorusTranslation,
    circle_lambda_profile,
    lie_derivative,
    stack_points,
)
from .conformal_solver import (
    FieldBasis,
    SolveReport,
    SolverConfig,
    assemble_system,
    build_collocation,
    extract_structure_constants,
    field_from_spec,
    null_space,
    solve_fields,
    sphere_basis,
    torus_basis,
    transitivity_check,
)
from .lie_algebra import (
    LieAlgebraSC,
    ad_matrix,
    ad_nilpotent,
    ad_semisimple,
    cartan_solvability,
    compact_decomposition_check,
    derived_series,
    is_solvable,
    killing_form,
    killing_gram,
    killing_radical,
    killing_signature,
)
from .experiments import EXPERIMENTS, ExperimentConfig, csv_summary, emit_report, run_experiment

__version__ = "0.1.0"
