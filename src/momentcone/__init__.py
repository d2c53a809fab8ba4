"""momentcone: weighted sequence norms, moment-matrix PSD certification,
sum-of-squares approximation on boxes, and atomic measure recovery."""

__version__ = "0.1.0"

from .polyring import (
    MultiIndex,
    Polynomial,
    axis_scale,
    homogeneous_part,
    iter_simplex,
    poly_add,
    poly_eval,
    poly_from_dict,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_to_dict,
    series_sqrt,
    simplex_size,
)
from .norms import (
    DualSpec,
    WeightSpec,
    as_exponent,
    conjugate_exponent,
    dual_weight,
    eval_sequence_norm,
    eval_sequence_norm_partial,
    holder_product_norm,
    is_evaluation_continuous,
    scaling_isometry,
    weighted_norm,
)
from .moments import (
    MomentMatrix,
    MomentSequence,
    QuadraticModuleReport,
    apply_functional,
    check_quadratic_module,
    dual_norm_of_moments,
    dual_norm_profile,
    increments_growing,
    is_psd_functional,
    localized_moment_matrix,
    min_eigenvalue,
    moment_matrix,
    moments_from_dict,
    moments_to_dict,
)
from .approx import (
    BoxApproxResult,
    SosCertificate,
    box_sos_approx,
    coefficientwise_report,
    convergence_sweep,
    screen_box_nonnegativity,
    sos_certify,
    sqrt_square_approx,
    square_perturbation,
)
from .measures import (
    AtomicMeasure,
    BoxSpec,
    RecoveryResult,
    VerificationReport,
    box_from_weight,
    measure_from_dict,
    measure_to_dict,
    moments_of_measure,
    recover_measure,
    verify_representation,
)
