"""Statevector machinery for staged inversion of bit-string permutations,
with quantitative verification of its error-tolerance bounds."""

__version__ = "0.1.0"

from .perm import (
    FAMILIES,
    Permutation,
    build_permutation,
    load_permutation,
    permutation_from_text,
    permutation_to_text,
    prefix_membership_stats,
)
from .qstate import (
    SCALAR_TOL,
    STATE_TOL,
    StateVector,
    VectorAlgebra,
    basis_overlap,
    dump_state,
    make_signed_uniform,
    vector_algebra,
)
from .ops import (
    PseudoIdentity,
    apply_pseudo_identity,
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
    build_pseudo_identity,
    measure_identity_defect,
    measure_reflection_defect,
    parse_pseudo_identity,
    reflect_about_uniform,
    serialize_pseudo_identity,
)
from .invert import (
    EXACT_THRESHOLD,
    PSEUDO_THRESHOLD,
    RunReport,
    StageTrace,
    StepwiseReport,
    expected_state_after_reflect,
    expected_state_after_tag,
    initial_state,
    run_av_inv,
    run_inv,
    run_stepwise_test,
)
from .analysis import (
    BoundReport,
    DefectProfile,
    Params,
    ResidualReport,
    SweepSummary,
    check_error_length_bound,
    check_residual_bound,
    compute_params,
    contradiction_check,
    error_length,
    expected_error_sweep,
    inversion_residual_stats,
    pseudo_reflection_profile,
    sample_pairs,
    sample_xs,
)
from .harness import derive_seed, run_batch
