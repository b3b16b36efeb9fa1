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
)
from .qstate import StateVector, make_signed_uniform
from .ops import (
    PseudoIdentity,
    apply_pseudo_identity,
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
    build_pseudo_identity,
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
    sample_xs,
)
from .harness import derive_seed, run_batch
