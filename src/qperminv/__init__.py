"""Closed-form checker for staged inversion of bit-string permutations and
the quantitative bounds on its error-tolerant version.

Every run, trace, sweep and bound check is read from closed forms. The dense
state-vector simulator in `qperminv.qstate`, `qperminv.ops` and the stage
oracles in `qperminv.invert` is the reference the tests compare them with,
and is imported from those modules.
"""

__version__ = "0.1.0"

from .perm import (
    FAMILIES,
    Permutation,
    build_permutation,
    load_permutation,
    permutation_from_text,
    permutation_to_text,
)
from .ops import (
    PseudoIdentity,
    build_pseudo_identity,
    parse_pseudo_identity,
    serialize_pseudo_identity,
)
from .invert import (
    EXACT_THRESHOLD,
    PSEUDO_THRESHOLD,
    run_av_inv,
    run_inv,
    run_stepwise_test,
)
from .analysis import (
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
