"""The package's public names: the checker, without the dense test reference
or the result-record classes, which stay in their modules."""

import types

import qperminv

PUBLIC = {
    "FAMILIES", "Permutation", "build_permutation", "load_permutation",
    "permutation_from_text", "permutation_to_text",
    "PseudoIdentity", "build_pseudo_identity", "parse_pseudo_identity",
    "serialize_pseudo_identity",
    "EXACT_THRESHOLD", "PSEUDO_THRESHOLD", "run_av_inv", "run_inv", "run_stepwise_test",
    "check_error_length_bound", "check_residual_bound", "compute_params",
    "contradiction_check", "error_length", "expected_error_sweep",
    "inversion_residual_stats", "sample_xs",
    "derive_seed", "run_batch",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(qperminv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
