"""The package's public names: the checker, without the dense test reference
or the result-record classes, which stay in their modules."""

import dataclasses
import inspect
import types

import qperminv
from qperminv.analysis import ResidualSweep

PUBLIC = {
    "FAMILIES", "Permutation", "build_permutation", "load_permutation",
    "permutation_from_text", "permutation_to_text",
    "PseudoIdentity", "build_pseudo_identity", "parse_pseudo_identity",
    "serialize_pseudo_identity",
    "EXACT_THRESHOLD", "PSEUDO_THRESHOLD", "run_stepwise_test",
    "check_error_length_bound", "check_residual_bound", "compute_params",
    "contradiction_check", "error_length", "expected_error_sweep",
    "inversion_residual_stats", "sample_xs",
    "derive_seed", "run_batch",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(qperminv).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_public_surface_is_pinned_beyond_names():
    # the package code serves the commands; a parameter, attribute or method
    # that only tests would reach shows here
    assert list(inspect.signature(qperminv.build_permutation).parameters) == [
        "family", "n", "seed", "mask"]
    assert qperminv.FAMILIES == ("identity", "bit-reversal", "xor-mask", "affine-gf2", "random")
    assert {name for name in dir(qperminv.Permutation) if not name.startswith("_")} == {
        "n", "table", "inverse_table", "family", "seed", "size"}
    assert [f.name for f in dataclasses.fields(ResidualSweep)] == [
        "mean_success", "mean_v2", "max_v2", "residual_bound", "residual_bound_applicable",
        "residual_bound_ok", "markov_count", "markov_limit", "markov_ok"]
    assert not [name for name in dir(ResidualSweep) if not name.startswith("_")]
    assert ResidualSweep.__dataclass_params__.frozen
