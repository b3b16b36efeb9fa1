"""The package's public names: the checker, without the dense test reference
or the result-record classes, which stay in their modules; and the one rule
by which every public entry reads a listing of main values."""

import dataclasses
import inspect
import re
import types

import numpy as np
import pytest

import qperminv
from qperminv.analysis import ResidualSweep
from qperminv.invert import stage_deficits

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


# Every entry that takes a listing of main values reads it by one rule,
# `perm._check_listing`: 1-D integers, each in [0, 2^n), none listed twice.
# Each entry: (the listing its refusals name, a valid listing, the call).
PERM = qperminv.build_permutation("random", 4, seed=1)
JOP = qperminv.build_pseudo_identity(4, 1, a=1e-3, b=2 / 16, angle_mode="random", seed=3)
S, T = range(4, 8), range(4, 6)  # a support and a flipped set inside it
LISTING_ENTRIES = {
    "Permutation": ("table", range(4), lambda v: qperminv.Permutation(2, v).table),
    "PseudoIdentity-bad-set": ("bad set", range(2), lambda v: qperminv.PseudoIdentity(
        4, 1, 0.0, 2 / 16, v, np.full(16, 1.0)).bad_set),
    "count_bad": ("members", range(8), JOP.count_bad),
    "run_batch": ("xs", range(3, 7), lambda v: qperminv.run_batch(PERM, JOP, v, True, 0.99)),
    "stage_deficits": ("xs", range(3, 7), lambda v: stage_deficits(PERM, v, JOP, [0, 1])),
    "run_stepwise_test": ("xs", range(3, 7),
                          lambda v: qperminv.run_stepwise_test(PERM, v, JOP, threshold=0.99)),
    "expected_error_sweep": ("xs", range(3, 7),
                             lambda v: qperminv.expected_error_sweep(PERM, JOP, 1, xs=v)),
    "inversion_residual_stats": ("xs", range(3, 7),
                                 lambda v: qperminv.inversion_residual_stats(PERM, JOP, 2.0, xs=v)),
    # S and T are both read by `qstate.support_members`, which names a support
    **{f"{check.__name__}-{which}": ("support", valid, call)
       for check in (qperminv.error_length, qperminv.check_error_length_bound,
                     qperminv.check_residual_bound)
       for which, valid, call in (("S", S, lambda v, c=check: c(JOP, v, T)),
                                  ("T", T, lambda v, c=check: c(JOP, S, v)))},
}


@pytest.mark.parametrize("kind", ["float", "bool", "nested"])
@pytest.mark.parametrize("entry", LISTING_ENTRIES)
def test_every_entry_refuses_a_listing_of_non_integers(entry, kind):
    listing, valid, call = LISTING_ENTRIES[entry]
    values = {"float": [v + 0.5 for v in valid], "bool": [v % 2 == 1 for v in valid],
              "nested": [list(valid)]}[kind]
    shown = np.asarray(values)
    message = f"{listing} must be a 1-D list of integers, got {shown.dtype} {shown.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(values)


@pytest.mark.parametrize("value", [2**63 + 3, 2**64 - 1])
@pytest.mark.parametrize("entry", LISTING_ENTRIES)
def test_every_entry_names_a_uint64_member_past_int64_by_its_value(entry, value):
    _, valid, call = LISTING_ENTRIES[entry]
    # a flipped set is refused as not inside the support before its range is read
    message = ("flipped set must be a subset of the support" if entry.endswith("-T")
               else f"main value {value} out of range for [0-9]+ bits")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(np.array([*valid, value], dtype=np.uint64))


def _plain(result):
    """A result as nested lists and scalars, compared with ==."""
    if dataclasses.is_dataclass(result):
        return [_plain(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, (np.ndarray, tuple)):
        return [_plain(v) for v in result]
    return result


FORMS = {"tuple": tuple, "range": lambda r: r, "int32": lambda r: np.array(r, dtype=np.int32),
         "set": set}


@pytest.mark.parametrize("entry, form", [
    (entry, form) for entry, (listing, _, _) in LISTING_ENTRIES.items()
    for form in FORMS if form != "set" or listing == "support"])
def test_every_entry_reads_integer_listings_alike(entry, form):
    _, valid, call = LISTING_ENTRIES[entry]
    assert _plain(call(FORMS[form](valid))) == _plain(call(list(valid)))
