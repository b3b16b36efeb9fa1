"""Inversion runs against closed-form stage oracles, and the stepwise tester.

The two fully hand-computed 4-dimensional runs (one displaced target, one
displaced bystander) pin down the whole tag/rotate/reflect/unrotate pipeline.
"""

import numpy as np
import pytest

from qperminv import (
    EXACT_THRESHOLD,
    PSEUDO_THRESHOLD,
    build_permutation,
    build_pseudo_identity,
    run_batch,
    run_stepwise_test,
)
from qperminv.harness import run_reports_to_csv
from qperminv.invert import (
    expected_state_after_reflect,
    expected_state_after_tag,
    initial_state,
    run_av_inv,
)
from qperminv.ops import (
    PseudoIdentity,
    _implied_cosines,
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
)
from qperminv.perm import prefix_members
from qperminv.qstate import make_signed_uniform

FAMILY_CASES = [
    ("identity", {}),
    ("bit-reversal", {}),
    ("xor-mask", {"mask": 9}),
    ("affine-gf2", {"seed": 3}),
    ("random", {"seed": 7}),
]


def test_initial_state_values():
    state = initial_state(2, 0)
    assert state.amps.tolist() == [0.5, 0.5, 0.5, 0.5]
    state = initial_state(2, 1)
    grid = state.grid()
    assert np.all(grid[:, 0] == 0.5) and np.all(grid[:, 1] == 0.0)
    for n in (2, 8, 12):
        assert abs(initial_state(n, 1).norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="even"):
        initial_state(3)


def test_stage_oracles_match_signed_uniform_states():
    perm = build_permutation("random", 6, seed=10)
    for x in (0, 23, 63):
        for j in range(3):
            tag_oracle = expected_state_after_tag(perm, x, j, k=1)
            signed = make_signed_uniform(
                prefix_members(perm, x, 2 * j), prefix_members(perm, x, 2 * j + 2), k=1, n=6
            )
            assert tag_oracle.distance_to(signed) == 0.0
            assert tag_oracle.norm() == 1.0
            ref_oracle = expected_state_after_reflect(perm, x, j, k=1)
            uniform = make_signed_uniform(prefix_members(perm, x, 2 * j + 2), k=1, n=6)
            assert ref_oracle.distance_to(uniform) == 0.0


def test_stage_oracle_examples():
    perm = build_permutation("identity", 2)
    assert expected_state_after_tag(perm, 3, 0).amps.tolist() == [0.5, 0.5, 0.5, -0.5]
    assert expected_state_after_reflect(perm, 3, 0).amps.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_final_stage_oracle_is_the_preimage():
    perm = build_permutation("random", 6, seed=1)
    for x in (3, 44):
        oracle = expected_state_after_reflect(perm, x, 2, k=0)
        assert oracle.amps[perm.inverse_table[x]] == 1.0


def _dense_final_state(perm, x, k, jop=None):
    """The dense operator loop: tag, then the exact or pseudo-reflection."""
    state = initial_state(perm.n, k)
    for j in range(perm.n // 2):
        apply_tagging(state, perm, x, j)
        if jop is None:
            apply_reflection_exact(state, perm, x, j)
        else:
            apply_pseudo_reflection(state, perm, x, j, jop)
    return state


def _exact_runs(perm, xs, trace=False):
    return run_batch(perm, None, xs, trace, EXACT_THRESHOLD)


def test_run_inv_identity_n2():
    perm = build_permutation("identity", 2)
    runs = _exact_runs(perm, [3], trace=True)
    assert runs.success_prob.tolist() == [1.0]
    assert runs.v2_norm.tolist() == [0.0]
    assert _dense_final_state(perm, 3, 0).amps.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert runs.first_failing_stage.tolist() == [-1]


@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_run_inv_exhaustive_n6(family, kwargs):
    # the distance after stage j's reflection is sqrt(2 d_j), and after its
    # tag the one after the previous reflection (0 first)
    perm = build_permutation(family, 6, **kwargs)
    runs = _exact_runs(perm, range(64), trace=True)
    assert runs.x.tolist() == list(range(64))
    assert runs.success_prob.min() >= 1.0 - 1e-9
    after_reflect = np.sqrt(2.0 * runs.deficits)
    after_tag = np.pad(after_reflect[:, :-1], ((0, 0), (1, 0)))
    assert after_tag.max() <= 1e-9
    assert after_reflect.max() <= 1e-9


def test_run_inv_random_n8_all_targets():
    perm = build_permutation("random", 8, seed=7)
    assert _exact_runs(perm, range(256)).success_prob.min() >= 1.0 - 1e-9


def test_run_inv_spot_check_n12():
    perm = build_permutation("random", 12, seed=2)
    assert _exact_runs(perm, (0, 1111, 2500, 4095)).success_prob.min() >= 1.0 - 1e-9


def test_amplitude_law_between_stages():
    # entering stage j the state is uniform over the stage set at 2^j / 2^(n/2)
    perm = build_permutation("random", 8, seed=4)
    x = 201
    state = initial_state(8, 0)
    for j in range(4):
        members = prefix_members(perm, x, 2 * j)
        expected = 2.0**j / 2.0**4
        assert np.allclose(state.amps[members], expected, atol=1e-12)
        others = np.setdiff1d(np.arange(256), members)
        assert np.allclose(state.amps[others], 0.0, atol=1e-12)
        apply_tagging(state, perm, x, j)
        apply_reflection_exact(state, perm, x, j)


def test_run_av_inv_trivial_operator_matches_exact():
    perm = build_permutation("random", 6, seed=9)
    jop = build_pseudo_identity(6, 1, a=0.0, b=0.0)
    exact = _exact_runs(perm, (0, 17, 63))
    for x, success in zip(exact.x.tolist(), exact.success_prob.tolist()):
        approx = run_av_inv(perm, x, jop)
        assert approx.v2_norm <= 1e-9
        assert approx.success_prob == pytest.approx(success, abs=1e-12)


def test_run_av_inv_hand_computed_displaced_target():
    # single stage, target state 3 fully rotated into the ancilla before the
    # reflection: final amplitudes (1/4, 1/4, 1/4, 1/4 | -1/4, -1/4, -1/4, -3/4)
    perm = build_permutation("identity", 2)
    jop = PseudoIdentity(2, 1, 0.0, 0.25, [3], _implied_cosines(2, 0.0, [3]))
    report = run_av_inv(perm, 3, jop)
    assert report.success_prob == 0.0625
    grid = _dense_final_state(perm, 3, 1, jop).grid()
    assert grid[:, 0].tolist() == [0.25, 0.25, 0.25, 0.25]
    assert grid[:, 1].tolist() == [-0.25, -0.25, -0.25, -0.75]


def test_run_av_inv_hand_computed_displaced_bystander():
    # single stage, bystander 0 displaced: final (-1/4, -1/4, -1/4, 3/4 | -1/4, 1/4, 1/4, 1/4)
    perm = build_permutation("identity", 2)
    jop = PseudoIdentity(2, 1, 0.0, 0.25, [0], _implied_cosines(2, 0.0, [0]))
    report = run_av_inv(perm, 3, jop)
    assert report.success_prob == 0.5625
    grid = _dense_final_state(perm, 3, 1, jop).grid()
    assert grid[:, 0].tolist() == [-0.25, -0.25, -0.25, 0.75]
    assert grid[:, 1].tolist() == [-0.25, 0.25, 0.25, 0.25]


def test_run_av_inv_displaced_target_degrades_n6():
    perm = build_permutation("random", 6, seed=3)
    x = 19
    y = int(perm.inverse_table[x])
    jop = PseudoIdentity(6, 1, 0.0, 1 / 64, [y], _implied_cosines(6, 0.0, [y]))
    assert run_av_inv(perm, x, jop).success_prob < 1.0 - 1e-3


def test_run_av_inv_empty_bad_set_is_exact_despite_budget():
    # a positive bad-fraction budget with no actual bad state leaves every
    # stage subspace untouched
    perm = build_permutation("random", 6, seed=5)
    jop = PseudoIdentity(6, 1, 0.0, 0.25, [], _implied_cosines(6, 0.0, []))
    for x in (0, 21, 63):
        assert run_av_inv(perm, x, jop).v2_norm <= 1e-9


def test_residual_is_summed_off_the_target():
    # one rotation for every y makes the error-tolerant run exact; the deficit
    # 1 - amp is a sum of spreads that vanish here, so success reads exactly 1
    # and the residual stays at rounding level, where sqrt(1 - success) of a
    # success rounded just below 1 would read about 1.5e-8
    perm = build_permutation("random", 8, seed=1)
    for cosine in (0.27, 0.73, 0.94):
        jop = PseudoIdentity(8, 1, 1.0, 0.0, [], np.full(256, cosine))
        runs = run_batch(perm, jop, range(256), False, PSEUDO_THRESHOLD)
        assert np.all(runs.success_prob == 1.0)
        assert runs.v2_norm.max() <= 1e-12
        assert np.abs(runs.success_prob + runs.v2_norm**2 - 1.0).max() <= 1e-12


def test_trace_distances_vanish_on_one_rotation_operators():
    # the same exact runs: every oracle distance is 0, and sqrt(2 (1 - amp))
    # from the summed deficit keeps it at rounding level, where sqrt(2 - 2 amp)
    # of an amp rounded just below 1 would read about 3e-8
    perm = build_permutation("random", 8, seed=1)
    for cosine in (0.27, 0.73, 0.94):
        jop = PseudoIdentity(8, 1, 1.0, 0.0, [], np.full(256, cosine))
        # the tag distances are 0 and the reflection distances of earlier stages
        runs = run_batch(perm, jop, range(256), True, PSEUDO_THRESHOLD)
        assert np.sqrt(2.0 * runs.deficits).max() <= 1e-12


def test_run_report_metadata():
    # the permutation and operator columns come from the writer's inputs,
    # and stay empty for an exact run
    perm = build_permutation("random", 4, seed=6)
    jop = build_pseudo_identity(4, 1, a=0.0, b=0.25, seed=8)
    runs = run_batch(perm, jop, [2], False, PSEUDO_THRESHOLD)
    row = run_reports_to_csv(perm, jop, runs).splitlines()[1]
    assert row.split(",")[:8] == ["4", "random", "6", "0", "0.25", "4", "8", "2"]
    exact = run_reports_to_csv(perm, None, _exact_runs(perm, [2])).splitlines()[1]
    assert exact.split(",")[:8] == ["4", "random", "6", "", "", "", "", "2"]


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("family,kwargs", FAMILY_CASES)
def test_run_csv_rows_match_single_x_runs(family, kwargs, trace):
    # the columns of one batch over every x format to the rows of one-x
    # batches, and each row's values are those of `run_av_inv` for its x (the
    # trivial operator's vectors are the exact run's, all 1)
    perm = build_permutation(family, 6, **kwargs)
    jop = build_pseudo_identity(6, 1, a=1e-3, b=3 / 64, bad_mode="random-angle",
                                angle_mode="random", seed=4)
    for op, threshold in ((None, EXACT_THRESHOLD), (jop, PSEUDO_THRESHOLD)):
        def csv_rows(xs):
            return run_reports_to_csv(perm, op, run_batch(perm, op, xs, trace,
                                                          threshold)).splitlines()

        header, *rows = csv_rows(range(64))
        assert len(rows) == 64
        for x, row in enumerate(rows):
            assert csv_rows([x]) == [header, row]
            report = run_av_inv(perm, x, op or build_pseudo_identity(6, 1), trace, threshold)
            failing = report.first_failing_stage
            assert row.split(",")[7:] == [str(x), f"{report.success_prob:.17g}",
                                          f"{report.v2_norm:.17g}",
                                          "" if failing is None else str(failing)]
        if op is not None and trace:
            assert any(row.split(",")[-1] for row in rows)


def test_stepwise_exact_provider_passes():
    perm = build_permutation("random", 8, seed=7)
    report = run_stepwise_test(perm, range(256))
    assert report.all_pass
    assert report.first_failing_stage is None
    assert min(report.stage_min_fidelity) >= 1.0 - 1e-9


@pytest.mark.parametrize("corrupt", [0, 1, 2, 3])
def test_stepwise_corrupted_provider_fails_at_its_stage(corrupt):
    perm = build_permutation("random", 8, seed=7)
    report = run_stepwise_test(perm, range(0, 256, 5), corrupt_stage=corrupt)
    assert report.first_failing_stage == corrupt
    for x in range(0, 256, 5):
        assert run_stepwise_test(perm, [x], corrupt_stage=corrupt).first_failing_stage == corrupt
    # the wrong-prefix reflection lands at fidelity exactly 1/4
    assert report.stage_min_fidelity[corrupt] == pytest.approx(0.25, abs=1e-12)


def test_stepwise_trivial_pseudo_provider_indistinguishable_from_exact():
    perm = build_permutation("random", 6, seed=2)
    report = run_stepwise_test(perm, range(64), build_pseudo_identity(6, 1, a=0.0, b=0.0))
    assert report.all_pass


def test_stepwise_threshold_is_configurable():
    perm = build_permutation("random", 6, seed=2)
    jop = build_pseudo_identity(6, 1, a=0.0, b=2 / 64, seed=3)
    strict = run_stepwise_test(perm, range(64), jop)
    assert not strict.all_pass
    # a displaced target floors the late-stage fidelity near 1/16, so a
    # threshold below that accepts the same provider
    loose = run_stepwise_test(perm, range(64), jop, threshold=0.01)
    assert loose.all_pass


def test_stepwise_rejects_out_of_range_x():
    perm = build_permutation("identity", 2)
    with pytest.raises(ValueError, match="range"):
        run_stepwise_test(perm, [4])
