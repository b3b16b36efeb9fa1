"""The closed-form runs and stepwise test against a dense reference stage loop.

The reference is written here from the dense StateVector operators and the
closed-form stage oracles: tag, reflection (exact, conjugated or corrupted),
and a comparison with `expected_state_after_*` after each half-stage. Every
value the closed forms report must agree with it to 1e-12.
"""

import numpy as np
import pytest

from qperminv import (
    EXACT_THRESHOLD,
    build_permutation,
    build_pseudo_identity,
    run_av_inv,
    run_batch,
    run_inv,
    run_stepwise_test,
)
from qperminv.invert import expected_state_after_reflect, expected_state_after_tag, initial_state
from qperminv.ops import (
    apply_pseudo_reflection,
    apply_reflection_exact,
    apply_tagging,
    reflect_about_uniform,
)
from qperminv.perm import prefix_members

TOL = 1e-12
FAMILIES = ("random", "identity", "bit-reversal", "affine-gf2")
MODE_PAIRS = [(bad, angle) for bad in ("full-rotation", "random-angle")
              for angle in ("worst-case", "random")]


def _operator(n, k, bad_mode, angle_mode, seed):
    return build_pseudo_identity(n, k, a=1e-3, b=min(1.0, 3 / (1 << n)), bad_mode=bad_mode,
                                 angle_mode=angle_mode, seed=seed)


def _xs(n):
    # every x up to n = 4; above, a spread of 16 including both ends
    return range(1 << n) if n <= 4 else sorted({*range(0, 1 << n, (1 << n) // 15), (1 << n) - 1})


def _reflect(state, perm, x, j, jop=None, corrupt=None):
    if j == corrupt:
        reflect_about_uniform(state, prefix_members(perm, x, 2 * j + 2))
    elif jop is None:
        apply_reflection_exact(state, perm, x, j)
    else:
        apply_pseudo_reflection(state, perm, x, j, jop)


def _dense_run(perm, x, k, jop=None):
    """Success, residual and trace rows of the dense stage loop."""
    state = initial_state(perm.n, k)
    rows = ([], [], [])
    for j in range(perm.n // 2):
        apply_tagging(state, perm, x, j)
        rows[0].append(state.distance_to(expected_state_after_tag(perm, x, j, k)))
        _reflect(state, perm, x, j, jop)
        oracle = expected_state_after_reflect(perm, x, j, k)
        rows[1].append(state.distance_to(oracle))
        rows[2].append(abs(oracle.inner(state)) ** 2)
    target = state.index_of(perm.inverse(x), 0)
    off_target = state.amps.copy()
    off_target[target] = 0.0
    return abs(state.amps[target]) ** 2, np.linalg.norm(off_target), rows


def _dense_stage_fidelity(perm, x, j, k, jop=None, corrupt=None):
    """Fidelity of one stage started from its ideal input state."""
    state = initial_state(perm.n, k) if j == 0 else expected_state_after_reflect(perm, x, j - 1, k)
    apply_tagging(state, perm, x, j)
    _reflect(state, perm, x, j, jop, corrupt)
    return abs(expected_state_after_reflect(perm, x, j, k).inner(state)) ** 2


def _assert_run_matches(report, dense):
    success, v2, rows = dense
    assert abs(report.success_prob - success) <= TOL
    assert abs(report.v2_norm - v2) <= TOL
    trace = report.trace
    for got, want in zip((trace.dist_after_tag, trace.dist_after_reflect, trace.stage_fidelity),
                         rows):
        assert len(got) == len(want)
        assert np.abs(np.subtract(got, want)).max() <= TOL


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_runs_match_dense_reference(n, family):
    perm = build_permutation(family, n, seed=n + 3)
    for x in _xs(n):
        for k in (0, 1, 2):
            report = run_inv(perm, x, k=k, trace=True)
            _assert_run_matches(report, _dense_run(perm, x, k))
        for bad_mode, angle_mode in MODE_PAIRS:
            for k in (1, 2):
                jop = _operator(n, k, bad_mode, angle_mode, seed=7 * n + k)
                report = run_av_inv(perm, x, jop, trace=True)
                _assert_run_matches(report, _dense_run(perm, x, k, jop))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_batch_matches_dense_reference(n, family):
    # one call over every x at once, so each x reads its own prefix classes
    perm = build_permutation(family, n, seed=n + 3)
    xs = list(_xs(n))
    for bad_mode, angle_mode in MODE_PAIRS:
        jop = _operator(n, 1, bad_mode, angle_mode, seed=7 * n + 1)
        reports = run_batch(perm, jop, xs[::-1], 1, True, 0.99)
        assert [r.x for r in reports] == xs
        for x, report in zip(xs, reports):
            _assert_run_matches(report, _dense_run(perm, x, 1, jop))


def _assert_stepwise_matches(perm, fidelity, jop=None, corrupt_stage=None):
    for x in _xs(perm.n):
        report = run_stepwise_test(perm, [x], jop, corrupt_stage, EXACT_THRESHOLD)
        want = [fidelity(x, j) for j in range(perm.n // 2)]
        assert np.abs(np.subtract(report.stage_min_fidelity, want)).max() <= TOL
        failing = [j for j, f in enumerate(want) if f < EXACT_THRESHOLD]
        assert report.per_x_first_failing == ((failing[0] if failing else None),)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_stepwise_matches_dense_reference(n, family):
    perm = build_permutation(family, n, seed=n + 3)
    _assert_stepwise_matches(perm, lambda x, j: _dense_stage_fidelity(perm, x, j, 0))
    for corrupt in range(n // 2):
        _assert_stepwise_matches(perm,
                                 lambda x, j: _dense_stage_fidelity(perm, x, j, 0, corrupt=corrupt),
                                 corrupt_stage=corrupt)
    for bad_mode, angle_mode in MODE_PAIRS:
        for k in (1, 2):
            jop = _operator(n, k, bad_mode, angle_mode, seed=7 * n + k)
            _assert_stepwise_matches(perm, lambda x, j: _dense_stage_fidelity(perm, x, j, k, jop),
                                     jop=jop)
