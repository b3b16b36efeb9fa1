"""Closed-form sweep aggregates and bound checks against the dense simulator.

`stage_deficits`, `expected_error_sweep` and the bound checks never build a
state vector; here they are checked, x by x, against `run_av_inv`, and
instance by instance against dense signed uniform states moved by J.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qperminv import (
    PSEUDO_THRESHOLD,
    build_permutation,
    build_pseudo_identity,
    check_error_length_bound,
    check_residual_bound,
    error_length,
    expected_error_sweep,
    inversion_residual_stats,
    run_batch,
    sample_xs,
)
from qperminv.invert import run_av_inv, stage_deficits
from qperminv.ops import apply_pseudo_identity
from qperminv.perm import prefix_members
from qperminv.qstate import make_signed_uniform

FAMILIES = ("random", "identity", "bit-reversal", "affine-gf2")
MODE_PAIRS = [(bad, angle) for bad in ("full-rotation", "random-angle")
              for angle in ("worst-case", "random")]


def _operator(n, k, bad_mode, angle_mode, seed):
    return build_pseudo_identity(n, k, a=1e-3, b=min(1.0, 3 / (1 << n)), bad_mode=bad_mode,
                                 angle_mode=angle_mode, seed=seed)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_success_matches_dense_run_for_every_x(n, family):
    perm = build_permutation(family, n, seed=n + 3)
    xs = np.arange(1 << n)
    for bad_mode, angle_mode in MODE_PAIRS:
        for k in (1, 2):
            jop = _operator(n, k, bad_mode, angle_mode, seed=7 * n + k)
            runs = [run_av_inv(perm, int(x), jop).success_prob for x in xs]
            closed = (1.0 - stage_deficits(perm, xs, jop, range(n // 2))[:, -1]) ** 2
            assert np.abs(closed - runs).max() <= 1e-12, (bad_mode, angle_mode, k)


@pytest.mark.parametrize("a", [1e-10, 1e-12, 1e-14])
def test_sweep_residuals_match_run_residuals(a):
    # both read sqrt(d (2 - d)) from the final-stage deficit d = 1 - amp;
    # sqrt(1 - success) loses up to 1.4e-9 of it at a = 1e-14
    perm = build_permutation("random", 8, seed=5)
    for seed in range(3):
        jop = build_pseudo_identity(8, 1, a=a, b=0.0, angle_mode="random", seed=seed)
        summary = inversion_residual_stats(perm, jop, 2.0)
        columns = run_batch(perm, jop, np.arange(256), False, PSEUDO_THRESHOLD).v2_norm
        runs = [run_av_inv(perm, x, jop).v2_norm for x in range(256)]
        assert np.abs(columns - runs).max() <= 1e-15
        assert (summary.mean_v2, summary.max_v2) == (columns.mean(), columns.max())


def _dense_bound_values(jop, support, flipped):
    """||(J - I) psi||, <psi, J psi> and ||J psi - <psi, J psi> psi|| from states."""
    psi = make_signed_uniform(support, flipped, k=jop.k, n=jop.n)
    moved = apply_pseudo_identity(psi.copy(), jop).amps
    alpha = np.vdot(psi.amps, moved)
    return (np.linalg.norm(moved - psi.amps), alpha,
            np.linalg.norm(moved - alpha * psi.amps))


@pytest.mark.parametrize("a", [0.0, 1e-12, 1e-6, 1e-3])
def test_bound_checks_match_dense_states(a):
    # the check-lemmas instance mix: random S and T subset of S, both modes
    rng = np.random.default_rng(int(a * 1e12) + 17)
    for n in (2, 4, 6, 8):
        size = 1 << n
        for k in (1, 2):
            for bad_mode, angle_mode in MODE_PAIRS:
                for b in (0.0, 1 / 16, 1 / 4):
                    jop = build_pseudo_identity(n, k, a=a, b=b, bad_mode=bad_mode,
                                                angle_mode=angle_mode, seed=int(rng.integers(1000)))
                    s_size = int(rng.integers(1, size + 1))
                    support = rng.choice(size, size=s_size, replace=False)
                    flipped = rng.choice(support, size=int(rng.integers(0, s_size + 1)),
                                         replace=False)
                    length, alpha, perp = _dense_bound_values(jop, support, flipped)
                    res = check_residual_bound(jop, support, flipped)
                    assert abs(error_length(jop, support, flipped) - length) <= 1e-12
                    assert abs(check_error_length_bound(jop, support, flipped).measured
                               - length) <= 1e-12
                    assert abs(res.alpha - alpha) <= 1e-12
                    assert abs(res.perp_norm - perp) <= 1e-12
                    assert abs(res.error_len - length) <= 1e-12


def _dense_error_sweep(perm, jop, j, with_tagged, xs):
    lengths = []
    ratio_sum = Fraction(0)
    for x in xs:
        support = prefix_members(perm, int(x), 2 * j)
        flipped = prefix_members(perm, int(x), 2 * j + 2) if with_tagged else ()
        lengths.append(error_length(jop, support, flipped))
        ratio_sum += Fraction(jop.count_bad(support), support.size)
    return float(np.mean(lengths)), max(lengths), ratio_sum / len(lengths)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
def test_error_sweep_matches_dense_error_lengths(n, sampled):
    perm = build_permutation("random", n, seed=n)
    xs = sample_xs(n, 1 << (n - 2), seed=n + 1) if sampled else None
    for bad_mode, angle_mode in MODE_PAIRS:
        jop = _operator(n, 1, bad_mode, angle_mode, seed=n + 5)
        for with_tagged, j_values in ((True, range(n // 2)), (False, range(n // 2 + 1))):
            for j in j_values:
                summary = expected_error_sweep(perm, jop, j, with_tagged=with_tagged, xs=xs)
                mean, worst, ratio = _dense_error_sweep(
                    perm, jop, j, with_tagged, range(1 << n) if xs is None else xs)
                assert abs(summary.mean_error_len - mean) <= 1e-12
                assert abs(summary.max_error_len - worst) <= 1e-12
                assert summary.mean_ratio == ratio


def test_error_sweep_levels_match_an_fsum_reference():
    # 2^16 gaps: every level's block sums stay within 1e-15 of math.fsum's
    n = 16
    perm = build_permutation("random", n, seed=3)
    jop = build_pseudo_identity(n, 1, a=1e-8, b=4 / (1 << n), seed=5)
    gaps = (2.0 - 2.0 * jop.cosines)[perm.inverse_table]  # row v holds y = f^-1(v)
    for j in range(n // 2 + 1):
        size = 1 << (n - 2 * j)
        lengths = [math.sqrt(math.fsum(gaps[lo:lo + size]) / size) for lo in range(0, 1 << n, size)]
        want = math.fsum(lengths) / len(lengths)  # every block holds 2^(n - 2j) of the x
        # tagged stages run j = 0 .. n/2 - 1, plain ones j = 1 .. n/2
        for with_tagged in [True] * (j < n // 2) + [False] * (j > 0):
            got = expected_error_sweep(perm, jop, j, with_tagged=with_tagged).mean_error_len
            assert abs(got - want) <= 1e-15 * want, (j, with_tagged)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_identity_operator_inverts_exactly(n):
    perm = build_permutation("random", n, seed=n)
    # J = I, and a J that rotates every y alike (worst-case angles, no bad set)
    for jop in (build_pseudo_identity(n, 1), build_pseudo_identity(n, 1, a=1e-6)):
        assert np.all(stage_deficits(perm, np.arange(1 << n), jop, range(n // 2)) == 0.0)
        summary = inversion_residual_stats(perm, jop, q=2.0)
        assert summary.max_v2 == 0.0 and summary.mean_success == 1.0


def test_closed_forms_reject_bad_x():
    perm = build_permutation("random", 4, seed=1)
    jop = build_pseudo_identity(4, 1, a=1e-3, b=1 / 16, seed=2)
    for xs in ([16], [0, 16], [3, -1], []):
        with pytest.raises(ValueError, match="out of range|at least one"):
            stage_deficits(perm, xs, jop, [1])
        with pytest.raises(ValueError, match="out of range|at least one"):
            inversion_residual_stats(perm, jop, q=2.0, xs=xs)
        with pytest.raises(ValueError, match="out of range|at least one"):
            expected_error_sweep(perm, jop, 1, xs=xs)
    with pytest.raises(ValueError, match="main qubits"):
        stage_deficits(perm, [0], build_pseudo_identity(6, 1), [1])
