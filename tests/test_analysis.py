"""Error-length bounds, expectation identities, residual statistics, and the
failure-budget parameter calculus."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qperminv import (
    PseudoIdentity,
    build_permutation,
    build_pseudo_identity,
    check_error_length_bound,
    check_residual_bound,
    compute_params,
    contradiction_check,
    error_length,
    expected_error_sweep,
    inversion_residual_stats,
    sample_xs,
)
from qperminv.analysis import _holds
from qperminv.ops import _implied_cosines
from qperminv.perm import prefix_members


def random_instance(rng, n_max=8):
    n = int(2 * rng.integers(1, n_max // 2 + 1))
    size = 1 << n
    a = float(rng.choice([0.0, 1e-6, 1e-3]))
    b = float(rng.choice([0.0, 1 / 16, 1 / 4]))
    jop = build_pseudo_identity(
        n, 1, a=a, b=b,
        bad_mode=str(rng.choice(["full-rotation", "random-angle"])),
        angle_mode=str(rng.choice(["worst-case", "random"])),
        seed=int(rng.integers(0, 2**32)),
    )
    s_size = int(rng.integers(1, size + 1))
    support = rng.choice(size, size=s_size, replace=False)
    flipped = rng.choice(support, size=int(rng.integers(0, s_size + 1)), replace=False)
    return jop, support, flipped


def test_error_length_zero_for_trivial_operator():
    jop = build_pseudo_identity(4, 1)
    assert error_length(jop, range(16), [3, 5]) == 0.0


def test_error_length_singleton_bad_support():
    jop = PseudoIdentity(4, 1, 0.0, 1 / 16, [6], _implied_cosines(4, 0.0, [6]))
    assert error_length(jop, {6}) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_error_length_uniform_all_good_worst_case():
    # every component rotated by the same angle: length sqrt(2a)
    a = 0.02
    jop = build_pseudo_identity(4, 1, a=a, b=0.0)
    assert error_length(jop, range(16)) == pytest.approx(math.sqrt(2 * a), abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_error_length_does_not_depend_on_flipped_set(n):
    # J only rotates each (|z,0>, |z,1>) pair, so ||(J - I) psi(S, T)||^2 is
    # (1/|S|) * sum over S of (2 - 2 c_z) whatever T is
    rng = np.random.default_rng(n)
    perm = build_permutation("random", n, seed=n)
    jop = build_pseudo_identity(n, 1, a=1e-2, b=0.25, angle_mode="random",
                                bad_mode="random-angle", seed=n)
    for x in range(1 << n):
        for prefix_len in range(0, n + 1, 2):
            support = prefix_members(perm, x, prefix_len)
            closed = math.sqrt(float(np.mean(2.0 - 2.0 * jop.cosines[support])))
            flips = [(), support, rng.choice(support, size=support.size // 2, replace=False)]
            if prefix_len < n:
                flips.append(prefix_members(perm, x, prefix_len + 2))
            for flipped in flips:
                assert abs(error_length(jop, support, flipped) - closed) <= 1e-12


def test_error_length_bound_trivial_and_singleton():
    trivial = build_pseudo_identity(4, 1)
    rep = check_error_length_bound(trivial, range(16))
    assert rep.measured == 0.0 and rep.bound == 0.0 and rep.passed
    jop = PseudoIdentity(4, 1, 0.0, 1 / 16, [6], _implied_cosines(4, 0.0, [6]))
    rep = check_error_length_bound(jop, {6})
    assert rep.measured == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.bound == pytest.approx(2.0, abs=1e-12)
    assert rep.passed and rep.bad_overlap == 1


def test_error_length_bound_randomized_suite():
    rng = np.random.default_rng(42)
    for _ in range(300):
        jop, support, flipped = random_instance(rng)
        assert check_error_length_bound(jop, support, flipped).passed


def test_residual_bound_cases_and_suite():
    trivial = build_pseudo_identity(4, 1)
    rep = check_residual_bound(trivial, range(16), [1])
    assert rep.alpha == pytest.approx(1.0, abs=1e-12)
    assert rep.perp_norm == 0.0
    jop = PseudoIdentity(4, 1, 0.0, 1 / 16, [6], _implied_cosines(4, 0.0, [6]))
    rep = check_residual_bound(jop, {6})
    assert abs(rep.alpha) <= 1e-12
    assert rep.perp_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.error_len == pytest.approx(math.sqrt(2), abs=1e-12)
    rng = np.random.default_rng(43)
    for _ in range(300):
        jop, support, flipped = random_instance(rng)
        assert check_residual_bound(jop, support, flipped).passed


def test_expected_error_sweep_trivial_operator():
    perm = build_permutation("random", 4, seed=2)
    jop = build_pseudo_identity(4, 1)
    summary = expected_error_sweep(perm, jop, 1)
    assert summary.mean_error_len == 0.0
    assert summary.ratio_exact and summary.error_bound_ok


def test_expected_error_sweep_ratio_identity_small_case():
    perm = build_permutation("random", 4, seed=5)
    jop = PseudoIdentity(4, 1, 0.0, 3 / 16, [1, 7, 12], _implied_cosines(4, 0.0, [1, 7, 12]))
    summary = expected_error_sweep(perm, jop, 1)
    assert summary.mean_ratio == Fraction(3, 16)
    assert summary.expected_ratio == Fraction(3, 16)
    assert summary.ratio_exact
    # exhaustive: the values of a sweep over all 16 x, plus the exact identity
    assert replace(summary, ratio_exact=None) == expected_error_sweep(perm, jop, 1, xs=range(16))


@pytest.mark.parametrize("with_tagged", [True, False])
def test_expected_error_sweep_bounds_n8(with_tagged):
    perm = build_permutation("random", 8, seed=6)
    jop = build_pseudo_identity(8, 1, a=0.0, b=1 / 16, seed=4)
    j_values = range(4) if with_tagged else range(1, 5)
    for j in j_values:
        summary = expected_error_sweep(perm, jop, j, with_tagged=with_tagged)
        assert summary.ratio_exact
        assert summary.error_bound_ok


def test_expected_error_sweep_sampled_mode():
    perm = build_permutation("random", 8, seed=6)
    jop = build_pseudo_identity(8, 1, a=0.0, b=1 / 16, seed=4)
    xs = sample_xs(8, 32, seed=9)
    summary = expected_error_sweep(perm, jop, 1, xs=xs)
    lengths = [error_length(jop, prefix_members(perm, x, 2)) for x in xs]
    assert len(lengths) == 32
    assert abs(summary.mean_error_len - np.mean(lengths)) <= 1e-12
    assert summary.ratio_exact is None
    assert summary.error_bound_ok


def test_expected_error_sweep_rejects_bad_stage():
    perm = build_permutation("random", 4, seed=1)
    jop = build_pseudo_identity(4, 1)
    with pytest.raises(ValueError, match="stage"):
        expected_error_sweep(perm, jop, 2, with_tagged=True)
    expected_error_sweep(perm, jop, 2, with_tagged=False)  # plain sweep reaches one further


def test_sample_xs_is_stratified_and_deterministic():
    xs = sample_xs(6, 8, seed=3)
    assert xs == sample_xs(6, 8, seed=3)
    assert xs == sorted(xs)
    for i, x in enumerate(xs):
        assert i * 8 <= x < (i + 1) * 8
    assert len(sample_xs(2, 100, seed=0)) == 4  # clamped to the domain


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 4, 8, 14, 16])
def test_sample_xs_is_one_draw_per_slice(n):
    """The array-bounded draw gives what one `rng.integers(lo, hi)` per slice
    gives, with no warning; no count below 1 draws anything."""
    size = 1 << n
    for count in (-2, 0, 1, 3, 100, size - 1, size + 5):
        for seed in (0, 11, 2**63 + 5) if count <= 100 else (2**63 + 5,):
            rng = np.random.default_rng(seed)
            slices = min(count, size)
            expected = [int(rng.integers(i * size // slices, (i + 1) * size // slices))
                        for i in range(slices)]
            xs = sample_xs(n, count, seed)
            assert xs == expected and all(type(x) is int for x in xs)


def test_inversion_residual_stats_trivial():
    perm = build_permutation("random", 6, seed=7)
    jop = build_pseudo_identity(6, 1)
    summary = inversion_residual_stats(perm, jop, q=2.0)
    assert summary.mean_v2 == 0.0
    assert summary.markov_count == 0
    assert summary.markov_ok
    assert summary.mean_success == 1.0


def test_inversion_residual_stats_bounds_n8():
    perm = build_permutation("random", 8, seed=11)
    for m in (1, 2, 4):
        jop = build_pseudo_identity(8, 1, a=0.0, b=m / 256, seed=23)
        summary = inversion_residual_stats(perm, jop, q=2.0)
        bound = 2 * 8 * math.sqrt(m / 256)
        assert summary.residual_bound == pytest.approx(bound, abs=1e-12)
        if summary.residual_bound_applicable:
            assert summary.residual_bound_ok
        assert summary.mean_v2 <= bound + 1e-9
        markov = inversion_residual_stats(perm, jop, q=1 / (10 * summary.mean_v2))
        assert markov.markov_ok and markov.markov_count <= 256 / 10


def test_inversion_residual_bound_with_small_good_state_defect():
    # tiny a keeps the combined bound below 1, so it applies and holds
    perm = build_permutation("random", 10, seed=11)
    jop = build_pseudo_identity(10, 1, a=2.0**-30, b=1 / 1024, seed=23)
    summary = inversion_residual_stats(perm, jop, q=2.0)
    assert summary.residual_bound < 1.0
    assert summary.residual_bound_applicable
    assert summary.residual_bound_ok


def test_inversion_residuals_monotone_in_nested_bad_sets():
    perm = build_permutation("random", 8, seed=5)
    means = []
    for m in (0, 1, 2, 4):
        jop = build_pseudo_identity(8, 1, a=0.0, b=m / 256, seed=42)
        means.append(inversion_residual_stats(perm, jop, q=2.0).mean_v2)
    assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))


def test_inversion_residual_stats_rejects_bad_q():
    perm = build_permutation("random", 4, seed=1)
    jop = build_pseudo_identity(4, 1)
    with pytest.raises(ValueError, match="positive"):
        inversion_residual_stats(perm, jop, q=0.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_inversion_residual_stats_refuses_non_finite_q(q):
    # nan once gave markov_limit nan and a failed count; inf with J = I gave
    # markov_limit 0 * inf = nan, failing a count that should pass
    perm = build_permutation("identity", 4)
    with pytest.raises(ValueError, match=f"^q must be finite and positive, got {q}$"):
        inversion_residual_stats(perm, build_pseudo_identity(4, 1), q=q)
    assert inversion_residual_stats(perm, build_pseudo_identity(4, 1), q=1e300).markov_ok


def test_compute_params_examples():
    params = compute_params(1, 4)
    assert params.p == 1024.0
    assert params.q == pytest.approx(2.0, abs=1e-12)
    assert params.hard_input_count == pytest.approx(16.0, abs=1e-9)
    params = compute_params(2, 4)
    assert params.p == 5184.0
    assert params.q == pytest.approx(3.0, abs=1e-12)
    assert params.hard_input_count == pytest.approx(7.0, abs=1e-9)


def test_compute_params_identity_grid():
    for r in range(1, 21):
        for n in range(2, 21, 2):
            assert abs(compute_params(r, n).q - (r + 1)) <= 1e-12


def test_compute_params_rejects_bad_args():
    with pytest.raises(ValueError, match=">= 1"):
        compute_params(0.5, 4)
    with pytest.raises(ValueError, match="even"):
        compute_params(1, 3)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            compute_params(r, 4)
        with pytest.raises(ValueError, match="finite"):
            contradiction_check(r)


def test_contradiction_inequality():
    assert contradiction_check(1)  # 1 > 1/2
    assert contradiction_check(2)  # 7/16 > 1/3
    assert all(contradiction_check(r) for r in range(1, 101))
    with pytest.raises(ValueError):
        contradiction_check(0.2)



@pytest.mark.parametrize("measured, bound, slack", [
    (0.0, -1e-9, 1e-9), (0.5, 0.5 - 2.0**-30, 2.0**-30), (1e-12, 1e-12, 0.0), (3, 3.0, 0.0)])
def test_holds_passes_a_margin_of_minus_slack_and_fails_one_ulp_below(measured, bound, slack):
    below = float(np.nextafter(bound, -math.inf))
    assert bound - measured == -slack and below - measured < -slack
    assert _holds(measured, bound, slack) is True
    assert _holds(measured, below, slack) is False
    assert _holds(math.nan, bound, slack) is False and _holds(measured, math.nan, slack) is False
    held = _holds(np.array([measured, measured, math.nan]), np.array([bound, below, bound]), slack)
    assert held.tolist() == [True, False, False]
